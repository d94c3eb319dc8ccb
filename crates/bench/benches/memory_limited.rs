//! Microbenchmarks for memory-limited mining (Figures 21–24 in
//! miniature): H-Mine vs HM-MCP under a budget tight enough to force
//! disk spills for the uncompressed structure.

use gogreen_bench::BenchGroup;
use gogreen_core::{Compressor, Strategy};
use gogreen_data::CountSink;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_storage::{LimitedHMine, LimitedRecycleHm, MemoryBudget};

fn main() {
    let mut group = BenchGroup::new("memory_limited");
    group.sample_size(10);
    let preset = DatasetPreset::new(PresetKind::Connect4, 0.01);
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    let xi_new = preset.sweep()[2];
    for budget_kib in [64usize, 512] {
        let budget = MemoryBudget::bytes(budget_kib * 1024);
        let param = format!("{budget_kib}KiB");
        group.bench("H-Mine", &param, || {
            let mut sink = CountSink::new();
            LimitedHMine::new(budget).mine_into(&db, xi_new, &mut sink).unwrap();
            sink.count()
        });
        group.bench("HM-MCP", &param, || {
            let mut sink = CountSink::new();
            LimitedRecycleHm::new(budget).mine_into(&cdb, xi_new, &mut sink).unwrap();
            sink.count()
        });
    }
}
