//! Microbenchmarks for the FP-tree pair (Figures 10/13/16/19 in
//! miniature).

use gogreen_bench::BenchGroup;
use gogreen_core::{Compressor, Strategy};
use gogreen_data::CountSink;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};

fn main() {
    let mut group = BenchGroup::new("fpgrowth");
    group.sample_size(15);
    for kind in [PresetKind::Connect4, PresetKind::Pumsb] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        let xi_new = preset.sweep()[2];
        for (label, strategy) in [("FP-MCP", Strategy::Mcp), ("FP-MLP", Strategy::Mlp)] {
            let cdb = Compressor::new(strategy).compress(&db, &fp);
            group.bench(label, preset.name(), || {
                let mut sink = CountSink::new();
                Family::Fp.mine_into(&cdb, xi_new, &mut sink);
                sink.count()
            });
        }
        group.bench("FP-tree", preset.name(), || {
            let mut sink = CountSink::new();
            Family::Fp.mine_into(&db, xi_new, &mut sink);
            sink.count()
        });
    }
}
