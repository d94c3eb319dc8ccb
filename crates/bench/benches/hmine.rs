//! Microbenchmarks for the H-Mine pair (Figures 9/12/15/18 in
//! miniature): the non-recycling baseline against its MCP and MLP
//! recycling variants on one dense and one sparse dataset.

use gogreen_bench::BenchGroup;
use gogreen_core::{Compressor, Strategy};
use gogreen_data::CountSink;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};

fn main() {
    let mut group = BenchGroup::new("hmine");
    group.sample_size(15);
    for kind in [PresetKind::Connect4, PresetKind::Weather] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        let xi_new = preset.sweep()[2];
        let cdb_mcp = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        let cdb_mlp = Compressor::new(Strategy::Mlp).compress(&db, &fp);
        group.bench("H-Mine", preset.name(), || {
            let mut sink = CountSink::new();
            Family::Hm.mine_into(&db, xi_new, &mut sink);
            sink.count()
        });
        group.bench("HM-MCP", preset.name(), || {
            let mut sink = CountSink::new();
            Family::Hm.mine_into(&cdb_mcp, xi_new, &mut sink);
            sink.count()
        });
        group.bench("HM-MLP", preset.name(), || {
            let mut sink = CountSink::new();
            Family::Hm.mine_into(&cdb_mlp, xi_new, &mut sink);
            sink.count()
        });
    }
}
