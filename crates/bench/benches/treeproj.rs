//! Microbenchmarks for the Tree Projection pair (Figures 11/14/17/20 in
//! miniature).

use gogreen_bench::BenchGroup;
use gogreen_core::{Compressor, Strategy};
use gogreen_data::CountSink;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};

fn main() {
    let mut group = BenchGroup::new("treeproj");
    group.sample_size(15);
    for kind in [PresetKind::Connect4, PresetKind::Forest] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        let xi_new = preset.sweep()[2];
        for (label, strategy) in [("TP-MCP", Strategy::Mcp), ("TP-MLP", Strategy::Mlp)] {
            let cdb = Compressor::new(strategy).compress(&db, &fp);
            group.bench(label, preset.name(), || {
                let mut sink = CountSink::new();
                Family::Tp.mine_into(&cdb, xi_new, &mut sink);
                sink.count()
            });
        }
        group.bench("TreeProjection", preset.name(), || {
            let mut sink = CountSink::new();
            Family::Tp.mine_into(&db, xi_new, &mut sink);
            sink.count()
        });
    }
}
