//! Microbenchmarks for the paper's three recycling pairs (Figures 9–20
//! in miniature): each family mining the raw database against its MCP
//! and MLP recycling variants, on one dense dataset and the family's
//! own second preset.

use gogreen_bench::{timed, BenchGroup, PAPER_FAMILIES};
use gogreen_core::{Compressor, Strategy};
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;

fn main() {
    let mut group = BenchGroup::new("pairs");
    group.sample_size(15);
    let serial = Parallelism::serial();
    for family in PAPER_FAMILIES {
        let second = match family {
            Family::Hm => PresetKind::Weather,
            Family::Fp => PresetKind::Pumsb,
            _ => PresetKind::Forest,
        };
        for kind in [PresetKind::Connect4, second] {
            let preset = DatasetPreset::new(kind, 0.01);
            let db = preset.generate();
            let fp = Family::Hm.mine(&db, preset.xi_old());
            let xi_new = preset.sweep()[2];
            group.bench(family.name(), preset.name(), || {
                timed(family, &db, xi_new, serial).patterns
            });
            for strategy in [Strategy::Mcp, Strategy::Mlp] {
                let cdb = Compressor::new(strategy).compress(&db, &fp);
                let id = format!("{}-{}", family.tag(), strategy.suffix());
                group.bench(&id, preset.name(), || timed(family, &cdb, xi_new, serial).patterns);
            }
        }
    }
}
