//! Microbenchmarks for the paper's three recycling pairs (Figures 9–20
//! in miniature): each family mining the raw database against its MCP
//! and MLP recycling variants, on one dense dataset and the family's
//! own second preset. A kernel group first times the bitmap popcount
//! and AND-count kernels both the vertical miner and the cover sweep
//! run on.

use gogreen_bench::{timed, BenchGroup, PAPER_FAMILIES};
use gogreen_core::{Compressor, Strategy};
use gogreen_data::bitmap;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;
use gogreen_util::rng::{Rng, SmallRng};
use std::hint::black_box;

/// Popcount and AND-count over column lengths from a short tidset (4
/// words) to a 10k-tuple column (157 words) and beyond. Each sample
/// sweeps about 2^20 words, so one timing spans many calls.
fn kernels() {
    let mut group = BenchGroup::new("bitmap");
    group.sample_size(30);
    let mut rng = SmallRng::seed_from_u64(1);
    for words in [4usize, 157, 1024, 16384] {
        let a: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
        let reps = (1 << 20) / words;
        let param = format!("{words}w");
        group.bench("popcount", &param, || {
            (0..reps).map(|_| bitmap::popcount(black_box(&a))).sum::<u64>()
        });
        group.bench("and_popcount", &param, || {
            (0..reps).map(|_| bitmap::and_popcount(black_box(&a), black_box(&b))).sum::<u64>()
        });
    }
}

fn main() {
    kernels();
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
