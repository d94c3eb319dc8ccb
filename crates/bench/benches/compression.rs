//! Microbenchmarks for the compression phase (Table 3's time columns):
//! pattern-utility ordering plus tuple coverage, per strategy and
//! dataset regime, and the indexed cover kernel against the seed's
//! linear scan across a growing recycled-pattern set (|FP| sweep via
//! lowered ξ_old).
//!
//! Results are archived to `BENCH_compression.json` at the repository
//! root (one JSON array of the rows printed below).

use gogreen_bench::BenchGroup;
use gogreen_core::{Compressor, Strategy};
use gogreen_data::MinSupport;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_util::ToJson;

fn main() {
    // Rows carry per-run mining counters next to the timings (see
    // BenchResult::counters) — work done, not just time spent.
    gogreen_obs::metrics::set_enabled(true);
    let mut group = BenchGroup::new("compression");
    group.sample_size(20);
    for kind in [PresetKind::Connect4, PresetKind::Weather] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            group.bench(strategy.suffix(), preset.name(), || {
                Compressor::new(strategy).compress(&db, &fp)
            });
        }
    }

    // Kernel comparison: the shipped CoverIndex sweep ("indexed") vs the
    // seed's full-FP linear scan ("linear"), at growing |FP| (ξ_old
    // lowered below the preset's). Dense and sparse regimes degrade the
    // scan differently — see EXPERIMENTS.md E4.
    group.sample_size(10);
    let sweeps =
        [(PresetKind::Connect4, [0.95, 0.85, 0.75]), (PresetKind::Weather, [0.05, 0.02, 0.01])];
    for (kind, supports) in sweeps {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        for rel in supports {
            let fp = Family::Hm.mine(&db, MinSupport::Relative(rel));
            let compressor = Compressor::new(Strategy::Mcp);
            let param = format!("{}/fp{}", preset.name(), fp.len());
            group.bench("linear", &param, || compressor.compress_reference(&db, &fp));
            group.bench("indexed", &param, || compressor.compress(&db, &fp));
        }
    }

    let rows: Vec<String> =
        group.finish().iter().map(|r| format!("  {}", r.to_json().dump())).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compression.json");
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
        .expect("write BENCH_compression.json");
    println!("wrote {path}");
}
