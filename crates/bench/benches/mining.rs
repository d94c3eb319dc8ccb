//! Microbenchmarks for the mining phase: every algorithm family, fresh
//! on the raw database and recycled on the MCP-compressed one, with the
//! first-level projection fan-out at 1/2/4/8 threads (the `param`
//! column's `tN` suffix).
//!
//! Results are archived to `BENCH_mining.json` at the repository root
//! (one JSON array of the rows printed below). On a single-core host
//! the threaded rows measure the fan-out's buffering overhead, not a
//! speedup — see EXPERIMENTS.md E6.

use gogreen_bench::{batchwork, timed, BenchGroup};
use gogreen_core::{Compressor, Strategy};
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;
use gogreen_util::ToJson;

fn main() {
    // Rows carry per-run mining counters next to the timings (see
    // BenchResult::counters) — work done, not just time spent.
    gogreen_obs::metrics::set_enabled(true);
    let mut group = BenchGroup::new("mining");
    group.sample_size(5);
    for kind in [PresetKind::Connect4, PresetKind::Weather, PresetKind::Pumsb] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        let xi_new = *preset.sweep().last().expect("non-empty sweep");
        // A k=8 Zipf-skewed multi-query fleet over the preset's sweep:
        // one shared pass at the sweep floor answers all eight.
        let ladder = batchwork::zipf_ladder(&preset.sweep(), 8);
        for threads in [1usize, 2, 4, 8] {
            let par = Parallelism::threads(threads);
            let param = format!("{}/t{}", preset.name(), threads);
            for family in Family::ALL {
                group.bench(family.name(), &param, || timed(family, &db, xi_new, par).patterns);
                group.bench(&format!("{}-MCP", family.tag()), &param, || {
                    timed(family, &cdb, xi_new, par).patterns
                });
                group.bench(&format!("{}-Batch8", family.tag()), &param, || {
                    batchwork::run_batched(&db, family, &ladder, par)
                });
            }
        }
    }

    let rows: Vec<String> =
        group.finish().iter().map(|r| format!("  {}", r.to_json().dump())).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mining.json");
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n"))).expect("write BENCH_mining.json");
    println!("wrote {path}");
}
