//! Microbenchmarks for the mining phase: every algorithm family, fresh
//! on the raw database, recycled on the MCP-compressed one, and batched
//! (a k=8 Zipf fleet answered by one shared pass), with the first-level
//! projection fan-out at 1/2/4/8 threads (the `param` column's `tN`
//! suffix).
//!
//! The rows are `perfgate::bench_rows("mining")`, the workloads `repro
//! check-perf` replays. Results are archived to `BENCH_mining.json` at
//! the repository root (one JSON array of the rows printed below). On a
//! single-core host the threaded rows measure the fan-out's buffering
//! overhead, not a speedup — see EXPERIMENTS.md E6.

use gogreen_bench::perfgate::{bench_param, bench_rows};
use gogreen_bench::{pipeline, BenchGroup, Runner};
use gogreen_util::ToJson;

fn main() {
    // Rows carry per-run mining counters next to the timings (see
    // BenchResult::counters) — work done, not just time spent.
    gogreen_obs::metrics::set_enabled(true);
    let mut group = BenchGroup::new("mining");
    group.sample_size(5);
    let mut runner = Runner::default();
    for (id, spec) in bench_rows("mining") {
        let inputs = runner.prepare(&spec);
        let param = bench_param(&id, &spec, inputs.setup.recycled);
        group.bench(&id, &param, || pipeline::step(&spec, &inputs).patterns);
    }

    let rows: Vec<String> =
        group.finish().iter().map(|r| format!("  {}", r.to_json().dump())).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mining.json");
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n"))).expect("write BENCH_mining.json");
    println!("wrote {path}");
}
