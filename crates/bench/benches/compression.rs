//! Microbenchmarks for the compression phase (Table 3's time columns):
//! pattern-utility ordering plus tuple coverage, per strategy and
//! dataset regime, and the indexed cover kernel against the seed's
//! linear scan across a growing recycled-pattern set (|FP| sweep via
//! lowered ξ_old; see EXPERIMENTS.md E4).
//!
//! The rows are `perfgate::bench_rows("compression")`, the workloads
//! `repro check-perf` replays. Results are archived to
//! `BENCH_compression.json` at the repository root (one JSON array of
//! the rows printed below).

use gogreen_bench::perfgate::{bench_param, bench_rows};
use gogreen_bench::{pipeline, BenchGroup, Runner};
use gogreen_util::ToJson;

fn main() {
    // Rows carry per-run counters next to the timings (see
    // BenchResult::counters) — work done, not just time spent.
    gogreen_obs::metrics::set_enabled(true);
    let mut group = BenchGroup::new("compression");
    let mut runner = Runner::default();
    for (id, spec) in bench_rows("compression") {
        let inputs = runner.prepare(&spec);
        let param = bench_param(&id, &spec, inputs.setup.recycled);
        // The kernel sweep's rows take fewer samples.
        group.sample_size(if param.contains("/fp") { 10 } else { 20 });
        group.bench(&id, &param, || pipeline::step(&spec, &inputs).secs);
    }

    let rows: Vec<String> =
        group.finish().iter().map(|r| format!("  {}", r.to_json().dump())).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compression.json");
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
        .expect("write BENCH_compression.json");
    println!("wrote {path}");
}
