//! Quickstart: mine, relax the threshold, recycle.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gogreen::prelude::*;
use gogreen_datagen::{DatasetPreset, PresetKind};
use std::time::Instant;

fn main() {
    // A dense synthetic dataset shaped like Connect-4 (see DESIGN.md §5).
    let db = DatasetPreset::new(PresetKind::Connect4, 0.02).generate();
    println!("dataset: {} tuples, avg length {:.1}", db.len(), db.stats().avg_len);

    // Round 1: the user starts cautiously at 95% support.
    let xi_old = MinSupport::percent(95.0);
    let t = Instant::now();
    let fp_old = Family::Hm.mine(&db, xi_old);
    println!("round 1 (ξ = 95%): {} patterns in {:.2?}", fp_old.len(), t.elapsed());

    // Round 2: too few patterns — relax to 85%. Instead of mining from
    // scratch, recycle round 1's patterns: compress, then mine the
    // compressed database.
    let xi_new = MinSupport::percent(85.0);

    let t = Instant::now();
    let compressed = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    let stats = compressed.stats();
    println!(
        "compression: {} groups cover {}/{} tuples, ratio {:.3}",
        stats.num_groups,
        stats.covered_tuples,
        stats.num_tuples,
        stats.ratio()
    );
    let recycled = Family::Hm.mine(&compressed, xi_new);
    let recycled_time = t.elapsed();

    let t = Instant::now();
    let scratch = Family::Hm.mine(&db, xi_new);
    let scratch_time = t.elapsed();

    // Recycling is exact: identical pattern set, usually much faster.
    assert!(recycled.same_patterns_as(&scratch));
    println!(
        "round 2 (ξ = 85%): {} patterns — recycled {:.2?} vs from-scratch {:.2?} ({:.1}x)",
        recycled.len(),
        recycled_time,
        scratch_time,
        scratch_time.as_secs_f64() / recycled_time.as_secs_f64().max(1e-9),
    );
}
