//! Multi-user recycling (paper §2): "the frequent patterns discovered by
//! one user also provide opportunity for the others to recycle". Several
//! analyst threads publish what they mine into a shared store; later
//! queries recycle the richest published set.
//!
//! ```sh
//! cargo run --release --example shared_patterns
//! ```

use gogreen::core::store::PatternStore;
use gogreen::prelude::*;
use gogreen_datagen::{DatasetPreset, PresetKind};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let db = Arc::new(DatasetPreset::new(PresetKind::Connect4, 0.02).generate());
    let store = Arc::new(PatternStore::new());

    // Three analysts explore the same dataset at different thresholds
    // and publish their results.
    let mut handles = Vec::new();
    for pct in [95.0, 92.0, 90.0] {
        let db = Arc::clone(&db);
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let ms = MinSupport::percent(pct);
            let fp = Family::Hm.mine(&*db, ms);
            println!("analyst @ {pct}%: published {} patterns", fp.len());
            store.publish("connect4", ms.to_absolute(db.len()), fp);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // A fourth analyst arrives with a much lower threshold. The store
    // hands over the richest prior set (lowest ξ_old) to recycle.
    let target = MinSupport::percent(85.0);
    let (xi_old_abs, recycled) = store.best_for("connect4").expect("published sets");
    println!(
        "\nnew query @ 85%: recycling {} patterns mined at support ≥ {xi_old_abs}",
        recycled.len()
    );

    let t = Instant::now();
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &recycled);
    let fast = Family::Hm.mine(&cdb, target);
    let recycled_time = t.elapsed();

    let t = Instant::now();
    let scratch = Family::Hm.mine(&*db, target);
    let scratch_time = t.elapsed();

    assert!(fast.same_patterns_as(&scratch));
    println!(
        "result: {} patterns — recycled {recycled_time:.2?} vs from-scratch {scratch_time:.2?}",
        fast.len()
    );
}
