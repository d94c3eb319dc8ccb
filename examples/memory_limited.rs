//! Memory-limited mining (paper §3.3 / §5.3): when the mining structure
//! would not fit the budget, the database is parallel-projected to disk
//! partitions and each partition is mined independently.
//!
//! ```sh
//! cargo run --release --example memory_limited
//! ```

use gogreen::prelude::*;
use gogreen::storage::{LimitedHMine, LimitedRecycleHm, MemoryBudget};
use gogreen_datagen::{DatasetPreset, PresetKind};
use std::time::Instant;

fn main() {
    let db = DatasetPreset::new(PresetKind::Connect4, 0.02).generate();
    let xi_old = MinSupport::percent(95.0);
    let xi_new = MinSupport::percent(88.0);
    let fp_old = Family::Hm.mine(&db, xi_old);
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    println!(
        "dataset: {} tuples; recycling {} patterns (ratio {:.3})\n",
        db.len(),
        fp_old.len(),
        cdb.stats().ratio()
    );

    for budget_kib in [usize::MAX / 1024, 256, 64] {
        let budget = if budget_kib == usize::MAX / 1024 {
            MemoryBudget::unlimited()
        } else {
            MemoryBudget::bytes(budget_kib * 1024)
        };
        let label = if budget_kib == usize::MAX / 1024 {
            "unlimited".to_owned()
        } else {
            format!("{budget_kib} KiB")
        };

        let t = Instant::now();
        let (base, rep_h) = LimitedHMine::new(budget).mine(&db, xi_new).expect("spill i/o");
        let t_h = t.elapsed();

        let t = Instant::now();
        let (rec, rep_m) = LimitedRecycleHm::new(budget).mine(&cdb, xi_new).expect("spill i/o");
        let t_m = t.elapsed();

        assert!(base.same_patterns_as(&rec));
        println!(
            "budget {label:>9}: H-Mine {t_h:>8.2?} ({} spills, {} KiB disk) | HM-MCP {t_m:>8.2?} ({} spills, {} KiB disk)",
            rep_h.spills,
            rep_h.disk_bytes / 1024,
            rep_m.spills,
            rep_m.disk_bytes / 1024,
        );
    }
    println!("\nAll runs produced the identical pattern set.");
}
