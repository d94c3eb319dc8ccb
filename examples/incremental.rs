//! Incremental mining through recycling (paper §2, extension case 1):
//! the database keeps changing, and each round recycles the previous
//! round's patterns — no negative borders, no assumptions about how much
//! changed.
//!
//! ```sh
//! cargo run --release --example incremental
//! ```

use gogreen::core::incremental::IncrementalMiner;
use gogreen::prelude::*;
use gogreen_datagen::QuestGenerator;
use std::time::Instant;

fn main() {
    let gen = |seed: u64, n: usize| {
        QuestGenerator {
            num_transactions: n,
            num_items: 400,
            avg_transaction_len: 10.0,
            num_patterns: 100,
            seed,
            ..QuestGenerator::default()
        }
        .generate()
    };

    let mut inc = IncrementalMiner::new(gen(1, 30_000)).with_strategy(Strategy::Mcp);

    let t = Instant::now();
    let r1 = inc.mine(MinSupport::percent(1.0));
    println!(
        "day 1: {:>6} tuples → {:>5} patterns in {:.2?}",
        inc.db().len(),
        r1.len(),
        t.elapsed()
    );

    // Day 2: a new batch of transactions arrives.
    inc.insert(gen(2, 6_000).into_transactions());
    let t = Instant::now();
    let r2 = inc.mine(MinSupport::percent(1.0));
    println!(
        "day 2: {:>6} tuples → {:>5} patterns in {:.2?} (recycled day 1)",
        inc.db().len(),
        r2.len(),
        t.elapsed()
    );

    // Day 3: more data AND a relaxed threshold — the case classic
    // incremental techniques handle worst.
    inc.insert(gen(3, 6_000).into_transactions());
    let t = Instant::now();
    let r3 = inc.mine(MinSupport::percent(0.5));
    println!(
        "day 3: {:>6} tuples → {:>5} patterns in {:.2?} (grew + relaxed)",
        inc.db().len(),
        r3.len(),
        t.elapsed()
    );

    // Verify exactness against a from-scratch run.
    let scratch = Family::Hm.mine(inc.db(), MinSupport::percent(0.5));
    assert!(r3.same_patterns_as(&scratch));
    println!("\nexactness check vs from-scratch mining: ok ({} patterns)", scratch.len());
}
