//! Workspace-level randomized tests: exactness of the whole recycling
//! pipeline under randomized databases, thresholds, strategies, session
//! scripts and memory budgets.
//!
//! Cases are generated from a seeded in-repo PRNG (no proptest in
//! hermetic builds); every failure message carries the case seed so a
//! failure replays deterministically.

use gogreen::core::session::MiningSession;
use gogreen::core::utility::Strategy;
use gogreen::prelude::*;
use gogreen::storage::{LimitedHMine, LimitedRecycleHm, MemoryBudget};
use gogreen::util::rng::{Rng, SmallRng};
use gogreen_constraints::ConstraintSet;
use gogreen_miners::mine_apriori;
use std::collections::BTreeSet;

/// Random database: 1..28 tuples of 1..9 distinct items over 0..14.
fn random_db(rng: &mut SmallRng) -> TransactionDb {
    let rows = 1 + rng.gen_index(27);
    let mut txs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let len = 1 + rng.gen_index(8);
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(rng.gen_below(14) as u32);
        }
        txs.push(Transaction::from_ids(set));
    }
    TransactionDb::from_transactions(txs)
}

/// An arbitrary session script (sequence of thresholds, triggering a mix
/// of fresh/cached/filtered/recycled rounds) always matches the oracle,
/// on every engine.
#[test]
fn sessions_are_exact() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x5e55_0000 + case);
        let db = random_db(&mut rng);
        let engine = Family::ALL[rng.gen_index(4)];
        let script_len = 1 + rng.gen_index(4);
        let mut session = MiningSession::new(db.clone()).with_engine(engine);
        for _ in 0..script_len {
            let minsup = 1 + rng.gen_below(6);
            let got = session.run(ConstraintSet::support_only(MinSupport::Absolute(minsup)));
            let want = mine_apriori(&db, MinSupport::Absolute(minsup));
            assert!(got.same_patterns_as(&want), "case {case}: {engine:?} @ {minsup}");
        }
    }
}

/// Memory-limited drivers are exact for any budget, including budgets
/// small enough to force nested spills.
#[test]
fn memory_limited_drivers_are_exact() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x11e1_0000 + case);
        let db = random_db(&mut rng);
        let xi_old = 2 + rng.gen_below(4);
        let xi_new = 1 + rng.gen_below(5);
        let budget = MemoryBudget::bytes(32 + rng.gen_index(4064));
        let want = mine_apriori(&db, MinSupport::Absolute(xi_new));
        let (hm, _) =
            LimitedHMine::new(budget).mine(&db, MinSupport::Absolute(xi_new)).expect("spill i/o");
        assert!(hm.same_patterns_as(&want), "case {case}: H-Mine {} vs {}", hm.len(), want.len());
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        let (rec, _) = LimitedRecycleHm::new(budget)
            .mine(&cdb, MinSupport::Absolute(xi_new))
            .expect("spill i/o");
        assert!(rec.same_patterns_as(&want), "case {case}: HM-MCP {} vs {}", rec.len(), want.len());
    }
}

/// Chained recycling: compress with patterns that themselves came from a
/// recycled run, repeatedly. Errors would compound if any stage were
/// inexact.
#[test]
fn chained_recycling_stays_exact() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xc4a1_0000 + case);
        let db = random_db(&mut rng);
        let mut thresholds: Vec<u64> =
            (0..2 + rng.gen_index(3)).map(|_| 1 + rng.gen_below(6)).collect();
        thresholds.sort_unstable_by(|a, b| b.cmp(a)); // progressively relax
        let mut previous: Option<PatternSet> = None;
        for minsup in thresholds {
            let got = match &previous {
                None => Family::Hm.mine(&db, MinSupport::Absolute(minsup)),
                Some(fp) => {
                    let cdb = Compressor::new(Strategy::Mcp).compress(&db, fp);
                    Family::Hm.mine(&cdb, MinSupport::Absolute(minsup))
                }
            };
            let want = mine_apriori(&db, MinSupport::Absolute(minsup));
            assert!(got.same_patterns_as(&want), "case {case} @ {minsup}");
            previous = Some(got);
        }
    }
}
