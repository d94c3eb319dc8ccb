//! Randomized differential testing: every recycling miner must produce
//! exactly the oracle's pattern set for any database, any recycled
//! pattern set (any `ξ_old`), any compression strategy, and any `ξ_new`.
//!
//! This is the central exactness guarantee of the whole system, so it
//! gets the heaviest randomized coverage in the workspace. Cases come
//! from a seeded in-repo PRNG; the case index in each failure message
//! replays the exact input.

use gogreen_core::compress::Compressor;
use gogreen_core::rpmine::RpMine;
use gogreen_core::utility::Strategy;
use gogreen_data::{MinSupport, Transaction, TransactionDb};
use gogreen_miners::{mine_apriori, Family, Miner};
use gogreen_util::pool::Parallelism;
use gogreen_util::rng::{Rng, SmallRng};
use std::collections::BTreeSet;

/// A random small database: up to 24 tuples over up to 12 items.
fn random_db(rng: &mut SmallRng) -> TransactionDb {
    let rows = 1 + rng.gen_index(23);
    let mut txs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let len = 1 + rng.gen_index(7);
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(rng.gen_below(12) as u32);
        }
        txs.push(Transaction::from_ids(set));
    }
    TransactionDb::from_transactions(txs)
}

/// One random (db, ξ_old, ξ_new, strategy) scenario.
fn scenario(rng: &mut SmallRng) -> (TransactionDb, u64, u64, Strategy) {
    let db = random_db(rng);
    let xi_old = 1 + rng.gen_below(5);
    let xi_new = 1 + rng.gen_below(5);
    let strategy = if rng.gen_bool(0.5) { Strategy::Mlp } else { Strategy::Mcp };
    (db, xi_old, xi_new, strategy)
}

fn check_exact(
    name: &str,
    seed_base: u64,
    run: impl Fn(&gogreen_core::CompressedDb, MinSupport) -> gogreen_data::PatternSet,
) {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(seed_base + case);
        let (db, xi_old, xi_new, strategy) = scenario(&mut rng);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(strategy).compress(&db, &fp_old);
        let got = run(&cdb, MinSupport::Absolute(xi_new));
        let want = mine_apriori(&db, MinSupport::Absolute(xi_new));
        assert!(
            got.same_patterns_as(&want),
            "{name} case {case}: got {} want {}",
            got.len(),
            want.len()
        );
    }
}

#[test]
fn rpmine_is_exact() {
    check_exact("rpmine", 0x4990_0000, |cdb, ms| RpMine::default().mine(cdb, ms));
}

#[test]
fn recycle_hm_is_exact() {
    check_exact("recycle_hm", 0x48e1_0000, |cdb, ms| Family::Hm.mine(cdb, ms));
}

#[test]
fn recycle_fp_is_exact() {
    check_exact("recycle_fp", 0x48f9_0000, |cdb, ms| Family::Fp.mine(cdb, ms));
}

#[test]
fn recycle_tp_is_exact() {
    check_exact("recycle_tp", 0x4879_0000, |cdb, ms| Family::Tp.mine(cdb, ms));
}

#[test]
fn compression_is_lossless() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0x1055_1e55 + case);
        let (db, xi_old, _, strategy) = scenario(&mut rng);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(strategy).compress(&db, &fp_old);
        let rebuilt = cdb.reconstruct();
        let mut a: Vec<_> = rebuilt.iter().map(|t| t.to_vec()).collect();
        let mut b: Vec<_> = db.iter().map(|t| t.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "case {case} ({strategy:?})");
    }
}

/// Parallel recycled mining partitions first-level subtrees across
/// workers; any thread count must produce the sequential answer.
#[test]
fn parallel_rpmine_is_exact() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x9a2a_11e1 + case);
        let (db, xi_old, xi_new, _) = scenario(&mut rng);
        let threads = 1 + rng.gen_index(4);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        let par = Parallelism::threads(threads);
        let got = RpMine::default().mine_par(&cdb, MinSupport::Absolute(xi_new), par);
        let want = mine_apriori(&db, MinSupport::Absolute(xi_new));
        assert!(
            got.same_patterns_as(&want),
            "case {case} threads={threads}: got {} want {}",
            got.len(),
            want.len()
        );
    }
}
