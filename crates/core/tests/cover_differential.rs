//! Differential tests for the indexed covering kernel: on random
//! databases and recycled pattern sets, the `CoverIndex` compressor —
//! serial *and* multi-threaded — must produce a `CompressedDb` identical
//! group-for-group (same groups, same order, same outliers, same plain
//! residue) to the seed's linear-scan cover, for both strategies; and the
//! recycled output must still mine exactly. Cases come from a seeded
//! in-repo PRNG; the case index in a failure message replays the input.

use gogreen_core::compress::Compressor;
use gogreen_core::utility::Strategy;
use gogreen_data::{MinSupport, Transaction, TransactionDb};
use gogreen_miners::{mine_apriori, Family, Miner};
use gogreen_util::pool::Parallelism;
use gogreen_util::rng::{Rng, SmallRng};
use std::collections::BTreeSet;

/// A random database: up to 30 tuples over up to 14 items. Skewed item
/// draws make some items rare so anchor buckets differ in size.
fn random_db(rng: &mut SmallRng) -> TransactionDb {
    let rows = 1 + rng.gen_index(29);
    let mut txs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let len = 1 + rng.gen_index(8);
        let mut set = BTreeSet::new();
        for _ in 0..len {
            // Quadratic skew: low ids frequent, high ids rare.
            let r = rng.gen_f64();
            set.insert((r * r * 14.0) as u32);
        }
        txs.push(Transaction::from_ids(set));
    }
    TransactionDb::from_transactions(txs)
}

#[test]
fn indexed_cover_matches_linear_scan() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0xc0fe_0000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let c = Compressor::new(strategy);
            let reference = c.compress_reference(&db, &fp);
            let indexed = c.compress(&db, &fp);
            assert_eq!(reference, indexed, "case {case} {strategy:?} serial");
        }
    }
}

#[test]
fn parallel_cover_is_identical_for_any_thread_count() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0xc0fe_8000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let threads = 2 + rng.gen_index(7);
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let reference = Compressor::new(strategy).compress_reference(&db, &fp);
            let parallel = Compressor::new(strategy).with_threads(threads).compress(&db, &fp);
            assert_eq!(reference, parallel, "case {case} {strategy:?} threads={threads}");
        }
    }
}

/// End-to-end exactness through the new kernel: compress (parallel) then
/// mine the compressed database (parallel FP-recycle) and compare to the
/// Apriori oracle on the original database.
#[test]
fn recycled_output_of_indexed_cover_mines_exactly() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xc0fe_f000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let xi_new = 1 + rng.gen_below(5);
        let threads = 1 + rng.gen_index(4);
        let strategy = if rng.gen_bool(0.5) { Strategy::Mlp } else { Strategy::Mcp };
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(strategy).with_threads(threads).compress(&db, &fp_old);
        let par = Parallelism::threads(threads);
        let got = Family::Fp.mine_par(&cdb, MinSupport::Absolute(xi_new), par);
        let want = mine_apriori(&db, MinSupport::Absolute(xi_new));
        assert!(
            got.same_patterns_as(&want),
            "case {case} {strategy:?} threads={threads}: got {} want {}",
            got.len(),
            want.len()
        );
    }
}
