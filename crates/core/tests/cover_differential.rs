//! Differential tests for the indexed covering kernel: on random
//! databases and recycled pattern sets, the `CoverIndex` compressor —
//! serial *and* multi-threaded — must produce a `CompressedDb` identical
//! group-for-group (same groups, same order, same outliers, same plain
//! residue) to the seed's linear-scan cover, for both strategies, whether
//! the database arrives whole or streamed in chunks; and the recycled
//! output must still mine exactly. Cases come from a seeded
//! in-repo PRNG; the case index in a failure message replays the input.

use gogreen_core::compress::Compressor;
use gogreen_core::utility::Strategy;
use gogreen_data::{MinSupport, Transaction, TransactionDb};
use gogreen_miners::{mine_apriori, Family, Miner};
use gogreen_util::pool::Parallelism;
use gogreen_util::rng::{Rng, SmallRng};
use std::collections::BTreeSet;

/// A random database: up to 30 tuples over up to 14 items. Skewed item
/// draws make some items rare so rarest-first chains differ in order.
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

/// Streaming compression is whole-database compression fed in chunks:
/// at random split points — including empty and one-row chunks — the
/// streamed result must equal both the whole-database kernel and the
/// linear-scan reference, serial and threaded.
#[test]
fn streamed_chunks_match_whole_database_and_reference() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0xc0fe_4000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let patterns = fp.as_slice();
        // Chunk lengths: mostly 0 or 1 rows, now and then a longer run.
        let mut bounds = vec![0];
        while *bounds.last().unwrap() < db.len() {
            let step = match rng.gen_index(4) {
                0 => 0,
                1 | 2 => 1,
                _ => 1 + rng.gen_index(db.len()),
            };
            bounds.push((bounds.last().unwrap() + step).min(db.len()));
        }
        bounds.push(db.len()); // a trailing empty chunk
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let reference = Compressor::new(strategy).compress_reference(&db, &fp);
            for threads in [1, 3] {
                let c = Compressor::new(strategy).with_threads(threads);
                let (whole, whole_stats) = c.compress_with_stats(&db, &fp);
                let mut stream = c.stream(patterns, db.item_supports(), db.len());
                for w in bounds.windows(2) {
                    stream.feed(db.tuples().range(w[0], w[1]));
                }
                let (streamed, stats) = stream.finish();
                let what = format!("case {case} {strategy:?} threads={threads} chunks {bounds:?}");
                assert_eq!(streamed, whole, "{what}");
                assert_eq!(streamed, reference, "{what}");
                assert_eq!(stats.num_groups, whole_stats.num_groups, "{what}");
                assert_eq!(stats.covered_tuples, whole_stats.covered_tuples, "{what}");
                assert_eq!(stats.num_tuples, db.len(), "{what}");
            }
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

/// The accumulator's counting sort on a hand-built shape: more patterns
/// than one chain block, utility order unlike pattern-index order, and
/// groups whose members are all bare next to groups with outliers. The
/// indexed kernel must equal the linear-scan reference at 1 and 3
/// threads for both strategies.
#[test]
fn counting_sorted_groups_match_reference_past_one_chain_block() {
    use gogreen_data::{Pattern, PatternSet};
    // Every pair over items 0..30: 435 patterns, supports scrambled so
    // utility order is unrelated to the pairs' index order.
    let mut fp = PatternSet::new();
    for a in 0..30u32 {
        for b in a + 1..30 {
            fp.insert(Pattern::from_ids([a, b], 1 + u64::from((a * 7 + b * 13) % 50)));
        }
    }
    assert!(fp.len() > 256, "more patterns than one chain block");
    // Each tuple holds one pair, so that pair covers it. Pairs with
    // `a % 3 == 0` are always exact (all-bare groups); the rest carry an
    // outlying item from 30..36 half the time.
    let mut rng = SmallRng::seed_from_u64(0xba5e);
    let txs: Vec<Transaction> = (0..600)
        .map(|_| {
            let a = rng.gen_below(29) as u32;
            let b = a + 1 + rng.gen_below(u64::from(29 - a)) as u32;
            let mut ids = vec![a, b];
            if !a.is_multiple_of(3) && rng.gen_bool(0.5) {
                ids.push(30 + rng.gen_below(6) as u32);
            }
            Transaction::from_ids(ids)
        })
        .collect();
    let db = TransactionDb::from_transactions(txs);
    for strategy in [Strategy::Mcp, Strategy::Mlp] {
        let reference = Compressor::new(strategy).compress_reference(&db, &fp);
        let all_bare = reference.groups().filter(|g| g.outliers.is_empty()).count();
        assert!(all_bare > 0 && all_bare < reference.num_groups(), "{strategy:?} mixes groups");
        let heads: Vec<&[gogreen_data::Item]> = reference.groups().map(|g| g.pattern).collect();
        assert!(
            heads.windows(2).any(|w| w[0] > w[1]),
            "{strategy:?}: utility order is index order"
        );
        for threads in [1, 3] {
            let indexed = Compressor::new(strategy).with_threads(threads).compress(&db, &fp);
            assert_eq!(indexed, reference, "{strategy:?} threads={threads}");
        }
    }
}
