//! Plain-substrate regression cases, each written once over [`Family`].
//! `family_cases!` instantiates a family's cases as named `#[test]`s.

use crate::{mine_apriori, Family, Miner};
use gogreen_data::{
    CompressedRankDb, FList, FnSink, Item, MinSupport, PatternSink, Transaction, TransactionDb,
};
use gogreen_util::pool::Parallelism;
use gogreen_util::rng::{Rng, SmallRng};
use std::collections::BTreeSet;

/// `family_cases!(family; test => case, …)` expands to a `tests` module
/// with one `#[test] fn test()` per pair, running `case(family)`.
macro_rules! family_cases {
    ($family:expr; $($test:ident => $case:ident),* $(,)?) => {
        mod tests {
            $(
                #[test]
                fn $test() {
                    $crate::cases::$case($family)
                }
            )*
        }
    };
}

/// Asserts `f` mines `db` to the oracle's set at every threshold.
pub fn assert_matches_oracle(
    f: Family,
    db: &TransactionDb,
    minsups: impl IntoIterator<Item = u64>,
) {
    for minsup in minsups {
        let got = f.mine(db, MinSupport::Absolute(minsup));
        let oracle = mine_apriori(db, MinSupport::Absolute(minsup));
        assert!(
            got.same_patterns_as(&oracle),
            "{f:?} minsup={minsup}: {} vs oracle {}",
            got.len(),
            oracle.len()
        );
    }
}

pub fn paper_example_all_thresholds(f: Family) {
    assert_matches_oracle(f, &TransactionDb::paper_example(), 1..=5);
}

pub fn empty_and_singleton(f: Family) {
    assert!(f.mine(&TransactionDb::new(), MinSupport::Absolute(1)).is_empty());
    let fp = f.mine(&TransactionDb::from_rows(&[&[1]]), MinSupport::Absolute(1));
    assert_eq!(fp.len(), 1);
    assert_eq!(fp.support_of(&[Item(1)]), Some(1));
}

/// All tuples share a long prefix: deep recursion, and the relink
/// invariant across many levels.
pub fn long_shared_prefix_chain(f: Family) {
    let db = TransactionDb::from_rows(&[
        &[1, 2, 3, 4, 5, 6],
        &[1, 2, 3, 4, 5, 6],
        &[1, 2, 3, 4, 5, 7],
        &[1, 2, 3, 4, 8, 9],
    ]);
    assert_matches_oracle(f, &db, [2]);
}

/// Tuples whose first frequent items differ force queue relinks in
/// every direction.
pub fn interleaved_queues(f: Family) {
    let db = TransactionDb::from_rows(&[
        &[1, 3, 5],
        &[2, 3, 5],
        &[1, 2, 5],
        &[1, 2, 3],
        &[4, 5],
        &[1, 4],
    ]);
    assert_matches_oracle(f, &db, 1..=4);
}

/// Rows chosen so the {1}-conditional node has exactly one frequent
/// pair whose support is below both member supports: not an inclusion
/// chain, and `candidate_bound(1, 2) == 0` terminates the node without
/// materializing a child tidset (a vertical-family counter).
pub fn bound_prune_fires(f: Family) {
    let db = TransactionDb::from_rows(&[&[1, 2, 3][..], &[1, 2, 3], &[1, 2], &[1, 3], &[2, 3]]);
    let oracle = mine_apriori(&db, MinSupport::Absolute(2));
    let (got, snap) = gogreen_obs::measure(|| f.mine(&db, MinSupport::Absolute(2)));
    assert!(got.same_patterns_as(&oracle));
    assert!(snap.value("mine.bound_prunes").unwrap_or(0) >= 1, "bound prune did not fire");
    assert!(snap.value("mine.bitmap_words_scanned").unwrap_or(0) >= 1, "kernel counter missing");
}

/// Random databases: 1..40 tuples of 1..10 distinct items over 0..18.
fn random_db(rng: &mut SmallRng) -> TransactionDb {
    let rows = 1 + rng.gen_index(39);
    let mut txs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let len = 1 + rng.gen_index(9);
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(rng.gen_below(18) as u32);
        }
        txs.push(Transaction::from_ids(set));
    }
    TransactionDb::from_transactions(txs)
}

pub fn random_databases(f: Family) {
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0x7e5a_1000 + case);
        let db = random_db(&mut rng);
        assert_matches_oracle(f, &db, [1 + rng.gen_below(7)]);
    }
}

pub fn parallel_stream_is_byte_identical(f: Family) {
    let db = random_db(&mut SmallRng::seed_from_u64(0x7e5a_2000));
    let stream = |par: Parallelism| {
        let mut out: Vec<(Vec<Item>, u64)> = Vec::new();
        let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
        f.mine_into_par(&db, MinSupport::Absolute(2), par, &mut sink);
        out
    };
    let serial = stream(Parallelism::serial());
    assert!(!serial.is_empty());
    for threads in [2, 4, 8] {
        assert_eq!(serial, stream(Parallelism::threads(threads)), "{threads} threads");
    }
}

/// A family's root entry with its unit path forced: `raw = true` takes
/// the group-free fast path, `raw = false` the grouped traversal.
pub type RootWithPath<'a> =
    &'a dyn Fn(&CompressedRankDb, bool, &FList, u64, Parallelism, &mut dyn PatternSink);

/// Asserts that `mine` emits the byte-identical stream down both paths
/// on zero-group layouts — the paper example and a structured database
/// with shared prefixes and identical tuples — at ξ = 1, 2, 3, on 1 and
/// 4 threads. Plain mining always takes the fast path, so this is the
/// check that the grouped traversal still agrees with it. With `merged`
/// the layouts' repeated rows are merged into bare-only groups
/// ([`CompressedRankDb::merge_repeats`]) first; the structured
/// database's repeats make at least one such group.
pub fn fast_path_matches_grouped(mine: RootWithPath<'_>, merged: bool) {
    let structured = TransactionDb::from_rows(&[
        &[1, 2, 3, 4],
        &[1, 2, 3, 5],
        &[1, 2, 4, 5],
        &[2, 3, 4, 5],
        &[1, 2, 3],
        &[1, 2, 3],
        &[1, 2],
        &[4, 5],
        &[4, 5, 6],
        &[1, 6],
    ]);
    for (name, db) in [("paper", TransactionDb::paper_example()), ("structured", structured)] {
        for minsup in [1, 2, 3] {
            let flist = FList::from_db(&db, minsup);
            let layout = CompressedRankDb::encode(&db, &flist);
            assert_eq!(layout.num_groups(), 0);
            let layout = if merged { layout.merge_repeats() } else { layout };
            if merged && name == "structured" {
                assert!(layout.num_groups() > 0, "ξ={minsup}: no repeat merged");
            }
            for threads in [1, 4] {
                let par = Parallelism::threads(threads);
                let stream = |raw: bool| {
                    let mut out: Vec<(Vec<Item>, u64)> = Vec::new();
                    let mut sink =
                        FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
                    mine(&layout, raw, &flist, minsup, par, &mut sink);
                    out
                };
                let fast = stream(true);
                let what = format!("{name} ξ={minsup} t={threads}");
                assert!(!fast.is_empty(), "{what}: nothing mined");
                assert_eq!(fast, stream(false), "{what}: fast path and grouped streams differ");
            }
        }
    }
}
