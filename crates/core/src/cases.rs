//! Recycled-mining regression cases, each written once over [`Family`]
//! on compressed databases. `family_cases!` instantiates a family's
//! cases as named `#[test]`s.

use crate::compress::Compressor;
use crate::rpmine::RpMine;
use crate::utility::Strategy;
use crate::CompressedDb;
use gogreen_data::{Item, MinSupport, TransactionDb};
use gogreen_miners::{mine_apriori, Family, Miner};

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

fn compressed(db: &TransactionDb, xi_old: u64, strategy: Strategy) -> CompressedDb {
    let fp = mine_apriori(db, MinSupport::Absolute(xi_old));
    Compressor::new(strategy).compress(db, &fp)
}

/// Asserts `f` mines `cdb` to the oracle's set over `db` at every
/// threshold.
fn assert_exact(
    f: Family,
    db: &TransactionDb,
    cdb: &CompressedDb,
    minsups: std::ops::RangeInclusive<u64>,
) {
    for minsup in minsups {
        let got = f.mine(cdb, MinSupport::Absolute(minsup));
        let oracle = mine_apriori(db, MinSupport::Absolute(minsup));
        assert!(
            got.same_patterns_as(&oracle),
            "{f:?} ξ_new={minsup}: {} vs oracle {}",
            got.len(),
            oracle.len()
        );
    }
}

/// Asserts `f` agrees with RP-Mine on `cdb` at every threshold.
fn assert_agrees_with_rpmine(
    f: Family,
    cdb: &CompressedDb,
    minsups: std::ops::RangeInclusive<u64>,
) {
    for minsup in minsups {
        let got = f.mine(cdb, MinSupport::Absolute(minsup));
        let rp = RpMine::default().mine(cdb, MinSupport::Absolute(minsup));
        assert!(got.same_patterns_as(&rp), "{f:?} minsup={minsup}");
    }
}

/// Groups split by outlier projections: group {8,9} has members with
/// and without outlier 1, and deeper projections interleave pattern and
/// outlier items.
fn split_groups_db() -> TransactionDb {
    TransactionDb::from_rows(&[
        &[1, 8, 9],
        &[1, 2, 8, 9],
        &[2, 8, 9],
        &[8, 9],
        &[1, 2],
        &[1, 2, 3],
        &[2, 3, 8],
        &[1, 3, 9],
    ])
}

pub fn paper_examples_4_and_5(f: Family) {
    let db = TransactionDb::paper_example();
    let cdb = compressed(&db, 3, Strategy::Mcp);
    assert_exact(f, &db, &cdb, 2..=2);
    let fp = f.mine(&cdb, MinSupport::Absolute(2));
    let sup = |ids: &[u32]| {
        let mut v: Vec<Item> = ids.iter().map(|&i| Item(i)).collect();
        v.sort_unstable();
        fp.support_of(&v)
    };
    // Example 5 step (2): fg:3, fgc:3, fe:2, fec:2, fc:3.
    assert_eq!(sup(&[5, 6]), Some(3));
    assert_eq!(sup(&[5, 6, 2]), Some(3));
    assert_eq!(sup(&[5, 4]), Some(2));
    assert_eq!(sup(&[5, 4, 2]), Some(2));
    assert_eq!(sup(&[5, 2]), Some(3));
    // Example 5 step (4): ae:3, ace:2, ac:2.
    assert_eq!(sup(&[0, 4]), Some(3));
    assert_eq!(sup(&[0, 2, 4]), Some(2));
    assert_eq!(sup(&[0, 2]), Some(2));
}

pub fn exact_on_paper_example(f: Family) {
    let db = TransactionDb::paper_example();
    for strategy in [Strategy::Mcp, Strategy::Mlp] {
        for xi_old in [3, 4] {
            assert_exact(f, &db, &compressed(&db, xi_old, strategy), 1..=5);
        }
    }
}

/// Zero groups: the compressed substrate degenerates to plain mining.
pub fn uncompressed_is_plain(f: Family) {
    let db = TransactionDb::from_rows(&[
        &[1, 2, 5],
        &[2, 4],
        &[2, 3],
        &[1, 2, 4],
        &[1, 3],
        &[2, 3],
        &[1, 3],
        &[1, 2, 3, 5],
        &[1, 2, 3],
    ]);
    assert_exact(f, &db, &CompressedDb::uncompressed(&db), 1..=4);
}

pub fn partial_groups_in_nested_projections(f: Family) {
    let db = split_groups_db();
    for strategy in [Strategy::Mcp, Strategy::Mlp] {
        for xi_old in [2, 3, 4] {
            assert_exact(f, &db, &compressed(&db, xi_old, strategy), 1..=4);
        }
    }
}

pub fn agrees_with_rpmine_on_structured_cases(f: Family) {
    let db = TransactionDb::from_rows(&[
        &[1, 2, 3, 4],
        &[1, 2, 3, 5],
        &[1, 2, 4, 5],
        &[2, 3, 4, 5],
        &[1, 2, 3],
        &[1, 2],
        &[4, 5],
        &[4, 5, 6],
        &[1, 6],
    ]);
    assert_agrees_with_rpmine(f, &compressed(&db, 3, Strategy::Mcp), 1..=5);
}

pub fn agrees_with_rpmine(f: Family) {
    let db = split_groups_db();
    for strategy in [Strategy::Mcp, Strategy::Mlp] {
        assert_agrees_with_rpmine(f, &compressed(&db, 2, strategy), 1..=4);
    }
}

/// Identical tuples compress into a group with bare members.
pub fn bare_members_count_through_group_heads(f: Family) {
    let db =
        TransactionDb::from_rows(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3, 4], &[4, 5]]);
    let cdb = compressed(&db, 3, Strategy::Mcp);
    assert!(cdb.groups().any(|g| g.bare > 0));
    assert_exact(f, &db, &cdb, 2..=2);
}

/// Deep pattern chains force repeated pattern projections of the same
/// shared group tree.
pub fn shared_tree_bound_projection(f: Family) {
    let db = TransactionDb::from_rows(&[
        &[1, 2, 3, 4, 5, 6],
        &[1, 2, 3, 4, 5, 7],
        &[1, 2, 3, 4, 5],
        &[1, 2, 3, 4, 5, 6, 7],
        &[6, 7],
    ]);
    assert_exact(f, &db, &compressed(&db, 4, Strategy::Mcp), 1..=4);
}

/// One group, no outliers: every node collapses into subset
/// enumeration (the TP shortcut, the vertical inclusion chain).
pub fn all_bare_group_shortcut(f: Family) {
    let db = TransactionDb::from_rows(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3]]);
    let cdb = compressed(&db, 4, Strategy::Mcp);
    assert_eq!(f.mine(&cdb, MinSupport::Absolute(2)).len(), 7);
}

pub fn empty_cdb(f: Family) {
    let cdb = CompressedDb::uncompressed(&TransactionDb::new());
    assert!(f.mine(&cdb, MinSupport::Absolute(1)).is_empty());
}
