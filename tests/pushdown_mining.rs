//! Constrained mining with search pushdown: the pruned searches must
//! emit exactly the unconstrained result filtered by the pushed
//! predicates — for plain databases (NaiveProjection, H-Mine) and for
//! compressed databases (RP-Mine: constrained *recycling*) — over seeded
//! random databases and constraint sets.

use gogreen::core::utility::Strategy;
use gogreen::prelude::*;
use gogreen::util::rng::{Rng, SmallRng};
use gogreen_constraints::{Constraint, ConstraintSet, ItemAttributes, Pushdown};
use gogreen_data::{CollectSink, SearchPrune};
use gogreen_miners::engine::hm;
use gogreen_miners::{mine_apriori, NaiveProjection};
use std::collections::BTreeSet;

/// Random database: 1..26 tuples of 1..8 distinct items over 0..12.
fn random_db(rng: &mut SmallRng) -> TransactionDb {
    let rows = 1 + rng.gen_index(25);
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

/// A random pushable constraint set.
fn random_cs(rng: &mut SmallRng) -> ConstraintSet {
    let mut cs = ConstraintSet::support_only(MinSupport::Absolute(1 + rng.gen_below(4)));
    if rng.gen_bool(0.5) {
        cs = cs.with(Constraint::MaxLength(1 + rng.gen_index(3)));
    }
    if rng.gen_bool(0.5) {
        let mut set = BTreeSet::new();
        let want = 2 + rng.gen_index(7);
        while set.len() < want {
            set.insert(rng.gen_below(12) as u32);
        }
        cs = cs.with(Constraint::SubsetOf(set.into_iter().map(Item).collect()));
    }
    if rng.gen_bool(0.5) {
        let bound = 20.0 + rng.gen_f64() * 70.0;
        cs = cs.with(Constraint::MaxSum { attr: price_attr(), bound });
    }
    cs
}

fn attrs() -> ItemAttributes {
    let mut a = ItemAttributes::new();
    let id = a.add_column((0..12).map(|i| 5.0 + 3.0 * i as f64).collect(), 5.0);
    assert_eq!(id, price_attr());
    a
}

fn price_attr() -> gogreen_constraints::AttrId {
    gogreen_constraints::AttrId(0)
}

/// The H-Mine pushdown search `gogreen mine` runs for a serial
/// constrained query.
fn hmine_pruned(db: &TransactionDb, support: MinSupport, prune: &impl SearchPrune) -> PatternSet {
    let mut sink = CollectSink::new();
    hm::mine_db_pruned(db, support, prune, &mut sink);
    sink.into_set()
}

/// The expected result: oracle output filtered by the pushed predicates.
fn expected(db: &TransactionDb, cs: &ConstraintSet, attrs: &ItemAttributes) -> PatternSet {
    let pd = Pushdown::from_constraints(cs, attrs);
    mine_apriori(db, cs.min_support()).filter(|p| pd.prefix_ok(p.items(), attrs))
}

#[test]
fn naive_pushdown_is_exact() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x4a17_0000 + case);
        let db = random_db(&mut rng);
        let cs = random_cs(&mut rng);
        let attrs = attrs();
        let pd = Pushdown::from_constraints(&cs, &attrs);
        let mut sink = CollectSink::new();
        NaiveProjection.mine_pruned(&db, cs.min_support(), &pd.search(&attrs), &mut sink);
        let got = sink.into_set();
        let want = expected(&db, &cs, &attrs);
        assert!(got.same_patterns_as(&want), "case {case}: got {} want {}", got.len(), want.len());
    }
}

#[test]
fn hmine_pushdown_is_exact() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x8517_0000 + case);
        let db = random_db(&mut rng);
        let cs = random_cs(&mut rng);
        let attrs = attrs();
        let pd = Pushdown::from_constraints(&cs, &attrs);
        let got = hmine_pruned(&db, cs.min_support(), &pd.search(&attrs));
        let want = expected(&db, &cs, &attrs);
        assert!(got.same_patterns_as(&want), "case {case}: got {} want {}", got.len(), want.len());
    }
}

#[test]
fn recycled_pushdown_is_exact() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x9ec7_0000 + case);
        let db = random_db(&mut rng);
        let cs = random_cs(&mut rng);
        let xi_old = 1 + rng.gen_below(4);
        let strategy = if rng.gen_bool(0.5) { Strategy::Mlp } else { Strategy::Mcp };
        let attrs = attrs();
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(strategy).compress(&db, &fp_old);
        let pd = Pushdown::from_constraints(&cs, &attrs);
        let mut sink = CollectSink::new();
        RpMine::default().mine_pruned(&cdb, cs.min_support(), &pd.search(&attrs), &mut sink);
        let got = sink.into_set();
        let want = expected(&db, &cs, &attrs);
        assert!(got.same_patterns_as(&want), "case {case}: got {} want {}", got.len(), want.len());
    }
}

/// Determinism sanity check with a concrete, human-auditable case.
#[test]
fn concrete_pushdown_example() {
    let db = TransactionDb::paper_example();
    let attrs = ItemAttributes::new();
    let cs = ConstraintSet::support_only(MinSupport::Absolute(2))
        .with(Constraint::MaxLength(2))
        .with(Constraint::SubsetOf(vec![Item(2), Item(3), Item(5), Item(6)]));
    let pd = Pushdown::from_constraints(&cs, &attrs);
    let got = hmine_pruned(&db, cs.min_support(), &pd.search(&attrs));
    // Allowed items: c(2), d(3), f(5), g(6); patterns of length ≤ 2 with
    // support ≥ 2: c, d, f, g, cd, cf, cg, df, dg, fg.
    assert_eq!(got.len(), 10);
    assert!(got.contains(&[Item(3), Item(6)])); // dg:2
    assert!(!got.contains(&[Item(0)])); // a excluded by SubsetOf
    assert!(!got.contains(&[Item(2), Item(5), Item(6)])); // fgc too long
}
