//! Randomized differential tests across the baseline miners: on any
//! database and threshold, H-Mine, FP-growth, Tree Projection, Eclat and
//! the naive projected-database miner must produce exactly Apriori's set.
//! Cases come from a seeded in-repo PRNG for deterministic replay.

use gogreen_data::{MinSupport, Transaction, TransactionDb};
use gogreen_miners::engine::vt::VtRepr;
use gogreen_miners::{mine_apriori, Family, Miner, NaiveProjection};
use gogreen_util::rng::{Rng, SmallRng};
use std::collections::BTreeSet;

/// Random database: 1..40 tuples of 1..10 distinct items over 0..18.
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

fn check_against_oracle(name: &str, seed_base: u64, miner: &dyn Miner) {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed_base + case);
        let db = random_db(&mut rng);
        let minsup = 1 + rng.gen_below(7);
        let want = mine_apriori(&db, MinSupport::Absolute(minsup));
        let got = miner.mine(&db, MinSupport::Absolute(minsup));
        assert!(
            got.same_patterns_as(&want),
            "{name} case {case}: got {} want {}",
            got.len(),
            want.len()
        );
    }
}

#[test]
fn hmine_matches_oracle() {
    check_against_oracle("hmine", 0x6a3e_0001, &Family::Hm);
}

#[test]
fn fpgrowth_matches_oracle() {
    check_against_oracle("fpgrowth", 0x6a3e_0002, &Family::Fp);
}

#[test]
fn treeproj_matches_oracle() {
    check_against_oracle("treeproj", 0x6a3e_0003, &Family::Tp);
}

#[test]
fn naive_matches_oracle() {
    check_against_oracle("naive", 0x6a3e_0004, &NaiveProjection);
}

#[test]
fn eclat_matches_oracle() {
    check_against_oracle("eclat", 0x6a3e_0005, &Family::Vt(VtRepr::Auto));
}

/// Anti-monotonicity of the output itself: every subset-closed property
/// the oracle guarantees must hold for the fast miners too.
#[test]
fn output_is_subset_closed() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5b5e_7c10 + case);
        let db = random_db(&mut rng);
        let minsup = 1 + rng.gen_below(5);
        let got = Family::Fp.mine(&db, MinSupport::Absolute(minsup));
        for p in got.iter() {
            if p.len() >= 2 {
                // Dropping any one item keeps it frequent with >= support.
                let items = p.items();
                for drop in 0..items.len() {
                    let mut sub: Vec<_> = items.to_vec();
                    sub.remove(drop);
                    let sup = got.support_of(&sub);
                    assert!(sup.is_some(), "case {case}: missing subset of {p}");
                    assert!(sup.unwrap() >= p.support(), "case {case}");
                }
            }
        }
    }
}

/// Relative thresholds agree with their absolute equivalents.
#[test]
fn relative_threshold_equivalence() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x9e1a_71fe + case);
        let db = random_db(&mut rng);
        let pct = 1 + rng.gen_below(99);
        let rel = MinSupport::Relative(pct as f64 / 100.0);
        let abs = MinSupport::Absolute(rel.to_absolute(db.len()));
        let a = Family::Hm.mine(&db, rel);
        let b = Family::Hm.mine(&db, abs);
        assert!(a.same_patterns_as(&b), "case {case} pct={pct}");
    }
}
