//! Structural invariants of compression, independent of any miner:
//! losslessness, group well-formedness, coverage accounting, and the
//! semantics of the Figure 1 selection rule — over seeded random
//! databases.

use gogreen::core::utility::Strategy;
use gogreen::prelude::*;
use gogreen::util::rng::{Rng, SmallRng};
use gogreen_miners::mine_apriori;
use std::collections::BTreeSet;

/// Random database: 1..32 tuples of 1..10 distinct items over 0..16.
fn random_db(rng: &mut SmallRng) -> TransactionDb {
    let rows = 1 + rng.gen_index(31);
    let mut txs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let len = 1 + rng.gen_index(9);
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(rng.gen_below(16) as u32);
        }
        txs.push(Transaction::from_ids(set));
    }
    TransactionDb::from_transactions(txs)
}

fn all_strategies() -> [Strategy; 4] {
    [Strategy::Mcp, Strategy::Mlp, Strategy::SupportOnly, Strategy::LengthOnly]
}

/// Groups are well-formed: non-empty sorted patterns, outliers disjoint
/// from the pattern, coverage + plain = |DB|, ratio ≤ 1.
#[test]
fn group_invariants() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x6001_0000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let strategy = all_strategies()[rng.gen_index(4)];
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(strategy).compress(&db, &fp);
        let stats = cdb.stats();
        assert_eq!(stats.num_tuples, db.len(), "case {case}");
        assert_eq!(stats.covered_tuples + cdb.plain().len(), db.len(), "case {case}");
        assert!(stats.ratio() <= 1.0 + 1e-12, "case {case}");
        for g in cdb.groups() {
            assert!(!g.pattern.is_empty(), "case {case}");
            assert!(g.pattern.windows(2).all(|w| w[0] < w[1]), "case {case}");
            assert!(g.count() > 0, "case {case}");
            for o in g.outliers {
                assert!(!o.is_empty(), "case {case}");
                assert!(o.windows(2).all(|w| w[0] < w[1]), "case {case}");
                for it in o.iter() {
                    assert!(g.pattern.binary_search(it).is_err(), "case {case}");
                }
            }
        }
    }
}

/// `gogreen compress`'s bytes/tuple figure depends on the content only:
/// the compressor's output, the same groups pushed one by one, and the
/// same database saved and loaded by `storage::version` report
/// identical stats, whatever spare capacity each build left behind.
#[test]
fn stats_agree_across_builders() {
    let dir = std::env::temp_dir().join(format!("gogreen-cdbstats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut grouped = 0;
    for case in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0x6005_0000 + case);
        let db = random_db(&mut rng);
        let fp = mine_apriori(&db, MinSupport::Absolute(1 + rng.gen_below(3)));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        grouped += usize::from(cdb.num_groups() > 0);
        let mut pushed = CompressedDb::empty(cdb.stats().original_size);
        cdb.groups().for_each(|g| pushed.push_view(g));
        cdb.plain().iter().for_each(|row| pushed.push_plain(row));
        let path = dir.join(format!("case{case}.cdb"));
        gogreen::storage::version::save(&path, &cdb).unwrap();
        let loaded = gogreen::storage::version::load(&path).unwrap().expect("saved state");
        for (how, other) in [("pushed", &pushed), ("loaded", &loaded)] {
            assert_eq!(*other, cdb, "case {case}: {how} layout");
            assert_eq!(other.stats(), cdb.stats(), "case {case}: {how} stats");
        }
    }
    assert!(grouped >= 8, "only {grouped} of 16 cases compressed anything");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reconstruction returns the original multiset for every strategy.
#[test]
fn lossless_for_every_strategy() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x1055_0000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let strategy = all_strategies()[rng.gen_index(4)];
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(strategy).compress(&db, &fp);
        let rebuilt = cdb.reconstruct();
        let mut a: Vec<_> = rebuilt.iter().map(|t| t.to_vec()).collect();
        let mut b: Vec<_> = db.iter().map(|t| t.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "case {case} ({strategy:?})");
    }
}

/// Figure 1 semantics: every *plain* tuple contains no pattern from the
/// recycled set (otherwise it would have been covered).
#[test]
fn selection_rule_semantics() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5e1e_0000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        for t in cdb.plain() {
            for p in fp.iter() {
                assert!(
                    !contains_all(t, p.items()),
                    "case {case}: plain tuple {t:?} contains recycled pattern {p}"
                );
            }
        }
    }
}

/// The compressed F-list equals the plain F-list (counting through
/// groups is exact).
#[test]
fn compressed_counting_is_exact() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xc000_0000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let xi_new = 1 + rng.gen_below(5);
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        let a = cdb.flist(xi_new);
        let b = FList::from_db(&db, xi_new);
        assert_eq!(a, b, "case {case}");
    }
}

/// MCP picks, for each covered tuple, a pattern whose MCP utility is
/// maximal among the recycled patterns the tuple contains.
#[test]
fn mcp_picks_max_utility() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x3c90_0000 + case);
        let db = random_db(&mut rng);
        let xi_old = 1 + rng.gen_below(5);
        let fp = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        for g in cdb.groups() {
            let pattern_sup = fp.support_of(g.pattern).expect("group pattern from FP");
            let g_utility = Strategy::Mcp.utility(g.pattern.len(), pattern_sup, db.len());
            // Reconstruct one member and check no better pattern matched.
            let member = match g.outliers.iter().next() {
                Some(o) => {
                    let mut items = g.pattern.to_vec();
                    items.extend_from_slice(o);
                    Transaction::new(items)
                }
                None => Transaction::new(g.pattern.to_vec()),
            };
            for p in fp.iter() {
                if member.contains_all(p.items()) {
                    let u = Strategy::Mcp.utility(p.len(), p.support(), db.len());
                    assert!(
                        u <= g_utility,
                        "case {case}: pattern {p} (U={u}) beats group {:?} (U={g_utility})",
                        g.pattern
                    );
                }
            }
        }
    }
}
