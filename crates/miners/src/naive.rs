//! The plain recursive projected-database miner.
//!
//! This is the skeleton framework of the paper's Definitions 3.1–3.3 with
//! no data-structure cleverness at all: encode the database into rank
//! space, then depth-first over the F-list, materializing each
//! `i`-projected database as a fresh vector of rank suffixes. H-Mine,
//! FP-growth and Tree Projection are progressively smarter realizations of
//! exactly this recursion, which is why this miner doubles as readable
//! documentation and as a second oracle.

use crate::common::{encode_db_pruned, RankEmitter, ScratchCounts};
use crate::Miner;
use gogreen_data::projected::RankDb;
use gogreen_data::{FList, MinSupport, NoPrune, PatternSink, SearchPrune, TransactionDb};
use gogreen_obs::metrics;

/// Reference projected-database miner.
#[derive(Debug, Default, Clone)]
pub struct NaiveProjection;

impl Miner for NaiveProjection {
    fn name(&self) -> &'static str {
        "NaiveProjection"
    }

    fn mine_into(&self, db: &TransactionDb, min_support: MinSupport, sink: &mut dyn PatternSink) {
        self.mine_pruned(db, min_support, &NoPrune, sink);
    }
}

impl NaiveProjection {
    /// Constrained mining: like [`Miner::mine_into`] but consulting
    /// `prune` to skip disallowed items and abandon subtrees whose
    /// prefix violates a pushed anti-monotone predicate. Emits exactly
    /// the frequent patterns passing the pushed checks.
    pub fn mine_pruned(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
        prune: &dyn SearchPrune,
        sink: &mut dyn PatternSink,
    ) {
        let minsup = min_support.to_absolute(db.len());
        let flist = FList::from_db(db, minsup);
        if flist.is_empty() {
            return;
        }
        // Succinct pushdown: strip disallowed items from the search
        // space. Supports of the remaining items are unaffected.
        let allowed: Vec<bool> =
            (0..flist.len() as u32).map(|r| prune.item_allowed(flist.item(r))).collect();
        let rdb = RankDb::from_csr(encode_db_pruned(db, &flist, &allowed));
        let mut emitter = RankEmitter::new(&flist);
        let mut scratch = ScratchCounts::new(flist.len());
        let root: Vec<(u32, u64)> = (0..flist.len() as u32)
            .filter(|&r| allowed[r as usize])
            .map(|r| (r, flist.support(r)))
            .collect();
        mine_rec(&rdb, &root, minsup, prune, &mut emitter, &mut scratch, sink);
    }
}

/// Depth-first recursion: for each locally frequent rank (ascending =
/// F-list order), emit, project, recurse.
fn mine_rec(
    rdb: &RankDb,
    frequent: &[(u32, u64)],
    minsup: u64,
    prune: &dyn SearchPrune,
    emitter: &mut RankEmitter<'_>,
    scratch: &mut ScratchCounts,
    sink: &mut dyn PatternSink,
) {
    for &(r, support) in frequent {
        emitter.push(r);
        // Anti-monotone pushdown: a violating prefix dooms the subtree.
        if !prune.prefix_ok(emitter.prefix()) {
            emitter.pop();
            continue;
        }
        emitter.emit(sink, support);
        if prune.may_extend(emitter.depth()) {
            let proj = rdb.project(r);
            if !proj.is_empty() {
                metrics::add("mine.projected_dbs", 1);
                metrics::set_max("mine.max_depth", emitter.depth() as u64);
                // Count extensions (ranks > r survive projection).
                let mut touches = 0u64;
                for t in proj.tuples() {
                    for &x in t {
                        scratch.add(x, 1);
                        touches += 1;
                    }
                }
                metrics::add("mine.tuple_touches", touches);
                metrics::add("mine.candidate_tests", scratch.touched().len() as u64);
                let mut sub = Vec::new();
                scratch.drain_frequent(minsup, &mut sub);
                if !sub.is_empty() {
                    mine_rec(&proj, &sub, minsup, prune, emitter, scratch, sink);
                }
            }
        }
        emitter.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_apriori;
    use gogreen_data::{Item, MinSupport};

    #[test]
    fn matches_oracle_on_paper_example() {
        let db = TransactionDb::paper_example();
        for minsup in 1..=5 {
            let naive = NaiveProjection.mine(&db, MinSupport::Absolute(minsup));
            let oracle = mine_apriori(&db, MinSupport::Absolute(minsup));
            assert!(
                naive.same_patterns_as(&oracle),
                "minsup={minsup}: naive {} vs oracle {}",
                naive.len(),
                oracle.len()
            );
        }
    }

    #[test]
    fn empty_db() {
        assert!(NaiveProjection.mine(&TransactionDb::new(), MinSupport::Absolute(1)).is_empty());
    }

    #[test]
    fn single_item_db() {
        let db = TransactionDb::from_rows(&[&[7], &[7]]);
        let fp = NaiveProjection.mine(&db, MinSupport::Absolute(2));
        assert_eq!(fp.len(), 1);
        assert_eq!(fp.support_of(&[Item(7)]), Some(2));
    }

    #[test]
    fn disjoint_transactions_produce_only_singletons() {
        let db = TransactionDb::from_rows(&[&[1, 2], &[3, 4], &[1, 2], &[3, 4]]);
        let fp = NaiveProjection.mine(&db, MinSupport::Absolute(2));
        assert_eq!(fp.len(), 6); // 4 singletons + {1,2} + {3,4}
    }
}
