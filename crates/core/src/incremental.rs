//! Incremental mining via recycling — the paper's §2 extension case (1):
//! the constraints stay put (or change too), but the *database* gains or
//! loses tuples.
//!
//! Classic incremental miners (FUP and friends) carry negative borders or
//! other bookkeeping from the previous run and degrade when the database
//! changes a lot. Recycling needs none of that: the old frequent patterns
//! are *only* compression fodder, so correctness never depends on how
//! stale they are — staleness merely costs compression quality. This
//! module packages that workflow.

use crate::compress::Compressor;
use crate::utility::Strategy;
use gogreen_data::{CompressedDb, MinSupport, PatternSet, Transaction, TransactionDb};
use gogreen_miners::{Family, Miner};

/// An evolving database whose mining rounds recycle earlier rounds'
/// patterns across updates.
pub struct IncrementalMiner {
    db: TransactionDb,
    strategy: Strategy,
    /// Patterns from the most recent mining round (over whatever version
    /// of the database was current then).
    recycled: Option<PatternSet>,
}

impl IncrementalMiner {
    /// Starts from an initial database.
    pub fn new(db: TransactionDb) -> Self {
        IncrementalMiner { db, strategy: Strategy::Mcp, recycled: None }
    }

    /// Selects the compression strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Current database.
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// Appends tuples.
    pub fn insert(&mut self, tuples: impl IntoIterator<Item = Transaction>) {
        for t in tuples {
            self.db.push(t);
        }
    }

    /// Removes every tuple equal to `tuple` (multiset removal of all
    /// occurrences); returns how many were removed.
    pub fn remove_all(&mut self, tuple: &Transaction) -> usize {
        let before = self.db.len();
        let kept: Vec<Transaction> = self
            .db
            .iter()
            .filter(|t| *t != tuple.items())
            .map(|t| Transaction::from_sorted_unchecked(t.to_vec()))
            .collect();
        self.db = TransactionDb::from_transactions(kept);
        before - self.db.len()
    }

    /// Replaces the database wholesale (e.g. a fresh snapshot load).
    pub fn replace_db(&mut self, db: TransactionDb) {
        self.db = db;
    }

    /// Mines the *current* database at `min_support`, recycling the
    /// previous round's patterns when available, and stashes the result
    /// for the next round. Exact regardless of how much the database
    /// changed since the recycled patterns were mined.
    pub fn mine(&mut self, min_support: MinSupport) -> PatternSet {
        let result = match &self.recycled {
            Some(old) if !old.is_empty() => {
                let cdb = Compressor::new(self.strategy).compress(&self.db, old);
                Family::Hm.mine(&cdb, min_support)
            }
            _ => {
                // Nothing to recycle: mine the trivial compression (all
                // plain), which is plain H-Mine-style mining.
                let cdb = CompressedDb::uncompressed(&self.db);
                Family::Hm.mine(&cdb, min_support)
            }
        };
        self.recycled = Some(result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_miners::mine_apriori;

    #[test]
    fn growing_database_stays_exact() {
        let mut inc = IncrementalMiner::new(TransactionDb::paper_example());
        let r1 = inc.mine(MinSupport::Absolute(3));
        assert!(r1.same_patterns_as(&mine_apriori(inc.db(), MinSupport::Absolute(3))));

        // Add tuples that shift supports around.
        inc.insert([
            Transaction::from_ids([0, 2, 4]),
            Transaction::from_ids([2, 5, 6]),
            Transaction::from_ids([1, 3]),
        ]);
        let r2 = inc.mine(MinSupport::Absolute(3));
        assert!(r2.same_patterns_as(&mine_apriori(inc.db(), MinSupport::Absolute(3))));

        // And a relaxation on the grown database.
        let r3 = inc.mine(MinSupport::Absolute(2));
        assert!(r3.same_patterns_as(&mine_apriori(inc.db(), MinSupport::Absolute(2))));
    }

    #[test]
    fn shrinking_database_stays_exact() {
        // Existing incremental techniques "become awkward when the size
        // of the data set reduces" (paper §6); recycling does not care.
        let mut inc = IncrementalMiner::new(TransactionDb::paper_example());
        inc.mine(MinSupport::Absolute(2));
        let removed = inc.remove_all(&Transaction::from_ids([0u32, 4, 7])); // tuple 500
        assert_eq!(removed, 1);
        let r = inc.mine(MinSupport::Absolute(2));
        assert!(r.same_patterns_as(&mine_apriori(inc.db(), MinSupport::Absolute(2))));
    }

    #[test]
    fn drastic_replacement_stays_exact() {
        let mut inc = IncrementalMiner::new(TransactionDb::paper_example());
        inc.mine(MinSupport::Absolute(3));
        // Replace with a database sharing almost nothing.
        inc.replace_db(TransactionDb::from_rows(&[
            &[100, 101],
            &[100, 101, 102],
            &[100, 102],
            &[101, 102],
        ]));
        let r = inc.mine(MinSupport::Absolute(2));
        assert!(r.same_patterns_as(&mine_apriori(inc.db(), MinSupport::Absolute(2))));
    }

    #[test]
    fn first_round_without_recycled_patterns() {
        let mut inc = IncrementalMiner::new(TransactionDb::from_rows(&[&[1, 2], &[1, 2]]));
        let r = inc.mine(MinSupport::Absolute(2));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty_database_round() {
        let mut inc = IncrementalMiner::new(TransactionDb::new());
        assert!(inc.mine(MinSupport::Absolute(1)).is_empty());
        inc.insert([Transaction::from_ids([1u32, 2])]);
        let r = inc.mine(MinSupport::Absolute(1));
        assert_eq!(r.len(), 3);
    }
}
