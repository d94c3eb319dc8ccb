//! Materialized projected databases (paper Definition 3.2).
//!
//! A [`RankDb`] is a database re-encoded into rank space against an
//! [`FList`]: each tuple keeps only frequent items, stored as ascending
//! ranks. The `i`-projected database of the paper — "tuples containing `i`
//! with infrequent items, `i`, and items before `i` removed" — is then
//! simply: for every tuple containing rank `r`, the suffix of ranks
//! greater than `r`.

use crate::database::TransactionDb;
use crate::flat::{CsrTuples, TupleSlices};
use crate::flist::FList;

/// A rank-encoded database: tuples are ascending rank rows in flat CSR
/// storage.
///
/// This is the representation the reference ("naive") projected-database
/// miner operates on, and the shape that compressed databases generalize.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankDb {
    tuples: CsrTuples<u32>,
    /// Number of distinct ranks (the F-list length at encoding time).
    num_ranks: usize,
}

impl RankDb {
    /// Encodes `db` against `flist`, dropping infrequent items and empty
    /// tuples — one pass, straight into CSR storage.
    pub fn encode(db: &TransactionDb, flist: &FList) -> Self {
        let mut tuples = CsrTuples::with_capacity(db.len(), db.csr().total_elems());
        for t in db.iter() {
            flist.encode_row(t, &mut tuples);
        }
        RankDb { tuples, num_ranks: flist.len() }
    }

    /// Builds directly from rank tuples (each sorted ascending, non-empty).
    pub fn from_tuples(tuples: Vec<Vec<u32>>, num_ranks: usize) -> Self {
        debug_assert!(tuples.iter().all(|t| !t.is_empty() && t.windows(2).all(|w| w[0] < w[1])));
        debug_assert!(tuples.iter().flatten().all(|&r| (r as usize) < num_ranks));
        RankDb { tuples: tuples.into_iter().collect(), num_ranks }
    }

    /// Adopts already-encoded CSR storage (rows ascending, non-empty).
    pub fn from_csr(tuples: CsrTuples<u32>, num_ranks: usize) -> Self {
        debug_assert!(tuples.iter().all(|t| !t.is_empty() && t.windows(2).all(|w| w[0] < w[1])));
        RankDb { tuples, num_ranks }
    }

    /// The tuples as a CSR view.
    pub fn tuples(&self) -> TupleSlices<'_> {
        self.tuples.as_slices()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of rank slots (size of the counting vector needed).
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Counts the support of every rank into `counts` (reused workhorse
    /// buffer; it is zeroed and resized here). The count ignores row
    /// boundaries, so it sweeps the flat buffer directly.
    pub fn count_supports(&self, counts: &mut Vec<u64>) {
        counts.clear();
        counts.resize(self.num_ranks, 0);
        for &r in self.tuples.flat() {
            counts[r as usize] += 1;
        }
    }

    /// Materializes the `r`-projected database: for each tuple containing
    /// `r`, the strictly-greater suffix. Tuples whose suffix is empty are
    /// dropped (they contribute only to `r`'s own support).
    pub fn project(&self, r: u32) -> RankDb {
        let mut tuples = CsrTuples::new();
        for t in self.tuples.iter() {
            if let Ok(pos) = t.binary_search(&r) {
                if pos + 1 < t.len() {
                    tuples.push_row(&t[pos + 1..]);
                }
            }
        }
        RankDb { tuples, num_ranks: self.num_ranks }
    }

    /// Support of rank `r` (full scan; used by tests).
    pub fn support_of(&self, r: u32) -> u64 {
        self.tuples.iter().filter(|t| t.binary_search(&r).is_ok()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TransactionDb;

    fn paper_rankdb() -> (RankDb, FList) {
        let db = TransactionDb::paper_example();
        let fl = FList::from_db(&db, 2);
        (RankDb::encode(&db, &fl), fl)
    }

    #[test]
    fn encode_keeps_all_five_tuples() {
        let (rdb, fl) = paper_rankdb();
        assert_eq!(rdb.len(), 5);
        assert_eq!(rdb.num_ranks(), fl.len());
    }

    #[test]
    fn count_supports_matches_flist() {
        let (rdb, fl) = paper_rankdb();
        let mut counts = Vec::new();
        rdb.count_supports(&mut counts);
        for r in 0..fl.len() as u32 {
            assert_eq!(counts[r as usize], fl.support(r), "rank {r}");
        }
    }

    #[test]
    fn project_on_lowest_rank() {
        let (rdb, fl) = paper_rankdb();
        // Rank 0 is item d (support 2): the d-projected database has two
        // source tuples (100 and 200), both with non-empty suffixes.
        let proj = rdb.project(0);
        assert_eq!(proj.len(), 2);
        let mut counts = Vec::new();
        proj.count_supports(&mut counts);
        // In d-projection: f,g,c have support 2; a,e have 1.
        let sup = |id: u32| counts[fl.rank_of(crate::Item(id)).unwrap() as usize];
        assert_eq!(sup(5), 2); // f
        assert_eq!(sup(6), 2); // g
        assert_eq!(sup(2), 2); // c
        assert_eq!(sup(0), 1); // a
        assert_eq!(sup(4), 1); // e
    }

    #[test]
    fn project_drops_empty_suffixes() {
        let rdb = RankDb::from_tuples(vec![vec![0, 1], vec![1]], 2);
        let proj = rdb.project(1);
        assert!(proj.is_empty());
    }

    #[test]
    fn project_skips_tuples_without_rank() {
        let rdb = RankDb::from_tuples(vec![vec![0, 2], vec![1, 2]], 3);
        let proj = rdb.project(0);
        assert_eq!(proj.len(), 1);
        assert_eq!(proj.tuples().row(0), &[2]);
    }

    #[test]
    fn support_of_scans() {
        let rdb = RankDb::from_tuples(vec![vec![0, 1], vec![1], vec![0]], 2);
        assert_eq!(rdb.support_of(0), 2);
        assert_eq!(rdb.support_of(1), 2);
    }
}
