//! Materialized projected databases (paper Definition 3.2).
//!
//! A [`RankDb`] is a database re-encoded into rank space against an
//! [`crate::FList`]: each tuple keeps only frequent items, stored as ascending
//! ranks. The `i`-projected database of the paper — "tuples containing `i`
//! with infrequent items, `i`, and items before `i` removed" — is then
//! simply: for every tuple containing rank `r`, the suffix of ranks
//! greater than `r`.

use crate::flat::{CsrTuples, TupleSlices};

/// A rank-encoded database: tuples are ascending rank rows in flat CSR
/// storage.
///
/// This is the representation the reference ("naive") projected-database
/// miner operates on; every other engine reads the compressed layout
/// ([`crate::CompressedRankDb`]), of which this is the zero-group case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankDb {
    tuples: CsrTuples<u32>,
}

impl RankDb {
    /// Adopts already-encoded CSR storage (rows ascending, non-empty).
    pub fn from_csr(tuples: CsrTuples<u32>) -> Self {
        debug_assert!(tuples.iter().all(|t| !t.is_empty() && t.windows(2).all(|w| w[0] < w[1])));
        RankDb { tuples }
    }

    /// The tuples as a CSR view.
    pub fn tuples(&self) -> TupleSlices<'_> {
        self.tuples.as_slices()
    }

    /// True when there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
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
        RankDb { tuples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressedRankDb, FList, TransactionDb};

    fn paper_rankdb() -> (RankDb, FList) {
        let db = TransactionDb::paper_example();
        let fl = FList::from_db(&db, 2);
        let encoded = CompressedRankDb::encode(&db, &fl);
        (RankDb::from_csr(encoded.plain().iter().map(<[u32]>::to_vec).collect()), fl)
    }

    fn rankdb(rows: &[&[u32]]) -> RankDb {
        RankDb::from_csr(rows.iter().map(|r| r.to_vec()).collect())
    }

    /// Per-rank occurrence counts over `rdb`'s tuples.
    fn supports(rdb: &RankDb, num_ranks: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_ranks];
        rdb.tuples().flat().iter().for_each(|&r| counts[r as usize] += 1);
        counts
    }

    #[test]
    fn encode_keeps_all_five_tuples() {
        let (rdb, fl) = paper_rankdb();
        assert_eq!(rdb.tuples().len(), 5);
        assert!(rdb.tuples().flat().iter().all(|&r| (r as usize) < fl.len()));
    }

    #[test]
    fn count_supports_matches_flist() {
        let (rdb, fl) = paper_rankdb();
        let counts = supports(&rdb, fl.len());
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
        assert_eq!(proj.tuples().len(), 2);
        let counts = supports(&proj, fl.len());
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
        let proj = rankdb(&[&[0, 1], &[1]]).project(1);
        assert!(proj.is_empty());
    }

    #[test]
    fn project_skips_tuples_without_rank() {
        let proj = rankdb(&[&[0, 2], &[1, 2]]).project(0);
        assert_eq!(proj.tuples().len(), 1);
        assert_eq!(proj.tuples().row(0), &[2]);
    }
}
