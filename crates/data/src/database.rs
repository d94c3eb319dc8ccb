//! The transaction database `DB`.

use crate::flat::{CsrTuples, TupleSlices};
use crate::item::Item;
use crate::transaction::{self, Transaction};
use gogreen_util::HeapSize;

/// A transaction database: the `DB` of the paper's problem statement.
///
/// Tuples are stored in insertion order; tuple ids are their positions.
/// Storage is flat CSR ([`CsrTuples`]): one item buffer plus offsets, so
/// whole-database scans (cover sweeps, F-list counting) walk a single
/// allocation and parallel kernels split it by index range. Tuples read
/// out as `&[Item]` slices; [`Transaction`] remains the owned boundary
/// type for construction and extraction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransactionDb {
    tuples: CsrTuples<Item>,
}

/// Summary statistics of a database, as reported in the paper's Table 3
/// (number of tuples, average tuple length, number of distinct items).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DbStats {
    /// Number of tuples.
    pub num_tuples: usize,
    /// Mean tuple length.
    pub avg_len: f64,
    /// Number of distinct items occurring at least once.
    pub num_items: usize,
    /// Largest item id occurring, if any.
    pub max_item: Option<Item>,
    /// Total number of item occurrences.
    pub total_items: usize,
    /// Mean heap bytes per tuple of the CSR storage (elements plus the
    /// offset entry); 0 for the empty database.
    pub bytes_per_tuple: f64,
}

impl TransactionDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a database from transactions.
    pub fn from_transactions(tuples: Vec<Transaction>) -> Self {
        let mut csr =
            CsrTuples::with_capacity(tuples.len(), tuples.iter().map(Transaction::len).sum());
        for t in &tuples {
            csr.push_row(t.items());
        }
        TransactionDb { tuples: csr }
    }

    /// Convenience constructor from raw id rows (used pervasively in tests).
    pub fn from_rows(rows: &[&[u32]]) -> Self {
        Self::from_transactions(
            rows.iter().map(|r| Transaction::from_ids(r.iter().copied())).collect(),
        )
    }

    /// Wraps already-validated CSR storage (each row sorted ascending,
    /// duplicate-free) as a database without copying — the zero-copy
    /// path from a loaded on-disk segment into the mining engines.
    pub fn from_csr(tuples: CsrTuples<Item>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.windows(2).all(|w| w[0] < w[1])));
        TransactionDb { tuples }
    }

    /// Appends a tuple, returning its id.
    pub fn push(&mut self, t: Transaction) -> usize {
        self.tuples.push_row(t.items());
        self.tuples.len() - 1
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the database has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuple with id `idx` (items sorted ascending).
    #[inline]
    pub fn tuple(&self, idx: usize) -> &[Item] {
        self.tuples.row(idx)
    }

    /// Iterator over tuples in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Item]> + Clone + '_ {
        self.tuples.iter()
    }

    /// All tuples as a CSR view.
    #[inline]
    pub fn tuples(&self) -> TupleSlices<'_, Item> {
        self.tuples.as_slices()
    }

    /// The underlying CSR storage.
    #[inline]
    pub fn csr(&self) -> &CsrTuples<Item> {
        &self.tuples
    }

    /// Consumes the database, yielding its CSR storage (the inverse of
    /// [`TransactionDb::from_csr`]).
    pub fn into_csr(self) -> CsrTuples<Item> {
        self.tuples
    }

    /// Consumes the database, yielding its tuples.
    pub fn into_transactions(self) -> Vec<Transaction> {
        self.tuples.iter().map(|row| Transaction::from_sorted_unchecked(row.to_vec())).collect()
    }

    /// Exact support of `pattern` (sorted ascending) by a full scan.
    ///
    /// This is the ground-truth counter used in tests and by the compression
    /// verifier; miners never call it on hot paths.
    pub fn support_of(&self, pattern: &[Item]) -> u64 {
        self.tuples.iter().filter(|t| transaction::contains_all(t, pattern)).count() as u64
    }

    /// Computes summary statistics in one pass.
    pub fn stats(&self) -> DbStats {
        // max/total come from the flat buffer directly: items are sorted
        // within a tuple, so the per-row last element is the row max, but
        // a plain max over the whole buffer is the same answer in one
        // branch-free sweep.
        let flat = self.tuples.flat();
        let total_items = flat.len();
        let max_item = flat.iter().copied().max();
        let num_items = match max_item {
            None => 0,
            Some(m) => {
                let mut seen = vec![false; m.index() + 1];
                let mut n = 0usize;
                for &it in flat {
                    if !seen[it.index()] {
                        seen[it.index()] = true;
                        n += 1;
                    }
                }
                n
            }
        };
        let num_tuples = self.tuples.len();
        let stored_bytes = std::mem::size_of_val(self.tuples.flat()) + (num_tuples + 1) * 4;
        DbStats {
            num_tuples,
            avg_len: if num_tuples == 0 { 0.0 } else { total_items as f64 / num_tuples as f64 },
            num_items,
            max_item,
            total_items,
            bytes_per_tuple: if num_tuples == 0 {
                0.0
            } else {
                stored_bytes as f64 / num_tuples as f64
            },
        }
    }

    /// Counts per-item supports into a dense vector indexed by item id.
    pub fn item_supports(&self) -> Vec<u64> {
        // Single pass: items are sorted within a tuple, so the last one
        // bounds the indices and the vector grows at most once per tuple.
        let mut counts: Vec<u64> = Vec::new();
        for t in self.tuples.iter() {
            if let Some(&last) = t.last() {
                if last.index() >= counts.len() {
                    counts.resize(last.index() + 1, 0);
                }
                for &it in t {
                    counts[it.index()] += 1;
                }
            }
        }
        counts
    }

    /// The example database of the paper's Table 1, used throughout the
    /// paper's walk-through and throughout this repository's tests.
    ///
    /// Items are encoded `a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7, i=8`.
    pub fn paper_example() -> Self {
        const A: u32 = 0;
        const B: u32 = 1;
        const C: u32 = 2;
        const D: u32 = 3;
        const E: u32 = 4;
        const F: u32 = 5;
        const G: u32 = 6;
        const H: u32 = 7;
        const I: u32 = 8;
        Self::from_rows(&[
            &[A, C, D, E, F, G], // 100
            &[B, C, D, F, G],    // 200
            &[C, E, F, G],       // 300
            &[A, C, E, I],       // 400
            &[A, E, H],          // 500
        ])
    }
}

impl HeapSize for TransactionDb {
    fn heap_size(&self) -> usize {
        self.tuples.heap_size()
    }
}

impl FromIterator<Transaction> for TransactionDb {
    fn from_iter<T: IntoIterator<Item = Transaction>>(iter: T) -> Self {
        let mut db = TransactionDb::new();
        for t in iter {
            db.push(t);
        }
        db
    }
}

impl<'a> IntoIterator for &'a TransactionDb {
    type Item = &'a [Item];
    type IntoIter = crate::flat::TupleSlicesIter<'a, Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.as_slices().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_db_stats() {
        let db = TransactionDb::new();
        let s = db.stats();
        assert_eq!(s.num_tuples, 0);
        assert_eq!(s.avg_len, 0.0);
        assert_eq!(s.num_items, 0);
        assert_eq!(s.max_item, None);
        assert_eq!(s.bytes_per_tuple, 0.0);
    }

    #[test]
    fn paper_example_shape() {
        let db = TransactionDb::paper_example();
        let s = db.stats();
        assert_eq!(s.num_tuples, 5);
        assert_eq!(s.num_items, 9);
        assert_eq!(s.total_items, 6 + 5 + 4 + 4 + 3);
        assert!((s.avg_len - 22.0 / 5.0).abs() < 1e-12);
        // 22 items * 4 bytes + 6 offsets * 4 bytes over 5 tuples.
        assert!((s.bytes_per_tuple - (22.0 * 4.0 + 6.0 * 4.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn support_of_matches_paper() {
        let db = TransactionDb::paper_example();
        // Supports from the paper: c:4, e:4, a:3, f:3, g:3, d:2.
        assert_eq!(db.support_of(&[Item(2)]), 4); // c
        assert_eq!(db.support_of(&[Item(4)]), 4); // e
        assert_eq!(db.support_of(&[Item(0)]), 3); // a
        assert_eq!(db.support_of(&[Item(3)]), 2); // d
                                                  // fgc (f=5, g=6, c=2 sorted -> [2,5,6]) has support 3.
        assert_eq!(db.support_of(&[Item(2), Item(5), Item(6)]), 3);
        // ae -> [0,4] support 3.
        assert_eq!(db.support_of(&[Item(0), Item(4)]), 3);
        assert_eq!(db.support_of(&[Item(1), Item(8)]), 0);
    }

    #[test]
    fn item_supports_dense_vector() {
        let db = TransactionDb::paper_example();
        let sup = db.item_supports();
        assert_eq!(sup.len(), 9);
        assert_eq!(sup[2], 4);
        assert_eq!(sup[3], 2);
        assert_eq!(sup[7], 1);
    }

    #[test]
    fn push_and_index() {
        let mut db = TransactionDb::new();
        let id = db.push(Transaction::from_ids([1, 2]));
        assert_eq!(id, 0);
        assert_eq!(db.tuple(0).len(), 2);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let db: TransactionDb = (0..3).map(|k| Transaction::from_ids([k, k + 1])).collect();
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn csr_storage_round_trips_transactions() {
        let db = TransactionDb::paper_example();
        let back = db.clone().into_transactions();
        assert_eq!(back.len(), 5);
        for (row, t) in db.iter().zip(&back) {
            assert_eq!(row, t.items());
        }
        assert_eq!(db.csr().total_elems(), 22);
        assert_eq!(db.tuples().len(), 5);
    }
}
