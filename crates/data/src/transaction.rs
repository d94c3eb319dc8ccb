//! Transactions (tuples) — sorted, duplicate-free itemsets.

use crate::item::Item;
use gogreen_util::HeapSize;
use std::fmt;

/// A single tuple of a transaction database.
///
/// Items are stored sorted ascending by id with duplicates removed, so
/// containment tests ([`Transaction::contains_all`]) are linear merges and
/// the representation is canonical: two transactions with the same item set
/// compare equal regardless of input order.
///
/// Databases store tuples in flat CSR form
/// ([`crate::TransactionDb`] over [`crate::CsrTuples`]); `Transaction`
/// is the owned boundary type for constructing and extracting individual
/// tuples. The slice-level operations ([`contains_all`],
/// [`difference_into`]) are free functions so CSR rows use them without
/// materializing a `Transaction`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    items: Box<[Item]>,
}

/// True when every item of `pattern` occurs in `tuple`. Both slices must
/// be sorted ascending; the test is a linear merge.
pub fn contains_all(tuple: &[Item], pattern: &[Item]) -> bool {
    debug_assert!(pattern.windows(2).all(|w| w[0] < w[1]));
    if pattern.len() > tuple.len() {
        return false;
    }
    let mut t = tuple.iter();
    'outer: for p in pattern {
        for it in t.by_ref() {
            match it.cmp(p) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Writes the items of `tuple` not in `pattern` (both sorted ascending)
/// to the front of `out` and returns how many it wrote: the *outlying
/// items* left over after compressing with `pattern` (paper §3.1,
/// Table 2). `out` needs at least `tuple.len()` slots. The kernel is
/// branch-free: every item is written, and the cursor advances past it
/// only when `pattern` lacks it, so a row's mix of pattern and outlying
/// items costs no mispredicted branch.
pub fn difference_into(tuple: &[Item], pattern: &[Item], out: &mut [Item]) -> usize {
    debug_assert!(pattern.windows(2).all(|w| w[0] < w[1]));
    let out = &mut out[..tuple.len()];
    let (mut k, mut p) = (0, 0);
    for &it in tuple {
        while p < pattern.len() && pattern[p] < it {
            p += 1;
        }
        let hit = pattern.get(p) == Some(&it);
        out[k] = it;
        k += usize::from(!hit);
        p += usize::from(hit);
    }
    k
}

impl Transaction {
    /// Builds a transaction from arbitrary items, sorting and deduplicating.
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        Transaction { items: items.into_boxed_slice() }
    }

    /// Builds a transaction from raw `u32` ids.
    pub fn from_ids(ids: impl IntoIterator<Item = u32>) -> Self {
        Self::new(ids.into_iter().map(Item).collect())
    }

    /// Builds from a slice already known to be sorted ascending and unique.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted_unchecked(items: Vec<Item>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items must be sorted and unique");
        Transaction { items: items.into_boxed_slice() }
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the empty tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// True when every item of `pattern` occurs in this transaction.
    /// `pattern` must be sorted ascending; the test is a linear merge.
    pub fn contains_all(&self, pattern: &[Item]) -> bool {
        contains_all(&self.items, pattern)
    }

    /// Items of this transaction not in `pattern` (both sorted): the
    /// *outlying items* left over after compressing with `pattern`
    /// (paper §3.1, Table 2).
    pub fn difference(&self, pattern: &[Item]) -> Vec<Item> {
        let mut out = vec![Item(0); self.items.len()];
        let kept = difference_into(&self.items, pattern, &mut out);
        out.truncate(kept);
        out
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (k, it) in self.items().iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, "]")
    }
}

impl HeapSize for Transaction {
    fn heap_size(&self) -> usize {
        self.items.heap_size()
    }
}

impl FromIterator<u32> for Transaction {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Transaction::from_ids(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ids: &[u32]) -> Transaction {
        Transaction::from_ids(ids.iter().copied())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let tx = t(&[5, 1, 3, 1, 5]);
        assert_eq!(tx.items(), &[Item(1), Item(3), Item(5)]);
        assert_eq!(tx.len(), 3);
    }

    #[test]
    fn canonical_equality() {
        assert_eq!(t(&[3, 1, 2]), t(&[1, 2, 3]));
        assert_ne!(t(&[1, 2]), t(&[1, 2, 3]));
    }

    #[test]
    fn contains_single() {
        let tx = t(&[2, 4, 6]);
        assert!(tx.contains(Item(4)));
        assert!(!tx.contains(Item(5)));
    }

    #[test]
    fn contains_all_subset() {
        let tx = t(&[1, 2, 3, 4, 5]);
        assert!(tx.contains_all(&[Item(2), Item(4)]));
        assert!(tx.contains_all(&[]));
        assert!(tx.contains_all(&[Item(1), Item(2), Item(3), Item(4), Item(5)]));
        assert!(!tx.contains_all(&[Item(2), Item(6)]));
        assert!(!tx.contains_all(&[Item(0)]));
    }

    #[test]
    fn contains_all_longer_pattern_fails_fast() {
        let tx = t(&[1, 2]);
        assert!(!tx.contains_all(&[Item(1), Item(2), Item(3)]));
    }

    #[test]
    fn difference_removes_pattern_items() {
        let tx = t(&[1, 2, 3, 4, 5]);
        assert_eq!(tx.difference(&[Item(2), Item(4)]), vec![Item(1), Item(3), Item(5)]);
        assert_eq!(tx.difference(&[]), tx.items().to_vec());
        assert!(tx.difference(tx.items()).is_empty());
    }

    #[test]
    fn difference_ignores_pattern_items_absent_from_tx() {
        let tx = t(&[1, 3]);
        assert_eq!(tx.difference(&[Item(2)]), vec![Item(1), Item(3)]);
    }

    /// The branch-free kernel against a `BTreeSet` difference on seeded
    /// random rows, with pattern items the tuple lacks, patterns that
    /// are subsets, and empty sides.
    #[test]
    fn difference_into_matches_set_difference_on_random_rows() {
        use gogreen_util::rng::{Rng, SmallRng};
        use std::collections::BTreeSet;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut draw = |n: usize| -> BTreeSet<Item> {
            (0..n).map(|_| Item(rng.gen_below(24) as u32)).collect()
        };
        for case in 0..600 {
            let tuple = draw(case % 13);
            let mut pattern = draw(case % 5);
            if case % 3 == 0 {
                // A subset of the tuple, as compression always passes.
                pattern = tuple.iter().copied().filter(|it| it.0 % 2 == 0).collect();
            }
            let tv: Vec<Item> = tuple.iter().copied().collect();
            let pv: Vec<Item> = pattern.iter().copied().collect();
            let mut out = vec![Item(u32::MAX); tv.len() + 2];
            let k = difference_into(&tv, &pv, &mut out);
            let want: Vec<Item> = tuple.difference(&pattern).copied().collect();
            assert_eq!(&out[..k], &want[..], "tuple {tv:?} pattern {pv:?}");
        }
    }

    #[test]
    fn empty_transaction() {
        let tx = t(&[]);
        assert!(tx.is_empty());
        assert!(tx.contains_all(&[]));
        assert!(!tx.contains(Item(0)));
    }

    #[test]
    fn display_formats_items() {
        assert_eq!(t(&[2, 1]).to_string(), "[i1 i2]");
    }
}
