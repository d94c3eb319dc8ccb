//! The frequent list (paper Definition 3.1).

use crate::database::TransactionDb;
use crate::flat::CsrTuples;
use crate::item::Item;

/// Sentinel rank for infrequent items.
pub const NO_RANK: u32 = u32::MAX;

/// The *F-list*: frequent items of a (projected or compressed) database
/// ordered by **ascending** support, ties broken by ascending item id.
///
/// ```
/// use gogreen_data::{FList, Item, TransactionDb};
///
/// let db = TransactionDb::paper_example();
/// let flist = FList::from_db(&db, 2);
/// // d (id 3, support 2) is the rarest frequent item → rank 0.
/// assert_eq!(flist.item(0), Item(3));
/// assert_eq!(flist.support(0), 2);
/// // b, h, i are infrequent at ξ = 2.
/// assert!(!flist.is_frequent(Item(1)));
/// ```
///
/// Every projected-database miner in this repository traverses items in
/// F-list order and defines the candidate extensions of item `i` as the
/// items *after* `i` in the F-list (paper Definition 3.3). Internally the
/// miners work in *rank space*: item `i`'s rank is its position in the
/// F-list, so "extensions of `i`" is simply "ranks greater than
/// `rank(i)`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FList {
    /// `(item, support)` ascending by `(support, item)`.
    entries: Vec<(Item, u64)>,
    /// Dense map item id → rank (`NO_RANK` if infrequent), plus one
    /// trailing `NO_RANK` slot that every id past the table clamps to.
    ranks: Vec<u32>,
    /// The absolute threshold the list was built with.
    min_support: u64,
}

impl FList {
    /// Builds the F-list of `db` at the absolute threshold `min_support`.
    pub fn from_db(db: &TransactionDb, min_support: u64) -> Self {
        Self::from_counts(&db.item_supports(), min_support)
    }

    /// Builds an F-list from per-item supports (`counts[item_id]`).
    ///
    /// This constructor is what compressed-database mining uses: the counts
    /// there come from group heads and outlying items rather than a plain
    /// scan.
    pub fn from_counts(counts: &[u64], min_support: u64) -> Self {
        let min_support = min_support.max(1);
        let mut entries: Vec<(Item, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= min_support)
            .map(|(id, &c)| (Item(id as u32), c))
            .collect();
        entries.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut ranks = vec![NO_RANK; counts.len() + 1];
        for (rank, &(item, _)) in entries.iter().enumerate() {
            ranks[item.index()] = rank as u32;
        }
        FList { entries, ranks, min_support }
    }

    /// Number of frequent items.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no item is frequent.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The threshold this list was built with.
    #[inline]
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// The item at `rank` (ascending support order).
    #[inline]
    pub fn item(&self, rank: u32) -> Item {
        self.entries[rank as usize].0
    }

    /// The support of the item at `rank`.
    #[inline]
    pub fn support(&self, rank: u32) -> u64 {
        self.entries[rank as usize].1
    }

    /// The rank of `item`, or `None` when infrequent.
    #[inline]
    pub fn rank_of(&self, item: Item) -> Option<u32> {
        match self.ranks.get(item.index()) {
            Some(&r) if r != NO_RANK => Some(r),
            _ => None,
        }
    }

    /// True when `item` meets the threshold.
    #[inline]
    pub fn is_frequent(&self, item: Item) -> bool {
        self.rank_of(item).is_some()
    }

    /// Iterates `(item, support)` in F-list (ascending) order.
    pub fn iter(&self) -> impl Iterator<Item = (Item, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Re-encodes a tuple (sorted by item id) into **sorted rank space**:
    /// infrequent items are dropped and the survivors are ordered by rank.
    /// The returned ranks index back into this F-list. It allocates per
    /// call and is kept as the reference [`FList::encode_row`] is tested
    /// against; encode passes use `encode_row`.
    pub fn encode(&self, items: &[Item]) -> Vec<u32> {
        let mut out: Vec<u32> = items.iter().filter_map(|&it| self.rank_of(it)).collect();
        out.sort_unstable();
        out
    }

    /// Encodes a tuple (sorted by item id) into **sorted rank space** as a
    /// new row of `out`: the row is committed when a frequent item
    /// survives and discarded otherwise. Returns whether it was kept.
    ///
    /// This is the one encode kernel every rank-encode pass runs (the
    /// allocating [`FList::encode`] is its reference). It is branch-free:
    /// each item's rank is written unconditionally (ids past the table
    /// read its trailing `NO_RANK` slot), and the row advances by
    /// `rank != NO_RANK`, so rows mixing frequent and infrequent items at
    /// random cost no mispredicted branch. Survivors are then sorted in
    /// place.
    pub fn encode_row(&self, items: &[Item], out: &mut CsrTuples<u32>) -> bool {
        debug_assert_eq!(out.open_len(), 0, "encode_row needs a fresh open row");
        let last = self.ranks.len() - 1;
        out.push_with(items.len(), NO_RANK, |slots| {
            let mut k = 0;
            for &it in items {
                let r = self.ranks[it.index().min(last)];
                slots[k] = r;
                k += usize::from(r != NO_RANK);
            }
            slots[..k].sort_unstable();
            k
        });
        out.commit_nonempty()
    }

    /// Decodes a slice of ranks back to items sorted by item id.
    pub fn decode(&self, ranks: &[u32]) -> Vec<Item> {
        let mut out: Vec<Item> = ranks.iter().map(|&r| self.item(r)).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_util::rng::{Rng, SmallRng};

    // Paper encoding: a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7, i=8.
    fn paper_flist(minsup: u64) -> FList {
        FList::from_db(&TransactionDb::paper_example(), minsup)
    }

    #[test]
    fn paper_flist_at_two_has_six_items() {
        let fl = paper_flist(2);
        assert_eq!(fl.len(), 6);
        // d:2 is the lowest-support frequent item, so rank 0.
        assert_eq!(fl.item(0), Item(3));
        assert_eq!(fl.support(0), 2);
        // The two rank-4/5 items are e and c, both support 4.
        let top: Vec<u64> = (4..6).map(|r| fl.support(r)).collect();
        assert_eq!(top, vec![4, 4]);
        // b, h, i are infrequent.
        for id in [1u32, 7, 8] {
            assert!(!fl.is_frequent(Item(id)));
            assert_eq!(fl.rank_of(Item(id)), None);
        }
    }

    #[test]
    fn paper_flist_at_three_drops_d() {
        let fl = paper_flist(3);
        assert_eq!(fl.len(), 5);
        assert!(!fl.is_frequent(Item(3)));
        assert!(fl.is_frequent(Item(0)));
    }

    #[test]
    fn ranks_ascend_with_support() {
        let fl = paper_flist(2);
        for r in 1..fl.len() as u32 {
            assert!(fl.support(r - 1) <= fl.support(r));
        }
    }

    #[test]
    fn ties_break_by_item_id() {
        let fl = paper_flist(2);
        // a(0), f(5), g(6) all have support 3 -> ranks 1,2,3 in id order.
        assert_eq!(fl.rank_of(Item(0)), Some(1));
        assert_eq!(fl.rank_of(Item(5)), Some(2));
        assert_eq!(fl.rank_of(Item(6)), Some(3));
    }

    #[test]
    fn encode_drops_infrequent_and_sorts_by_rank() {
        let fl = paper_flist(2);
        // Tuple 100: a c d e f g  (ids 0 2 3 4 5 6).
        let ranks = fl.encode(&[Item(0), Item(2), Item(3), Item(4), Item(5), Item(6)]);
        assert_eq!(ranks.len(), 6);
        assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ranks[0], 0); // d first (lowest support)
                                 // Tuple 500: a e h -> h dropped.
        let ranks = fl.encode(&[Item(0), Item(4), Item(7)]);
        assert_eq!(ranks.len(), 2);
    }

    #[test]
    fn encode_row_matches_encode() {
        let fl = paper_flist(2);
        let db = TransactionDb::paper_example();
        let mut csr = crate::flat::CsrTuples::new();
        let mut expect = Vec::new();
        for t in db.iter() {
            let kept = fl.encode_row(t, &mut csr);
            assert_eq!(kept, !fl.encode(t).is_empty());
            assert_eq!(csr.open_len(), 0, "the row is committed or discarded");
            if kept {
                expect.push(fl.encode(t));
            }
        }
        assert_eq!(csr.iter().map(|r| r.to_vec()).collect::<Vec<_>>(), expect);
    }

    /// The branch-free kernel against the reference on seeded random
    /// rows: ids past the F-list's table, empty rows and rows with no
    /// frequent item included.
    #[test]
    fn encode_row_matches_encode_on_random_rows() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let counts: Vec<u64> = (0..40).map(|_| rng.gen_below(12)).collect();
        for minsup in [1, 4, 8, 13] {
            let fl = FList::from_counts(&counts, minsup);
            let mut csr = CsrTuples::new();
            let mut expect = Vec::new();
            for row in 0..400 {
                // Ids up to 59: a third lie past the 40-entry table.
                let len = rng.gen_index(9);
                let mut t: Vec<Item> = (0..len).map(|_| Item(rng.gen_below(60) as u32)).collect();
                if row % 7 == 0 {
                    // All infrequent at every threshold here.
                    t = vec![Item(45), Item(50 + row as u32 % 9)];
                }
                t.sort_unstable();
                t.dedup();
                let want = fl.encode(&t);
                assert_eq!(fl.encode_row(&t, &mut csr), !want.is_empty(), "minsup {minsup} {t:?}");
                if !want.is_empty() {
                    expect.push(want);
                }
            }
            assert_eq!(csr.iter().map(|r| r.to_vec()).collect::<Vec<_>>(), expect);
            assert!(!fl.encode_row(&[], &mut csr));
        }
    }

    #[test]
    fn decode_round_trip() {
        let fl = paper_flist(2);
        let items = vec![Item(2), Item(5), Item(6)];
        let ranks = fl.encode(&items);
        assert_eq!(fl.decode(&ranks), items);
    }

    #[test]
    fn from_counts_empty_when_nothing_frequent() {
        let fl = FList::from_counts(&[1, 1, 1], 2);
        assert!(fl.is_empty());
        assert_eq!(fl.encode(&[Item(0)]), Vec::<u32>::new());
    }

    #[test]
    fn min_support_zero_normalizes_to_one() {
        let fl = FList::from_counts(&[0, 3], 0);
        assert_eq!(fl.min_support(), 1);
        assert_eq!(fl.len(), 1); // item 0 has count 0 -> not frequent
    }

    #[test]
    fn rank_of_out_of_range_item() {
        let fl = FList::from_counts(&[5], 1);
        assert_eq!(fl.rank_of(Item(100)), None);
    }
}
