//! Patterns (frequent itemsets) and pattern collections.
//!
//! A [`Pattern`] keeps up to [`INLINE_ITEMS`] items in place and only
//! longer itemsets on the heap, in one shared block, so materializing a
//! result set allocates nothing per short pattern and filtering or
//! cloning one allocates nothing per pattern at all (see the memory
//! layout table in DESIGN.md).

use crate::item::Item;
#[cfg(debug_assertions)]
use gogreen_util::FxHashSet;
use gogreen_util::{FxHashMap, HeapSize};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Items a [`Pattern`] stores in place. Longer itemsets spill to one
/// heap block. On the connect4 analog's fleet 97.6 % of result patterns
/// have at most 8 items (the longest has 11).
pub const INLINE_ITEMS: usize = 8;

/// A sorted, deduplicated itemset: in place up to [`INLINE_ITEMS`]
/// items, in one reference-counted block beyond (an itemset never
/// changes, so copies share it). Hashes and compares as its item slice,
/// so a map keyed by `Itemset` is looked up with a `&[Item]`.
#[derive(Clone)]
enum Itemset {
    Inline { len: u8, items: [Item; INLINE_ITEMS] },
    Heap(Arc<[Item]>),
}

impl Itemset {
    /// Copies `items` (already canonical) into an itemset.
    fn from_canonical(items: &[Item]) -> Self {
        if items.len() <= INLINE_ITEMS {
            let mut buf = [Item(0); INLINE_ITEMS];
            buf[..items.len()].copy_from_slice(items);
            Itemset::Inline { len: items.len() as u8, items: buf }
        } else {
            Itemset::Heap(items.into())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[Item] {
        match self {
            Itemset::Inline { len, items } => &items[..*len as usize],
            Itemset::Heap(items) => items,
        }
    }
}

impl Borrow<[Item]> for Itemset {
    fn borrow(&self) -> &[Item] {
        self.as_slice()
    }
}

impl PartialEq for Itemset {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Itemset {}

impl Hash for Itemset {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl HeapSize for Itemset {
    fn heap_size(&self) -> usize {
        match self {
            Itemset::Inline { .. } => 0,
            Itemset::Heap(items) => std::mem::size_of_val::<[Item]>(items),
        }
    }
}

/// A pattern (itemset) together with its support — one element of the
/// paper's `FP` set.
///
/// Items are sorted ascending by id, so the representation is canonical.
/// Up to [`INLINE_ITEMS`] of them are stored in the value itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    items: Itemset,
    support: u64,
}

impl Pattern {
    /// Builds a pattern, sorting and deduplicating its items.
    ///
    /// # Panics
    ///
    /// Panics on an empty itemset: the paper defines patterns as non-empty
    /// subsets of `I`.
    pub fn new(mut items: Vec<Item>, support: u64) -> Self {
        items.sort_unstable();
        items.dedup();
        assert!(!items.is_empty(), "patterns are non-empty itemsets");
        Pattern { items: Itemset::from_canonical(&items), support }
    }

    /// Builds a pattern from borrowed items in any order, like
    /// [`Pattern::new`]. An itemset that fits in place is sorted and
    /// deduplicated there, with no allocation; a longer one of distinct
    /// items (what miners emit) is sorted in its one heap block.
    pub(crate) fn from_unsorted(items: &[Item], support: u64) -> Self {
        if items.len() > INLINE_ITEMS {
            let mut block: Arc<[Item]> = items.into();
            let sorted = Arc::get_mut(&mut block).expect("a fresh block is unshared");
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Pattern::new(items.to_vec(), support);
            }
            return Pattern { items: Itemset::Heap(block), support };
        }
        assert!(!items.is_empty(), "patterns are non-empty itemsets");
        let mut buf = [Item(0); INLINE_ITEMS];
        let buf_items = &mut buf[..items.len()];
        buf_items.copy_from_slice(items);
        buf_items.sort_unstable();
        let mut len = 1;
        for k in 1..items.len() {
            if buf[k] != buf[len - 1] {
                buf[len] = buf[k];
                len += 1;
            }
        }
        Pattern { items: Itemset::Inline { len: len as u8, items: buf }, support }
    }

    /// Builds from raw `u32` ids.
    pub fn from_ids(ids: impl IntoIterator<Item = u32>, support: u64) -> Self {
        Self::new(ids.into_iter().map(Item).collect(), support)
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[Item] {
        self.items.as_slice()
    }

    /// The pattern length `|X|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// Patterns are never empty; provided for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The support `X.C`.
    #[inline]
    pub fn support(&self) -> u64 {
        self.support
    }

    /// True when `self`'s itemset is a subset of `other`'s.
    pub fn is_subset_of(&self, other: &Pattern) -> bool {
        is_subset(self.items(), other.items())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, it) in self.items().iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, ":{}", self.support)
    }
}

impl HeapSize for Pattern {
    fn heap_size(&self) -> usize {
        self.items.heap_size()
    }
}

/// Subset test over two sorted item slices.
pub fn is_subset(small: &[Item], big: &[Item]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut b = big.iter();
    'outer: for s in small {
        for x in b.by_ref() {
            match x.cmp(s) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The complete set of frequent patterns produced by one mining run — the
/// paper's `FP`.
///
/// Lookup by itemset is O(1); iteration order is insertion order. Use
/// [`PatternSet::sorted`] for a canonical ordering when comparing runs.
///
/// The itemset index behind lookups is lazy: it is built on the first
/// [`support_of`](Self::support_of), [`contains`](Self::contains) or
/// [`insert`](Self::insert) and maintained from then on. Sets filled by
/// [`CollectSink`](crate::CollectSink) or [`filter`](Self::filter) —
/// whose inputs are distinct by construction — append without hashing or
/// copying a key, so a mining result nobody looks up never pays for an
/// index. Cloning a set whose index was never built does not build it.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
    index: OnceLock<FxHashMap<Itemset, usize>>,
    /// Every itemset held, so debug builds can catch an append that
    /// would break the distinctness the unindexed path relies on.
    #[cfg(debug_assertions)]
    held: FxHashSet<Itemset>,
}

impl PatternSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a pattern. Re-inserting the same itemset replaces its
    /// support (last write wins) and returns `false`.
    pub fn insert(&mut self, p: Pattern) -> bool {
        match self.index().get(p.items()) {
            Some(&at) => {
                self.patterns[at] = p;
                false
            }
            None => {
                self.push_distinct(p);
                true
            }
        }
    }

    /// Appends a pattern whose itemset the set does not hold yet. Hashes
    /// and copies the key only when the index has already been built.
    pub(crate) fn push_distinct(&mut self, p: Pattern) {
        #[cfg(debug_assertions)]
        assert!(self.held.insert(p.items.clone()), "PatternSet append of a held itemset: {p}");
        if let Some(index) = self.index.get_mut() {
            index.insert(p.items.clone(), self.patterns.len());
        }
        self.patterns.push(p);
    }

    /// The itemset index, built on first use.
    fn index(&self) -> &FxHashMap<Itemset, usize> {
        self.index.get_or_init(|| {
            self.patterns.iter().enumerate().map(|(at, p)| (p.items.clone(), at)).collect()
        })
    }

    /// The support of `items` (sorted ascending), if present.
    pub fn support_of(&self, items: &[Item]) -> Option<u64> {
        self.index().get(items).map(|&at| self.patterns[at].support)
    }

    /// True when the itemset is present.
    pub fn contains(&self, items: &[Item]) -> bool {
        self.index().contains_key(items)
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when no pattern has been inserted.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Iterates patterns in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Pattern> {
        self.patterns.iter()
    }

    /// The patterns as a slice, in insertion order.
    pub fn as_slice(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Length of the longest pattern (0 when empty) — Table 3's
    /// "maximal length" column.
    pub fn max_len(&self) -> usize {
        self.patterns.iter().map(Pattern::len).max().unwrap_or(0)
    }

    /// Returns the patterns sorted by `(items)` lexicographically — a
    /// canonical order for equality comparisons across miners.
    pub fn sorted(&self) -> Vec<Pattern> {
        let mut v = self.patterns.clone();
        v.sort_unstable_by(|a, b| a.items().cmp(b.items()));
        v
    }

    /// Retains only patterns satisfying `keep` — the paper's answer to
    /// *tightened* constraints (§2): filter the old `FP` instead of mining.
    pub fn filter(&self, mut keep: impl FnMut(&Pattern) -> bool) -> PatternSet {
        let mut out = PatternSet::new();
        for p in &self.patterns {
            if keep(p) {
                out.push_distinct(p.clone());
            }
        }
        out
    }

    /// True when both sets contain exactly the same `(itemset, support)`
    /// pairs.
    pub fn same_patterns_as(&self, other: &PatternSet) -> bool {
        self.len() == other.len()
            && self.patterns.iter().all(|p| other.support_of(p.items()) == Some(p.support()))
    }

    /// Patterns of `self` whose itemset is absent from `other` — "what
    /// appeared at the new threshold", the question an analyst asks
    /// between session rounds.
    pub fn difference(&self, other: &PatternSet) -> PatternSet {
        self.filter(|p| !other.contains(p.items()))
    }

    /// Patterns present (by itemset) in both sets, keeping `self`'s
    /// supports.
    pub fn intersection(&self, other: &PatternSet) -> PatternSet {
        self.filter(|p| other.contains(p.items()))
    }

    /// The *closed* patterns: those with no proper superset of equal
    /// support in the set. Closed patterns are a lossless summary — every
    /// frequent pattern's support is recoverable from its smallest closed
    /// superset.
    pub fn closed_only(&self) -> PatternSet {
        self.filter(|p| {
            !self
                .patterns
                .iter()
                .any(|q| q.len() > p.len() && q.support() == p.support() && p.is_subset_of(q))
        })
    }

    /// The *maximal* patterns: those with no proper superset in the set
    /// at all — the frontier of the frequent border.
    pub fn maximal_only(&self) -> PatternSet {
        self.filter(|p| !self.patterns.iter().any(|q| q.len() > p.len() && p.is_subset_of(q)))
    }
}

impl FromIterator<Pattern> for PatternSet {
    fn from_iter<T: IntoIterator<Item = Pattern>>(iter: T) -> Self {
        let mut s = PatternSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl<'a> IntoIterator for &'a PatternSet {
    type Item = &'a Pattern;
    type IntoIter = std::slice::Iter<'a, Pattern>;
    fn into_iter(self) -> Self::IntoIter {
        self.patterns.iter()
    }
}

impl HeapSize for PatternSet {
    fn heap_size(&self) -> usize {
        // Index keys share no storage with the patterns; count both
        // once the index exists.
        let keys = self.index.get().map_or(0, |index| {
            index.keys().map(|k| std::mem::size_of_val(k.as_slice())).sum::<usize>()
        });
        self.patterns.heap_size() + keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ids: &[u32], sup: u64) -> Pattern {
        Pattern::from_ids(ids.iter().copied(), sup)
    }

    #[test]
    fn pattern_canonicalizes() {
        assert_eq!(p(&[3, 1, 2], 5), p(&[1, 2, 3], 5));
        assert_eq!(p(&[1, 1, 2], 5).len(), 2);
    }

    #[test]
    fn short_and_long_itemsets_read_back_the_same_from_any_constructor() {
        for n in [1, INLINE_ITEMS - 1, INLINE_ITEMS, INLINE_ITEMS + 1, 2 * INLINE_ITEMS] {
            let ids: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let sorted = Pattern::from_ids(ids.iter().copied(), 7);
            let shuffled: Vec<Item> = ids.iter().rev().map(|&i| Item(i)).collect();
            // Miners emit in DFS order; duplicates only come from callers.
            let mut with_dups = shuffled.clone();
            with_dups.extend_from_slice(&shuffled[..1]);
            for p in [Pattern::from_unsorted(&shuffled, 7), Pattern::from_unsorted(&with_dups, 7)] {
                assert_eq!(p, sorted, "{n} items");
                assert_eq!(p.items(), ids.iter().map(|&i| Item(i)).collect::<Vec<_>>());
                assert_eq!(p.clone(), p);
            }
            let heap = if n > INLINE_ITEMS { n * std::mem::size_of::<Item>() } else { 0 };
            assert_eq!(sorted.heap_size(), heap, "{n} items");
        }
        assert_eq!(std::mem::size_of::<Pattern>(), 48);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_rejected() {
        Pattern::new(vec![], 1);
    }

    #[test]
    fn subset_tests() {
        assert!(p(&[1, 3], 1).is_subset_of(&p(&[1, 2, 3], 1)));
        assert!(!p(&[1, 4], 1).is_subset_of(&p(&[1, 2, 3], 1)));
        assert!(p(&[2], 1).is_subset_of(&p(&[2], 1)));
        assert!(!p(&[1, 2, 3], 1).is_subset_of(&p(&[1, 2], 1)));
    }

    #[test]
    fn set_insert_and_lookup() {
        let mut s = PatternSet::new();
        assert!(s.insert(p(&[1, 2], 7)));
        assert!(s.contains(&[Item(1), Item(2)]));
        assert_eq!(s.support_of(&[Item(1), Item(2)]), Some(7));
        assert_eq!(s.support_of(&[Item(1)]), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reinsert_replaces_support() {
        let mut s = PatternSet::new();
        s.insert(p(&[1], 5));
        assert!(!s.insert(p(&[1], 9)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.support_of(&[Item(1)]), Some(9));
    }

    #[test]
    fn max_len_tracks_longest() {
        let mut s = PatternSet::new();
        assert_eq!(s.max_len(), 0);
        s.insert(p(&[1], 5));
        s.insert(p(&[1, 2, 3], 2));
        assert_eq!(s.max_len(), 3);
    }

    #[test]
    fn filter_keeps_matching() {
        let s: PatternSet = [p(&[1], 5), p(&[2], 3), p(&[1, 2], 3)].into_iter().collect();
        let hi = s.filter(|q| q.support() >= 4);
        assert_eq!(hi.len(), 1);
        assert!(hi.contains(&[Item(1)]));
    }

    #[test]
    fn same_patterns_ignores_order() {
        let a: PatternSet = [p(&[1], 5), p(&[2], 3)].into_iter().collect();
        let b: PatternSet = [p(&[2], 3), p(&[1], 5)].into_iter().collect();
        assert!(a.same_patterns_as(&b));
        let c: PatternSet = [p(&[2], 3), p(&[1], 4)].into_iter().collect();
        assert!(!a.same_patterns_as(&c));
        let d: PatternSet = [p(&[2], 3)].into_iter().collect();
        assert!(!a.same_patterns_as(&d));
    }

    #[test]
    fn sorted_is_lexicographic() {
        let s: PatternSet = [p(&[2], 1), p(&[1, 3], 1), p(&[1], 1)].into_iter().collect();
        let v = s.sorted();
        assert_eq!(v[0].items(), &[Item(1)]);
        assert_eq!(v[1].items(), &[Item(1), Item(3)]);
        assert_eq!(v[2].items(), &[Item(2)]);
    }

    #[test]
    fn display_format() {
        assert_eq!(p(&[2, 1], 4).to_string(), "i1 i2:4");
    }

    #[test]
    fn difference_and_intersection() {
        let a: PatternSet = [p(&[1], 5), p(&[2], 3), p(&[1, 2], 3)].into_iter().collect();
        let b: PatternSet = [p(&[1], 9), p(&[3], 1)].into_iter().collect();
        let d = a.difference(&b);
        assert_eq!(d.len(), 2);
        assert!(d.contains(&[Item(2)]) && d.contains(&[Item(1), Item(2)]));
        let i = a.intersection(&b);
        assert_eq!(i.len(), 1);
        // Intersection keeps self's support, not other's.
        assert_eq!(i.support_of(&[Item(1)]), Some(5));
    }

    #[test]
    fn closed_patterns_drop_absorbed_subsets() {
        // fgc:3 absorbs fg:3, fc:3, gc:3, f:3, g:3 (equal support);
        // c:4 stays closed (higher support than fgc).
        let s: PatternSet = [
            p(&[5], 3),
            p(&[6], 3),
            p(&[2], 4),
            p(&[5, 6], 3),
            p(&[2, 5], 3),
            p(&[2, 6], 3),
            p(&[2, 5, 6], 3),
        ]
        .into_iter()
        .collect();
        let closed = s.closed_only();
        assert_eq!(closed.len(), 2);
        assert!(closed.contains(&[Item(2), Item(5), Item(6)]));
        assert!(closed.contains(&[Item(2)]));
    }

    #[test]
    fn maximal_patterns_keep_only_the_border() {
        let s: PatternSet =
            [p(&[1], 5), p(&[2], 4), p(&[1, 2], 3), p(&[3], 2)].into_iter().collect();
        let max = s.maximal_only();
        assert_eq!(max.len(), 2);
        assert!(max.contains(&[Item(1), Item(2)]));
        assert!(max.contains(&[Item(3)]));
    }

    /// A set filled the way miners fill one: through `CollectSink`,
    /// unsorted items, no index built.
    fn collected(patterns: &[(&[u32], u64)]) -> PatternSet {
        use crate::sink::{CollectSink, PatternSink};
        let mut sink = CollectSink::new();
        for &(ids, sup) in patterns {
            let items: Vec<Item> = ids.iter().rev().map(|&i| Item(i)).collect();
            sink.emit(&items, sup);
        }
        sink.into_set()
    }

    const FILL: &[(&[u32], u64)] = &[(&[1], 5), (&[2], 3), (&[1, 2], 3), (&[3, 1], 2)];

    #[test]
    fn collected_set_answers_lookups_before_and_after_clone() {
        let reference: PatternSet = FILL.iter().map(|&(ids, sup)| p(ids, sup)).collect();
        let fresh = collected(FILL);
        let copy = fresh.clone();
        for s in [&fresh, &copy] {
            assert_eq!(s.len(), 4);
            assert_eq!(s.support_of(&[Item(1), Item(2)]), Some(3));
            assert_eq!(s.support_of(&[Item(1), Item(3)]), Some(2));
            assert!(s.contains(&[Item(2)]));
            assert!(!s.contains(&[Item(2), Item(3)]));
            assert!(s.same_patterns_as(&reference) && reference.same_patterns_as(s));
        }
        // A clone taken after the index was built answers the same.
        let late = fresh.clone();
        assert_eq!(late.support_of(&[Item(1)]), Some(5));
        assert!(late.same_patterns_as(&copy));
    }

    #[test]
    fn insert_after_append_only_fill_replaces_support() {
        let mut s = collected(FILL);
        assert!(!s.insert(p(&[1, 2], 9)));
        assert_eq!(s.len(), 4);
        assert_eq!(s.support_of(&[Item(1), Item(2)]), Some(9));
        assert!(s.insert(p(&[4], 1)));
        assert_eq!(s.support_of(&[Item(4)]), Some(1));
        // Appends after the index exists keep it current.
        s.push_distinct(p(&[5, 4], 1));
        assert_eq!(s.support_of(&[Item(4), Item(5)]), Some(1));
    }

    #[test]
    fn filter_output_answers_lookups() {
        let hi = collected(FILL).filter(|q| q.support() >= 3);
        assert_eq!(hi.len(), 3);
        assert_eq!(hi.support_of(&[Item(1), Item(2)]), Some(3));
        assert!(!hi.contains(&[Item(1), Item(3)]));
    }

    #[test]
    fn heap_size_counts_index_keys_once_built() {
        let s = collected(FILL);
        let unindexed = s.heap_size();
        assert_eq!(unindexed, s.patterns.heap_size());
        // Cloning an unindexed set does not build an index.
        assert_eq!(s.clone().heap_size(), unindexed);
        let key_bytes = 6 * std::mem::size_of::<Item>();
        assert!(s.contains(&[Item(1)]));
        assert_eq!(s.heap_size(), unindexed + key_bytes);
        assert_eq!(s.clone().heap_size(), unindexed + key_bytes);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "append of a held itemset")]
    fn appending_a_held_itemset_panics_in_debug_builds() {
        collected(&[(&[1, 2], 3), (&[2, 1], 3)]);
    }

    #[test]
    fn closed_superset_of_maximal() {
        let s: PatternSet = [p(&[1], 5), p(&[2], 4), p(&[1, 2], 3)].into_iter().collect();
        let closed = s.closed_only();
        let maximal = s.maximal_only();
        for m in maximal.iter() {
            assert!(closed.contains(m.items()), "maximal {m} must be closed");
        }
    }
}
