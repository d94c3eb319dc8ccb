//! The compressed database (paper §3.1, Table 2) — and the one rank
//! substrate every mining engine reads.
//!
//! A compressed database partitions the tuples of the original database
//! into *groups* — tuples covered by the same recycled pattern, stored as
//! the pattern (once) plus each member's *outlying items* — and a residue
//! of *plain* tuples no pattern covered. Compression is lossless:
//! [`CompressedDb::reconstruct`] returns the original tuple multiset.
//!
//! One layout, [`CdbLayout`], holds both id spaces: [`CompressedDb`] is
//! its [`Item`] instantiation, and [`CompressedRankDb`] — re-encoded
//! against an F-list for mining — its `u32` rank one. The paper's
//! identity that a raw database is a compressed one whose groups are all
//! empty is taken literally: a plain database reaches the engines as a
//! [`CompressedRankDb`] with zero groups ([`CompressedRankDb::encode`]),
//! or — for engines that walk every row — with its repeated rows merged
//! into groups whose members are all bare
//! ([`CompressedRankDb::merge_repeats`]), and each engine chooses its
//! fast path from what the layout holds. Storage is three flat CSR
//! sections ([`CsrTuples`]) plus two per-group scalars:
//!
//! ```text
//! patterns      row g                = group g's pattern head (ascending)
//! outliers      rows [s_g, s_{g+1})  where s = outlier_start
//!                                    = group g's outlier member rows
//! bare[g]                            = members with no outlying items
//! plain         rows                 = tuples covered by no group
//! ```
//!
//! Engines receive `&[u32]` row slices of shared buffers, and a
//! whole-database count sweeps one allocation per section. A group reads
//! out as a borrowed [`GroupView`] — pattern slice, outlier rows, `bare`.
//! A view with an empty pattern stands for its outlier rows as plain
//! tuples: the paper's identity that a plain tuple is a member of a group
//! with an empty head.
//!
//! The sections are also the on-disk format: a file stores them verbatim,
//! and [`CdbLayout::try_from_raw_parts`] is the one place that holds
//! sections read back to the layout's invariants.

use crate::{CsrTuples, DataError, FList, Item, Transaction, TransactionDb, TupleSlices};
use gogreen_util::fxhash::FxHasher;
use gogreen_util::pool::{par_chunks, Parallelism};
use gogreen_util::HeapSize;
use std::hash::Hasher;
use std::mem::size_of_val;

/// The compressed-database layout over ids of type `T` (see the module
/// docs): [`CompressedDb`] in item space, [`CompressedRankDb`] in rank
/// space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdbLayout<T> {
    /// Group pattern heads, one non-empty ascending row per group.
    patterns: CsrTuples<T>,
    /// All groups' outlier member rows (each non-empty, ascending,
    /// disjoint from its pattern), concatenated in group order.
    outliers: CsrTuples<T>,
    /// Group `g` owns outlier rows `outlier_start[g] .. outlier_start[g +
    /// 1]`. Length = groups + 1.
    outlier_start: Vec<u32>,
    /// Per-group count of members with no outlying items.
    bare: Vec<u64>,
    /// Tuples covered by no group (ascending; non-empty in rank space).
    plain: CsrTuples<T>,
    /// Item occurrences of the original database (item space, for the
    /// compression ratio) or the F-list length (rank space).
    extent: usize,
}

/// A database compressed with recycled frequent patterns.
pub type CompressedDb = CdbLayout<Item>;

/// The id space of a layout. Rank space adds two invariants to those
/// every layout keeps: each id is below the layout's extent (the F-list
/// length), and plain rows are non-empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdSpace {
    /// Item ids ([`CompressedDb`]); empty transactions are empty plain
    /// rows.
    Item,
    /// Ranks against an F-list ([`CompressedRankDb`]).
    Rank,
}

/// A compressed database in rank space — the input of every mining
/// engine, raw (zero groups) or recycled. Everything engines read comes
/// out as `&[u32]` slices of its sections.
pub type CompressedRankDb = CdbLayout<u32>;

/// One group, borrowed from a [`CdbLayout`] or a decoded record: its
/// pattern, the outlying items of members that have any, and the count
/// of members that *are* the pattern. An empty `pattern` means the
/// `outliers` rows are plain tuples (and `bare` members carry nothing).
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a, T = u32> {
    /// The covering pattern, ascending.
    pub pattern: &'a [T],
    /// Outlying-item rows, one per member that has any.
    pub outliers: TupleSlices<'a, T>,
    /// Members without outlying items.
    pub bare: u64,
}

impl<T> GroupView<'_, T> {
    /// Number of member tuples (the group count the miners exploit).
    pub fn count(&self) -> u64 {
        self.outliers.len() as u64 + self.bare
    }
}

/// Size/ratio summary of a compressed database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdbStats {
    /// Tuples represented (groups' members + plain).
    pub num_tuples: usize,
    /// Number of groups.
    pub num_groups: usize,
    /// Tuples covered by some group.
    pub covered_tuples: usize,
    /// Item occurrences stored: each group pattern once, plus all
    /// outlying items, plus plain tuples.
    pub compressed_size: usize,
    /// Item occurrences of the original database.
    pub original_size: usize,
    /// Mean bytes per represented tuple that the compressed storage's
    /// sections hold (their lengths, not their capacities, so the figure
    /// depends only on the content); 0 for the empty database. Compare
    /// against [`crate::DbStats::bytes_per_tuple`] of the source
    /// database for the in-memory (as opposed to item-count) compression
    /// ratio.
    pub bytes_per_tuple: f64,
}

impl CdbStats {
    /// `S_c / S_o` — the paper's Table 3 ratio. Smaller is better
    /// compression; 1.0 means nothing was compressed.
    pub fn ratio(&self) -> f64 {
        if self.original_size == 0 {
            1.0
        } else {
            self.compressed_size as f64 / self.original_size as f64
        }
    }
}

impl<T: Copy + Ord> Default for CdbLayout<T> {
    fn default() -> Self {
        Self::empty(0)
    }
}

fn ascending<T: Ord>(row: &[T]) -> bool {
    row.windows(2).all(|w| w[0] < w[1])
}

impl<T: Copy + Ord> CdbLayout<T> {
    /// An empty database: `extent` is the original item-occurrence count
    /// in item space, the F-list length in rank space.
    pub fn empty(extent: usize) -> Self {
        CdbLayout {
            patterns: CsrTuples::new(),
            outliers: CsrTuples::new(),
            outlier_start: vec![0],
            bare: Vec::new(),
            plain: CsrTuples::new(),
            extent,
        }
    }

    /// Appends a group: a non-empty ascending `pattern`, and one
    /// non-empty ascending outlier row per member that has any.
    pub fn push_group<'a>(
        &mut self,
        pattern: &[T],
        outliers: impl IntoIterator<Item = &'a [T]>,
        bare: u64,
    ) where
        T: 'a,
    {
        debug_assert!(!pattern.is_empty() && ascending(pattern));
        self.patterns.push_row(pattern);
        for o in outliers {
            debug_assert!(!o.is_empty() && ascending(o));
            self.outliers.push_row(o);
        }
        self.close_group(bare);
    }

    /// A database with no groups: every row of `plain` (ascending ids)
    /// is a plain tuple. `extent` is as for [`CdbLayout::empty`].
    pub fn from_plain(plain: CsrTuples<T>, extent: usize) -> Self {
        CdbLayout { plain, ..Self::empty(extent) }
    }

    /// The plain section, for a layout without groups (a segment's rows).
    pub fn into_plain(self) -> CsrTuples<T> {
        debug_assert_eq!(self.num_groups(), 0, "into_plain drops the groups");
        self.plain
    }

    /// Empties every section, keeping their capacity and the extent.
    pub fn clear(&mut self) {
        self.patterns.clear();
        self.outliers.clear();
        self.outlier_start.truncate(1);
        self.bare.clear();
        self.plain.clear();
    }

    /// Appends a plain tuple (ascending ids).
    pub fn push_plain(&mut self, row: &[T]) {
        debug_assert!(ascending(row));
        self.plain.push_row(row);
    }

    /// Appends `view` as is: a group, or its rows as plain tuples when
    /// its pattern is empty.
    pub fn push_view(&mut self, view: GroupView<'_, T>) {
        if view.pattern.is_empty() {
            view.outliers.iter().for_each(|row| self.push_plain(row));
        } else {
            self.push_group(view.pattern, view.outliers, view.bare);
        }
    }

    /// Seals the group whose pattern row and outlier rows were just
    /// pushed: records the outlier partition boundary and the bare count.
    fn close_group(&mut self, bare: u64) {
        self.outlier_start.push(self.outliers.len() as u32);
        self.bare.push(bare);
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.patterns.len()
    }

    /// The pattern head of group `g`.
    pub fn group_pattern(&self, g: usize) -> &[T] {
        self.patterns.row(g)
    }

    /// The outlier member rows of group `g`, as a CSR window.
    pub fn group_outliers(&self, g: usize) -> TupleSlices<'_, T> {
        self.outliers
            .as_slices()
            .range(self.outlier_start[g] as usize, self.outlier_start[g + 1] as usize)
    }

    /// Every group's pattern, as one CSR view in group order.
    pub fn patterns(&self) -> TupleSlices<'_, T> {
        self.patterns.as_slices()
    }

    /// The outlier row boundaries: group `g` owns rows
    /// `outlier_start()[g]..outlier_start()[g + 1]` of [`Self::outliers`].
    pub fn outlier_start(&self) -> &[u32] {
        &self.outlier_start
    }

    /// Every group's bare-member count, in group order.
    pub fn bare_counts(&self) -> &[u64] {
        &self.bare
    }

    /// Item occurrences of the original database (item space) or the
    /// F-list length (rank space).
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// Every group's outlier member rows, as one CSR view in group order:
    /// group `g`'s rows follow group `g - 1`'s, so a reader that walks
    /// the groups can number its member rows over the whole section.
    pub fn outliers(&self) -> TupleSlices<'_, T> {
        self.outliers.as_slices()
    }

    /// Members of group `g` with no outlying items.
    pub fn group_bare(&self, g: usize) -> u64 {
        self.bare[g]
    }

    /// Member count of group `g`.
    pub fn group_count(&self, g: usize) -> u64 {
        self.group(g).count()
    }

    /// Group `g`, borrowed.
    pub fn group(&self, g: usize) -> GroupView<'_, T> {
        GroupView {
            pattern: self.group_pattern(g),
            outliers: self.group_outliers(g),
            bare: self.bare[g],
        }
    }

    /// The groups in storage (utility) order.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = GroupView<'_, T>> + '_ {
        (0..self.num_groups()).map(|g| self.group(g))
    }

    /// The uncovered tuples, as a CSR view.
    pub fn plain(&self) -> TupleSlices<'_, T> {
        self.plain.as_slices()
    }

    /// Total number of tuples represented (= original `|DB|`).
    pub fn num_tuples(&self) -> usize {
        self.outliers.len() + self.bare.iter().sum::<u64>() as usize + self.plain.len()
    }

    /// Bytes the sections' contents occupy: ids and row offsets of the
    /// three CSR sections, plus the per-group scalars.
    fn stored_bytes(&self) -> usize {
        let csr = |s: &CsrTuples<T>| size_of_val(s.flat()) + size_of_val(s.offsets());
        csr(&self.patterns)
            + csr(&self.outliers)
            + csr(&self.plain)
            + size_of_val(&self.outlier_start[..])
            + size_of_val(&self.bare[..])
    }

    /// Total outlier member rows across all groups.
    pub fn group_outlier_rows(&self) -> usize {
        self.outliers.len()
    }

    /// Total outlier item occurrences across all groups.
    pub fn group_outlier_items(&self) -> usize {
        self.outliers.total_elems()
    }

    /// Total pattern-head item occurrences across all groups.
    pub fn pattern_items(&self) -> usize {
        self.patterns.total_elems()
    }

    /// The one row rewrite behind [`CompressedDb::to_ranks`] and
    /// [`CompressedRankDb::retain_ranks`]: rewrites every row into a
    /// layout of `extent` through `kept`, which writes the row's new ids
    /// as a row of its destination section, commits it when non-empty
    /// and returns whether it did. A group whose pattern empties becomes
    /// plain rows; a member whose outliers empty becomes bare; a plain
    /// row that empties is dropped.
    fn rewrite<U: Copy + Ord>(
        &self,
        extent: usize,
        kept: impl Fn(&[T], &mut CsrTuples<U>) -> bool,
    ) -> CdbLayout<U> {
        let mut out = CdbLayout::empty(extent);
        for g in self.groups() {
            if !kept(g.pattern, &mut out.patterns) {
                g.outliers.iter().for_each(|o| {
                    kept(o, &mut out.plain);
                });
                continue;
            }
            let emptied = g.outliers.iter().filter(|o| !kept(o, &mut out.outliers)).count();
            out.close_group(g.bare + emptied as u64);
        }
        self.plain.iter().for_each(|t| {
            kept(t, &mut out.plain);
        });
        out
    }
}

impl<T: Copy + Ord + Into<u32>> CdbLayout<T> {
    /// Adopts sections read from outside — a file — after holding them to
    /// every invariant of the layout (the CSR sections' offsets hold by
    /// construction), as [`DataError::Layout`] naming the first one
    /// broken; this is the one validator of decoded sections:
    /// * `outlier_start` holds one entry per group plus the end, starts
    ///   at 0, never decreases and ends at the outlier row count, and
    ///   `bare` holds one count per group, each within `u32`;
    /// * patterns are non-empty and strictly ascending;
    /// * outlier rows are non-empty, strictly ascending and disjoint from
    ///   their group's pattern;
    /// * plain rows are strictly ascending (and non-empty in rank space);
    /// * in rank space every id is below `extent`.
    pub fn try_from_raw_parts(
        patterns: CsrTuples<T>,
        outliers: CsrTuples<T>,
        outlier_start: Vec<u32>,
        bare: Vec<u64>,
        plain: CsrTuples<T>,
        extent: usize,
        space: IdSpace,
    ) -> Result<Self, DataError> {
        let layout = CdbLayout { patterns, outliers, outlier_start, bare, plain, extent };
        layout.check(space)?;
        Ok(layout)
    }

    /// The invariants of [`CdbLayout::try_from_raw_parts`].
    fn check(&self, space: IdSpace) -> Result<(), DataError> {
        let (groups, starts) = (self.num_groups(), &self.outlier_start);
        if starts.len() != groups + 1
            || self.bare.len() != groups
            || starts[0] != 0
            || starts[groups] as usize != self.outliers.len()
            || starts.windows(2).any(|w| w[0] > w[1])
        {
            return Err(invalid(format!(
                "outlier_start and bare do not split {} outlier rows among {groups} groups",
                self.outliers.len()
            )));
        }
        for (g, view) in self.groups().enumerate() {
            let pattern = view.pattern;
            if pattern.is_empty() || !ascending(pattern) {
                return Err(invalid(format!("group {g}: pattern empty or not strictly ascending")));
            }
            let overlaps = |o: &[T]| o.iter().any(|x| pattern.binary_search(x).is_ok());
            if view.outliers.iter().any(|o| o.is_empty() || !ascending(o) || overlaps(o)) {
                return Err(invalid(format!(
                    "group {g}: an outlier row is empty, not strictly ascending or overlaps the \
                     pattern"
                )));
            }
            if view.bare > u64::from(u32::MAX) {
                return Err(invalid(format!("group {g}: bare count {} exceeds u32", view.bare)));
            }
        }
        let rank = space == IdSpace::Rank;
        if let Some(i) = self.plain.iter().position(|t| !ascending(t) || (rank && t.is_empty())) {
            return Err(invalid(format!("plain row {i} is empty or not strictly ascending")));
        }
        if rank {
            let mut ids = [&self.patterns, &self.outliers, &self.plain]
                .into_iter()
                .flat_map(|s| s.flat())
                .map(|&x| x.into());
            if let Some(x) = ids.find(|&x| x as usize >= self.extent) {
                return Err(invalid(format!("rank {x} out of range for {} ranks", self.extent)));
            }
        }
        Ok(())
    }
}

fn invalid(reason: String) -> DataError {
    DataError::Layout(reason)
}

impl CompressedDb {
    /// Adopts finished sections — the single-copy handoff of a writer
    /// that lays the sections out itself (the compressor's counting
    /// sort). `outlier_start` has one entry per group plus a final end
    /// offset, and `bare` one per group; the sections obey the
    /// invariants of [`CdbLayout::try_from_raw_parts`], which only debug
    /// builds check here.
    pub fn from_raw_parts(
        patterns: CsrTuples<Item>,
        outliers: CsrTuples<Item>,
        outlier_start: Vec<u32>,
        bare: Vec<u64>,
        plain: CsrTuples<Item>,
        extent: usize,
    ) -> Self {
        let layout = CdbLayout { patterns, outliers, outlier_start, bare, plain, extent };
        if cfg!(debug_assertions) {
            if let Err(e) = layout.check(IdSpace::Item) {
                panic!("from_raw_parts: {e}");
            }
        }
        layout
    }

    /// Wraps a plain database with no compression at all (every tuple in
    /// the plain residue). Recycling miners on such a "compressed"
    /// database behave exactly like their non-recycling counterparts —
    /// used as a correctness bridge in tests. The CSR tuple storage is
    /// cloned wholesale; no per-tuple work.
    pub fn uncompressed(db: &TransactionDb) -> Self {
        Self::from_plain(db.csr().clone(), db.csr().total_elems())
    }

    /// Size/ratio summary.
    pub fn stats(&self) -> CdbStats {
        let num_tuples = self.num_tuples();
        CdbStats {
            num_tuples,
            num_groups: self.num_groups(),
            covered_tuples: num_tuples - self.plain.len(),
            compressed_size: self.patterns.total_elems()
                + self.outliers.total_elems()
                + self.plain.total_elems(),
            original_size: self.extent,
            bytes_per_tuple: if num_tuples == 0 {
                0.0
            } else {
                self.stored_bytes() as f64 / num_tuples as f64
            },
        }
    }

    /// Per-item supports, computed the compressed way (paper §3.1): each
    /// group pattern item is counted once with the group count; outlying
    /// and plain items per occurrence.
    pub fn item_supports(&self) -> Vec<u64> {
        self.item_supports_par(Parallelism::serial())
    }

    /// [`Self::item_supports`] with the per-occurrence counting chunked
    /// across worker threads. Summing per-chunk `u64` count vectors is
    /// exact and order-independent, so the result is identical to the
    /// serial pass for any thread count. Outlying and plain items are
    /// chunked over their flat item buffers directly — occurrence
    /// counting ignores row boundaries, so the split needs no offset
    /// arithmetic at all.
    pub fn item_supports_par(&self, par: Parallelism) -> Vec<u64> {
        let sections = [&self.patterns, &self.outliers, &self.plain];
        let max_index = |s: &&CsrTuples<Item>| s.flat().iter().map(|it| it.index()).max();
        let slots = sections.iter().filter_map(max_index).max().map_or(0, |m| m + 1);
        let mut counts = vec![0u64; slots];
        for g in self.groups() {
            let c = g.count();
            g.pattern.iter().for_each(|it| counts[it.index()] += c);
        }
        for flat in [self.outliers.flat(), self.plain.flat()] {
            if par.for_items(flat.len()) <= 1 {
                flat.iter().for_each(|it| counts[it.index()] += 1);
                continue;
            }
            for (_, local) in par_chunks(par, flat, |_, chunk| {
                let mut local = vec![0u64; slots];
                chunk.iter().for_each(|it| local[it.index()] += 1);
                local
            }) {
                counts.iter_mut().zip(local).for_each(|(slot, c)| *slot += c);
            }
        }
        counts
    }

    /// Builds the F-list of the represented database at `min_support`
    /// without decompressing.
    pub fn flist(&self, min_support: u64) -> FList {
        self.flist_par(min_support, Parallelism::serial())
    }

    /// [`Self::flist`] with the support count parallelized.
    pub fn flist_par(&self, min_support: u64, par: Parallelism) -> FList {
        FList::from_counts(&self.item_supports_par(par), min_support)
    }

    /// Decompresses back to the original tuple multiset (tuple order is
    /// not preserved). Compression must be lossless; the property tests
    /// assert `reconstruct()` equals the source database as a multiset.
    pub fn reconstruct(&self) -> TransactionDb {
        let mut out = Vec::with_capacity(self.num_tuples());
        for g in self.groups() {
            for o in g.outliers.iter() {
                out.push(Transaction::new([g.pattern, o].concat()));
            }
            out.extend((0..g.bare).map(|_| Transaction::new(g.pattern.to_vec())));
        }
        out.extend(self.plain.iter().map(|t| Transaction::from_sorted_unchecked(t.to_vec())));
        TransactionDb::from_transactions(out)
    }

    /// Re-encodes into rank space against `flist` for mining — one pass,
    /// straight into the rank database's CSR sections: each row goes
    /// through [`FList::encode_row`], so no per-tuple `Vec` is ever
    /// allocated.
    pub fn to_ranks(&self, flist: &FList) -> CompressedRankDb {
        self.rewrite(flist.len(), |row, dst| flist.encode_row(row, dst))
    }
}

impl CompressedRankDb {
    /// Encodes the plain database `db` against `flist`: no groups, one
    /// plain row per tuple that keeps a frequent item — one pass,
    /// straight into the plain section.
    pub fn encode(db: &TransactionDb, flist: &FList) -> Self {
        let mut plain = CsrTuples::with_capacity(db.len(), db.csr().total_elems());
        for t in db.iter() {
            flist.encode_row(t, &mut plain);
        }
        Self::from_plain(plain, flist.len())
    }

    /// Merges repeated rows of a layout without groups: each row that
    /// occurs k ≥ 2 times becomes one group whose pattern is the row and
    /// whose k members are all bare — the limiting case of the paper's
    /// grouping, a pattern that covers its whole tuple. Groups keep the
    /// rows' first-occurrence order, and so do the rows that stay plain.
    /// A layout with no repeated row is returned as is, uncopied.
    ///
    /// One open-addressing table of row ids (Fx hash, linear probing, at
    /// most half full) finds the repeats; beyond it and the output only
    /// one count per distinct row is allocated.
    pub fn merge_repeats(self) -> Self {
        debug_assert_eq!(self.num_groups(), 0, "merge_repeats takes a layout without groups");
        let n = self.plain.len();
        if n < 2 {
            return self;
        }
        const EMPTY: u32 = u32::MAX;
        let bits = (2 * n).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        let home = |row: &[u32]| {
            let mut h = FxHasher::default();
            row.iter().for_each(|&r| h.write_u32(r));
            (h.finish() >> (64 - bits)) as usize
        };
        // Slot → index into `distinct`: (first occurrence, occurrences).
        let mut table = vec![EMPTY; mask + 1];
        let mut distinct: Vec<(u32, u32)> = Vec::new();
        for (i, row) in self.plain.iter().enumerate() {
            let mut slot = home(row);
            loop {
                let d = table[slot];
                if d == EMPTY {
                    table[slot] = distinct.len() as u32;
                    distinct.push((i as u32, 1));
                    break;
                }
                let (first, count) = &mut distinct[d as usize];
                if self.plain.row(*first as usize) == row {
                    *count += 1;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        drop(table);
        if distinct.len() == n {
            return self;
        }
        let (mut groups, mut group_elems, mut singles, mut single_elems) = (0, 0, 0, 0);
        for &(first, count) in &distinct {
            let len = self.plain.row(first as usize).len();
            if count > 1 {
                groups += 1;
                group_elems += len;
            } else {
                singles += 1;
                single_elems += len;
            }
        }
        let mut outlier_start = Vec::with_capacity(groups + 1);
        outlier_start.push(0);
        let mut out = CdbLayout {
            patterns: CsrTuples::with_capacity(groups, group_elems),
            outliers: CsrTuples::new(),
            outlier_start,
            bare: Vec::with_capacity(groups),
            plain: CsrTuples::with_capacity(singles, single_elems),
            extent: self.extent,
        };
        for &(first, count) in distinct.iter().filter(|&&(_, count)| count > 1) {
            out.push_group(self.plain.row(first as usize), std::iter::empty(), count.into());
        }
        for &(first, _) in distinct.iter().filter(|&&(_, count)| count == 1) {
            out.push_plain(self.plain.row(first as usize));
        }
        out
    }

    /// Rank-space size (F-list length at encoding time).
    pub fn num_ranks(&self) -> usize {
        self.extent
    }

    /// Returns a copy keeping only ranks accepted by `keep` — the
    /// succinct-constraint pushdown over a compressed database. Groups
    /// whose pattern empties out degrade to plain tuples; supports of
    /// surviving ranks are unchanged (tuples are never removed, only
    /// shortened).
    pub fn retain_ranks(&self, keep: impl Fn(u32) -> bool) -> CompressedRankDb {
        self.rewrite(self.extent, |row, dst| {
            row.iter().filter(|&&r| keep(r)).for_each(|&r| dst.push_elem(r));
            dst.commit_nonempty()
        })
    }
}

impl<T> HeapSize for CdbLayout<T> {
    fn heap_size(&self) -> usize {
        self.patterns.heap_size()
            + self.outliers.heap_size()
            + self.outlier_start.heap_size()
            + self.bare.heap_size()
            + self.plain.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(ids: &[u32]) -> Vec<Item> {
        ids.iter().map(|&i| Item(i)).collect()
    }

    /// The paper's Table 2: groups fgc (tuples 100, 200, 300) and ae
    /// (tuples 400, 500).
    fn paper_cdb() -> CompressedDb {
        // fgc = {2,5,6}; outliers 100: a,d,e = {0,3,4}; 200: b,d = {1,3};
        // 300: e = {4}.
        let mut cdb = CompressedDb::empty(22);
        cdb.push_group(
            &items(&[2, 5, 6]),
            [&items(&[0, 3, 4])[..], &items(&[1, 3]), &items(&[4])],
            0,
        );
        // ae = {0,4}; outliers 400: c,i = {2,8}; 500: h = {7}.
        cdb.push_group(&items(&[0, 4]), [&items(&[2, 8])[..], &items(&[7])], 0);
        cdb
    }

    fn rows_of(v: TupleSlices<'_>) -> Vec<Vec<u32>> {
        v.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn group_count_includes_bare() {
        let mut cdb = CompressedDb::empty(4);
        cdb.push_group(&items(&[1, 2]), [&items(&[3])[..]], 2);
        let g = cdb.group(0);
        assert_eq!(g.count(), 3);
        assert_eq!(g.bare, 2);
        assert_eq!(cdb.num_tuples(), 3);
    }

    #[test]
    fn paper_cdb_reconstructs_table_1() {
        let cdb = paper_cdb();
        let rebuilt = cdb.reconstruct();
        let original = TransactionDb::paper_example();
        let mut a: Vec<Vec<Item>> = rebuilt.iter().map(|t| t.to_vec()).collect();
        let mut b: Vec<Vec<Item>> = original.iter().map(|t| t.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn item_supports_match_original() {
        let cdb = paper_cdb();
        let original = TransactionDb::paper_example();
        assert_eq!(cdb.item_supports(), original.item_supports());
    }

    #[test]
    fn parallel_item_supports_match_serial() {
        let cdb = paper_cdb();
        for threads in [2, 3, 8] {
            assert_eq!(
                cdb.item_supports_par(Parallelism::threads(threads)),
                cdb.item_supports(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stats_count_compressed_units() {
        let cdb = paper_cdb();
        let s = cdb.stats();
        assert_eq!(s.num_tuples, 5);
        assert_eq!(s.num_groups, 2);
        assert_eq!(s.covered_tuples, 5);
        // fgc(3) + outliers(3+2+1) + ae(2) + outliers(2+1) = 14.
        assert_eq!(s.compressed_size, 14);
        assert_eq!(s.original_size, 22);
        assert!((s.ratio() - 14.0 / 22.0).abs() < 1e-12);
        assert!(s.bytes_per_tuple > 0.0);
    }

    #[test]
    fn uncompressed_has_no_groups_and_ratio_one() {
        let db = TransactionDb::paper_example();
        let cdb = CompressedDb::uncompressed(&db);
        assert_eq!(cdb.num_groups(), 0);
        assert_eq!(cdb.num_tuples(), 5);
        assert_eq!(cdb.stats().ratio(), 1.0);
        assert_eq!(cdb.item_supports(), db.item_supports());
    }

    #[test]
    fn to_ranks_reproduces_paper_table_2_fourth_column() {
        // ξ_new = 2: ranks by (support, id): d:2→0; a,f,g:3→1,2,3;
        // c,e:4→4,5 (c's id 2 < e's id 4). The paper's F-list order
        // differs only in tie-breaks, which do not affect results.
        let cdb = paper_cdb();
        let fl = cdb.flist(2);
        let r = cdb.to_ranks(&fl);
        assert_eq!(r.num_groups(), 2);
        // Group fgc -> ranks {f,g,c} = {2,3,4}.
        assert_eq!(r.group_pattern(0), &[2, 3, 4]);
        // Outliers: 100: d,a,e -> {0,1,5}; 200: d (b infrequent) -> {0};
        // 300: e -> {5}.
        assert_eq!(rows_of(r.group_outliers(0)), vec![vec![0, 1, 5], vec![0], vec![5]]);
        assert_eq!(r.group_bare(0), 0);
        // Group ae -> {1,5}; outliers 400: c -> {4}; 500: h infrequent ->
        // bare.
        assert_eq!(r.group_pattern(1), &[1, 5]);
        assert_eq!(rows_of(r.group_outliers(1)), vec![vec![4]]);
        assert_eq!(r.group_bare(1), 1);
        assert_eq!(r.group_count(1), 2);
        assert!(r.plain().is_empty());
        // fgc(3) + outliers(3+1+1) + ae(2) + outlier(1) = 11.
        assert_eq!(r.pattern_items() + r.group_outlier_items() + r.plain().total_elems(), 11);
    }

    /// Rank supports of the represented tuples: pattern ranks once per
    /// group with its count, outlier and plain ranks per occurrence.
    fn rank_supports(rdb: &CompressedRankDb) -> Vec<u64> {
        let mut counts = vec![0u64; rdb.num_ranks()];
        for g in rdb.groups() {
            g.pattern.iter().for_each(|&r| counts[r as usize] += g.count());
            g.outliers.iter().flatten().for_each(|&r| counts[r as usize] += 1);
        }
        rdb.plain().iter().flatten().for_each(|&r| counts[r as usize] += 1);
        counts
    }

    fn plain_layout(rows: &[&[u32]]) -> CompressedRankDb {
        let mut rdb = CompressedRankDb::empty(6);
        rows.iter().for_each(|row| rdb.push_plain(row));
        rdb
    }

    #[test]
    fn merge_repeats_groups_each_repeated_row_once() {
        let rows: &[&[u32]] =
            &[&[0, 2], &[1, 3, 5], &[0, 2], &[4], &[1, 3, 5], &[0, 2], &[2, 3], &[1, 3, 5]];
        let rdb = plain_layout(rows);
        let merged = rdb.clone().merge_repeats();
        assert_eq!(merged.num_tuples(), rdb.num_tuples());
        assert_eq!(rank_supports(&merged), rank_supports(&rdb));
        // First-occurrence order, every member bare.
        assert_eq!(merged.num_groups(), 2);
        assert_eq!(merged.group_pattern(0), &[0, 2]);
        assert_eq!(merged.group_pattern(1), &[1, 3, 5]);
        for g in merged.groups() {
            assert!(g.outliers.is_empty());
            assert_eq!(g.bare, 3);
        }
        assert_eq!(merged.group_outlier_rows(), 0);
        assert_eq!(rows_of(merged.plain()), vec![vec![4], vec![2, 3]]);
        assert_eq!(merged.num_ranks(), rdb.num_ranks());
    }

    #[test]
    fn merge_repeats_makes_one_bare_group_of_a_k_fold_row() {
        for k in [2u64, 5, 1000] {
            let row: &[u32] = &[1, 4];
            let merged = plain_layout(&vec![row; k as usize]).merge_repeats();
            assert_eq!(merged.num_groups(), 1);
            assert_eq!(merged.group_pattern(0), row);
            assert!(merged.group_outliers(0).is_empty());
            assert_eq!(merged.group_bare(0), k);
            assert!(merged.plain().is_empty());
            assert_eq!(merged.num_tuples(), k as usize);
        }
    }

    #[test]
    fn merge_repeats_returns_repeat_free_and_empty_input_unchanged() {
        let rdb = plain_layout(&[&[0], &[0, 1], &[1], &[2, 3, 4], &[0, 1, 2]]);
        let merged = rdb.clone().merge_repeats();
        assert_eq!(merged.num_groups(), 0);
        assert_eq!(merged, rdb);
        for rows in [&[][..], &[&[3u32][..]]] {
            let merged = plain_layout(rows).merge_repeats();
            assert_eq!(merged, plain_layout(rows));
            assert_eq!(merged.num_tuples(), rows.len());
        }
    }

    /// Content decides the bytes/tuple figure, not how the sections grew.
    #[test]
    fn bytes_per_tuple_ignores_spare_capacity() {
        let pushed = paper_cdb();
        let mut padded = CompressedDb::empty(22);
        padded.patterns = CsrTuples::with_capacity(64, 512);
        padded.bare.reserve(64);
        for g in pushed.groups() {
            padded.push_group(g.pattern, g.outliers, g.bare);
        }
        assert_eq!(padded, pushed);
        assert!(padded.heap_size() > pushed.heap_size());
        assert_eq!(padded.stats(), pushed.stats());
        // fgc + ae (5 ids, 3 offsets), 5 outlier rows (9 ids, 6
        // offsets), no plain row (1 offset), 3 starts, 2 bare counts.
        let bytes = (5 + 3) * 4 + (9 + 6) * 4 + 4 + 3 * 4 + 2 * 8;
        assert_eq!(pushed.stats().bytes_per_tuple, bytes as f64 / 5.0);
    }

    /// Rank space refuses ids at or past the extent and empty plain rows;
    /// item space keeps empty rows (empty transactions).
    #[test]
    fn checked_constructor_holds_rank_space_to_its_extent() {
        let csr = |rows: &[&[u32]]| rows.iter().map(|r| r.to_vec()).collect::<CsrTuples<u32>>();
        let build = |plain: &[&[u32]], extent, space| {
            let (patterns, outliers) = (csr(&[&[1, 3]]), csr(&[&[0, 2]]));
            let plain = csr(plain);
            CompressedRankDb::try_from_raw_parts(
                patterns,
                outliers,
                vec![0, 1],
                vec![1],
                plain,
                extent,
                space,
            )
        };
        let rdb = build(&[&[2]], 4, IdSpace::Rank).unwrap();
        assert_eq!((rdb.group_count(0), rdb.plain().len()), (2, 1));
        let err = build(&[&[2]], 3, IdSpace::Rank).unwrap_err().to_string();
        assert!(err.contains("rank 3 out of range for 3 ranks"), "{err}");
        assert!(build(&[&[]], 4, IdSpace::Rank).is_err());
        assert_eq!(build(&[&[]], 4, IdSpace::Item).unwrap().plain().len(), 1);
    }

    #[test]
    fn retain_ranks_filters_and_degrades() {
        let mut rdb = CompressedRankDb::empty(4);
        rdb.push_group(&[1, 3], [&[0u32, 2] as &[u32], &[2]], 1);
        rdb.push_group(&[0], [&[2u32, 3] as &[u32]], 0);
        rdb.push_plain(&[0, 2]);
        rdb.push_plain(&[1]);
        // Drop rank 0 everywhere.
        let f = rdb.retain_ranks(|r| r != 0);
        assert_eq!(f.num_groups(), 1);
        assert_eq!(f.group_pattern(0), &[1, 3]);
        assert_eq!(rows_of(f.group_outliers(0)), vec![vec![2], vec![2]]);
        assert_eq!(f.group_bare(0), 1);
        // Second group's pattern emptied: its member became plain.
        let plain = rows_of(f.plain());
        assert!(plain.contains(&vec![2, 3]));
        // Plain tuple [0,2] -> [2]; [1] survives.
        assert!(plain.contains(&vec![2]));
        assert!(plain.contains(&vec![1]));
        assert_eq!(plain.len(), 3);
    }

    #[test]
    fn retain_ranks_can_empty_everything() {
        let mut rdb = CompressedRankDb::empty(1);
        rdb.push_group(&[0], std::iter::empty(), 3);
        rdb.push_plain(&[0]);
        let f = rdb.retain_ranks(|_| false);
        assert_eq!(f.num_groups(), 0);
        assert!(f.plain().is_empty());
    }

    #[test]
    fn retain_ranks_member_with_empty_filtered_outliers_becomes_bare() {
        let mut rdb = CompressedRankDb::empty(2);
        rdb.push_group(&[1], [&[0u32] as &[u32]], 0);
        let f = rdb.retain_ranks(|r| r == 1);
        assert_eq!(f.num_groups(), 1);
        assert!(f.group_outliers(0).is_empty());
        assert_eq!(f.group_bare(0), 1);
        assert_eq!(f.group_count(0), 1);
    }

    #[test]
    fn to_ranks_degrades_infrequent_patterns_to_plain() {
        // A group whose pattern is entirely infrequent at the new
        // threshold: members must survive as plain tuples.
        let mut cdb = CompressedDb::empty(7);
        cdb.push_group(&items(&[9]), [&items(&[1, 2])[..], &items(&[1])], 1);
        // Supports: 9 -> 3, 1 -> 2, 2 -> 1. At minsup 2: only item 1... and 9.
        let fl = cdb.flist(2);
        assert!(fl.is_frequent(Item(9)));
        // Force-pick an flist where 9 is infrequent: minsup 4.
        let fl4 = cdb.flist(4);
        assert!(!fl4.is_frequent(Item(9)));
        let r = cdb.to_ranks(&fl4);
        assert_eq!(r.num_groups(), 0);
        assert!(r.plain().is_empty()); // nothing else frequent either
                                       // At minsup 2 with 9 frequent: group survives.
        let r2 = cdb.to_ranks(&fl);
        assert_eq!(r2.num_groups(), 1);
        assert_eq!(r2.group_count(0), 3);
        // Outlier {1,2} keeps 1 (2 infrequent); outlier {1} stays; bare 1.
        assert_eq!(r2.group_outliers(0).len(), 2);
    }
}
