//! Flat (CSR) tuple storage and projection slab arenas.
//!
//! Every hot loop in the pipeline — cover sweeps, F-list counting,
//! group-at-a-time candidate tests, projected-database construction —
//! walks tuples. Storing them as `Vec<Vec<u32>>` makes each tuple its own
//! heap allocation and every scan a pointer chase; [`CsrTuples`] replaces
//! that with the compressed-sparse-row layout — one flat element buffer
//! plus an offsets array — so a whole-database scan is a single linear
//! walk over one allocation and a chunked parallel scan is a range split
//! of the same buffer.
//!
//! [`TupleSlices`] is the borrowed view engines traverse (rows come out
//! as `&[u32]` slices, not iterators: slices keep `windows`,
//! `binary_search` and `partition_point` available to the engine inner
//! loops and cost nothing to subrange). [`ProjectionArena`] is the
//! companion write-side structure: a bump slab that DFS descent fills
//! with short-lived projected rows and `reset()`s between siblings, so
//! steady-state mining performs no allocation at all.

use gogreen_util::HeapSize;

/// Row storage in compressed-sparse-row form: all elements in one flat
/// `data` buffer, with `offsets[i]..offsets[i+1]` delimiting row `i`.
///
/// `offsets` always holds `len() + 1` entries starting at 0, so the
/// empty container has one offset. Elements are `u32`-indexed: a single
/// container is limited to 4 Gi elements, far above any database this
/// workspace handles (the seed's largest analog has ~10⁶ elements).
///
/// Rows may be built incrementally with [`CsrTuples::push_elem`] /
/// [`CsrTuples::commit_row`]: elements past the last committed offset
/// form the *open row*, invisible to readers until committed. This is
/// what lets encode-and-filter passes build a row in place and decide
/// afterwards whether to keep it (committing) or drop it (discarding) —
/// the one-pass replacement for "materialize a `Vec`, inspect, maybe
/// push".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrTuples<T = u32> {
    data: Vec<T>,
    offsets: Vec<u32>,
}

impl<T: Copy> Default for CsrTuples<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> CsrTuples<T> {
    /// An empty container.
    pub fn new() -> Self {
        CsrTuples { data: Vec::new(), offsets: vec![0] }
    }

    /// An empty container with room for `rows` rows of `elems` total
    /// elements.
    pub fn with_capacity(rows: usize, elems: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        CsrTuples { data: Vec::with_capacity(elems), offsets }
    }

    /// Reassembles a container from its raw CSR parts — the layout a
    /// sealed on-disk segment stores verbatim, so loading a segment is a
    /// bulk read of two arrays straight into place, no per-row work.
    ///
    /// `offsets` must be non-empty, start at 0, be non-decreasing, and
    /// end at `data.len()`; violations panic rather than constructing a
    /// container whose accessors would slice out of bounds.
    pub fn from_raw_parts(data: Vec<T>, offsets: Vec<u32>) -> Self {
        Self::try_from_raw_parts(data, offsets)
            .expect("offsets must start at 0, never decrease, and have a last offset of data.len()")
    }

    /// [`CsrTuples::from_raw_parts`], answering `None` instead of
    /// panicking when `offsets` do not delimit `data`.
    pub fn try_from_raw_parts(data: Vec<T>, offsets: Vec<u32>) -> Option<Self> {
        let delimits = offsets.first() == Some(&0)
            && offsets.last().map(|&end| end as usize) == Some(data.len())
            && offsets.windows(2).all(|w| w[0] <= w[1]);
        delimits.then_some(CsrTuples { data, offsets })
    }

    /// Consumes the container, returning `(data, offsets)` — the inverse
    /// of [`CsrTuples::from_raw_parts`], used to write a segment out as
    /// two flat arrays.
    pub fn into_raw_parts(self) -> (Vec<T>, Vec<u32>) {
        (self.data, self.offsets)
    }

    /// The raw offsets array (`len() + 1` entries starting at 0).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of committed rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no row has been committed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total committed elements (excludes any open row).
    #[inline]
    pub fn total_elems(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty") as usize
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates the committed rows in order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + Clone + '_ {
        self.offsets.windows(2).map(|w| &self.data[w[0] as usize..w[1] as usize])
    }

    /// Appends a whole row.
    pub fn push_row(&mut self, row: &[T]) {
        self.data.extend_from_slice(row);
        self.commit_row();
    }

    /// Appends one element to the open row.
    #[inline]
    pub fn push_elem(&mut self, x: T) {
        self.data.push(x);
    }

    /// The open (uncommitted) row.
    #[inline]
    pub fn open_row(&self) -> &[T] {
        &self.data[self.total_elems()..]
    }

    /// Mutable view of the open row (for in-place sorting after an
    /// unordered fill).
    #[inline]
    pub fn open_row_mut(&mut self) -> &mut [T] {
        let start = self.total_elems();
        &mut self.data[start..]
    }

    /// Number of elements in the open row.
    #[inline]
    pub fn open_len(&self) -> usize {
        self.data.len() - self.total_elems()
    }

    /// Commits the open row, returning its index.
    #[inline]
    pub fn commit_row(&mut self) -> usize {
        debug_assert!(self.data.len() <= u32::MAX as usize, "CsrTuples overflow");
        self.offsets.push(self.data.len() as u32);
        self.offsets.len() - 2
    }

    /// Discards the open row.
    #[inline]
    pub fn discard_row(&mut self) {
        self.data.truncate(self.total_elems());
    }

    /// Commits the open row when it holds an element and discards it
    /// otherwise; returns whether the row was kept.
    #[inline]
    pub fn commit_nonempty(&mut self) -> bool {
        let kept = self.open_len() > 0;
        if kept {
            self.commit_row();
        }
        kept
    }

    /// Grows the open row through a write-then-keep kernel: `write` gets
    /// `n` new slots (set to `fill`) at the end of the open row, writes
    /// into them unconditionally and returns how many leading slots to
    /// keep; the rest are dropped. Filters written this way (rank
    /// encoding, set difference) store every candidate and advance their
    /// cursor by a comparison instead of branching on it.
    #[inline]
    pub fn push_with(&mut self, n: usize, fill: T, write: impl FnOnce(&mut [T]) -> usize) {
        let start = self.data.len();
        self.data.resize(start + n, fill);
        let kept = write(&mut self.data[start..]);
        debug_assert!(kept <= n, "push_with kept more slots than it was given");
        self.data.truncate(start + kept);
    }

    /// Appends every committed row of `other` (there must be no open
    /// row).
    pub fn append(&mut self, other: &CsrTuples<T>) {
        debug_assert_eq!(self.open_len(), 0, "append with an open row");
        let base = self.data.len() as u32;
        self.data.extend_from_slice(other.flat());
        self.offsets.extend(other.offsets[1..].iter().map(|&o| base + o));
    }

    /// Removes the last committed row (it must be the last one pushed;
    /// there must be no open row).
    pub fn pop_row(&mut self) {
        debug_assert_eq!(self.open_len(), 0, "pop_row with an open row");
        assert!(!self.is_empty(), "pop_row on empty CsrTuples");
        self.offsets.pop();
        self.data.truncate(self.total_elems());
    }

    /// Drops all rows, keeping capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// The whole flat element buffer (committed rows, in row order).
    ///
    /// This is the chunk-wise scan surface: kernels that do not care
    /// about row boundaries (pure element counting) walk it directly.
    #[inline]
    pub fn flat(&self) -> &[T] {
        &self.data[..self.total_elems()]
    }

    /// Borrowed view over all committed rows.
    #[inline]
    pub fn as_slices(&self) -> TupleSlices<'_, T> {
        TupleSlices { data: &self.data, offsets: &self.offsets }
    }
}

impl<T: Copy> FromIterator<Vec<T>> for CsrTuples<T> {
    fn from_iter<I: IntoIterator<Item = Vec<T>>>(iter: I) -> Self {
        let mut out = CsrTuples::new();
        for row in iter {
            out.push_row(&row);
        }
        out
    }
}

impl<T> HeapSize for CsrTuples<T> {
    fn heap_size(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<T>() + self.offsets.capacity() * 4
    }
}

/// A borrowed window of [`CsrTuples`] rows.
///
/// `offsets` stays absolute into `data`, so subranging is just an
/// offsets-window — no row is copied and `data` is shared by every
/// window of the same container. Rows come out as plain slices.
#[derive(Debug, Clone, Copy)]
pub struct TupleSlices<'a, T = u32> {
    data: &'a [T],
    offsets: &'a [u32],
}

impl<'a, T> TupleSlices<'a, T> {
    /// An empty view.
    pub fn empty() -> Self {
        TupleSlices { data: &[], offsets: &[0] }
    }

    /// Number of rows in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the window holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() <= 1
    }

    /// Total elements across the window's rows.
    #[inline]
    pub fn total_elems(&self) -> usize {
        (self.offsets[self.offsets.len() - 1] - self.offsets[0]) as usize
    }

    /// Row `i` of the window.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates the window's rows in order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [T]> + Clone + '_ {
        self.offsets.windows(2).map(|w| &self.data[w[0] as usize..w[1] as usize])
    }

    /// The sub-window of rows `lo..hi`.
    #[inline]
    pub fn range(&self, lo: usize, hi: usize) -> TupleSlices<'a, T> {
        TupleSlices { data: self.data, offsets: &self.offsets[lo..=hi] }
    }

    /// The window's elements as one flat slice, in row order.
    #[inline]
    pub fn flat(&self) -> &'a [T] {
        &self.data[self.offsets[0] as usize..self.offsets[self.offsets.len() - 1] as usize]
    }

    /// The window's row offsets, absolute into the container's elements
    /// (so a whole container's view starts at 0).
    #[inline]
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }
}

impl<'a, T> IntoIterator for TupleSlices<'a, T> {
    type Item = &'a [T];
    type IntoIter = TupleSlicesIter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        TupleSlicesIter { view: self, next: 0 }
    }
}

/// Owning row iterator of a [`TupleSlices`] window.
#[derive(Debug, Clone)]
pub struct TupleSlicesIter<'a, T> {
    view: TupleSlices<'a, T>,
    next: usize,
}

impl<'a, T> Iterator for TupleSlicesIter<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        if self.next >= self.view.len() {
            return None;
        }
        let row = self.view.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.view.len() - self.next;
        (rem, Some(rem))
    }
}

impl<T> ExactSizeIterator for TupleSlicesIter<'_, T> {}

/// A bump slab for short-lived projected rows.
///
/// DFS descent repeatedly materializes small row sets — conditional
/// bases, compacted suffixes, projected member lists — whose lifetime is
/// one tree node. The arena is a [`CsrTuples`] that is `reset()` between
/// uses instead of dropped, so after warm-up the descent performs zero
/// steady-state allocation: rows land in already-grown buffers.
///
/// Two observability counters make the reuse measurable:
/// `alloc.projection_bytes` accumulates the bytes *used* (not capacity)
/// by each filled generation, and `alloc.arena_reuses` counts the
/// non-empty generations recycled by `reset()`. Both are flushed on
/// `reset()` and on drop, and both depend only on the rows the search
/// actually wrote — which is identical at any thread count — so they are
/// thread-invariant.
#[derive(Debug, Default)]
pub struct ProjectionArena {
    rows: CsrTuples<u32>,
    /// Per-row weights for callers that need them (conditional bases).
    weights: Vec<u64>,
    /// Generations recycled so far (non-empty resets).
    reuses: u64,
    /// Bytes used across flushed generations.
    used_bytes: u64,
}

impl ProjectionArena {
    /// An empty arena.
    pub fn new() -> Self {
        ProjectionArena::default()
    }

    /// Starts a new generation: flushes the previous one's accounting
    /// and clears the slab, keeping capacity.
    pub fn reset(&mut self) {
        if !self.rows.is_empty() || self.rows.open_len() > 0 {
            self.reuses += 1;
            self.used_bytes += (self.rows.data.len() * 4 + self.weights.len() * 8) as u64;
        }
        self.rows.clear();
        self.weights.clear();
    }

    /// The rows of the current generation.
    #[inline]
    pub fn rows(&self) -> &CsrTuples<u32> {
        &self.rows
    }

    /// Mutable access to the row slab, for callers that use the arena as
    /// a plain row store (no weights). Mixing this with the weighted API
    /// in one generation desynchronizes the parallel arrays — don't.
    #[inline]
    pub fn rows_mut(&mut self) -> &mut CsrTuples<u32> {
        &mut self.rows
    }

    /// The per-row weights of the current generation (parallel to
    /// [`ProjectionArena::rows`] when the caller pushes them).
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Appends a whole row with a weight.
    pub fn push_weighted(&mut self, row: &[u32], w: u64) {
        self.rows.push_row(row);
        self.weights.push(w);
    }

    /// Appends one element to the open row.
    #[inline]
    pub fn push_elem(&mut self, x: u32) {
        self.rows.push_elem(x);
    }

    /// Commits the open row with a weight.
    #[inline]
    pub fn commit_weighted(&mut self, w: u64) -> usize {
        self.weights.push(w);
        self.rows.commit_row()
    }

    /// Discards the open row.
    #[inline]
    pub fn discard_row(&mut self) {
        self.rows.discard_row();
    }

    /// Number of elements in the open row.
    #[inline]
    pub fn open_len(&self) -> usize {
        self.rows.open_len()
    }

    /// Heap bytes currently reserved by the slab.
    pub fn capacity_bytes(&self) -> usize {
        self.rows.heap_size() + self.weights.capacity() * 8
    }

    fn flush_metrics(&mut self) {
        if !self.rows.is_empty() || self.rows.open_len() > 0 {
            self.reuses += 1;
            self.used_bytes += (self.rows.data.len() * 4 + self.weights.len() * 8) as u64;
        }
        if self.used_bytes > 0 {
            gogreen_obs::metrics::add("alloc.projection_bytes", self.used_bytes);
            gogreen_obs::metrics::add("alloc.arena_reuses", self.reuses);
        }
        self.used_bytes = 0;
        self.reuses = 0;
    }
}

impl Drop for ProjectionArena {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

impl HeapSize for ProjectionArena {
    fn heap_size(&self) -> usize {
        self.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_container() {
        let c: CsrTuples = CsrTuples::new();
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.total_elems(), 0);
        assert_eq!(c.iter().count(), 0);
        assert!(c.flat().is_empty());
    }

    #[test]
    fn push_and_read_rows() {
        let mut c = CsrTuples::new();
        c.push_row(&[1, 2, 3]);
        c.push_row(&[]);
        c.push_row(&[9]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.row(0), &[1, 2, 3]);
        assert_eq!(c.row(1), &[] as &[u32]);
        assert_eq!(c.row(2), &[9]);
        assert_eq!(c.total_elems(), 4);
        assert_eq!(c.flat(), &[1, 2, 3, 9]);
        let rows: Vec<&[u32]> = c.iter().collect();
        let expect: Vec<&[u32]> = vec![&[1, 2, 3], &[], &[9]];
        assert_eq!(rows, expect);
    }

    #[test]
    fn push_with_keeps_a_prefix_and_append_shifts_offsets() {
        let mut c = CsrTuples::new();
        c.push_row(&[7]);
        // Keep the odd values of 1..=5, written unconditionally.
        c.push_with(5, 0, |slots| {
            let mut k = 0;
            for x in 1..=5u32 {
                slots[k] = x;
                k += (x % 2) as usize;
            }
            k
        });
        assert_eq!(c.open_row(), &[1, 3, 5]);
        assert!(c.commit_nonempty());
        c.push_with(2, 0, |_| 0);
        assert!(!c.commit_nonempty());
        assert_eq!(c.len(), 2);
        let mut d = CsrTuples::new();
        d.push_row(&[4, 4]);
        d.append(&c);
        d.append(&CsrTuples::new());
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![&[4, 4][..], &[7], &[1, 3, 5]]);
        assert_eq!(d.offsets(), &[0, 2, 3, 6]);
    }

    #[test]
    fn open_row_commit_and_discard() {
        let mut c = CsrTuples::new();
        c.push_elem(5);
        c.push_elem(3);
        assert_eq!(c.open_len(), 2);
        assert_eq!(c.len(), 0, "open row invisible");
        c.open_row_mut().sort_unstable();
        assert_eq!(c.open_row(), &[3, 5]);
        assert_eq!(c.commit_row(), 0);
        assert_eq!(c.row(0), &[3, 5]);

        c.push_elem(7);
        c.discard_row();
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_elems(), 2);
        assert_eq!(c.open_len(), 0);
    }

    #[test]
    fn pop_row_removes_last() {
        let mut c = CsrTuples::new();
        c.push_row(&[1]);
        c.push_row(&[2, 3]);
        c.pop_row();
        assert_eq!(c.len(), 1);
        assert_eq!(c.row(0), &[1]);
        assert_eq!(c.total_elems(), 1);
    }

    #[test]
    fn raw_parts_round_trip() {
        let mut c = CsrTuples::new();
        c.push_row(&[1, 2]);
        c.push_row(&[3]);
        let (data, offsets) = c.clone().into_raw_parts();
        assert_eq!(offsets, c.offsets());
        let back = CsrTuples::from_raw_parts(data, offsets);
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn raw_parts_rejects_mismatched_lengths() {
        let _ = CsrTuples::from_raw_parts(vec![1u32, 2], vec![0, 1]);
    }

    #[test]
    fn from_iter_round_trip() {
        let rows = vec![vec![1u32, 2], vec![3], vec![]];
        let c: CsrTuples = rows.clone().into_iter().collect();
        assert_eq!(c.iter().map(|r| r.to_vec()).collect::<Vec<_>>(), rows);
    }

    #[test]
    fn slices_window_and_range() {
        let mut c = CsrTuples::new();
        c.push_row(&[1, 2]);
        c.push_row(&[3]);
        c.push_row(&[4, 5, 6]);
        let v = c.as_slices();
        assert_eq!(v.len(), 3);
        assert_eq!(v.row(2), &[4, 5, 6]);
        assert_eq!(v.total_elems(), 6);
        assert_eq!(v.flat(), &[1, 2, 3, 4, 5, 6]);

        let mid = v.range(1, 3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.row(0), &[3]);
        assert_eq!(mid.row(1), &[4, 5, 6]);
        assert_eq!(mid.flat(), &[3, 4, 5, 6]);
        assert_eq!(mid.total_elems(), 4);

        let none = v.range(1, 1);
        assert!(none.is_empty());
        assert_eq!(none.total_elems(), 0);

        let rows: Vec<&[u32]> = mid.into_iter().collect();
        let expect: Vec<&[u32]> = vec![&[3], &[4, 5, 6]];
        assert_eq!(rows, expect);
    }

    #[test]
    fn empty_view() {
        let v: TupleSlices = TupleSlices::empty();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.into_iter().count(), 0);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c = CsrTuples::with_capacity(4, 16);
        c.push_row(&[1, 2, 3]);
        let cap = c.data.capacity();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.data.capacity(), cap);
    }

    #[test]
    fn heap_size_counts_both_buffers() {
        let mut c: CsrTuples = CsrTuples::new();
        c.push_row(&[1, 2, 3]);
        assert_eq!(c.heap_size(), c.data.capacity() * 4 + c.offsets.capacity() * 4);
    }

    #[test]
    fn arena_reuse_cycle() {
        let mut a = ProjectionArena::new();
        a.push_weighted(&[1, 2], 5);
        a.push_elem(9);
        assert_eq!(a.commit_weighted(2), 1);
        assert_eq!(a.rows().len(), 2);
        assert_eq!(a.weights(), &[5, 2]);
        a.reset();
        assert_eq!(a.rows().len(), 0);
        assert!(a.weights().is_empty());
        assert_eq!(a.reuses, 1);
        // Second generation lands in the same buffers.
        a.push_weighted(&[7], 1);
        assert_eq!(a.rows().row(0), &[7]);
        // Empty resets are not counted as reuse.
        a.reset();
        a.reset();
        assert_eq!(a.reuses, 2);
    }

    #[test]
    fn arena_discard_open_row() {
        let mut a = ProjectionArena::new();
        a.push_elem(1);
        assert_eq!(a.open_len(), 1);
        a.discard_row();
        assert_eq!(a.open_len(), 0);
        assert_eq!(a.rows().len(), 0);
    }
}
