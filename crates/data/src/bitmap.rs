//! Shared word-wise bitmap kernels and the tidset bump arena.
//!
//! Two subsystems run AND-chains over `u64` bitmaps: the compressor's
//! `CoverIndex` vertical sweep (per-item tuple columns, claim chains)
//! and the vertical mining engine (`miners::engine::vt`, per-rank tid
//! columns, intersection counting). Both used to open-code the same
//! four-line loop; this module is the single home for those kernels so
//! the two stay instruction-identical and get optimized once.
//!
//! # Build-time kernel selection
//!
//! Every kernel has two implementations chosen at build time:
//!
//! * the default, a **4-way unrolled scalar** loop — four independent
//!   accumulator lanes so the popcounts pipeline on any stable
//!   toolchain;
//! * an explicit `std::simd` path behind the `portable-simd` cargo
//!   feature (nightly-only, since `portable_simd` is an unstable
//!   library feature). Enabling the feature swaps the kernel bodies;
//!   every public signature and result is identical, so the rest of the
//!   workspace never notices which one it got.
//!
//! Callers count their own kernel traffic (`cover.words_scanned`,
//! `mine.bitmap_words_scanned`): the cover sweep's counter is
//! thread-*variant* while the mining engine's is invariant, so the
//! accounting policy belongs at the call site, not here.

use gogreen_util::HeapSize;

/// Number of `u64` words needed to hold `n` bits.
#[inline]
pub const fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Sets bit `i` of the column.
#[inline]
pub fn set_bit(col: &mut [u64], i: usize) {
    col[i / 64] |= 1u64 << (i % 64);
}

/// True when bit `i` of the column is set.
#[inline]
pub fn get_bit(col: &[u64], i: usize) -> bool {
    col[i / 64] & (1u64 << (i % 64)) != 0
}

/// Sets the bit run `[lo, lo + len)` word-wise: interior words are
/// filled whole, so a run costs O(len / 64) — this is what makes the
/// vertical engine's group-at-a-time column build cheap (one run per
/// pattern item covers every member of the group).
pub fn set_run(col: &mut [u64], lo: usize, len: usize) {
    if len == 0 {
        return;
    }
    let hi = lo + len; // exclusive
    let (wl, bl) = (lo / 64, lo % 64);
    let (wh, bh) = (hi / 64, hi % 64);
    if wl == wh {
        // Within one word: bl < bh <= 63, so len < 64 and the shift is
        // in range.
        col[wl] |= ((1u64 << len) - 1) << bl;
    } else {
        col[wl] |= !0u64 << bl;
        for w in col[wl + 1..wh].iter_mut() {
            *w = !0;
        }
        if bh > 0 {
            col[wh] |= (1u64 << bh) - 1;
        }
    }
}

/// Number of set bits in the column.
#[inline]
pub fn popcount(col: &[u64]) -> u64 {
    kernel::popcount(col)
}

/// Fused intersection cardinality: `popcount(a & b)` without
/// materializing the intersection. The vertical engine's candidate
/// test.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    kernel::and_popcount(a, b)
}

/// Fused difference cardinality: `popcount(a & !b)` without
/// materializing the difference — the size of the diffset a child
/// tidset loses against its parent (`sup(child) = sup(parent) − |diff|`
/// in dEclat arithmetic).
#[inline]
pub fn andnot_popcount(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    kernel::andnot_popcount(a, b)
}

/// `dst = a & b`, returning the OR of the result words (zero means the
/// intersection is empty). The first step of an AND-chain.
#[inline]
pub fn select_and(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    kernel::select_and(dst, a, b)
}

/// `acc &= col`, returning the OR of the result words (zero means the
/// chain died). The continuation step of an AND-chain.
#[inline]
pub fn and_into(acc: &mut [u64], col: &[u64]) -> u64 {
    debug_assert_eq!(acc.len(), col.len());
    kernel::and_into(acc, col)
}

/// Appends the set-bit positions of `a & b` to `out`, ascending — the
/// fused bitmap→tid-list transition (materialize the child as a sparse
/// list while the parent is still dense).
pub fn collect_and(a: &[u64], b: &[u64], out: &mut Vec<u32>) {
    debug_assert_eq!(a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut w = x & y;
        while w != 0 {
            out.push((i as u32) * 64 + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// Appends the set-bit positions of `a & !b` to `out`, ascending — the
/// fused bitmap→diffset transition (the tids column `a` loses against
/// column `b`).
pub fn collect_andnot(a: &[u64], b: &[u64], out: &mut Vec<u32>) {
    debug_assert_eq!(a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut w = x & !y;
        while w != 0 {
            out.push((i as u32) * 64 + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// Appends the set-bit positions of `col` to `out`, ascending (bitmap →
/// sorted tid list).
pub fn to_tidlist(col: &[u64], out: &mut Vec<u32>) {
    for (i, &x) in col.iter().enumerate() {
        let mut w = x;
        while w != 0 {
            out.push((i as u32) * 64 + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// Sets every tid of `list` in `col` (sorted tid list → bitmap; ORs
/// into whatever is already there).
pub fn tidlist_to_bitmap(list: &[u32], col: &mut [u64]) {
    for &t in list {
        set_bit(col, t as usize);
    }
}

/// Length-ratio threshold above which the sorted-list kernels switch
/// from the linear two-pointer merge to galloping search over the
/// longer side. Size-skewed intersections then cost
/// O(short · log(long)) instead of O(short + long).
const GALLOP_RATIO: usize = 16;

/// Index of the first element of `l` that is `>= x`: exponential probe
/// from the front, then binary search inside the final probe window.
#[inline]
fn first_ge(l: &[u32], x: u32) -> usize {
    let mut bound = 1;
    while bound < l.len() && l[bound] < x {
        bound *= 2;
    }
    let lo = bound / 2;
    let hi = (bound + 1).min(l.len());
    lo + l[lo..hi].partition_point(|&v| v < x)
}

/// Two-pointer merge count in branchless form: both cursors advance by
/// comparison results (compiled to conditional moves), so the loop has
/// no data-dependent branch to mispredict — this is the pair-counting
/// hot loop of the sparse representations, called O(k²) per node.
fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        c += (x == y) as u64;
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    c
}

fn gallop_count(s: &[u32], l: &[u32]) -> u64 {
    let (mut base, mut c) = (0, 0u64);
    for &x in s {
        base += first_ge(&l[base..], x);
        if base == l.len() {
            break;
        }
        if l[base] == x {
            c += 1;
            base += 1;
        }
    }
    c
}

/// Cardinality of the intersection of two sorted tid lists — the
/// tid-list representation's candidate test. Linear merge for
/// comparably sized inputs, galloping over the longer side when the
/// ratio exceeds `GALLOP_RATIO`.
pub fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.is_empty() {
        return 0;
    }
    if l.len() / s.len() >= GALLOP_RATIO {
        gallop_count(s, l)
    } else {
        merge_count(s, l)
    }
}

/// Appends the intersection of two sorted tid lists to `out`, ascending.
/// Same merge/galloping split as [`intersect_count`].
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.is_empty() {
        return;
    }
    if l.len() / s.len() >= GALLOP_RATIO {
        let mut base = 0;
        for &x in s {
            base += first_ge(&l[base..], x);
            if base == l.len() {
                break;
            }
            if l[base] == x {
                out.push(x);
                base += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < s.len() && j < l.len() {
            match s[i].cmp(&l[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(s[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// Appends `a \ b` (elements of the sorted list `a` absent from the
/// sorted list `b`) to `out`, ascending. Serves both the
/// tidlist→diffset transition (`t(Pa) \ t(Pb)`) and the diffset descent
/// (`d(Pb) \ d(Pa)`). Gallops over `b` when it dwarfs `a`.
pub fn diff_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    if a.is_empty() {
        return;
    }
    if b.len() / a.len() >= GALLOP_RATIO {
        let mut base = 0;
        for &x in a {
            base += first_ge(&b[base..], x);
            if base < b.len() && b[base] == x {
                base += 1;
            } else {
                out.push(x);
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < a.len() {
            if j == b.len() || a[i] < b[j] {
                out.push(a[i]);
                i += 1;
            } else if a[i] > b[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
    }
}

/// The 4-way unrolled scalar kernels (default build).
#[cfg(not(feature = "portable-simd"))]
mod kernel {
    pub fn popcount(col: &[u64]) -> u64 {
        let it = col.chunks_exact(4);
        let tail = it.remainder();
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for x in it {
            c0 += x[0].count_ones() as u64;
            c1 += x[1].count_ones() as u64;
            c2 += x[2].count_ones() as u64;
            c3 += x[3].count_ones() as u64;
        }
        let mut total = c0 + c1 + c2 + c3;
        for x in tail {
            total += x.count_ones() as u64;
        }
        total
    }

    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let mut ia = a.chunks_exact(4);
        let mut ib = b.chunks_exact(4);
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for (x, y) in (&mut ia).zip(&mut ib) {
            c0 += (x[0] & y[0]).count_ones() as u64;
            c1 += (x[1] & y[1]).count_ones() as u64;
            c2 += (x[2] & y[2]).count_ones() as u64;
            c3 += (x[3] & y[3]).count_ones() as u64;
        }
        let mut total = c0 + c1 + c2 + c3;
        for (x, y) in ia.remainder().iter().zip(ib.remainder()) {
            total += (x & y).count_ones() as u64;
        }
        total
    }

    pub fn andnot_popcount(a: &[u64], b: &[u64]) -> u64 {
        let mut ia = a.chunks_exact(4);
        let mut ib = b.chunks_exact(4);
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for (x, y) in (&mut ia).zip(&mut ib) {
            c0 += (x[0] & !y[0]).count_ones() as u64;
            c1 += (x[1] & !y[1]).count_ones() as u64;
            c2 += (x[2] & !y[2]).count_ones() as u64;
            c3 += (x[3] & !y[3]).count_ones() as u64;
        }
        let mut total = c0 + c1 + c2 + c3;
        for (x, y) in ia.remainder().iter().zip(ib.remainder()) {
            total += (x & !y).count_ones() as u64;
        }
        total
    }

    pub fn select_and(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let mut id = dst.chunks_exact_mut(4);
        let mut ia = a.chunks_exact(4);
        let mut ib = b.chunks_exact(4);
        let (mut o0, mut o1, mut o2, mut o3) = (0u64, 0u64, 0u64, 0u64);
        for ((d, x), y) in (&mut id).zip(&mut ia).zip(&mut ib) {
            d[0] = x[0] & y[0];
            o0 |= d[0];
            d[1] = x[1] & y[1];
            o1 |= d[1];
            d[2] = x[2] & y[2];
            o2 |= d[2];
            d[3] = x[3] & y[3];
            o3 |= d[3];
        }
        let mut any = o0 | o1 | o2 | o3;
        for ((d, x), y) in id.into_remainder().iter_mut().zip(ia.remainder()).zip(ib.remainder()) {
            *d = x & y;
            any |= *d;
        }
        any
    }

    pub fn and_into(acc: &mut [u64], col: &[u64]) -> u64 {
        let mut ia = acc.chunks_exact_mut(4);
        let mut ic = col.chunks_exact(4);
        let (mut o0, mut o1, mut o2, mut o3) = (0u64, 0u64, 0u64, 0u64);
        for (x, y) in (&mut ia).zip(&mut ic) {
            x[0] &= y[0];
            o0 |= x[0];
            x[1] &= y[1];
            o1 |= x[1];
            x[2] &= y[2];
            o2 |= x[2];
            x[3] &= y[3];
            o3 |= x[3];
        }
        let mut any = o0 | o1 | o2 | o3;
        for (x, y) in ia.into_remainder().iter_mut().zip(ic.remainder()) {
            *x &= *y;
            any |= *x;
        }
        any
    }
}

/// The explicit `std::simd` kernels (`--features portable-simd`,
/// nightly toolchains only).
#[cfg(feature = "portable-simd")]
mod kernel {
    use std::simd::num::SimdUint;
    use std::simd::u64x4;

    pub fn popcount(col: &[u64]) -> u64 {
        let n = col.len() / 4 * 4;
        let mut acc = u64x4::splat(0);
        let mut i = 0;
        while i < n {
            acc += u64x4::from_slice(&col[i..i + 4]).count_ones();
            i += 4;
        }
        let mut total = acc.reduce_sum();
        for x in &col[n..] {
            total += x.count_ones() as u64;
        }
        total
    }

    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len() / 4 * 4;
        let mut acc = u64x4::splat(0);
        let mut i = 0;
        while i < n {
            let x = u64x4::from_slice(&a[i..i + 4]);
            let y = u64x4::from_slice(&b[i..i + 4]);
            acc += (x & y).count_ones();
            i += 4;
        }
        let mut total = acc.reduce_sum();
        for (x, y) in a[n..].iter().zip(&b[n..]) {
            total += (x & y).count_ones() as u64;
        }
        total
    }

    pub fn andnot_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len() / 4 * 4;
        let mut acc = u64x4::splat(0);
        let mut i = 0;
        while i < n {
            let x = u64x4::from_slice(&a[i..i + 4]);
            let y = u64x4::from_slice(&b[i..i + 4]);
            acc += (x & !y).count_ones();
            i += 4;
        }
        let mut total = acc.reduce_sum();
        for (x, y) in a[n..].iter().zip(&b[n..]) {
            total += (x & !y).count_ones() as u64;
        }
        total
    }

    pub fn select_and(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let n = dst.len() / 4 * 4;
        let mut any = u64x4::splat(0);
        let mut i = 0;
        while i < n {
            let x = u64x4::from_slice(&a[i..i + 4]);
            let y = u64x4::from_slice(&b[i..i + 4]);
            let r = x & y;
            r.copy_to_slice(&mut dst[i..i + 4]);
            any |= r;
            i += 4;
        }
        let mut any = any.reduce_or();
        for ((d, x), y) in dst[n..].iter_mut().zip(&a[n..]).zip(&b[n..]) {
            *d = x & y;
            any |= *d;
        }
        any
    }

    pub fn and_into(acc: &mut [u64], col: &[u64]) -> u64 {
        let n = acc.len() / 4 * 4;
        let mut any = u64x4::splat(0);
        let mut i = 0;
        while i < n {
            let x = u64x4::from_slice(&acc[i..i + 4]);
            let y = u64x4::from_slice(&col[i..i + 4]);
            let r = x & y;
            r.copy_to_slice(&mut acc[i..i + 4]);
            any |= r;
            i += 4;
        }
        let mut any = any.reduce_or();
        for (x, y) in acc[n..].iter_mut().zip(&col[n..]) {
            *x &= *y;
            any |= *x;
        }
        any
    }
}

/// A bump arena of tidset columns in either vertical representation.
///
/// The vertical engine materializes one generation of child tidsets per
/// lexicographic node and `reset()`s the arena between sibling
/// subtrees. A generation is *either* `k` equal-width bitmap columns in
/// the `u64` slab (appended with [`BitsetArena::append_and`]) *or* `k`
/// variable-length sorted `u32` columns — tid lists or diffsets — in
/// the tid slab (appended with [`BitsetArena::push_tids`], bounded by
/// the per-column end offsets). Capacity is pre-reserved from the
/// candidate upper bound before a generation is filled, so after
/// warm-up (and, when the bound is tight, from the very first child)
/// descent allocates nothing. Both slabs persist across generations, so
/// a node that switches representation mid-descent still reuses
/// whatever its siblings reserved.
///
/// Accounting mirrors [`crate::ProjectionArena`]: the *used* (not
/// reserved) bytes of every filled generation — 8 per bitmap word plus
/// 4 per tid — accumulate into `alloc.projection_bytes` and recycled
/// generations into `alloc.arena_reuses`, flushed on drop. Both depend
/// only on the tidsets the search materializes — identical at any
/// thread count — so they stay thread-invariant.
#[derive(Debug, Default)]
pub struct BitsetArena {
    words: Vec<u64>,
    /// Variable-length `u32` columns (tid lists or diffsets).
    tids: Vec<u32>,
    /// End offset of each tid column, ascending; column `i` spans
    /// `tid_ends[i-1]..tid_ends[i]` (from 0 for the first).
    tid_ends: Vec<u32>,
    /// Generations recycled so far (non-empty resets).
    reuses: u64,
    /// Bytes used across flushed generations.
    used_bytes: u64,
}

impl BitsetArena {
    /// An empty arena.
    pub fn new() -> Self {
        BitsetArena::default()
    }

    /// Starts a new generation: flushes the previous one's accounting
    /// and clears both slabs, keeping capacity.
    pub fn reset(&mut self) {
        if !self.words.is_empty() || !self.tids.is_empty() {
            self.reuses += 1;
            self.used_bytes += (self.words.len() * 8 + self.tids.len() * 4) as u64;
        }
        self.words.clear();
        self.tids.clear();
        self.tid_ends.clear();
    }

    /// Pre-reserves room for `n` more words (the bound-driven
    /// pre-sizing hook; a no-op once capacity covers it).
    pub fn reserve_words(&mut self, n: usize) {
        self.words.reserve(n);
    }

    /// Pre-reserves room for `n` more tids (the bound-driven pre-sizing
    /// hook for the sparse representations).
    pub fn reserve_tids(&mut self, n: usize) {
        self.tids.reserve(n);
    }

    /// Appends the column `a & b` to the current generation.
    pub fn append_and(&mut self, a: &[u64], b: &[u64]) {
        debug_assert_eq!(a.len(), b.len());
        let start = self.words.len();
        self.words.resize(start + a.len(), 0);
        select_and(&mut self.words[start..], a, b);
    }

    /// Appends one variable-length tid column: `fill` pushes its sorted
    /// tids onto the slab, and the column boundary is recorded. Returns
    /// the column's length.
    pub fn push_tids(&mut self, fill: impl FnOnce(&mut Vec<u32>)) -> usize {
        let start = self.tids.len();
        fill(&mut self.tids);
        self.tid_ends.push(self.tids.len() as u32);
        self.tids.len() - start
    }

    /// The current generation's words, in append order.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The current generation's tid slab, in append order.
    #[inline]
    pub fn tids(&self) -> &[u32] {
        &self.tids
    }

    /// Per-column end offsets into [`BitsetArena::tids`].
    #[inline]
    pub fn tid_ends(&self) -> &[u32] {
        &self.tid_ends
    }

    /// Number of words in the current generation.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the current generation holds neither bitmap words nor
    /// tid columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty() && self.tids.is_empty()
    }

    /// Heap bytes currently reserved by both slabs.
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * 8 + self.tids.capacity() * 4 + self.tid_ends.capacity() * 4
    }

    fn flush_metrics(&mut self) {
        if !self.words.is_empty() || !self.tids.is_empty() {
            self.reuses += 1;
            self.used_bytes += (self.words.len() * 8 + self.tids.len() * 4) as u64;
        }
        if self.used_bytes > 0 {
            gogreen_obs::metrics::add("alloc.projection_bytes", self.used_bytes);
            gogreen_obs::metrics::add("alloc.arena_reuses", self.reuses);
        }
        self.used_bytes = 0;
        self.reuses = 0;
    }
}

impl Drop for BitsetArena {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

impl HeapSize for BitsetArena {
    fn heap_size(&self) -> usize {
        self.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference single-step loops the kernels must match bit-for-bit.
    fn ref_and_popcount(a: &[u64], b: &[u64]) -> u64 {
        a.iter().zip(b).map(|(x, y)| (x & y).count_ones() as u64).sum()
    }

    fn test_vectors(len: usize) -> (Vec<u64>, Vec<u64>) {
        // Deterministic pseudo-random words (splitmix64).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let a: Vec<u64> = (0..len).map(|_| next()).collect();
        let b: Vec<u64> = (0..len).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn and_popcount_matches_reference_at_all_tail_lengths() {
        // Lengths straddling the 4-word unroll boundary, including the
        // empty column.
        for len in 0..=13 {
            let (a, b) = test_vectors(len);
            assert_eq!(and_popcount(&a, &b), ref_and_popcount(&a, &b), "len={len}");
            assert_eq!(popcount(&a), a.iter().map(|x| x.count_ones() as u64).sum::<u64>());
        }
    }

    #[test]
    fn select_and_and_into_match_reference() {
        for len in 0..=13 {
            let (a, b) = test_vectors(len);
            let expect: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            let expect_any = expect.iter().fold(0, |o, w| o | w);

            let mut dst = vec![!0u64; len];
            let any = select_and(&mut dst, &a, &b);
            assert_eq!(dst, expect, "select_and len={len}");
            assert_eq!(any, expect_any);

            let mut acc = a.clone();
            let any = and_into(&mut acc, &b);
            assert_eq!(acc, expect, "and_into len={len}");
            assert_eq!(any, expect_any);
        }
    }

    #[test]
    fn empty_intersection_reports_zero_any() {
        let a = vec![0b1010u64, 0, 7];
        let b = vec![0b0101u64, !0, 8];
        let mut dst = vec![0u64; 3];
        assert_eq!(select_and(&mut dst, &a, &b), 0);
        let mut acc = a.clone();
        assert_eq!(and_into(&mut acc, &b), 0);
        assert_eq!(and_popcount(&a, &b), 0);
    }

    #[test]
    fn set_bit_get_bit_round_trip() {
        let mut col = vec![0u64; 3];
        for i in [0usize, 1, 63, 64, 127, 130] {
            assert!(!get_bit(&col, i));
            set_bit(&mut col, i);
            assert!(get_bit(&col, i));
        }
        assert_eq!(popcount(&col), 6);
    }

    #[test]
    fn set_run_matches_per_bit_fill() {
        // Runs within a word, across word boundaries, word-aligned, and
        // multi-word interiors.
        for &(lo, len) in
            &[(0usize, 0usize), (0, 1), (3, 7), (0, 64), (60, 8), (64, 64), (1, 190), (63, 2)]
        {
            let words = words_for(lo + len.max(1));
            let mut fast = vec![0u64; words];
            let mut slow = vec![0u64; words];
            set_run(&mut fast, lo, len);
            for i in lo..lo + len {
                set_bit(&mut slow, i);
            }
            assert_eq!(fast, slow, "lo={lo} len={len}");
        }
    }

    #[test]
    fn set_run_ors_into_existing_bits() {
        let mut col = vec![0u64; 2];
        set_bit(&mut col, 0);
        set_run(&mut col, 62, 4);
        assert!(get_bit(&col, 0));
        for i in 62..66 {
            assert!(get_bit(&col, i), "bit {i}");
        }
        assert_eq!(popcount(&col), 5);
    }

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
    }

    #[test]
    fn arena_generations_and_accounting() {
        let mut a = BitsetArena::new();
        assert!(a.is_empty());
        a.reserve_words(8);
        let cap = a.capacity_bytes();
        assert!(cap >= 64);
        a.append_and(&[0b1100, 5], &[0b0110, 7]);
        assert_eq!(a.words(), &[0b0100, 5]);
        assert_eq!(a.len(), 2);
        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.reuses, 1);
        assert_eq!(a.used_bytes, 16);
        // Second generation reuses the reservation.
        a.append_and(&[1], &[3]);
        assert_eq!(a.words(), &[1]);
        assert_eq!(a.capacity_bytes(), cap);
        // Empty resets are not counted as reuse.
        a.reset();
        a.reset();
        assert_eq!(a.reuses, 2);
    }

    #[test]
    fn arena_heap_size_tracks_capacity() {
        let mut a = BitsetArena::new();
        assert_eq!(a.heap_size(), 0);
        a.reserve_words(16);
        assert_eq!(a.heap_size(), a.capacity_bytes());
    }

    #[test]
    fn andnot_popcount_matches_reference_at_all_tail_lengths() {
        // Lengths straddling the 4-word unroll/SIMD-lane boundary,
        // including the empty column.
        for len in 0..=13 {
            let (a, b) = test_vectors(len);
            let expect: u64 = a.iter().zip(&b).map(|(x, y)| (x & !y).count_ones() as u64).sum();
            assert_eq!(andnot_popcount(&a, &b), expect, "len={len}");
        }
    }

    #[test]
    fn andnot_popcount_empty_and_full_columns() {
        let (a, _) = test_vectors(7);
        let zero = vec![0u64; 7];
        let full = vec![!0u64; 7];
        // a \ ∅ = a, a \ U = ∅, U \ a = |!a|, ∅ \ a = ∅.
        assert_eq!(andnot_popcount(&a, &zero), popcount(&a));
        assert_eq!(andnot_popcount(&a, &full), 0);
        assert_eq!(andnot_popcount(&full, &a), 7 * 64 - popcount(&a));
        assert_eq!(andnot_popcount(&zero, &a), 0);
    }

    /// Per-bit reference for the collect kernels.
    fn ref_bits(col: &[u64]) -> Vec<u32> {
        (0..col.len() * 64).filter(|&i| get_bit(col, i)).map(|i| i as u32).collect()
    }

    #[test]
    fn collect_kernels_match_per_bit_references() {
        for len in 0..=5 {
            let (a, b) = test_vectors(len);
            let and_ref: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            let andnot_ref: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & !y).collect();
            let mut out = Vec::new();
            collect_and(&a, &b, &mut out);
            assert_eq!(out, ref_bits(&and_ref), "collect_and len={len}");
            out.clear();
            collect_andnot(&a, &b, &mut out);
            assert_eq!(out, ref_bits(&andnot_ref), "collect_andnot len={len}");
            out.clear();
            to_tidlist(&a, &mut out);
            assert_eq!(out, ref_bits(&a), "to_tidlist len={len}");
        }
    }

    #[test]
    fn bitmap_tidlist_round_trip() {
        // Word-boundary bits included on purpose.
        let tids = [0u32, 1, 63, 64, 127, 128, 190];
        let mut col = vec![0u64; 3];
        tidlist_to_bitmap(&tids, &mut col);
        let mut back = Vec::new();
        to_tidlist(&col, &mut back);
        assert_eq!(back, tids);
        assert_eq!(popcount(&col), tids.len() as u64);
    }

    /// Deterministic sorted tid lists for the list-kernel tests.
    fn list_vectors(len_a: usize, len_b: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut gen = |len: usize| {
            let mut v: Vec<u32> = (0..len).map(|_| (next() % 4096) as u32).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        (gen(len_a), gen(len_b))
    }

    fn ref_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    fn ref_diff(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| !b.contains(x)).copied().collect()
    }

    #[test]
    fn list_kernels_match_references_across_the_gallop_threshold() {
        // Size pairs on both sides of GALLOP_RATIO, plus empty and
        // identical inputs, so the merge and the galloping paths both
        // run and agree with the per-element references.
        for &(la, lb) in &[(0usize, 0usize), (0, 9), (5, 5), (40, 60), (4, 400), (600, 3), (1, 1)] {
            let (a, b) = list_vectors(la, lb, 0xabc0 + (la * 1000 + lb) as u64);
            let want_i = ref_intersect(&a, &b);
            let want_d = ref_diff(&a, &b);
            assert_eq!(intersect_count(&a, &b), want_i.len() as u64, "count {la}x{lb}");
            assert_eq!(intersect_count(&b, &a), want_i.len() as u64, "count sym {la}x{lb}");
            let mut out = Vec::new();
            intersect_into(&a, &b, &mut out);
            assert_eq!(out, want_i, "intersect {la}x{lb}");
            out.clear();
            diff_into(&a, &b, &mut out);
            assert_eq!(out, want_d, "diff {la}x{lb}");
            // Self-intersection/difference sanity.
            assert_eq!(intersect_count(&a, &a), a.len() as u64);
            out.clear();
            diff_into(&a, &a, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn first_ge_probes_every_window() {
        let l: Vec<u32> = (0..200).map(|i| i * 3).collect();
        for x in 0..620u32 {
            let want = l.partition_point(|&v| v < x);
            assert_eq!(first_ge(&l, x), want, "x={x}");
        }
        assert_eq!(first_ge(&[], 5), 0);
    }

    #[test]
    fn arena_tid_columns_and_accounting() {
        let mut a = BitsetArena::new();
        a.reserve_tids(16);
        let n = a.push_tids(|out| out.extend([1u32, 4, 9]));
        assert_eq!(n, 3);
        a.push_tids(|_| {});
        a.push_tids(|out| out.push(7));
        assert_eq!(a.tids(), &[1, 4, 9, 7]);
        assert_eq!(a.tid_ends(), &[3, 3, 4]);
        assert!(!a.is_empty());
        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.reuses, 1);
        assert_eq!(a.used_bytes, 16); // 4 tids × 4 bytes
                                      // Mixed generation: words and tids both count.
        a.append_and(&[3], &[1]);
        a.push_tids(|out| out.push(2));
        a.reset();
        assert_eq!(a.used_bytes, 16 + 8 + 4);
        assert_eq!(a.reuses, 2);
    }
}
