//! The vertical (Eclat-style) family engine: tidset intersection mining
//! with **per-node adaptive representations**, over the compressed rank
//! layout [`CompressedRankDb`].
//!
//! Where the three horizontal families walk tuples, this engine walks
//! *columns*: every rank owns a vertical set of the tids containing it,
//! support is the set's cardinality, and a candidate test is a set
//! intersection. What changed from the original dense engine is that a
//! column is no longer always a bitmap — each lexicographic node stores
//! its columns in whichever of three representations the node's shape
//! makes cheapest:
//!
//! * **bitmap** — `⌈n/64⌉` words per column, fused AND + popcount
//!   candidate tests ([`gogreen_data::bitmap::and_popcount`]). Best
//!   when columns are dense: cost is width, independent of support.
//! * **tid-list** — the sorted `u32` tids themselves, merge/galloping
//!   intersection ([`gogreen_data::bitmap::intersect_count`]). Cost is
//!   the support, independent of the universe width — the sparse
//!   regime's representation.
//! * **diffset** (dEclat, Zaki & Gouda) — the sorted tids the column
//!   *loses* against its parent node's tidset, so
//!   `sup(child) = sup(parent) − |diff|`. Deep dense chains, where a
//!   child keeps almost all of its parent, shrink toward empty columns
//!   instead of staying support-wide.
//!
//! The **switching policy** (`auto`) prices one node's column set in
//! bytes under each representation — `k·width·8` for bitmaps, `4·Σsup`
//! for tid-lists, `4·(k·sup_parent − Σsup)` for diffsets — and takes
//! the cheapest reachable one. Reachability is a one-way lattice
//! (bitmap → tid-list → diffset): density only falls with depth, every
//! transition kernel exists along those edges (a diffset cannot cheaply
//! turn back into an absolute set), and the decision depends only on
//! logical values (supports, widths), never on machine state — so the
//! choice, and every counter it drives, is bit-identical at any thread
//! count. Forced modes ([`VtRepr`], CLI `--vt-repr`) pin one
//! representation everywhere for ablation; `diffset` necessarily roots
//! as tid-lists (a root diffset would be a complement) and goes
//! differential from depth 1.
//!
//! The grouped substrate changes how root columns are *built*, never
//! how the search runs: a group's members occupy one contiguous tid
//! run, so each pattern item fills its whole run word-wise in a bitmap
//! ([`gogreen_data::bitmap::set_run`]) or pushes one `lo..hi` range
//! into a tid-list — O(count/64) and O(count) per item respectively —
//! while outlier residues and plain tuples pay per-bit/per-tid cost. On
//! a layout with zero groups the run arm loops zero times.
//!
//! Each lexicographic node counts all extension pairs without
//! materializing anything, then prunes with two representation-agnostic
//! devices (both consume only pair supports):
//!
//! * **inclusion-chain shortcut** — when every pair support equals the
//!   smaller member's support the tidsets form a chain under ⊆ and the
//!   node finishes by direct subset enumeration;
//! * **candidate-bound termination** — the Kruskal–Katona cascade of
//!   [`crate::bound`]: when zero deeper candidates are possible the
//!   frequent pairs are emitted flat (`mine.bound_prunes`).
//!
//! Surviving children materialize their columns into a per-depth
//! [`BitsetArena`] carrying both a `u64` and a `u32` slab, pre-reserved
//! from the level bound *in the chosen representation's unit* and
//! `reset()` between siblings — steady-state descent allocates nothing.
//! Kernel traffic is accounted per representation:
//! `mine.bitmap_words_scanned` (words through the AND kernels),
//! `mine.tidlist_elems` / `mine.diffset_words` (u32 elements through
//! the list kernels on tid-list / diffset columns), plus
//! `mine.repr_switches` (nodes whose representation differs from their
//! parent's) and the `mine.node_density` histogram (average child
//! density in 1024ths at each materialized node). All are functions of
//! logical sizes only — thread-invariant like the rest of `mine.*`.
//!
//! The root fans out over [`crate::common::fan_out_ordered`] like every
//! other family: each first-level extension is one unit computing its
//! own pair row against the shared read-only root columns, so the
//! stream is byte-identical and all `mine.*` counters bit-identical at
//! any thread count — and byte-identical across all four forced modes,
//! since representation never changes which patterns exist.

use crate::bound;
use crate::common::{fan_out_ordered, for_each_subset, RankEmitter};
use crate::treeproj::PairMatrix;
use gogreen_data::bitmap::{self, BitsetArena};
use gogreen_data::{CompressedRankDb, FList, PatternSink};
use gogreen_obs::{histogram, metrics};
use gogreen_util::pool::Parallelism;

/// Vertical representation mode: the `--vt-repr` knob. `Auto` switches
/// per node along the bitmap → tid-list → diffset lattice; the other
/// three force one representation everywhere (ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VtRepr {
    /// Density-driven per-node switching (the default).
    #[default]
    Auto,
    /// Dense `u64` tid-bitmaps everywhere (the pre-adaptive engine).
    Bitmap,
    /// Sorted `u32` tid-lists everywhere.
    Tidlist,
    /// Diffsets below depth 1 (the root itself holds tid-lists; a root
    /// diffset would be a complement).
    Diffset,
}

impl VtRepr {
    /// All modes, in `--vt-repr` help order.
    pub const ALL: [VtRepr; 4] = [VtRepr::Auto, VtRepr::Bitmap, VtRepr::Tidlist, VtRepr::Diffset];

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            VtRepr::Auto => "auto",
            VtRepr::Bitmap => "bitmap",
            VtRepr::Tidlist => "tidlist",
            VtRepr::Diffset => "diffset",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<VtRepr> {
        VtRepr::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

impl std::fmt::Display for VtRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The concrete representation one node's columns are stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repr {
    Bitmap,
    Tidlist,
    Diffset,
}

/// Borrowed view of one node's materialized columns, in whichever
/// representation the node chose. `Copy` so the recursion and the root
/// fan-out closures can share it freely.
#[derive(Clone, Copy)]
enum Cols<'a> {
    /// `width` words per column, column `i` at `data[i*width..]`.
    Bitmap { data: &'a [u64], width: usize },
    /// Sorted absolute tids; column `i` spans `ends[i-1]..ends[i]`.
    Tidlist { data: &'a [u32], ends: &'a [u32] },
    /// Sorted tids lost vs the node's parent tidset, same layout.
    Diffset { data: &'a [u32], ends: &'a [u32] },
}

impl<'a> Cols<'a> {
    fn repr(&self) -> Repr {
        match self {
            Cols::Bitmap { .. } => Repr::Bitmap,
            Cols::Tidlist { .. } => Repr::Tidlist,
            Cols::Diffset { .. } => Repr::Diffset,
        }
    }

    /// Column `i` as a bitmap slice (bitmap nodes only).
    fn bm(&self, i: usize) -> &'a [u64] {
        match *self {
            Cols::Bitmap { data, width } => &data[i * width..][..width],
            _ => unreachable!("bitmap column requested from a list node"),
        }
    }

    /// Column `i` as a sorted `u32` slice (list nodes only).
    fn list(&self, i: usize) -> &'a [u32] {
        match *self {
            Cols::Tidlist { data, ends } | Cols::Diffset { data, ends } => {
                let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
                &data[lo..ends[i] as usize]
            }
            Cols::Bitmap { .. } => unreachable!("list column requested from a bitmap node"),
        }
    }

    /// Support of the pair `(a, b)` at this node; `sup_a` is extension
    /// `a`'s own support (needed for diffset arithmetic).
    fn pair_support(&self, a: usize, b: usize, sup_a: u64) -> u64 {
        match self.repr() {
            Repr::Bitmap => bitmap::and_popcount(self.bm(a), self.bm(b)),
            Repr::Tidlist => bitmap::intersect_count(self.list(a), self.list(b)),
            // sup(Pab) = sup(Pa) − |d_b \ d_a| = sup_a + |d_a ∩ d_b| − |d_b|;
            // summed in that order so the intermediate never underflows.
            Repr::Diffset => {
                let (da, db) = (self.list(a), self.list(b));
                sup_a + bitmap::intersect_count(da, db) - db.len() as u64
            }
        }
    }

    /// The scan-counter name for this node's candidate tests and the
    /// cost of the pair `(a, b)` in that counter's unit.
    fn scan_counter(&self) -> &'static str {
        match self.repr() {
            Repr::Bitmap => "mine.bitmap_words_scanned",
            Repr::Tidlist => "mine.tidlist_elems",
            Repr::Diffset => "mine.diffset_words",
        }
    }

    fn pair_scan_cost(&self, a: usize, b: usize) -> u64 {
        match *self {
            Cols::Bitmap { width, .. } => width as u64,
            _ => (self.list(a).len() + self.list(b).len()) as u64,
        }
    }
}

/// Shared run parameters, fixed once at the root.
struct VtCfg {
    minsup: u64,
    forced: VtRepr,
    /// Tid-universe size (expanded tuple count) and its bitmap width.
    n: usize,
    width: usize,
}

/// Reusable per-depth scratch: the child columns materialized by one
/// extension at this depth. Sibling extensions recycle the buffers.
#[derive(Default)]
struct VtLevel {
    /// The child node's columns, one generation per sibling, in
    /// whichever representation the child chose.
    arena: BitsetArena,
    /// The child's frequent extensions: `(global rank, support)`.
    exts: Vec<(u32, u64)>,
    /// Parent-local column index of each child extension (parallel to
    /// `exts`), for the materialization pass.
    srcs: Vec<u32>,
    /// The child node's pair supports.
    matrix: PairMatrix,
}

/// Per-worker mining state: one [`VtLevel`] per depth below the root.
#[derive(Default)]
struct VtCtx {
    levels: Vec<VtLevel>,
    depth: usize,
}

/// Latency bias of the sorted-list kernels relative to the bitmap
/// kernels, applied when `Auto` weighs leaving the bitmap
/// representation: a byte of `u32` list data costs more wall-clock than
/// a byte of bitmap (two-pointer merges and galloping probes versus
/// straight-line AND+popcount), so a switch must buy at least this
/// factor in bytes before it pays. The two list forms share kernels, so
/// the tid-list/diffset comparison stays unbiased.
const LIST_BIAS: u64 = 6;

/// Picks the child node's representation. `Auto` takes the cheapest
/// byte cost among the representations reachable from `parent` on the
/// one-way lattice (list costs scaled by [`LIST_BIAS`] against the
/// bitmap cost); ties prefer the earlier lattice stage (bitmap, then
/// tid-list), which also means a tie never counts as a switch
/// needlessly. Depends only on supports and the bitmap width, so the
/// choice is thread-invariant.
fn choose_repr(forced: VtRepr, parent: Repr, sup_a: u64, kc: u64, sum: u64, width: usize) -> Repr {
    match forced {
        VtRepr::Bitmap => return Repr::Bitmap,
        VtRepr::Tidlist => return Repr::Tidlist,
        VtRepr::Diffset => return Repr::Diffset,
        VtRepr::Auto => {}
    }
    let bitmap_cost = kc * width as u64 * 8;
    let tidlist_cost = 4 * sum;
    let diffset_cost = 4 * (kc * sup_a - sum);
    match parent {
        Repr::Bitmap => {
            if bitmap_cost <= LIST_BIAS * tidlist_cost && bitmap_cost <= LIST_BIAS * diffset_cost {
                Repr::Bitmap
            } else if tidlist_cost <= diffset_cost {
                Repr::Tidlist
            } else {
                Repr::Diffset
            }
        }
        Repr::Tidlist => {
            if tidlist_cost <= diffset_cost {
                Repr::Tidlist
            } else {
                Repr::Diffset
            }
        }
        Repr::Diffset => Repr::Diffset,
    }
}

/// Mines `src` against `flist` at the absolute threshold `minsup` under
/// representation mode `repr`, the root extensions fanned out over
/// `par` scoped threads. The emitted stream is byte-identical for any
/// thread count and any `repr`.
pub fn mine_source_par(
    src: &CompressedRankDb,
    flist: &FList,
    minsup: u64,
    par: Parallelism,
    repr: VtRepr,
    sink: &mut dyn PatternSink,
) {
    let k = flist.len();
    if k == 0 {
        return;
    }
    let exts: Vec<(u32, u64)> = (0..k as u32).map(|r| (r, flist.support(r))).collect();
    {
        let mut emitter = RankEmitter::new(flist);
        for &(rank, sup) in &exts {
            emitter.push(rank);
            emitter.emit(sink, sup);
            emitter.pop();
        }
    }
    if k < 2 {
        return;
    }
    let n = expanded_len(src);
    let width = bitmap::words_for(n);
    let cfg = VtCfg { minsup, forced: repr, n, width };
    let sum: u64 = exts.iter().map(|&(_, s)| s).sum();
    // Root representation: the same byte-cost rule as the descent, with
    // the whole universe as the "parent". Forced diffset roots as
    // tid-lists — the differential encoding starts one level down.
    let root_bitmap = match repr {
        VtRepr::Bitmap => true,
        VtRepr::Tidlist | VtRepr::Diffset => false,
        VtRepr::Auto => (k * width * 8) as u64 <= LIST_BIAS * 4 * sum,
    };
    let (bm_cols, list_data, list_ends);
    let cols = if root_bitmap {
        bm_cols = build_bitmap_columns(src, k, n, width);
        Cols::Bitmap { data: &bm_cols, width }
    } else {
        (list_data, list_ends) = build_tidlist_columns(src, &exts);
        Cols::Tidlist { data: &list_data, ends: &list_ends }
    };
    if n > 0 {
        histogram::observe("mine.node_density", sum * 1024 / (k as u64 * n as u64));
    }
    metrics::set_max("mine.max_depth", 1);
    let exts = &exts[..];
    let cfg = &cfg;
    fan_out_ordered(
        par,
        k,
        sink,
        || (RankEmitter::new(flist), VtCtx::default()),
        |(emitter, ctx), a, sink| {
            // At the root, column index == rank == extension position,
            // and each unit computes its own pair row against the
            // shared columns.
            metrics::add("mine.candidate_tests", (k - 1 - a) as u64);
            let scanned: u64 = ((a + 1)..k).map(|b| cols.pair_scan_cost(a, b)).sum();
            metrics::add(cols.scan_counter(), scanned);
            let sup_a = exts[a].1;
            vt_extend(exts, cols, a, |b| cols.pair_support(a, b, sup_a), cfg, ctx, emitter, sink);
        },
    );
}

/// Expanded tuple count of the layout (groups re-expanded).
fn expanded_len(src: &CompressedRankDb) -> usize {
    src.plain().len() + src.groups().map(|g| g.count() as usize).sum::<usize>()
}

/// Builds the root tid-bitmaps: one column of `width` words per rank.
///
/// Tids are assigned group-at-a-time — group `g`'s members occupy one
/// contiguous run (outlier members first, then bare members), so every
/// pattern item of the group is a single word-wise run fill. Plain
/// tuples follow, one bit each. Column popcounts are exact supports.
fn build_bitmap_columns(
    src: &CompressedRankDb,
    num_ranks: usize,
    n: usize,
    width: usize,
) -> Vec<u64> {
    debug_assert_eq!(width, bitmap::words_for(n));
    let mut cols = vec![0u64; num_ranks * width];
    let mut tid = 0usize;
    let mut touches = 0u64;
    let mut group_hits = 0u64;
    for g in src.groups() {
        let count = g.count() as usize;
        for &r in g.pattern {
            bitmap::set_run(&mut cols[r as usize * width..][..width], tid, count);
            group_hits += 1;
        }
        for (idx, m) in g.outliers.into_iter().enumerate() {
            for &r in m {
                bitmap::set_bit(&mut cols[r as usize * width..][..width], tid + idx);
            }
            touches += m.len() as u64;
        }
        tid += count;
    }
    for t in src.plain() {
        for &r in t {
            bitmap::set_bit(&mut cols[r as usize * width..][..width], tid);
        }
        touches += t.len() as u64;
        tid += 1;
    }
    if group_hits > 0 {
        metrics::add("mine.group_hits", group_hits);
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
    histogram::observe("mine.tidset_words", cols.len() as u64);
    debug_assert_eq!(tid, n);
    cols
}

/// Builds the root tid-lists: one sorted `u32` column per rank, flat in
/// `data` with per-column end offsets.
///
/// Column lengths are the F-list supports, so the flat slab and every
/// column boundary are laid out exactly before a single tid is written.
/// Tid assignment matches [`build_bitmap_columns`] — groups first, one
/// contiguous run each, so a group pattern item is one `lo..hi` range
/// push (the O(count) list analog of the word-wise run fill), and
/// processing order alone keeps every column sorted.
fn build_tidlist_columns(src: &CompressedRankDb, exts: &[(u32, u64)]) -> (Vec<u32>, Vec<u32>) {
    let k = exts.len();
    let mut ends = vec![0u32; k];
    let mut total = 0u64;
    for (r, &(_, sup)) in exts.iter().enumerate() {
        total += sup;
        ends[r] = total as u32;
    }
    let mut data = vec![0u32; total as usize];
    // Write cursor per column, starting at each column's base offset.
    let mut cur: Vec<u32> = std::iter::once(0).chain(ends[..k - 1].iter().copied()).collect();
    let push = |cur: &mut [u32], data: &mut [u32], r: usize, t: u32| {
        data[cur[r] as usize] = t;
        cur[r] += 1;
    };
    let mut tid = 0u32;
    let mut touches = 0u64;
    let mut group_hits = 0u64;
    for g in src.groups() {
        let count = g.count() as u32;
        for &r in g.pattern {
            let c = cur[r as usize] as usize;
            for (i, slot) in data[c..c + count as usize].iter_mut().enumerate() {
                *slot = tid + i as u32;
            }
            cur[r as usize] += count;
            group_hits += 1;
        }
        for (idx, m) in g.outliers.into_iter().enumerate() {
            for &r in m {
                push(&mut cur, &mut data, r as usize, tid + idx as u32);
            }
            touches += m.len() as u64;
        }
        tid += count;
    }
    for t in src.plain() {
        for &r in t {
            push(&mut cur, &mut data, r as usize, tid);
        }
        touches += t.len() as u64;
        tid += 1;
    }
    debug_assert!(cur.iter().zip(&ends).all(|(c, e)| c == e), "supports must fill exactly");
    if group_hits > 0 {
        metrics::add("mine.group_hits", group_hits);
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
    metrics::add("mine.tidlist_elems", total);
    (data, ends)
}

/// Processes one lexicographic node whose extension singletons were
/// already emitted by the caller: counts all pairs, applies the chain
/// shortcut and the candidate-bound termination, then descends.
///
/// `cols` holds one materialized column per extension, in extension
/// order (ignored when there are fewer than two extensions). The pair
/// supports go into `matrix`, which the node's level keeps for reuse.
#[allow(clippy::too_many_arguments)]
fn vt_node(
    exts: &[(u32, u64)],
    cols: Cols<'_>,
    matrix: &mut PairMatrix,
    cfg: &VtCfg,
    ctx: &mut VtCtx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    let k = exts.len();
    if k < 2 {
        return;
    }
    metrics::set_max("mine.max_depth", emitter.depth() as u64 + 1);
    // Pair pass: the whole next level counted without materializing
    // anything, in whatever representation this node holds.
    matrix.reset(k);
    let mut n2 = 0u64;
    let mut scanned = 0u64;
    for (a, &(_, sup_a)) in exts.iter().enumerate() {
        for b in (a + 1)..k {
            let c = cols.pair_support(a, b, sup_a);
            scanned += cols.pair_scan_cost(a, b);
            if c > 0 {
                matrix.bump_by(a as u32, b as u32, c);
            }
            if c >= cfg.minsup {
                n2 += 1;
            }
        }
    }
    let pairs = (k * (k - 1) / 2) as u64;
    metrics::add("mine.candidate_tests", pairs);
    metrics::add(cols.scan_counter(), scanned);
    if n2 == 0 {
        return;
    }
    // Inclusion-chain shortcut: if every pair support equals the
    // smaller member support, the tidsets are pairwise ⊆-comparable —
    // a chain — and any subset's support is its minimum member
    // support. Enumerate subsets directly (singletons were already
    // emitted by the caller).
    if k <= 62 && n2 == pairs && is_chain(exts, matrix) {
        for_each_subset(exts, &mut |ranks, sup| {
            if ranks.len() >= 2 {
                emitter.emit_with(sink, ranks, sup);
            }
        });
        return;
    }
    // Candidate-bound termination: the Kruskal–Katona cascade of the
    // realized pair level. Zero means no 3-candidate — and hence
    // nothing deeper — can be frequent anywhere below this node, so
    // the frequent pairs are emitted flat and no column is built.
    let bound3 = bound::candidate_bound(n2, 2);
    if bound3 == 0 {
        metrics::add("mine.bound_prunes", 1);
        for a in 0..k {
            let mut pushed = false;
            for b in (a + 1)..k {
                let c = matrix.get(a as u32, b as u32);
                if c >= cfg.minsup {
                    if !pushed {
                        emitter.push(exts[a].0);
                        pushed = true;
                    }
                    emitter.push(exts[b].0);
                    emitter.emit(sink, c);
                    emitter.pop();
                }
            }
            if pushed {
                emitter.pop();
            }
        }
        return;
    }
    // Bound-driven pre-size, re-derived per representation: any child
    // class at this node materializes at most m = min(n₂, k−1)
    // columns. A bitmap child column is `width` words; a tid-list or
    // diffset column never exceeds the largest extension support in
    // u32 elements. Reserving that up front makes every child's fill
    // allocation-free, first descent included.
    let m = n2.min((k - 1) as u64) as usize;
    let depth = ctx.depth;
    if ctx.levels.len() <= depth {
        ctx.levels.resize_with(depth + 1, VtLevel::default);
    }
    match (cfg.forced, cols.repr()) {
        (VtRepr::Auto | VtRepr::Bitmap, Repr::Bitmap) => {
            ctx.levels[depth].arena.reserve_words(m * cfg.width);
        }
        _ => {
            let max_sup = exts.iter().map(|&(_, s)| s).max().unwrap_or(0);
            ctx.levels[depth].arena.reserve_tids(m * max_sup as usize);
        }
    }
    for a in 0..k {
        vt_extend(exts, cols, a, |b| matrix.get(a as u32, b as u32), cfg, ctx, emitter, sink);
    }
}

/// True when every pair support equals the smaller member support —
/// the tidsets are pairwise comparable under inclusion.
fn is_chain(exts: &[(u32, u64)], matrix: &PairMatrix) -> bool {
    let k = exts.len();
    for a in 0..k {
        for b in (a + 1)..k {
            if matrix.get(a as u32, b as u32) != exts[a].1.min(exts[b].1) {
                return false;
            }
        }
    }
    true
}

/// Builds and recurses into the child node of extension `a`: collects
/// the frequent pairs `(a, b)` from `pair_support`, emits the child's
/// extension singletons via the recursion, picks the child's
/// representation, and materializes the child columns only when the
/// child can itself have pairs. This is both the inner loop body of
/// [`vt_node`] and the root fan-out unit.
#[allow(clippy::too_many_arguments)]
fn vt_extend(
    exts: &[(u32, u64)],
    cols: Cols<'_>,
    a: usize,
    pair_support: impl Fn(usize) -> u64,
    cfg: &VtCfg,
    ctx: &mut VtCtx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    let depth = ctx.depth;
    if ctx.levels.len() <= depth {
        ctx.levels.resize_with(depth + 1, VtLevel::default);
    }
    // Borrow this depth's scratch; the recursion below only uses deeper
    // slots, so taking it out of the context is conflict-free.
    let mut lvl = std::mem::take(&mut ctx.levels[depth]);
    lvl.exts.clear();
    lvl.srcs.clear();
    for (b, &(rank, _)) in exts.iter().enumerate().skip(a + 1) {
        let c = pair_support(b);
        if c >= cfg.minsup {
            lvl.exts.push((rank, c));
            lvl.srcs.push(b as u32);
        }
    }
    if lvl.exts.is_empty() {
        ctx.levels[depth] = lvl;
        return;
    }
    emitter.push(exts[a].0);
    if lvl.exts.len() == 1 {
        // A single extension cannot pair: emit it without building its
        // (never-read) column.
        let (rank, sup) = lvl.exts[0];
        emitter.push(rank);
        emitter.emit(sink, sup);
        emitter.pop();
    } else {
        let kc = lvl.exts.len();
        let sup_a = exts[a].1;
        let sum: u64 = lvl.exts.iter().map(|&(_, s)| s).sum();
        let child = choose_repr(cfg.forced, cols.repr(), sup_a, kc as u64, sum, cfg.width);
        if child != cols.repr() {
            metrics::add("mine.repr_switches", 1);
        }
        lvl.arena.reset();
        match child {
            Repr::Bitmap => {
                // Only reachable from a bitmap parent.
                let col_a = cols.bm(a);
                lvl.arena.reserve_words(kc * cfg.width);
                for &b in &lvl.srcs {
                    lvl.arena.append_and(col_a, cols.bm(b as usize));
                }
                metrics::add("mine.bitmap_words_scanned", (kc * cfg.width) as u64);
                histogram::observe("mine.tidset_words", (kc * cfg.width) as u64);
            }
            Repr::Tidlist => {
                lvl.arena.reserve_tids(sum as usize);
                match cols {
                    Cols::Bitmap { .. } => {
                        let col_a = cols.bm(a);
                        for &b in &lvl.srcs {
                            lvl.arena.push_tids(|out| {
                                bitmap::collect_and(col_a, cols.bm(b as usize), out)
                            });
                        }
                        metrics::add("mine.bitmap_words_scanned", (kc * cfg.width) as u64);
                    }
                    Cols::Tidlist { .. } => {
                        let ta = cols.list(a);
                        for &b in &lvl.srcs {
                            lvl.arena.push_tids(|out| {
                                bitmap::intersect_into(ta, cols.list(b as usize), out)
                            });
                        }
                    }
                    Cols::Diffset { .. } => unreachable!("diffset cannot re-absolutize"),
                }
                // Materialized elements == Σ child supports, a logical
                // quantity shared by every producing kernel.
                metrics::add("mine.tidlist_elems", sum);
            }
            Repr::Diffset => {
                // |d(child)| = sup_a − sup(child), summed over children.
                lvl.arena.reserve_tids((kc as u64 * sup_a - sum) as usize);
                match cols {
                    Cols::Bitmap { .. } => {
                        let col_a = cols.bm(a);
                        for &b in &lvl.srcs {
                            lvl.arena.push_tids(|out| {
                                bitmap::collect_andnot(col_a, cols.bm(b as usize), out)
                            });
                        }
                        metrics::add("mine.bitmap_words_scanned", (kc * cfg.width) as u64);
                    }
                    Cols::Tidlist { .. } => {
                        // d(child b) = t(Pa) \ t(Pb).
                        let ta = cols.list(a);
                        for &b in &lvl.srcs {
                            lvl.arena
                                .push_tids(|out| bitmap::diff_into(ta, cols.list(b as usize), out));
                        }
                    }
                    Cols::Diffset { .. } => {
                        // d(child b) = d(Pb) \ d(Pa).
                        let da = cols.list(a);
                        for &b in &lvl.srcs {
                            lvl.arena
                                .push_tids(|out| bitmap::diff_into(cols.list(b as usize), da, out));
                        }
                    }
                }
                metrics::add("mine.diffset_words", kc as u64 * sup_a - sum);
            }
        }
        metrics::add("mine.projected_dbs", 1);
        histogram::observe("mine.projected_db_size", kc as u64);
        if cfg.n > 0 {
            histogram::observe("mine.node_density", sum * 1024 / (kc as u64 * cfg.n as u64));
        }
        let ccols = match child {
            Repr::Bitmap => Cols::Bitmap { data: lvl.arena.words(), width: cfg.width },
            Repr::Tidlist => Cols::Tidlist { data: lvl.arena.tids(), ends: lvl.arena.tid_ends() },
            Repr::Diffset => Cols::Diffset { data: lvl.arena.tids(), ends: lvl.arena.tid_ends() },
        };
        // Child extension singletons, then the child node proper.
        for &(rank, sup) in &lvl.exts {
            emitter.push(rank);
            emitter.emit(sink, sup);
            emitter.pop();
        }
        ctx.depth = depth + 1;
        vt_node(&lvl.exts, ccols, &mut lvl.matrix, cfg, ctx, emitter, sink);
        ctx.depth = depth;
    }
    emitter.pop();
    ctx.levels[depth] = lvl;
}
