//! The Tree Projection family engine: depth-first lexicographic-tree
//! search with triangular pair-count matrices (paper §4.2), generic over
//! [`GroupedSource`].
//!
//! As in the depth-first Tree Projection baseline, each lexicographic
//! node materializes its projected transactions and fills a triangular
//! matrix with the supports of all extension pairs in one pass. The
//! grouped substrate changes *what gets counted*:
//!
//! * pattern × pattern pairs of a group are bumped **once** with the
//!   group's member count instead of once per member;
//! * pattern × outlier and outlier × outlier pairs are bumped per member
//!   tuple, but only over the (short) outlier lists;
//! * projection moves group heads: on a pattern item the whole group
//!   moves with a shortened pattern; on an outlier item only the members
//!   containing it move, carrying the residual pattern.
//!
//! A node's member lists live in one flat CSR slab per search depth
//! ([`ProjectionArena`]) and its residual patterns in a second one (a
//! plain [`CsrTuples`], one row per group): a `TpGroup` is a row *range*
//! of the member slab plus a bare count, and projection writes the
//! child's patterns and rows into the next depth's slabs — reset between
//! siblings — so steady-state descent performs no allocation and a
//! node's counting pass is a linear walk of one buffer.
//!
//! On the degenerate [`gogreen_data::PlainRanks`] substrate every tuple
//! lands in the single pattern-free root partition, the group-at-a-time
//! arms never execute, and the search is exactly the classic depth-first
//! Tree Projection of Agarwal, Aggarwal & Prasad.

use crate::common::{fan_out_ordered, for_each_subset, RankEmitter};
use crate::treeproj::PairMatrix;
use gogreen_data::{CsrTuples, FList, GroupedSource, PatternSink, ProjectionArena, TupleSlices};
use gogreen_obs::{histogram, metrics};
use gogreen_util::pool::Parallelism;

/// A group at one lexicographic node, in node-local extension indices.
/// Its member outlier lists are rows `lo..hi` of the node's member slab;
/// its residual pattern is the node's pattern-slab row with the group's
/// own index.
struct TpGroup {
    /// First member row in the node slab.
    lo: u32,
    /// One past the last member row.
    hi: u32,
    /// Members with no relevant outliers.
    bare: u64,
}

impl TpGroup {
    fn count(&self) -> u64 {
        (self.hi - self.lo) as u64 + self.bare
    }

    fn has_members(&self) -> bool {
        self.hi > self.lo
    }
}

/// One lexicographic node, borrowed from its depth's slabs.
#[derive(Clone, Copy)]
struct Node<'a> {
    groups: &'a [TpGroup],
    /// Row `g` is `groups[g]`'s residual pattern (local indices,
    /// ascending; empty = plain partition).
    patterns: TupleSlices<'a>,
    members: TupleSlices<'a>,
    /// The extensions: `(rank, support)` per local index.
    exts: &'a [(u32, u64)],
}

/// Reusable per-depth scratch: the child node built by projecting on one
/// extension. Sibling extensions at the same depth recycle these buffers
/// (`reset()`/`clear()`), so after warm-up descent allocates nothing.
#[derive(Default)]
struct TpLevel {
    groups: Vec<TpGroup>,
    /// The child node's residual patterns, one row per group. A plain
    /// slab rather than an arena: patterns are bookkeeping, not
    /// projected rows, so they stay out of the arena counters.
    patterns: CsrTuples<u32>,
    /// The child node's member rows.
    members: ProjectionArena,
    /// Buffer for rows of dissolved groups; appended to `members` last
    /// as the single pattern-free partition.
    plain: CsrTuples<u32>,
    exts: Vec<(u32, u64)>,
    remap: Vec<u32>,
}

/// Per-worker mining state: one [`TpLevel`] per depth below the root.
#[derive(Default)]
struct TpCtx {
    levels: Vec<TpLevel>,
    depth: usize,
}

/// Mines `src` against `flist` at the absolute threshold `minsup`, the
/// root extensions fanned out over `par` scoped threads. The emitted
/// stream is byte-identical for any thread count.
pub fn mine_source_par<S: GroupedSource>(
    src: &S,
    flist: &FList,
    minsup: u64,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    let root = RootNode::new(src, flist);
    let node = Node {
        groups: &root.groups,
        patterns: root.patterns.as_slices(),
        members: root.members.as_slices(),
        exts: &root.exts,
    };
    tp_root(node, minsup, flist, par, sink);
}

/// Root dispatch: the Lemma 3.1 shortcut, the root singletons, and the
/// root pair-counting pass run once on the caller thread; each
/// extension's subtree is then an independent fan-out unit reading only
/// the shared groups, slabs, and matrix.
fn tp_root(
    root: Node<'_>,
    minsup: u64,
    flist: &FList,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    let exts = root.exts;
    if root.groups.len() == 1 && !root.groups[0].has_members() && exts.len() <= 62 {
        let mut emitter = RankEmitter::new(flist);
        for_each_subset(exts, &mut |locals, sup| emitter.emit_with(sink, locals, sup));
        return;
    }
    {
        let mut emitter = RankEmitter::new(flist);
        for &(rank, sup) in exts {
            emitter.push(rank);
            emitter.emit(sink, sup);
            emitter.pop();
        }
    }
    let k = exts.len();
    if k < 2 {
        return;
    }
    metrics::set_max("mine.max_depth", 1);
    let matrix = fill_group_matrix(root, k);
    let matrix = &matrix;
    fan_out_ordered(
        par,
        k,
        sink,
        || (RankEmitter::new(flist), TpCtx::default()),
        |(emitter, ctx), i, sink| {
            tp_extend(root, i as u32, matrix, minsup, ctx, emitter, sink);
        },
    );
}

/// The root node's owned slabs; every deeper node lives in its depth's
/// [`TpLevel`].
struct RootNode {
    groups: Vec<TpGroup>,
    patterns: CsrTuples<u32>,
    members: CsrTuples<u32>,
    exts: Vec<(u32, u64)>,
}

impl RootNode {
    /// Builds the root node from the source: local index = rank. The
    /// root member slab is an owned copy because projection rewrites
    /// index lists at every node below anyway; groups land in source
    /// order with the plain partition last, mirroring [`project`].
    fn new<S: GroupedSource>(src: &S, flist: &FList) -> Self {
        let exts = (0..flist.len() as u32).map(|r| (r, flist.support(r))).collect();
        let mut root = RootNode {
            groups: Vec::with_capacity(src.num_groups() + 1),
            patterns: CsrTuples::new(),
            members: CsrTuples::new(),
            exts,
        };
        if S::GROUPED {
            for g in 0..src.num_groups() {
                root.push(src.group_pattern(g), src.group_outliers(g), src.group_bare(g));
            }
        }
        if !src.plain().is_empty() {
            root.push(&[], src.plain(), 0);
        }
        root
    }

    fn push(&mut self, pattern: &[u32], rows: TupleSlices<'_>, bare: u64) {
        let lo = self.members.len() as u32;
        for m in rows {
            self.members.push_row(m);
        }
        self.patterns.push_row(pattern);
        self.groups.push(TpGroup { lo, hi: self.members.len() as u32, bare });
    }
}

/// Processes one lexicographic node.
fn tp_node(
    node: Node<'_>,
    minsup: u64,
    ctx: &mut TpCtx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    let exts = node.exts;
    // Lemma 3.1 degenerate form: a single all-bare group means every
    // extension is a pattern item with identical support.
    if node.groups.len() == 1 && !node.groups[0].has_members() && exts.len() <= 62 {
        for_each_subset(exts, &mut |locals, sup| {
            // Local indices map to ranks through `exts`; `for_each_subset`
            // hands back the elements' first components, which here are
            // already the global ranks.
            emitter.emit_with(sink, locals, sup)
        });
        return;
    }
    for &(rank, sup) in exts {
        emitter.push(rank);
        emitter.emit(sink, sup);
        emitter.pop();
    }
    let k = exts.len();
    if k < 2 {
        return;
    }
    metrics::set_max("mine.max_depth", emitter.depth() as u64 + 1);
    let matrix = fill_group_matrix(node, k);
    // Children, depth-first.
    for i in 0..k as u32 {
        tp_extend(node, i, &matrix, minsup, ctx, emitter, sink);
    }
}

/// One group-aware pass fills all pair supports. Pattern × pattern
/// bumps are group-at-a-time (weight = member count); everything
/// touching an outlier list is per-member work.
fn fill_group_matrix(node: Node<'_>, k: usize) -> PairMatrix {
    let mut matrix = PairMatrix::new(k);
    let mut group_hits = 0u64;
    let mut touches = 0u64;
    for (g, pattern) in node.groups.iter().zip(node.patterns) {
        let c = g.count();
        for (pi, &a) in pattern.iter().enumerate() {
            for &b in &pattern[pi + 1..] {
                matrix.bump_by(a, b, c);
                group_hits += 1;
            }
        }
        for m in node.members.range(g.lo as usize, g.hi as usize) {
            for (oi, &x) in m.iter().enumerate() {
                // Outlier × outlier.
                for &y in &m[oi + 1..] {
                    matrix.bump(x, y);
                }
                // Pattern × outlier (ordered by local index).
                for &p in pattern {
                    if p < x {
                        matrix.bump(p, x);
                    } else {
                        matrix.bump(x, p);
                    }
                }
                touches += (m.len() - oi - 1) as u64 + pattern.len() as u64;
            }
        }
    }
    if group_hits > 0 {
        metrics::add("mine.group_hits", group_hits);
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
    metrics::add("mine.candidate_tests", (k * (k - 1) / 2) as u64);
    matrix
}

/// Builds and recurses into the child node of extension `i`. This is
/// both the serial loop body of [`tp_node`] and the root fan-out unit.
/// The child's rows land in this depth's [`TpLevel`] slabs, reset here —
/// the rows live exactly as long as the child subtree.
fn tp_extend(
    node: Node<'_>,
    i: u32,
    matrix: &PairMatrix,
    minsup: u64,
    ctx: &mut TpCtx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    let exts = node.exts;
    let k = exts.len();
    let depth = ctx.depth;
    if ctx.levels.len() <= depth {
        ctx.levels.resize_with(depth + 1, TpLevel::default);
    }
    // Borrow this depth's scratch; the recursion below only uses deeper
    // slots, so taking it out of the context is conflict-free.
    let mut lvl = std::mem::take(&mut ctx.levels[depth]);
    lvl.exts.clear();
    for j in (i + 1)..k as u32 {
        let c = matrix.get(i, j);
        if c >= minsup {
            lvl.exts.push((exts[j as usize].0, c));
        }
    }
    if lvl.exts.is_empty() {
        ctx.levels[depth] = lvl;
        return;
    }
    lvl.remap.clear();
    lvl.remap.resize(k, u32::MAX);
    let mut next_local = 0u32;
    for j in (i + 1)..k as u32 {
        if matrix.get(i, j) >= minsup {
            lvl.remap[j as usize] = next_local;
            next_local += 1;
        }
    }
    project(node, i, &mut lvl);
    metrics::add("mine.projected_dbs", 1);
    histogram::observe("mine.projected_db_size", (lvl.groups.len() + lvl.plain.len()) as u64);
    emitter.push(exts[i as usize].0);
    ctx.depth = depth + 1;
    let child = Node {
        groups: &lvl.groups,
        patterns: lvl.patterns.as_slices(),
        members: lvl.members.rows().as_slices(),
        exts: &lvl.exts,
    };
    tp_node(child, minsup, ctx, emitter, sink);
    ctx.depth = depth;
    emitter.pop();
    ctx.levels[depth] = lvl;
}

/// Filters `list` through `remap` into the open row of `csr`. Surviving
/// local indices stay ascending because the remap is monotone.
fn map_push(list: &[u32], remap: &[u32], csr: &mut CsrTuples<u32>) {
    for &j in list {
        let l = remap[j as usize];
        if l != u32::MAX {
            csr.push_elem(l);
        }
    }
}

/// Commits the open row of `csr`, or discards it when empty; returns
/// whether a row was committed.
fn commit_nonempty(csr: &mut CsrTuples<u32>) -> bool {
    if csr.open_len() == 0 {
        csr.discard_row();
        false
    } else {
        csr.commit_row();
        true
    }
}

/// Projects the node's groups on local extension `i` into `lvl`,
/// remapping surviving indices through `lvl.remap`. Residual patterns go
/// straight into `lvl.patterns` and child member rows into `lvl.members`
/// (grouped rows first, then — via the `plain` buffer — the rows of
/// dissolved groups as one final pattern-free partition).
fn project(node: Node<'_>, i: u32, lvl: &mut TpLevel) {
    let TpLevel {
        groups: out_groups,
        patterns: out_patterns,
        members: out_members,
        plain,
        remap,
        ..
    } = lvl;
    out_groups.clear();
    out_patterns.clear();
    out_members.reset();
    plain.clear();
    for (g, pattern) in node.groups.iter().zip(node.patterns) {
        let rows = node.members.range(g.lo as usize, g.hi as usize);
        // Whole group follows on a pattern item; only the members
        // containing i follow on an outlier item.
        let (residual, whole) = match pattern.binary_search(&i) {
            Ok(pos) => (&pattern[pos + 1..], true),
            Err(ppos) => (&pattern[ppos..], false),
        };
        map_push(residual, remap, out_patterns);
        // Each member's tail past i, or `None` when it does not follow.
        let tail = |m: &'_ [u32]| -> Option<usize> {
            if whole {
                Some(m.partition_point(|&x| x <= i))
            } else {
                m.binary_search(&i).ok().map(|opos| opos + 1)
            }
        };
        if out_patterns.open_len() == 0 {
            // Dissolved: surviving member rows become plain tuples; bare
            // members carry nothing and vanish.
            for m in rows {
                if let Some(cut) = tail(m) {
                    map_push(&m[cut..], remap, plain);
                    commit_nonempty(plain);
                }
            }
        } else {
            let mut bare = if whole { g.bare } else { 0 };
            let lo = out_members.rows().len() as u32;
            for m in rows {
                if let Some(cut) = tail(m) {
                    let csr = out_members.rows_mut();
                    map_push(&m[cut..], remap, csr);
                    if !commit_nonempty(csr) {
                        bare += 1;
                    }
                }
            }
            let hi = out_members.rows().len() as u32;
            if bare > 0 || hi > lo {
                out_patterns.commit_row();
                out_groups.push(TpGroup { lo, hi, bare });
            } else {
                out_patterns.discard_row();
            }
        }
    }
    if !plain.is_empty() {
        let lo = out_members.rows().len() as u32;
        for m in plain.iter() {
            out_members.rows_mut().push_row(m);
        }
        let hi = out_members.rows().len() as u32;
        out_patterns.push_row(&[]);
        out_groups.push(TpGroup { lo, hi, bare: 0 });
    }
}
