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
//! ([`ProjectionArena`]): a `TpGroup` is a row *range* of that slab
//! plus its residual pattern, and projection writes the child's rows
//! into the next depth's arena — `reset()` between siblings — so
//! steady-state descent performs no allocation and a node's counting
//! pass is a linear walk of one buffer.
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
/// Its member outlier lists are rows `lo..hi` of the node's member slab.
struct TpGroup {
    /// Residual pattern (local indices, ascending; empty = plain
    /// partition).
    pattern: Vec<u32>,
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

/// Reusable per-depth scratch: the child node built by projecting on one
/// extension. Sibling extensions at the same depth recycle these buffers
/// (`reset()`/`clear()`), so after warm-up descent allocates nothing.
#[derive(Default)]
struct TpLevel {
    groups: Vec<TpGroup>,
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
    let (groups, members, exts) = root_node(src, flist);
    tp_root(&groups, members.as_slices(), &exts, minsup, flist, par, sink);
}

/// Root dispatch: the Lemma 3.1 shortcut, the root singletons, and the
/// root pair-counting pass run once on the caller thread; each
/// extension's subtree is then an independent fan-out unit reading only
/// the shared groups, member slab, and matrix.
fn tp_root(
    groups: &[TpGroup],
    members: TupleSlices<'_>,
    exts: &[(u32, u64)],
    minsup: u64,
    flist: &FList,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    if groups.len() == 1 && !groups[0].has_members() && exts.len() <= 62 {
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
    let matrix = fill_group_matrix(groups, members, k);
    let matrix = &matrix;
    fan_out_ordered(
        par,
        k,
        sink,
        || (RankEmitter::new(flist), TpCtx::default()),
        |(emitter, ctx), i, sink| {
            tp_extend(groups, members, exts, i as u32, matrix, minsup, ctx, emitter, sink);
        },
    );
}

/// Builds the root node from the source: local index = rank. The root
/// member slab is an owned copy because projection rewrites index lists
/// at every node below anyway; groups land in source order with the
/// plain partition last, mirroring [`project`].
fn root_node<S: GroupedSource>(
    src: &S,
    flist: &FList,
) -> (Vec<TpGroup>, CsrTuples<u32>, Vec<(u32, u64)>) {
    let exts: Vec<(u32, u64)> = (0..flist.len() as u32).map(|r| (r, flist.support(r))).collect();
    let mut groups: Vec<TpGroup> = Vec::with_capacity(src.num_groups() + 1);
    let mut members = CsrTuples::new();
    if S::GROUPED {
        for g in 0..src.num_groups() {
            let lo = members.len() as u32;
            for m in src.group_outliers(g) {
                members.push_row(m);
            }
            groups.push(TpGroup {
                pattern: src.group_pattern(g).to_vec(),
                lo,
                hi: members.len() as u32,
                bare: src.group_bare(g),
            });
        }
    }
    if !src.plain().is_empty() {
        let lo = members.len() as u32;
        for m in src.plain() {
            members.push_row(m);
        }
        groups.push(TpGroup { pattern: Vec::new(), lo, hi: members.len() as u32, bare: 0 });
    }
    (groups, members, exts)
}

/// Processes one lexicographic node.
fn tp_node(
    groups: &[TpGroup],
    members: TupleSlices<'_>,
    exts: &[(u32, u64)],
    minsup: u64,
    ctx: &mut TpCtx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    // Lemma 3.1 degenerate form: a single all-bare group means every
    // extension is a pattern item with identical support.
    if groups.len() == 1 && !groups[0].has_members() && exts.len() <= 62 {
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
    let matrix = fill_group_matrix(groups, members, k);
    // Children, depth-first.
    for i in 0..k as u32 {
        tp_extend(groups, members, exts, i, &matrix, minsup, ctx, emitter, sink);
    }
}

/// One group-aware pass fills all pair supports. Pattern × pattern
/// bumps are group-at-a-time (weight = member count); everything
/// touching an outlier list is per-member work.
fn fill_group_matrix(groups: &[TpGroup], members: TupleSlices<'_>, k: usize) -> PairMatrix {
    let mut matrix = PairMatrix::new(k);
    let mut group_hits = 0u64;
    let mut touches = 0u64;
    for g in groups {
        let c = g.count();
        for (pi, &a) in g.pattern.iter().enumerate() {
            for &b in &g.pattern[pi + 1..] {
                matrix.bump_by(a, b, c);
                group_hits += 1;
            }
        }
        for m in members.range(g.lo as usize, g.hi as usize) {
            for (oi, &x) in m.iter().enumerate() {
                // Outlier × outlier.
                for &y in &m[oi + 1..] {
                    matrix.bump(x, y);
                }
                // Pattern × outlier (ordered by local index).
                for &p in &g.pattern {
                    if p < x {
                        matrix.bump(p, x);
                    } else {
                        matrix.bump(x, p);
                    }
                }
                touches += (m.len() - oi - 1) as u64 + g.pattern.len() as u64;
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
/// The child's rows land in this depth's [`TpLevel`] arena, reset here —
/// the rows live exactly as long as the child subtree.
#[allow(clippy::too_many_arguments)]
fn tp_extend(
    groups: &[TpGroup],
    members: TupleSlices<'_>,
    exts: &[(u32, u64)],
    i: u32,
    matrix: &PairMatrix,
    minsup: u64,
    ctx: &mut TpCtx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
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
    project(groups, members, i, &lvl.remap, &mut lvl.groups, &mut lvl.members, &mut lvl.plain);
    metrics::add("mine.projected_dbs", 1);
    histogram::observe("mine.projected_db_size", (lvl.groups.len() + lvl.plain.len()) as u64);
    emitter.push(exts[i as usize].0);
    ctx.depth = depth + 1;
    tp_node(&lvl.groups, lvl.members.rows().as_slices(), &lvl.exts, minsup, ctx, emitter, sink);
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

/// [`map_push`] into an owned vector, for residual patterns.
fn map_vec(list: &[u32], remap: &[u32]) -> Vec<u32> {
    list.iter()
        .filter_map(|&j| {
            let l = remap[j as usize];
            (l != u32::MAX).then_some(l)
        })
        .collect()
}

/// Projects the node's groups on local extension `i`, remapping surviving
/// indices through `remap`. Child member rows are written straight into
/// `out_members` (grouped rows first, then — via the `plain` buffer —
/// the rows of dissolved groups as one final pattern-free partition).
#[allow(clippy::too_many_arguments)]
fn project(
    groups: &[TpGroup],
    members: TupleSlices<'_>,
    i: u32,
    remap: &[u32],
    out_groups: &mut Vec<TpGroup>,
    out_members: &mut ProjectionArena,
    plain: &mut CsrTuples<u32>,
) {
    out_groups.clear();
    out_members.reset();
    plain.clear();
    for g in groups {
        let rows = members.range(g.lo as usize, g.hi as usize);
        match g.pattern.binary_search(&i) {
            Ok(pos) => {
                // Whole group follows.
                let pattern = map_vec(&g.pattern[pos + 1..], remap);
                if pattern.is_empty() {
                    // Dissolved: surviving member rows become plain
                    // tuples; bare members carry nothing and vanish.
                    for m in rows {
                        let cut = m.partition_point(|&x| x <= i);
                        map_push(&m[cut..], remap, plain);
                        if plain.open_len() == 0 {
                            plain.discard_row();
                        } else {
                            plain.commit_row();
                        }
                    }
                } else {
                    let mut bare = g.bare;
                    let lo = out_members.rows().len() as u32;
                    for m in rows {
                        let cut = m.partition_point(|&x| x <= i);
                        let csr = out_members.rows_mut();
                        map_push(&m[cut..], remap, csr);
                        if csr.open_len() == 0 {
                            csr.discard_row();
                            bare += 1;
                        } else {
                            csr.commit_row();
                        }
                    }
                    let hi = out_members.rows().len() as u32;
                    if bare > 0 || hi > lo {
                        out_groups.push(TpGroup { pattern, lo, hi, bare });
                    }
                }
            }
            Err(ppos) => {
                // Only members containing i follow.
                let pattern = map_vec(&g.pattern[ppos..], remap);
                if pattern.is_empty() {
                    for m in rows {
                        if let Ok(opos) = m.binary_search(&i) {
                            map_push(&m[opos + 1..], remap, plain);
                            if plain.open_len() == 0 {
                                plain.discard_row();
                            } else {
                                plain.commit_row();
                            }
                        }
                    }
                } else {
                    let mut bare = 0u64;
                    let lo = out_members.rows().len() as u32;
                    for m in rows {
                        if let Ok(opos) = m.binary_search(&i) {
                            let csr = out_members.rows_mut();
                            map_push(&m[opos + 1..], remap, csr);
                            if csr.open_len() == 0 {
                                csr.discard_row();
                                bare += 1;
                            } else {
                                csr.commit_row();
                            }
                        }
                    }
                    let hi = out_members.rows().len() as u32;
                    if bare > 0 || hi > lo {
                        out_groups.push(TpGroup { pattern, lo, hi, bare });
                    }
                }
            }
        }
    }
    if !plain.is_empty() {
        let lo = out_members.rows().len() as u32;
        for m in plain.iter() {
            out_members.rows_mut().push_row(m);
        }
        let hi = out_members.rows().len() as u32;
        out_groups.push(TpGroup { pattern: Vec::new(), lo, hi, bare: 0 });
    }
}
