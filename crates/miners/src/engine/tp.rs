//! The Tree Projection family engine: depth-first lexicographic-tree
//! search with triangular pair-count matrices (paper §4.2), over the
//! compressed rank layout [`CompressedRankDb`].
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
//! siblings — so a node's counting pass is a linear walk of one buffer.
//! The node's pair matrix lives beside its slabs. Each depth's storage
//! is borrowed in place (the search splits the per-depth vector at the
//! node's depth), so after warm-up a descent allocates nothing.
//!
//! A node's children come from one forward sweep. The node keeps a
//! cursor per residual pattern and per member row (a `Sweep`, held in
//! its depth's scratch slot), each at the first local index `≥` the
//! extension being projected. Extensions are projected in ascending
//! order, so the cursors only move forward: containment and the cut
//! position are read at the cursor, with no search, and the node's
//! projections together walk each row about once. A group's residual
//! pattern is written only once something follows it — a member row or,
//! for a whole group, a bare member. Each root fan-out worker sweeps the
//! shared root with its own cursors, rewound whenever its next unit is
//! not above its last one.
//!
//! On a layout with zero groups every tuple lands in the single
//! pattern-free root partition, the group-at-a-time arms never execute,
//! and the search is exactly the classic depth-first Tree Projection of
//! Agarwal, Aggarwal & Prasad. Raw mining does not hand it that layout,
//! though: a plain database arrives with its repeated rows merged into
//! bare-only groups ([`CompressedRankDb::merge_repeats`]), so the group
//! arms bump each distinct row's pairs once with its multiplicity and
//! projection moves it as one group — with no code of its own.

use crate::common::{fan_out_ordered, for_each_subset, RankEmitter};
use crate::treeproj::PairMatrix;
use gogreen_data::{CompressedRankDb, CsrTuples, FList, PatternSink, ProjectionArena, TupleSlices};
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

/// Reusable per-depth storage: the child node built by projecting on one
/// extension, and its pair matrix. Sibling extensions at the same depth
/// recycle these buffers (`reset()`/`clear()`), so after warm-up descent
/// allocates nothing.
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
    /// The child node's pair supports, filled when the child is mined.
    matrix: PairMatrix,
    remap: Vec<u32>,
    /// Cursors into the node being projected (the parent of the child
    /// held above).
    sweep: Sweep,
}

impl TpLevel {
    /// The child node held here.
    fn node(&self) -> Node<'_> {
        Node {
            groups: &self.groups,
            patterns: self.patterns.as_slices(),
            members: self.members.rows().as_slices(),
            exts: &self.exts,
        }
    }
}

/// The forward cursors of one node's projection sweep: per group, then
/// per member row, the position in that list of the first local index
/// `≥` the extension last projected. One vector holds both, so a node's
/// cursors are one allocation.
#[derive(Default)]
struct Sweep {
    cur: Vec<u32>,
    /// One past the last extension asked for (0 = none yet).
    next: u32,
}

impl Sweep {
    /// Announces extension `i`. An `i` not above the last one starts a
    /// new sweep — the first extension of the next node at this depth,
    /// or a root fan-out worker's unit that is not above its previous
    /// one — and [`project`] then rewinds every cursor.
    fn start(&mut self, i: u32) {
        if i < self.next {
            self.cur.clear();
        }
        self.next = i + 1;
    }
}

/// Mines `src` against `flist` at the absolute threshold `minsup`, the
/// root extensions fanned out over `par` scoped threads. The emitted
/// stream is byte-identical for any thread count.
pub fn mine_source_par(
    src: &CompressedRankDb,
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
    let mut matrix = PairMatrix::default();
    fill_group_matrix(root, k, &mut matrix);
    let matrix = &matrix;
    fan_out_ordered(
        par,
        k,
        sink,
        || (RankEmitter::new(flist), vec![TpLevel::default()]),
        |(emitter, levels), i, sink| {
            if extend(root, matrix, i as u32, minsup, &mut levels[0]) {
                emitter.push(root.exts[i].0);
                tp_node(levels, 1, minsup, emitter, sink);
                emitter.pop();
            }
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
    fn new(src: &CompressedRankDb, flist: &FList) -> Self {
        let exts = (0..flist.len() as u32).map(|r| (r, flist.support(r))).collect();
        let mut root = RootNode {
            groups: Vec::with_capacity(src.num_groups() + 1),
            patterns: CsrTuples::new(),
            members: CsrTuples::new(),
            exts,
        };
        for g in src.groups() {
            root.push(g.pattern, g.outliers, g.bare);
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

/// Processes the lexicographic node at depth `d ≥ 1`, held in
/// `levels[d - 1]`; its children are projected into `levels[d]`.
fn tp_node(
    levels: &mut Vec<TpLevel>,
    d: usize,
    minsup: u64,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    {
        // Field by field rather than `TpLevel::node`, so the matrix
        // beside the node can be filled.
        let lvl = &mut levels[d - 1];
        let node = Node {
            groups: &lvl.groups,
            patterns: lvl.patterns.as_slices(),
            members: lvl.members.rows().as_slices(),
            exts: &lvl.exts,
        };
        let exts = node.exts;
        // Lemma 3.1 degenerate form: a single all-bare group means every
        // extension is a pattern item with identical support.
        if node.groups.len() == 1 && !node.groups[0].has_members() && exts.len() <= 62 {
            for_each_subset(exts, &mut |locals, sup| {
                // Local indices map to ranks through `exts`;
                // `for_each_subset` hands back the elements' first
                // components, which here are already the global ranks.
                emitter.emit_with(sink, locals, sup)
            });
            return;
        }
        for &(rank, sup) in exts {
            emitter.push(rank);
            emitter.emit(sink, sup);
            emitter.pop();
        }
        if exts.len() < 2 {
            return;
        }
        metrics::set_max("mine.max_depth", emitter.depth() as u64 + 1);
        fill_group_matrix(node, exts.len(), &mut lvl.matrix);
    }
    if levels.len() <= d {
        levels.resize_with(d + 1, TpLevel::default);
    }
    // Children, depth-first.
    for i in 0..levels[d - 1].exts.len() {
        let (upper, lower) = levels.split_at_mut(d);
        let parent = &upper[d - 1];
        if extend(parent.node(), &parent.matrix, i as u32, minsup, &mut lower[0]) {
            emitter.push(parent.exts[i].0);
            tp_node(levels, d + 1, minsup, emitter, sink);
            emitter.pop();
        }
    }
}

/// One group-aware pass fills all pair supports. Pattern × pattern
/// bumps are group-at-a-time (weight = member count); everything
/// touching an outlier list is per-member work.
fn fill_group_matrix(node: Node<'_>, k: usize, matrix: &mut PairMatrix) {
    matrix.reset(k);
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
}

/// Builds the child node of extension `i` into `lvl`, the storage one
/// depth below `node`, and says whether it has any extension to mine.
/// This serves both [`tp_node`]'s loop and the root fan-out unit. The
/// child's rows live in `lvl`'s slabs, reset here — they live exactly as
/// long as the child subtree.
fn extend(node: Node<'_>, matrix: &PairMatrix, i: u32, minsup: u64, lvl: &mut TpLevel) -> bool {
    let exts = node.exts;
    let k = exts.len();
    lvl.sweep.start(i);
    lvl.exts.clear();
    for j in (i + 1)..k as u32 {
        let c = matrix.get(i, j);
        if c >= minsup {
            lvl.exts.push((exts[j as usize].0, c));
        }
    }
    if lvl.exts.is_empty() {
        return false;
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
    project(node, i, lvl);
    metrics::add("mine.projected_dbs", 1);
    histogram::observe("mine.projected_db_size", (lvl.groups.len() + lvl.plain.len()) as u64);
    true
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

/// Moves `cur` to the first position of `list` holding a local index
/// `≥ i` and returns that position plus whether it holds `i` itself.
#[inline]
fn seek(list: &[u32], cur: &mut u32, i: u32) -> (usize, bool) {
    let mut c = *cur as usize;
    while c < list.len() && list[c] < i {
        c += 1;
    }
    *cur = c as u32;
    (c, c < list.len() && list[c] == i)
}

/// Projects the node's groups on local extension `i` into `lvl`,
/// remapping surviving indices through `lvl.remap`. Residual patterns go
/// into `lvl.patterns` and child member rows into `lvl.members` (grouped
/// rows first, then — via the `plain` buffer — the rows of dissolved
/// groups as one final pattern-free partition).
///
/// Containment and cut positions come from `lvl.sweep`'s forward
/// cursors, so successive calls must ask for ascending `i` within one
/// node (see [`Sweep::start`]).
fn project(node: Node<'_>, i: u32, lvl: &mut TpLevel) {
    let TpLevel {
        groups: out_groups,
        patterns: out_patterns,
        members: out_members,
        plain,
        remap,
        sweep,
        ..
    } = lvl;
    out_groups.clear();
    out_patterns.clear();
    out_members.reset();
    plain.clear();
    let remap: &[u32] = remap;
    if sweep.cur.is_empty() {
        sweep.cur.resize(node.groups.len() + node.members.len(), 0);
    }
    let (pat_cur, row_cur) = sweep.cur.split_at_mut(node.groups.len());
    let survives = |residual: &[u32]| residual.iter().any(|&j| remap[j as usize] != u32::MAX);
    for ((g, pattern), pcur) in node.groups.iter().zip(node.patterns).zip(pat_cur) {
        // Whole group follows on a pattern item; only the members
        // containing i follow on an outlier item.
        let (ppos, whole) = seek(pattern, pcur, i);
        let residual = &pattern[ppos + whole as usize..];
        // Whether the residual pattern keeps an extension: decided at
        // the first thing that follows, since it is moot otherwise.
        let mut keeps = None;
        let mut bare = if whole { g.bare } else { 0 };
        let lo = out_members.rows().len() as u32;
        let rows = node.members.range(g.lo as usize, g.hi as usize);
        let curs = &mut row_cur[g.lo as usize..g.hi as usize];
        for (m, mcur) in rows.into_iter().zip(curs) {
            let (mpos, hit) = seek(m, mcur, i);
            if !(whole || hit) {
                continue;
            }
            let tail = &m[mpos + hit as usize..];
            if *keeps.get_or_insert_with(|| survives(residual)) {
                let csr = out_members.rows_mut();
                map_push(tail, remap, csr);
                if !commit_nonempty(csr) {
                    bare += 1;
                }
            } else {
                // Dissolved: surviving member rows become plain tuples;
                // bare members carry nothing and vanish.
                map_push(tail, remap, plain);
                commit_nonempty(plain);
            }
        }
        let hi = out_members.rows().len() as u32;
        if (bare > 0 || hi > lo) && *keeps.get_or_insert_with(|| survives(residual)) {
            map_push(residual, remap, out_patterns);
            out_patterns.commit_row();
            out_groups.push(TpGroup { lo, hi, bare });
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-extension scan the sweep replaced, kept as the reference:
    /// a binary search per group and member row for every extension.
    fn reference_project(node: Node<'_>, i: u32, lvl: &mut TpLevel) {
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

    type Child = (Vec<(u32, u32, u64)>, Vec<Vec<u32>>, Vec<Vec<u32>>);

    fn child(lvl: &TpLevel) -> Child {
        (
            lvl.groups.iter().map(|g| (g.lo, g.hi, g.bare)).collect(),
            lvl.patterns.iter().map(<[u32]>::to_vec).collect(),
            lvl.members.rows().iter().map(<[u32]>::to_vec).collect(),
        )
    }

    /// Local indices above `i` that survive into the child, renumbered
    /// densely; `drop` filters some out, as infrequent pairs would be.
    fn remap(k: u32, i: u32, drop: impl Fn(u32) -> bool) -> Vec<u32> {
        let mut remap = vec![u32::MAX; k as usize];
        let mut next = 0;
        for j in i + 1..k {
            if !drop(j) {
                remap[j as usize] = next;
                next += 1;
            }
        }
        remap
    }

    #[test]
    fn sweep_projects_every_child_like_the_reference_scan() {
        const K: u32 = 8;
        let mut root = RootNode {
            groups: Vec::new(),
            patterns: CsrTuples::new(),
            members: CsrTuples::new(),
            exts: (0..K).map(|j| (j, 0)).collect(),
        };
        let rows = |rs: &[&[u32]]| -> CsrTuples<u32> { rs.iter().map(|r| r.to_vec()).collect() };
        // Whole on 1, 3 and 5; partial elsewhere.
        root.push(&[1, 3, 5], rows(&[&[0, 2], &[4, 6], &[2, 7]]).as_slices(), 2);
        // Partial off its pattern: only the members holding the
        // extension follow (on 1, 3, 4, 5 and 7 some do).
        root.push(&[2, 6], rows(&[&[1, 4], &[3], &[1, 5, 7]]).as_slices(), 1);
        // Whole on 4 with an empty residual: dissolves into plain rows.
        root.push(&[4], rows(&[&[2, 5], &[3, 6, 7], &[5], &[0, 5]]).as_slices(), 3);
        // Bare members only.
        root.push(&[0, 2, 7], rows(&[]).as_slices(), 5);
        // The plain partition.
        root.push(&[], rows(&[&[0, 1, 2], &[1, 3], &[5, 6, 7], &[0, 7], &[6]]).as_slices(), 0);
        let node = Node {
            groups: &root.groups,
            patterns: root.patterns.as_slices(),
            members: root.members.as_slices(),
            exts: &root.exts,
        };

        let mut lvl = TpLevel::default();
        let mut reference = TpLevel::default();
        let drops: [&dyn Fn(u32, u32) -> bool; 3] =
            [&|_, _| false, &|i, j| (i + j) % 4 == 0, &|_, j| j % 2 == 1];
        // Every extension, then every other one (cursors skip the gaps),
        // under each remap; each pass restarts at 0, rewinding the sweep.
        for drop in drops {
            for step in [1, 2] {
                for i in (0..K).step_by(step) {
                    let map = remap(K, i, |j| drop(i, j));
                    lvl.remap.clone_from(&map);
                    reference.remap = map;
                    lvl.sweep.start(i);
                    project(node, i, &mut lvl);
                    reference_project(node, i, &mut reference);
                    assert_eq!(child(&lvl), child(&reference), "extension {i}, step {step}");
                }
            }
        }
    }
}
