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
//! Only a child with two or more frequent extensions is projected. A
//! child with exactly one is a leaf whose single pattern — the prefix,
//! its extension and that one further extension — has its support in
//! the parent's pair matrix, so it is emitted from there.
//!
//! The root reads the source layout in place: its member rows are the
//! source's outlier section followed by its plain section, numbered as
//! one run. One counting sort lists, per rank, the member rows that
//! hold it; a root projection reads only those rows (and every row of
//! a group whose pattern holds the rank), and every fan-out worker
//! shares the index read-only. A deeper node's children come from one
//! forward sweep instead: the node keeps a cursor per residual pattern
//! and per member row (a `Sweep`, held beside its matrix), each at the
//! first local index `≥` the extension being projected. Extensions are
//! projected in ascending order, so the cursors only move forward and
//! containment and the cut position are read at the cursor, with no
//! search; each projection still visits every row of its node. Both
//! ways hand the rows that follow to one group/dissolve body, which
//! writes a group's residual pattern only once something follows it — a
//! member row or, for a whole group, a bare member.
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
/// Its member outlier lists are rows `lo..hi` of the node's member rows;
/// its residual pattern is the node's pattern-slab row with the group's
/// own index.
struct TpGroup {
    /// First member row.
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

/// One lexicographic node, borrowed from its depth's slabs (or, at the
/// root, from the source layout).
#[derive(Clone, Copy)]
struct Node<'a> {
    groups: &'a [TpGroup],
    /// Row `g` is `groups[g]`'s residual pattern (local indices,
    /// ascending; empty = plain partition).
    patterns: TupleSlices<'a>,
    /// Member rows `0..members.len()`; rows from `members.len()` on are
    /// `plain`'s, numbered after them. Only the root, which reads the
    /// source's outlier and plain sections in place, has `plain` rows.
    members: TupleSlices<'a>,
    plain: TupleSlices<'a>,
    /// The extensions: `(rank, support)` per local index.
    exts: &'a [(u32, u64)],
}

impl<'a> Node<'a> {
    /// Group `g`'s member rows (a group never spans both sections).
    fn rows(&self, g: &TpGroup) -> TupleSlices<'a> {
        let n = self.members.len() as u32;
        if g.lo < n {
            self.members.range(g.lo as usize, g.hi as usize)
        } else {
            self.plain.range((g.lo - n) as usize, (g.hi - n) as usize)
        }
    }

    /// Member row `r`.
    fn row(&self, r: u32) -> &'a [u32] {
        let n = self.members.len() as u32;
        if r < n {
            self.members.row(r as usize)
        } else {
            self.plain.row((r - n) as usize)
        }
    }
}

/// A projected node's rows, written by [`Slabs::push_group`] and reset
/// between siblings. Patterns are bookkeeping, not projected rows, so
/// they stay out of the arena counters.
#[derive(Default)]
struct Slabs {
    groups: Vec<TpGroup>,
    /// Residual patterns, one row per group.
    patterns: CsrTuples<u32>,
    /// Member rows.
    members: ProjectionArena,
    /// Buffer for rows of dissolved groups; appended to `members` last
    /// as the single pattern-free partition.
    plain: CsrTuples<u32>,
    /// The parent's local indices → this node's (`u32::MAX` = dropped).
    remap: Vec<u32>,
}

impl Slabs {
    /// The node these slabs hold, whose extensions are `exts`.
    fn node<'a>(&'a self, exts: &'a [(u32, u64)]) -> Node<'a> {
        Node {
            groups: &self.groups,
            patterns: self.patterns.as_slices(),
            members: self.members.rows().as_slices(),
            plain: TupleSlices::empty(),
            exts,
        }
    }

    fn clear(&mut self) {
        self.groups.clear();
        self.patterns.clear();
        self.members.reset();
        self.plain.clear();
    }

    /// Writes one parent group's share of the node: `tails` are the
    /// parts past the extension of the member rows that follow, in
    /// order, and `bare` the bare members that follow. A group whose
    /// `residual` pattern keeps an extension stays a group, with members
    /// whose tails empty turning bare; otherwise it dissolves: its
    /// surviving tails become plain rows and its bare members vanish.
    /// Whether the residual keeps one is decided at the first thing that
    /// follows, since it is moot otherwise.
    fn push_group<'r>(
        &mut self,
        residual: &[u32],
        mut bare: u64,
        tails: impl Iterator<Item = &'r [u32]>,
    ) {
        let remap: &[u32] = &self.remap;
        let survives = || residual.iter().any(|&j| remap[j as usize] != u32::MAX);
        let mut keeps = None;
        let lo = self.members.rows().len() as u32;
        for tail in tails {
            if *keeps.get_or_insert_with(survives) {
                let csr = self.members.rows_mut();
                map_push(tail, remap, csr);
                if !commit_nonempty(csr) {
                    bare += 1;
                }
            } else {
                map_push(tail, remap, &mut self.plain);
                commit_nonempty(&mut self.plain);
            }
        }
        let hi = self.members.rows().len() as u32;
        if (bare > 0 || hi > lo) && *keeps.get_or_insert_with(survives) {
            map_push(residual, remap, &mut self.patterns);
            self.patterns.commit_row();
            self.groups.push(TpGroup { lo, hi, bare });
        }
    }

    /// Closes a projection: the rows of dissolved groups become the one
    /// pattern-free partition, last.
    fn finish(&mut self) {
        if !self.plain.is_empty() {
            let lo = self.members.rows().len() as u32;
            for m in self.plain.iter() {
                self.members.rows_mut().push_row(m);
            }
            let hi = self.members.rows().len() as u32;
            self.patterns.push_row(&[]);
            self.groups.push(TpGroup { lo, hi, bare: 0 });
        }
        metrics::add("mine.projected_dbs", 1);
        histogram::observe("mine.projected_db_size", (self.groups.len() + self.plain.len()) as u64);
    }
}

/// Reusable per-depth storage: the node built by projecting its parent
/// on one extension, its extensions, its pair matrix, and the cursors
/// its own children are projected with. Sibling nodes at the same depth
/// recycle these buffers, so after warm-up descent allocates nothing.
#[derive(Default)]
struct TpLevel {
    slabs: Slabs,
    exts: Vec<(u32, u64)>,
    /// The node's pair supports, filled when the node is mined.
    matrix: PairMatrix,
    sweep: Sweep,
}

/// The forward cursors of one deeper node's projection sweep: per group,
/// then per member row, the position in that list of the first local
/// index `≥` the extension last projected. One vector holds both, so a
/// node's cursors are one allocation; [`Sweep::restart`] rewinds them
/// when the next node at the depth starts its children.
#[derive(Default)]
struct Sweep {
    cur: Vec<u32>,
}

impl Sweep {
    fn restart(&mut self) {
        self.cur.clear();
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
    let exts = (0..flist.len() as u32).map(|r| (r, flist.support(r))).collect();
    tp_root(&RootNode::new(src, exts), minsup, flist, par, sink);
}

/// Root dispatch: the Lemma 3.1 shortcut, the root singletons, and the
/// root pair-counting pass run once on the caller thread; each
/// extension's subtree is then an independent fan-out unit reading only
/// the shared root, its index, and its matrix.
fn tp_root(
    root: &RootNode<'_>,
    minsup: u64,
    flist: &FList,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    let node = root.node();
    let exts = node.exts;
    if node.groups.len() == 1 && !node.groups[0].has_members() && exts.len() <= 62 {
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
    fill_group_matrix(node, k, &mut matrix);
    let matrix = &matrix;
    fan_out_ordered(
        par,
        k,
        sink,
        || (RankEmitter::new(flist), vec![TpLevel::default()]),
        |(emitter, levels), i, sink| {
            let i = i as u32;
            if extend(exts, matrix, i, minsup, &mut levels[0], emitter, sink) {
                root.project(i, &mut levels[0].slabs);
                emitter.push(exts[i as usize].0);
                tp_node(levels, 1, minsup, emitter, sink);
                emitter.pop();
            }
        },
    );
}

/// The root node: groups and residual patterns of its own, member rows
/// read in place from the source, and the rank → member-rows index its
/// projections read. Every deeper node lives in its depth's [`TpLevel`].
struct RootNode<'a> {
    groups: Vec<TpGroup>,
    patterns: CsrTuples<u32>,
    /// The source's outlier section; its plain section is `plain`,
    /// numbered after it.
    members: TupleSlices<'a>,
    plain: TupleSlices<'a>,
    exts: Vec<(u32, u64)>,
    /// Row `r` lists the member rows holding rank `r`, ascending.
    index: CsrTuples<u32>,
}

impl<'a> RootNode<'a> {
    /// Builds the root node over `src` with extensions `exts` (local
    /// index = rank): groups in source order with the plain partition
    /// last, mirroring [`Slabs::finish`], and the index by one counting
    /// sort of the member rows.
    fn new(src: &'a CompressedRankDb, exts: Vec<(u32, u64)>) -> Self {
        let mut groups = Vec::with_capacity(src.num_groups() + 1);
        let mut patterns = CsrTuples::new();
        let mut lo = 0u32;
        for g in src.groups() {
            let hi = lo + g.outliers.len() as u32;
            groups.push(TpGroup { lo, hi, bare: g.bare });
            patterns.push_row(g.pattern);
            lo = hi;
        }
        let plain = src.plain();
        if !plain.is_empty() {
            groups.push(TpGroup { lo, hi: lo + plain.len() as u32, bare: 0 });
            patterns.push_row(&[]);
        }
        let members = src.outliers();
        let index = rows_by_rank([members, plain], exts.len());
        RootNode { groups, patterns, members, plain, exts, index }
    }

    fn node(&self) -> Node<'_> {
        Node {
            groups: &self.groups,
            patterns: self.patterns.as_slices(),
            members: self.members,
            plain: self.plain,
            exts: &self.exts,
        }
    }

    /// Projects the root on extension `i` into `slabs`. A group whose
    /// pattern holds `i` follows whole; of any other group only the
    /// member rows the index lists for `i` follow. The index lists rows
    /// ascending, so they come group by group, in each group's order.
    fn project(&self, i: u32, slabs: &mut Slabs) {
        let node = self.node();
        let hits = self.index.row(i as usize);
        slabs.clear();
        let mut h = 0;
        for (g, pattern) in self.groups.iter().zip(node.patterns) {
            let from = h;
            while h < hits.len() && hits[h] < g.hi {
                h += 1;
            }
            let ppos = pattern.partition_point(|&x| x < i);
            if pattern.get(ppos) == Some(&i) {
                slabs.push_group(
                    &pattern[ppos + 1..],
                    g.bare,
                    node.rows(g).into_iter().map(|m| past(m, i)),
                );
            } else if h > from {
                let rows = hits[from..h].iter().map(|&r| past(node.row(r), i));
                slabs.push_group(&pattern[ppos..], 0, rows);
            }
        }
        slabs.finish();
    }
}

/// The part of ascending `row` past local index `i`.
fn past(row: &[u32], i: u32) -> &[u32] {
    &row[row.partition_point(|&x| x <= i)..]
}

/// The rank → rows index over `sections`' rows, numbered as one run:
/// row `r` of the result lists, ascending, the rows holding rank `r`.
/// Every rank is below `k`.
fn rows_by_rank(sections: [TupleSlices<'_>; 2], k: usize) -> CsrTuples<u32> {
    let mut offsets = vec![0u32; k + 1];
    for sec in sections {
        for &r in sec.flat() {
            offsets[r as usize + 1] += 1;
        }
    }
    for r in 0..k {
        offsets[r + 1] += offsets[r];
    }
    // Each rank's start doubles as its write cursor, ending at the next
    // rank's start; one shift then restores the starts.
    let mut rows = vec![0u32; offsets[k] as usize];
    let mut id = 0u32;
    for sec in sections {
        for m in sec {
            for &r in m {
                rows[offsets[r as usize] as usize] = id;
                offsets[r as usize] += 1;
            }
            id += 1;
        }
    }
    offsets.copy_within(0..k, 1);
    offsets[0] = 0;
    CsrTuples::from_raw_parts(rows, offsets)
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
        let TpLevel { slabs, exts, matrix, sweep } = &mut levels[d - 1];
        let node = slabs.node(exts);
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
        for &(rank, sup) in exts.iter() {
            emitter.push(rank);
            emitter.emit(sink, sup);
            emitter.pop();
        }
        if exts.len() < 2 {
            return;
        }
        metrics::set_max("mine.max_depth", emitter.depth() as u64 + 1);
        fill_group_matrix(node, exts.len(), matrix);
        sweep.restart();
    }
    if levels.len() <= d {
        levels.resize_with(d + 1, TpLevel::default);
    }
    // Children, depth-first.
    for i in 0..levels[d - 1].exts.len() as u32 {
        let (upper, lower) = levels.split_at_mut(d);
        let parent = &mut upper[d - 1];
        if extend(&parent.exts, &parent.matrix, i, minsup, &mut lower[0], emitter, sink) {
            project(parent.slabs.node(&parent.exts), i, &mut parent.sweep, &mut lower[0].slabs);
            emitter.push(parent.exts[i as usize].0);
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
        for m in node.rows(g) {
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

/// Collects into `lvl` the frequent extensions of the child of local
/// extension `i` of a node with extensions `exts` and pair matrix
/// `matrix`, and says whether the child must be projected and mined:
/// whether it has two or more. A child with exactly one is a leaf, and
/// its single pattern is emitted here. When it says yes, `lvl`'s remap
/// is ready for the projection, which serves both [`tp_node`]'s loop
/// and the root fan-out unit.
fn extend(
    exts: &[(u32, u64)],
    matrix: &PairMatrix,
    i: u32,
    minsup: u64,
    lvl: &mut TpLevel,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) -> bool {
    let k = exts.len() as u32;
    lvl.exts.clear();
    for j in (i + 1)..k {
        let c = matrix.get(i, j);
        if c >= minsup {
            lvl.exts.push((exts[j as usize].0, c));
        }
    }
    match lvl.exts[..] {
        [] => return false,
        [(rank, sup)] => {
            emitter.push(exts[i as usize].0);
            emitter.emit_with(sink, &[rank], sup);
            emitter.pop();
            return false;
        }
        _ => {}
    }
    let remap = &mut lvl.slabs.remap;
    remap.clear();
    remap.resize(k as usize, u32::MAX);
    let mut next_local = 0u32;
    for j in (i + 1)..k {
        if matrix.get(i, j) >= minsup {
            remap[j as usize] = next_local;
            next_local += 1;
        }
    }
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

/// Projects a deeper node on local extension `i` into `slabs`, reading
/// containment and cut positions at `sweep`'s forward cursors, so
/// successive calls for one node must ask for ascending `i` (see
/// [`Sweep::restart`]). Every member row of the node is visited.
fn project(node: Node<'_>, i: u32, sweep: &mut Sweep, slabs: &mut Slabs) {
    slabs.clear();
    if sweep.cur.is_empty() {
        sweep.cur.resize(node.groups.len() + node.members.len() + node.plain.len(), 0);
    }
    let (pat_cur, row_cur) = sweep.cur.split_at_mut(node.groups.len());
    for ((g, pattern), pcur) in node.groups.iter().zip(node.patterns).zip(pat_cur) {
        // Whole group follows on a pattern item; only the members
        // containing i follow on an outlier item.
        let (ppos, whole) = seek(pattern, pcur, i);
        let curs = &mut row_cur[g.lo as usize..g.hi as usize];
        let rows = node.rows(g).into_iter().zip(curs).filter_map(|(m, mcur)| {
            let (mpos, hit) = seek(m, mcur, i);
            (whole || hit).then(|| &m[mpos + hit as usize..])
        });
        slabs.push_group(&pattern[ppos + whole as usize..], if whole { g.bare } else { 0 }, rows);
    }
    slabs.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-extension scan the sweep replaced, kept as the reference:
    /// a binary search per group and member row for every extension.
    fn reference_project(node: Node<'_>, i: u32, slabs: &mut Slabs) {
        let Slabs {
            groups: out_groups,
            patterns: out_patterns,
            members: out_members,
            plain,
            remap,
        } = slabs;
        out_groups.clear();
        out_patterns.clear();
        out_members.reset();
        plain.clear();
        for (g, pattern) in node.groups.iter().zip(node.patterns) {
            let rows = node.rows(g);
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

    fn child(slabs: &Slabs) -> Child {
        (
            slabs.groups.iter().map(|g| (g.lo, g.hi, g.bare)).collect(),
            slabs.patterns.iter().map(<[u32]>::to_vec).collect(),
            slabs.members.rows().iter().map(<[u32]>::to_vec).collect(),
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
        let mut src = CompressedRankDb::empty(K as usize);
        // Whole on 1, 3 and 5; partial elsewhere.
        src.push_group(&[1, 3, 5], [&[0, 2][..], &[4, 6], &[2, 7]], 2);
        // Partial off its pattern: only the members holding the
        // extension follow (on 1, 3, 4, 5 and 7 some do).
        src.push_group(&[2, 6], [&[1, 4][..], &[3], &[1, 5, 7]], 1);
        // Whole on 4 with an empty residual: dissolves into plain rows.
        src.push_group(&[4], [&[2, 5][..], &[3, 6, 7], &[5], &[0, 5]], 3);
        // Bare members only.
        src.push_group(&[0, 2, 7], [], 5);
        // The plain partition.
        for row in [&[0, 1, 2][..], &[1, 3], &[5, 6, 7], &[0, 7], &[6]] {
            src.push_plain(row);
        }
        let root = RootNode::new(&src, (0..K).map(|j| (j, 0)).collect());
        let node = root.node();

        let mut sweep = Sweep::default();
        let (mut swept, mut indexed, mut reference) =
            (Slabs::default(), Slabs::default(), Slabs::default());
        let drops: [&dyn Fn(u32, u32) -> bool; 3] =
            [&|_, _| false, &|i, j| (i + j) % 4 == 0, &|_, j| j % 2 == 1];
        // Every extension, then every other one (cursors skip the gaps),
        // under each remap; each pass restarts the sweep, as a new node
        // does.
        for drop in drops {
            for step in [1, 2] {
                sweep.restart();
                for i in (0..K).step_by(step) {
                    let map = remap(K, i, |j| drop(i, j));
                    swept.remap.clone_from(&map);
                    indexed.remap.clone_from(&map);
                    reference.remap = map;
                    project(node, i, &mut sweep, &mut swept);
                    root.project(i, &mut indexed);
                    reference_project(node, i, &mut reference);
                    let want = child(&reference);
                    assert_eq!(child(&swept), want, "sweep: extension {i}, step {step}");
                    assert_eq!(child(&indexed), want, "index: extension {i}, step {step}");
                }
            }
        }
    }
}
