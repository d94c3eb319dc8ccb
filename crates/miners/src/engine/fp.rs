//! The FP-growth family engine: conditional-group forests over
//! [`FpTree`]s (paper §4.2), generic over [`GroupedSource`].
//!
//! The paper sketches the adaptation as "treat each group head as a
//! special item in the upper part of each prefix-tree branch" and defers
//! details to an unavailable technical report. Our realization keeps the
//! group head literally *above* the tree: the database becomes a forest
//! of **conditional groups**, each a `(residual pattern, member count,
//! FP-tree over the members' outlying items)` triple. The plain
//! (uncovered) tuples form one conditional group with an empty pattern —
//! on the degenerate [`gogreen_data::PlainRanks`] substrate that sole
//! group IS the database and the search is classic FP-growth: one tree,
//! conditional-pattern-base extraction per header row, and the
//! single-path subset shortcut.
//!
//! Both compression savings survive in this shape:
//!
//! * **Counting**: a group's pattern items are counted once with the
//!   group count; outlier supports are read off the per-group FP-tree
//!   header tables.
//! * **Projection**: on a pattern item, a group is projected in O(1) —
//!   the pattern shrinks and the (shared, reference-counted) outlier
//!   tree is kept with a raised *rank bound*, because discarded ranks
//!   live at the bottom of every branch (trees are built in descending
//!   rank order). Only projection through an *outlier* item pays for
//!   conditional-pattern-base extraction, exactly as in FP-growth.
//!
//! Root trees keep every rank of their group. Every conditional tree
//! below the root is thresholded at the child node it feeds, as classic
//! FP-growth thresholds its conditional trees: a projection first counts
//! the whole child across all groups (residual patterns, kept trees,
//! extracted bases), then builds each new tree over the child-frequent
//! ranks only and drops the rest from every residual pattern.

use crate::common::{fan_out_ordered, for_each_subset, RankEmitter, ScratchCounts};
use crate::fpgrowth::{FpHeader, FpTree, FpTreeBuilder, FP_NIL};
use gogreen_data::{FList, GroupedSource, PatternSink, ProjectionArena, TupleSlices};
use gogreen_obs::{histogram, metrics};
use gogreen_util::pool::{par_chunks, Parallelism};
use std::sync::Arc;

const SRC_NONE: u32 = u32::MAX;
const SRC_MIXED: u32 = u32::MAX - 1;

/// One group in the current projection.
struct CondGroup {
    /// Residual pattern ranks (ascending): `pats[pat.0..pat.1]` of the
    /// group's [`Forest`]. Empty for the plain partition.
    pat: (u32, u32),
    /// Members in this projection.
    count: u64,
    /// Outlier store; `None` when no member has relevant outliers.
    /// `Arc` rather than `Rc` so fan-out workers can share root trees.
    tree: Option<Arc<FpTree>>,
    /// Ranks ≤ `bound` in the tree are projected away (they sit below
    /// every relevant prefix, so climbs never see them; header rows with
    /// rank ≤ bound are skipped). `-1` marks a tree built for this very
    /// node — at the root, or by the outlier projection that made the
    /// node — whose ranks are all frequent here.
    bound: i64,
}

/// One node of the search: its conditional groups and the one slab
/// their residual patterns live in.
#[derive(Default)]
struct Forest {
    cgs: Vec<CondGroup>,
    pats: Vec<u32>,
}

impl Forest {
    fn pattern(&self, cg: &CondGroup) -> &[u32] {
        &self.pats[cg.pat.0 as usize..cg.pat.1 as usize]
    }

    /// Appends a group, unless it carries nothing: an empty pattern and
    /// no tree.
    fn push(
        &mut self,
        pattern: impl IntoIterator<Item = u32>,
        count: u64,
        tree: Option<Arc<FpTree>>,
        bound: i64,
    ) {
        let from = self.pats.len();
        self.pats.extend(pattern);
        if self.pats.len() > from || tree.is_some() {
            let pat = (from as u32, self.pats.len() as u32);
            self.cgs.push(CondGroup { pat, count, tree, bound });
        }
    }
}

/// A child group recorded by [`project`]'s first pass and built by its
/// second, once the child node's frequent ranks are known.
struct Pending {
    /// Index of the parent group.
    cg: usize,
    /// Start of the residual pattern within the parent's pattern.
    from: usize,
    /// Members in the child.
    count: u64,
    /// Conditional-base rows `lo..hi` in the context arena for an outlier
    /// projection; `None` for a pattern-item projection, which keeps the
    /// parent's tree with a raised bound.
    base: Option<(usize, usize)>,
}

struct Ctx {
    /// Node counts; between [`project`]'s passes, the child's counts.
    scratch: ScratchCounts,
    /// Header counts of the conditional tree being built.
    counts: ScratchCounts,
    src: Vec<u32>,
    /// Conditional-base slab. Every projection resets it, fills it with
    /// the climbed prefix paths (one weighted row each, one row range per
    /// group), and fully consumes it building the child trees *before*
    /// recursing — so one arena per context suffices and steady-state DFS
    /// allocates nothing.
    arena: ProjectionArena,
    /// [`project`]'s child groups between its two passes.
    pending: Vec<Pending>,
    minsup: u64,
}

impl Ctx {
    fn new(num_ranks: usize, minsup: u64) -> Self {
        Ctx {
            scratch: ScratchCounts::new(num_ranks),
            counts: ScratchCounts::new(num_ranks),
            src: vec![SRC_NONE; num_ranks],
            arena: ProjectionArena::new(),
            pending: Vec::new(),
            minsup,
        }
    }
}

/// Mines `src` against `flist` at the absolute threshold `minsup`, the
/// root's frequent ranks fanned out over `par` scoped threads.
///
/// With a non-serial `par`, the per-group outlier trees of the root
/// forest are also built on worker threads (the forest is embarrassingly
/// parallel — each tree reads only its own group; trees are shared via
/// `Arc`, read-only once built). The emitted stream is byte-identical
/// for any thread count.
pub fn mine_source_par<S: GroupedSource + Sync>(
    src: &S,
    flist: &FList,
    minsup: u64,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    let mut scratch = ScratchCounts::new(flist.len());
    let root = build_root(src, &mut scratch, par);
    mine_root(&root, !S::GROUPED, flist, minsup, par, sink);
}

/// Root dispatch: the single-path shortcut, the count, and the Lemma 3.1
/// check run once on the calling thread; each frequent root rank then
/// projects and mines over the shared conditional groups as one fan-out
/// unit. Pattern-item projections clone the group's `Arc` tree — the
/// underlying node arenas are never written after construction, so
/// sharing across workers is safe by construction.
///
/// `raw` marks the group-free substrate, where the node shape is known
/// statically: a sole pattern-free group forever (outlier projection of
/// such a group yields another one). Its units dispatch to the classic
/// FP-growth recursion ([`mine_sole_row`]), which reads local frequency
/// straight off header rows instead of running the generic counting
/// pass — the degenerate substrate promises the group machinery
/// vanishes, not merely that it tolerates empty groups.
fn mine_root(
    root: &Forest,
    raw: bool,
    flist: &FList,
    minsup: u64,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    if root.cgs.is_empty() {
        return;
    }
    {
        let mut emitter = RankEmitter::new(flist);
        if try_single_path(root, minsup, &mut emitter, sink) {
            return;
        }
    }
    let mut root_ctx = Ctx::new(flist.len(), minsup);
    let (frequent, single_group) = count_cgs(root, &mut root_ctx);
    if frequent.is_empty() {
        return;
    }
    if single_group.is_some() && frequent.len() <= 62 {
        let mut emitter = RankEmitter::new(flist);
        for_each_subset(&frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
        return;
    }
    metrics::set_max("mine.max_depth", 1);
    let frequent = &frequent;
    let sole_tree = if raw { root.cgs.first().and_then(|cg| cg.tree.as_deref()) } else { None };
    fan_out_ordered(
        par,
        frequent.len(),
        sink,
        || (Ctx::new(flist.len(), minsup), RankEmitter::new(flist), Vec::with_capacity(16)),
        |(ctx, emitter, climb), k, sink| {
            let (r, _) = frequent[k];
            if let Some(tree) = sole_tree {
                let row = tree.headers().binary_search_by_key(&r, |h| h.rank).unwrap();
                mine_sole_row(tree, row, ctx, climb, emitter, sink);
                return;
            }
            let (r, c) = frequent[k];
            emitter.push(r);
            emitter.emit(sink, c);
            let child = project(root, r, frequent, ctx, climb);
            if !child.cgs.is_empty() {
                metrics::add("mine.projected_dbs", 1);
                histogram::observe("mine.projected_db_size", child.cgs.len() as u64);
                mine_node(&child, ctx, emitter, sink);
            }
            emitter.pop();
        },
    );
}

/// Classic FP-growth over one (conditional) tree of the raw substrate.
///
/// Reachable only through [`mine_sole_row`], whose conditional trees are
/// thresholded at `minsup` — so header rows ARE the locally frequent
/// ranks, ascending, and the generic per-node count/project machinery
/// (counting pass, source tracking, `CondGroup` vector, `Arc` wrap)
/// drops out. Emits the byte-identical stream the generic path produces
/// on a degenerately grouped database (pinned by the engine-unification
/// suite).
fn mine_sole_tree(
    tree: &FpTree,
    ctx: &mut Ctx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    if tree.headers().is_empty() {
        return;
    }
    if let Some(path) = tree.single_path() {
        let kept: Vec<(u32, u64)> = path.into_iter().filter(|&(_, c)| c >= ctx.minsup).collect();
        if kept.len() <= 62 {
            for_each_subset(&kept, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
            return;
        }
    }
    let mut climb = Vec::with_capacity(16);
    for row in 0..tree.headers().len() {
        mine_sole_row(tree, row, ctx, &mut climb, emitter, sink);
    }
}

/// One header row of a raw-substrate tree: emit its pattern, extract the
/// conditional pattern base (no local-frequency retain — every climbed
/// rank has a header row, hence is locally frequent), build the
/// `minsup`-thresholded conditional tree, and recurse.
fn mine_sole_row(
    tree: &FpTree,
    row: usize,
    ctx: &mut Ctx,
    climb: &mut Vec<u32>,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    let hdr = tree.headers()[row];
    emitter.push(hdr.rank);
    emitter.emit(sink, hdr.count);
    ctx.arena.reset();
    let mut touches = 0u64;
    let mut node = hdr.head;
    while node != FP_NIL {
        let w = tree.count_of(node);
        tree.climb_into(node, climb);
        if !climb.is_empty() {
            for &x in climb.iter() {
                ctx.scratch.add(x, w);
            }
            touches += climb.len() as u64;
            ctx.arena.push_weighted(climb, w);
        }
        node = tree.next_same_rank(node);
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
    metrics::add("mine.candidate_tests", ctx.scratch.touched().len() as u64);
    let freq = ctx.scratch.drain_frequent(ctx.minsup);
    if !freq.is_empty() {
        metrics::add("mine.projected_dbs", 1);
        histogram::observe("mine.projected_db_size", ctx.arena.rows().len() as u64);
        let mut b = FpTreeBuilder::new(&freq);
        let mut filtered: Vec<u32> = Vec::new();
        for (ranks, &w) in ctx.arena.rows().iter().zip(ctx.arena.weights()) {
            filtered.clear();
            filtered.extend(
                ranks.iter().filter(|&&x| freq.binary_search_by_key(&x, |&(f, _)| f).is_ok()),
            );
            if !filtered.is_empty() {
                b.insert_desc(filtered.iter().rev().copied(), w);
            }
        }
        mine_sole_tree(&b.finish(), ctx, emitter, sink);
    }
    emitter.pop();
}

/// The FP-growth single-path shortcut, lifted to the conditional-group
/// node shape: when the node is a sole pattern-free group whose tree is
/// one downward path, the complete pattern set of the sub-space is all
/// combinations of the path elements that are themselves frequent
/// (path counts are non-increasing root-downward, so any subset touching
/// a filtered element is infrequent too). Returns whether it fired.
fn try_single_path(
    node: &Forest,
    minsup: u64,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) -> bool {
    let [cg] = &node.cgs[..] else { return false };
    if !node.pattern(cg).is_empty() {
        return false;
    }
    let Some(tree) = &cg.tree else { return false };
    let Some(path) = tree.single_path() else { return false };
    let kept: Vec<(u32, u64)> =
        path.into_iter().filter(|&(x, c)| (x as i64) > cg.bound && c >= minsup).collect();
    if kept.len() > 62 {
        return false;
    }
    for_each_subset(&kept, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
    true
}

/// Builds one root group's outlier FP-tree (`None` when there is nothing
/// to store). Insertion order is the tuple order, so the tree shape is
/// deterministic wherever this runs. Every rank is kept: on a degenerate
/// (plain-only) source every rank survived global F-list encoding, and
/// in a grouped source an outlier that is rare at the root may still
/// combine with pattern items into a frequent extension. Below the root,
/// [`project`] thresholds each conditional tree at the child it feeds.
fn build_tree(tuples: TupleSlices<'_>, scratch: &mut ScratchCounts) -> Option<FpTree> {
    if tuples.is_empty() {
        return None;
    }
    // Counting ignores row boundaries, so sweep the flat CSR buffer.
    for &x in tuples.flat() {
        scratch.add(x, 1);
    }
    let freq = scratch.drain_frequent(1);
    if freq.is_empty() {
        return None;
    }
    let mut b = FpTreeBuilder::new(&freq);
    for t in tuples {
        b.insert_desc(t.iter().rev().copied(), 1);
    }
    Some(b.finish())
}

/// Builds the root conditional groups from the source. The per-group
/// trees are independent, so with a non-serial `par` they are
/// constructed on worker threads ([`FpTree`] is plain data and `Send`;
/// the `Arc` sharing wrapper is applied after the join, on this thread).
fn build_root<S: GroupedSource + Sync>(
    src: &S,
    scratch: &mut ScratchCounts,
    par: Parallelism,
) -> Forest {
    let num_groups = src.num_groups();
    let mut root = Forest { cgs: Vec::with_capacity(num_groups + 1), pats: Vec::new() };
    if S::GROUPED {
        if par.for_items(num_groups) <= 1 {
            for g in 0..num_groups {
                let tree = build_tree(src.group_outliers(g), scratch).map(Arc::new);
                root.push(src.group_pattern(g).iter().copied(), src.group_count(g), tree, -1);
            }
        } else {
            let gs: Vec<u32> = (0..num_groups as u32).collect();
            let parts = par_chunks(par, &gs, |_, chunk| {
                let mut scratch = ScratchCounts::new(src.num_ranks());
                chunk
                    .iter()
                    .map(|&g| build_tree(src.group_outliers(g as usize), &mut scratch))
                    .collect::<Vec<_>>()
            });
            for (lo, trees) in parts {
                for (g, tree) in (lo..num_groups).zip(trees) {
                    let pattern = src.group_pattern(g).iter().copied();
                    root.push(pattern, src.group_count(g), tree.map(Arc::new), -1);
                }
            }
        }
    }
    if !src.plain().is_empty() {
        let tree = build_tree(src.plain(), scratch).map(Arc::new);
        root.push([], src.plain().len() as u64, tree, -1);
    }
    root
}

/// Counts one node's conditional groups: pattern items via group counts,
/// outliers via tree headers. Both paths are group-at-a-time: one
/// weighted add stands in for a whole group (or header row) of member
/// tuples. Returns the locally frequent `(rank, count)` pairs (ascending)
/// and the single source group if Lemma 3.1 applies.
fn count_cgs(node: &Forest, ctx: &mut Ctx) -> (Vec<(u32, u64)>, Option<u32>) {
    let mut group_hits = 0u64;
    for (ci, cg) in node.cgs.iter().enumerate() {
        for &x in node.pattern(cg) {
            ctx.scratch.add(x, cg.count);
            group_hits += 1;
            let s = &mut ctx.src[x as usize];
            *s = match *s {
                SRC_NONE => ci as u32,
                cur if cur == ci as u32 => cur,
                _ => SRC_MIXED,
            };
        }
        if let Some(tree) = &cg.tree {
            for h in tree.headers() {
                if (h.rank as i64) > cg.bound {
                    ctx.scratch.add(h.rank, h.count);
                    ctx.src[h.rank as usize] = SRC_MIXED;
                }
            }
        }
    }
    if group_hits > 0 {
        metrics::add("mine.group_hits", group_hits);
    }
    metrics::add("mine.candidate_tests", ctx.scratch.touched().len() as u64);
    let mut frequent: Vec<(u32, u64)> = ctx
        .scratch
        .touched()
        .iter()
        .map(|&x| (x, ctx.scratch.get(x)))
        .filter(|&(_, c)| c >= ctx.minsup)
        .collect();
    frequent.sort_unstable_by_key(|&(x, _)| x);
    let single_group = match frequent.split_first() {
        Some((&(x0, _), rest)) => {
            let g0 = ctx.src[x0 as usize];
            (g0 != SRC_MIXED && rest.iter().all(|&(x, _)| ctx.src[x as usize] == g0)).then_some(g0)
        }
        None => None,
    };
    for &x in ctx.scratch.touched() {
        ctx.src[x as usize] = SRC_NONE;
    }
    ctx.scratch.clear();
    (frequent, single_group)
}

/// Mines one node of the search: single-path and Lemma 3.1 shortcuts if
/// they fire, otherwise extend by every locally frequent rank.
fn mine_node(
    node: &Forest,
    ctx: &mut Ctx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    if try_single_path(node, ctx.minsup, emitter, sink) {
        return;
    }
    let (frequent, single_group) = count_cgs(node, ctx);
    if frequent.is_empty() {
        return;
    }
    if single_group.is_some() && frequent.len() <= 62 {
        for_each_subset(&frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
        return;
    }
    let mut climb = Vec::with_capacity(16);
    for &(r, c) in &frequent {
        emitter.push(r);
        emitter.emit(sink, c);
        let child = project(node, r, &frequent, ctx, &mut climb);
        if !child.cgs.is_empty() {
            metrics::add("mine.projected_dbs", 1);
            histogram::observe("mine.projected_db_size", child.cgs.len() as u64);
            mine_node(&child, ctx, emitter, sink);
        }
        emitter.pop();
    }
}

/// Projects every conditional group on rank `r`, in two passes, so that
/// each new conditional tree is thresholded at the child node it feeds.
///
/// No single group can see the child's counts, so pass 1 counts the
/// whole child first: a pattern-item projection contributes its residual
/// pattern × group count and its kept tree's header rows above `r`; an
/// outlier projection extracts its conditional base into the context
/// arena (one row range per group) and contributes its residual pattern
/// × `r`'s header count plus every base path × its weight. Pass 2 then
/// builds each outlier projection's tree over the child-frequent ranks
/// only, drops child-infrequent ranks from every residual pattern, and
/// drops groups left with neither. On a sole pattern-free group this is
/// classic FP-growth's `minsup`-thresholded conditional tree.
///
/// `node_frequent` (sorted) pre-filters the bases climbed from kept
/// trees: ranks infrequent at this node cannot become frequent deeper
/// (anti-monotonicity).
fn project(
    node: &Forest,
    r: u32,
    node_frequent: &[(u32, u64)],
    ctx: &mut Ctx,
    climb: &mut Vec<u32>,
) -> Forest {
    let is_node_frequent = |x: u32| node_frequent.binary_search_by_key(&x, |&(fr, _)| fr).is_ok();
    let Ctx { scratch, counts, arena, pending, minsup, .. } = ctx;
    // The bases live in the arena only until pass 2 has built the child
    // trees — one generation per projection, no per-path allocation.
    arena.reset();
    pending.clear();
    // Per-path work of conditional-base extraction (the part compression
    // does NOT save — pattern-item projections are O(1)).
    let mut touches = 0u64;
    for (ci, cg) in node.cgs.iter().enumerate() {
        let pattern = node.pattern(cg);
        match pattern.binary_search(&r) {
            Ok(pos) => {
                // Pattern item: every member follows, the shared tree is
                // kept with a raised bound.
                let pattern = &pattern[pos + 1..];
                let above_r = cg.tree.as_deref().map_or(&[][..], |t| headers_above(t, r));
                if pattern.is_empty() && above_r.is_empty() {
                    continue;
                }
                for &x in pattern {
                    scratch.add(x, cg.count);
                }
                for h in above_r {
                    scratch.add(h.rank, h.count);
                }
                pending.push(Pending { cg: ci, from: pos + 1, count: cg.count, base: None });
            }
            Err(ppos) => {
                // Outlier item: extract r's conditional pattern base.
                let Some(tree) = &cg.tree else { continue };
                if (r as i64) <= cg.bound {
                    continue;
                }
                let Some(hdr) = tree.header_for(r) else { continue };
                let lo = arena.rows().len();
                let mut node = hdr.head;
                while node != FP_NIL {
                    let w = tree.count_of(node);
                    tree.climb_into(node, climb);
                    // A tree built for this node holds only ranks frequent
                    // here; only a kept tree can hold ranks that are not.
                    if cg.bound >= 0 {
                        climb.retain(|&x| is_node_frequent(x));
                    }
                    if !climb.is_empty() {
                        for &x in climb.iter() {
                            scratch.add(x, w);
                        }
                        touches += climb.len() as u64;
                        arena.push_weighted(climb, w);
                    }
                    node = tree.next_same_rank(node);
                }
                let hi = arena.rows().len();
                let pattern = &pattern[ppos..];
                if pattern.is_empty() && lo == hi {
                    continue;
                }
                for &x in pattern {
                    scratch.add(x, hdr.count);
                }
                pending.push(Pending {
                    cg: ci,
                    from: ppos,
                    count: hdr.count,
                    base: Some((lo, hi)),
                });
            }
        }
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
    let minsup = *minsup;
    let keep = |x: u32| scratch.get(x) >= minsup;
    let mut out = Forest { cgs: Vec::with_capacity(pending.len()), pats: Vec::new() };
    for p in pending.iter() {
        let cg = &node.cgs[p.cg];
        let (tree, bound) = match p.base {
            None => {
                let kept =
                    cg.tree.as_ref().filter(|t| headers_above(t, r).iter().any(|h| keep(h.rank)));
                (kept.cloned(), r as i64)
            }
            Some((lo, hi)) => (build_base_tree(arena, lo, hi, keep, counts).map(Arc::new), -1),
        };
        let pattern = node.pattern(cg)[p.from..].iter().copied().filter(|&x| keep(x));
        out.push(pattern, p.count, tree, bound);
    }
    scratch.clear();
    out
}

/// The header rows of `tree` with rank above `r` — the ones a projection
/// on `r` keeps.
fn headers_above(tree: &FpTree, r: u32) -> &[FpHeader] {
    let h = tree.headers();
    &h[h.partition_point(|h| h.rank <= r)..]
}

/// Builds one outlier projection's conditional tree from its base, rows
/// `lo..hi` of `arena`, over the ranks `keep` admits (`None` when none
/// is left). `counts` tallies the tree's header rows.
fn build_base_tree(
    arena: &ProjectionArena,
    lo: usize,
    hi: usize,
    keep: impl Fn(u32) -> bool,
    counts: &mut ScratchCounts,
) -> Option<FpTree> {
    let rows = arena.rows().as_slices().range(lo, hi);
    let weights = &arena.weights()[lo..hi];
    for (ranks, &w) in rows.iter().zip(weights) {
        for &x in ranks {
            if keep(x) {
                counts.add(x, w);
            }
        }
    }
    let freq = counts.drain_frequent(1);
    if freq.is_empty() {
        return None;
    }
    let mut b = FpTreeBuilder::new(&freq);
    for (ranks, &w) in rows.iter().zip(weights) {
        b.insert_desc(ranks.iter().rev().copied().filter(|&x| keep(x)), w);
    }
    Some(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::CsrTuples;

    fn tree(rows: &[&[u32]]) -> Option<Arc<FpTree>> {
        let rows: CsrTuples<u32> = rows.iter().map(|r| r.to_vec()).collect();
        build_tree(rows.as_slices(), &mut ScratchCounts::new(8)).map(Arc::new)
    }

    /// The rank-space form of `tests/fp_recycle.rs`'s fixture: projecting
    /// on rank 0 drops rank 5 from a residual pattern and ranks 1 and 2
    /// from a conditional base — all frequent at the root, none under 0.
    #[test]
    fn projection_keeps_only_child_frequent_ranks() {
        let mut root = Forest::default();
        for (pattern, count, tree) in [
            (&[0, 3, 4, 5][..], 2, None),
            (&[5], 8, None),
            (&[4], 3, tree(&[&[0, 1, 2], &[0, 2], &[0, 3]])),
            (
                &[],
                5,
                tree(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3]]),
            ),
        ] {
            root.push(pattern.iter().copied(), count, tree, -1);
        }
        let mut ctx = Ctx::new(6, 3);
        let (frequent, _) = count_cgs(&root, &mut ctx);
        assert_eq!(frequent, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]);
        let child = project(&root, 0, &frequent, &mut ctx, &mut Vec::new());
        let patterns: Vec<&[u32]> = child.cgs.iter().map(|cg| child.pattern(cg)).collect();
        assert_eq!(patterns, [&[3, 4][..], &[4]]);
        assert_eq!(child.cgs.iter().map(|cg| cg.count).collect::<Vec<_>>(), [2, 3]);
        assert!(child.cgs[0].tree.is_none());
        // The base rows [1, 2], [2], [3] shrink to the one row [3].
        let t = child.cgs[1].tree.as_deref().expect("rank 3 survives");
        assert_eq!(t.headers().iter().map(|h| (h.rank, h.count)).collect::<Vec<_>>(), [(3, 1)]);
        assert_eq!(t.num_nodes(), 2);
    }
}
