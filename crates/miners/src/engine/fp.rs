//! The FP-growth family engine: conditional-group forests over
//! [`FpTree`]s (paper §4.2), over the compressed rank layout
//! [`CompressedRankDb`].
//!
//! The paper sketches the adaptation as "treat each group head as a
//! special item in the upper part of each prefix-tree branch" and defers
//! details to an unavailable technical report. Our realization keeps the
//! group head literally *above* the tree: the database becomes a forest
//! of **conditional groups**, each a `(residual pattern, member count,
//! FP-tree over the members' outlying items)` triple. The plain
//! (uncovered) tuples form one conditional group with an empty pattern —
//! on a layout with zero groups that sole group IS the database and the
//! search is classic FP-growth: one tree, conditional-pattern-base
//! extraction per header row, and the single-path subset shortcut.
//!
//! Both compression savings survive in this shape:
//!
//! * **Counting**: a group's pattern items are counted once with the
//!   group count; outlier supports are read off the per-group FP-tree
//!   header tables.
//! * **Projection**: on a pattern item, a group is projected in O(1) —
//!   the pattern shrinks and the outlier tree is kept (borrowed, not
//!   copied) with a raised *rank bound*, because discarded ranks live at
//!   the bottom of every branch (trees are built in descending rank
//!   order). Only projection through an *outlier* item pays for
//!   conditional-pattern-base extraction, exactly as in FP-growth.
//!
//! Root trees keep every rank of their group. Every conditional tree
//! below the root is thresholded at the child node it feeds, as classic
//! FP-growth thresholds its conditional trees: a projection first counts
//! the whole child across all groups (residual patterns, kept trees,
//! extracted bases), then builds each new tree over the child-frequent
//! ranks only and drops the rest from every residual pattern.
//!
//! Storage is per search depth, as in H-Mine's slabs: `levels[d]` holds
//! the depth-`d` node's frequent ranks and the child projected from it —
//! groups, residual patterns and the child's new trees — and siblings
//! clear and refill it in place, so after warm-up a descent allocates
//! nothing. A group names its tree by the depth of the node that built
//! it (0 for the root's trees, which every fan-out worker reads) and its
//! index there; a kept tree is such a name, copied.

use crate::common::{fan_out_ordered, for_each_subset, RankEmitter, ScratchCounts};
use crate::fpgrowth::{FpChains, FpHeader, FpTree, FpTreeBuilder, FP_NIL};
use gogreen_data::{CompressedRankDb, FList, PatternSink, ProjectionArena, TupleSlices};
use gogreen_obs::{histogram, metrics};
use gogreen_util::pool::{par_chunks, Parallelism};

const SRC_NONE: u32 = u32::MAX;
const SRC_MIXED: u32 = u32::MAX - 1;

/// A conditional tree: number `idx` of those built for the node at
/// search depth `depth` (the root is depth 0).
#[derive(Clone, Copy)]
struct TreeRef {
    depth: u32,
    idx: u32,
}

/// One group in the current projection.
struct CondGroup {
    /// Residual pattern ranks (ascending): `pats[pat.0..pat.1]` of the
    /// group's [`Forest`]. Empty for the plain partition.
    pat: (u32, u32),
    /// Members in this projection.
    count: u64,
    /// Outlier store; `None` when no member has relevant outliers.
    tree: Option<TreeRef>,
    /// Ranks ≤ `bound` in the tree are projected away (they sit below
    /// every relevant prefix, so climbs never see them; header rows with
    /// rank ≤ bound are skipped). `-1` marks a tree built for this very
    /// node — at the root, or by the outlier projection that made the
    /// node — whose ranks are all frequent here.
    bound: i64,
}

/// One node of the search: its conditional groups, the one slab their
/// residual patterns live in, and the trees built for it. A node below
/// the root is refilled in place for each sibling; `trees` past `built`
/// are earlier siblings' trees, kept for their capacity.
#[derive(Default)]
struct Forest {
    cgs: Vec<CondGroup>,
    pats: Vec<u32>,
    trees: Vec<FpTree>,
    built: usize,
}

impl Forest {
    fn pattern(&self, cg: &CondGroup) -> &[u32] {
        &self.pats[cg.pat.0 as usize..cg.pat.1 as usize]
    }

    /// Empties the node, keeping every buffer and tree for reuse.
    fn clear(&mut self) {
        self.cgs.clear();
        self.pats.clear();
        self.built = 0;
    }

    /// The tree slot the next [`Forest::keep_tree`] keeps.
    fn tree_slot(&mut self) -> &mut FpTree {
        if self.built == self.trees.len() {
            self.trees.push(FpTree::default());
        }
        &mut self.trees[self.built]
    }

    /// Keeps the tree just built in [`Forest::tree_slot`]; `depth` is
    /// this node's.
    fn keep_tree(&mut self, depth: u32) -> TreeRef {
        self.built += 1;
        TreeRef { depth, idx: self.built as u32 - 1 }
    }

    /// Appends a group, unless it carries nothing: an empty pattern and
    /// no tree.
    fn push(
        &mut self,
        pattern: impl IntoIterator<Item = u32>,
        count: u64,
        tree: Option<TreeRef>,
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

/// Per-depth storage: `levels[d]` projects the node at depth `d`. The
/// node at depth `d ≥ 1` is `levels[d - 1].child`; the root is built
/// once and shared by every fan-out worker.
#[derive(Default)]
struct FpLevel {
    /// The locally frequent `(rank, count)` pairs of the depth-`d` node
    /// (unused at depth 0, whose list is shared).
    frequent: Vec<(u32, u64)>,
    /// The child projected from it on one of those ranks.
    child: Forest,
}

/// Every tree a node at some depth can reach: the root's, and those
/// built for each node on its path.
#[derive(Clone, Copy)]
struct Trees<'a> {
    root: &'a Forest,
    /// `levels[..d]` for a node at depth `d`.
    levels: &'a [FpLevel],
}

impl<'a> Trees<'a> {
    fn get(self, t: TreeRef) -> &'a FpTree {
        let node = match t.depth as usize {
            0 => self.root,
            d => &self.levels[d - 1].child,
        };
        &node.trees[t.idx as usize]
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

/// One worker's scratch: every buffer here is filled and consumed
/// within one step, before the search descends.
struct Ctx {
    /// Node counts; between [`project`]'s passes, the child's counts.
    scratch: ScratchCounts,
    /// Header counts of the conditional tree being built.
    counts: ScratchCounts,
    src: Vec<u32>,
    /// Conditional-base slab. Every projection resets it, fills it with
    /// the climbed prefix paths (one weighted row each, one row range per
    /// group), and fully consumes it building the child trees *before*
    /// recursing — so one arena per context suffices.
    arena: ProjectionArena,
    /// [`project`]'s child groups between its two passes.
    pending: Vec<Pending>,
    /// One prefix path, climbed.
    climb: Vec<u32>,
    /// The header rows of the tree being built.
    freq: Vec<(u32, u64)>,
    /// A single-path tree's elements.
    path: Vec<(u32, u64)>,
    chains: FpChains,
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
            climb: Vec::with_capacity(16),
            freq: Vec::new(),
            path: Vec::new(),
            chains: FpChains::default(),
            minsup,
        }
    }
}

/// One fan-out worker's search below the shared root.
struct Search<'a> {
    root: &'a Forest,
    levels: Vec<FpLevel>,
    ctx: Ctx,
}

impl Search<'_> {
    /// Makes `levels[d]` exist.
    fn reach(&mut self, d: usize) {
        if self.levels.len() <= d {
            self.levels.resize_with(d + 1, FpLevel::default);
        }
    }
}

/// Mines `src` against `flist` at the absolute threshold `minsup`, the
/// root's frequent ranks fanned out over `par` scoped threads.
///
/// With a non-serial `par`, the per-group outlier trees of the root
/// forest are also built on worker threads (the forest is embarrassingly
/// parallel — each tree reads only its own group; trees are read-only
/// once built, and every worker borrows them). The emitted stream is
/// byte-identical for any thread count. A layout without groups takes
/// the classic FP-growth fast path.
pub fn mine_source_par(
    src: &CompressedRankDb,
    flist: &FList,
    minsup: u64,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    let mut ctx = Ctx::new(flist.len(), minsup);
    let root = build_root(src, &mut ctx, par);
    mine_root(&root, src.num_groups() == 0, flist, ctx, par, sink);
}

/// Root dispatch: the single-path shortcut, the count, and the Lemma 3.1
/// check run once on the calling thread (with `ctx`); each frequent root
/// rank then projects and mines over the shared conditional groups as
/// one fan-out unit. Pattern-item projections keep a root tree by name —
/// trees are never written after construction, so sharing across
/// workers is safe by construction.
///
/// `raw` selects the fast path, and is only valid when the source
/// layout had no groups: then the node shape is known for the whole
/// run — a sole pattern-free group forever (outlier projection of such
/// a group yields another one). Its units dispatch to the classic
/// FP-growth recursion ([`mine_sole_row`]), which reads local frequency
/// straight off header rows instead of running the generic counting
/// pass. The caller chooses once, from the group count; with `raw`
/// false the generic path mines the same zero-group root to the
/// byte-identical stream (a unit test pins both sides).
fn mine_root(
    root: &Forest,
    raw: bool,
    flist: &FList,
    mut ctx: Ctx,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    if root.cgs.is_empty() {
        return;
    }
    let trees = Trees { root, levels: &[] };
    let minsup = ctx.minsup;
    {
        let mut emitter = RankEmitter::new(flist);
        if try_single_path(root, trees, &mut ctx, &mut emitter, sink) {
            return;
        }
    }
    let mut frequent = Vec::new();
    let single_group = count_cgs(root, trees, &mut ctx, &mut frequent);
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
    fan_out_ordered(
        par,
        frequent.len(),
        sink,
        || {
            let s = Search { root, levels: Vec::new(), ctx: Ctx::new(flist.len(), minsup) };
            (s, RankEmitter::new(flist))
        },
        |(s, emitter), k, sink| {
            let (r, c) = frequent[k];
            if raw {
                let tree = &root.trees[0];
                let row = tree.headers().binary_search_by_key(&r, |h| h.rank).unwrap();
                mine_sole_row(s, 0, row, emitter, sink);
                return;
            }
            emitter.push(r);
            emitter.emit(sink, c);
            s.reach(0);
            let child = &mut s.levels[0].child;
            project(root, trees, r, frequent, child, 1, &mut s.ctx);
            if !child.cgs.is_empty() {
                metrics::add("mine.projected_dbs", 1);
                histogram::observe("mine.projected_db_size", child.cgs.len() as u64);
                mine_node(s, 1, emitter, sink);
            }
            emitter.pop();
        },
    );
}

/// Classic FP-growth over the raw substrate's conditional tree at depth
/// `d ≥ 1` (`levels[d - 1]`'s only tree).
///
/// Reachable only through [`mine_sole_row`], whose conditional trees are
/// thresholded at `minsup` — so header rows ARE the locally frequent
/// ranks, ascending, and the generic per-node count/project machinery
/// (counting pass, source tracking, `CondGroup` vector) drops out. Emits
/// the byte-identical stream the generic path produces on the same
/// zero-group layout (pinned by this module's unit tests).
fn mine_sole_tree(
    s: &mut Search<'_>,
    d: usize,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    let Search { root, levels, ctx } = s;
    let tree = Trees { root, levels }.get(TreeRef { depth: d as u32, idx: 0 });
    let rows = tree.headers().len();
    if rows == 0 {
        return;
    }
    if tree.single_path_into(&mut ctx.path) {
        ctx.path.retain(|&(_, c)| c >= ctx.minsup);
        if ctx.path.len() <= 62 {
            for_each_subset(&ctx.path, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
            return;
        }
    }
    for row in 0..rows {
        mine_sole_row(s, d, row, emitter, sink);
    }
}

/// One header row of the raw substrate's tree at depth `d` (the shared
/// root tree at 0): emit its pattern, extract the conditional pattern
/// base (no local-frequency retain — every climbed rank has a header
/// row, hence is locally frequent), build the `minsup`-thresholded
/// conditional tree into `levels[d]`, and recurse.
fn mine_sole_row(
    s: &mut Search<'_>,
    d: usize,
    row: usize,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    s.reach(d);
    let Search { root, levels, ctx } = &mut *s;
    let (upper, lower) = levels.split_at_mut(d);
    let tree = Trees { root, levels: upper }.get(TreeRef { depth: d as u32, idx: 0 });
    let hdr = tree.headers()[row];
    emitter.push(hdr.rank);
    emitter.emit(sink, hdr.count);
    ctx.arena.reset();
    let mut touches = 0u64;
    let mut node = hdr.head;
    while node != FP_NIL {
        let w = tree.count_of(node);
        tree.climb_into(node, &mut ctx.climb);
        if !ctx.climb.is_empty() {
            for &x in &ctx.climb {
                ctx.scratch.add(x, w);
            }
            touches += ctx.climb.len() as u64;
            ctx.arena.push_weighted(&ctx.climb, w);
        }
        node = tree.next_same_rank(node);
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
    metrics::add("mine.candidate_tests", ctx.scratch.touched().len() as u64);
    ctx.scratch.drain_frequent(ctx.minsup, &mut ctx.freq);
    if !ctx.freq.is_empty() {
        metrics::add("mine.projected_dbs", 1);
        histogram::observe("mine.projected_db_size", ctx.arena.rows().len() as u64);
        let child = &mut lower[0].child;
        child.clear();
        let freq = &ctx.freq;
        let mut b = FpTreeBuilder::new(child.tree_slot(), &mut ctx.chains, freq);
        let is_frequent = |x: &u32| freq.binary_search_by_key(x, |&(f, _)| f).is_ok();
        for (ranks, &w) in ctx.arena.rows().iter().zip(ctx.arena.weights()) {
            b.insert_desc(ranks.iter().rev().copied().filter(is_frequent), w);
        }
        b.finish();
        child.keep_tree(d as u32 + 1);
        mine_sole_tree(s, d + 1, emitter, sink);
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
    trees: Trees<'_>,
    ctx: &mut Ctx,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) -> bool {
    let [cg] = &node.cgs[..] else { return false };
    if !node.pattern(cg).is_empty() {
        return false;
    }
    let Some(tree) = cg.tree else { return false };
    let path = &mut ctx.path;
    if !trees.get(tree).single_path_into(path) {
        return false;
    }
    path.retain(|&(x, c)| (x as i64) > cg.bound && c >= ctx.minsup);
    if path.len() > 62 {
        return false;
    }
    for_each_subset(path, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
    true
}

/// Builds one root group's outlier FP-tree into `tree`; returns whether
/// there was anything to store. Insertion order is the tuple order, so
/// the tree shape is deterministic wherever this runs. Every rank is
/// kept: on a layout without groups every rank survived global F-list
/// encoding, and in a grouped layout an outlier that is rare at
/// the root may still combine with pattern items into a frequent
/// extension. Below the root, [`project`] thresholds each conditional
/// tree at the child it feeds.
fn build_tree(tuples: TupleSlices<'_>, ctx: &mut Ctx, tree: &mut FpTree) -> bool {
    // Counting ignores row boundaries, so sweep the flat CSR buffer.
    for &x in tuples.flat() {
        ctx.scratch.add(x, 1);
    }
    ctx.scratch.drain_frequent(1, &mut ctx.freq);
    if ctx.freq.is_empty() {
        return false;
    }
    let mut b = FpTreeBuilder::new(tree, &mut ctx.chains, &ctx.freq);
    for t in tuples {
        b.insert_desc(t.iter().rev().copied(), 1);
    }
    b.finish();
    true
}

/// Builds the root conditional groups from the source. The per-group
/// trees are independent, so with a non-serial `par` they are
/// constructed on worker threads, each with its own scratch, and moved
/// into the root after the join.
fn build_root(src: &CompressedRankDb, ctx: &mut Ctx, par: Parallelism) -> Forest {
    let num_groups = src.num_groups();
    let mut root = Forest { cgs: Vec::with_capacity(num_groups + 1), ..Forest::default() };
    let add = |root: &mut Forest, tuples: TupleSlices<'_>, ctx: &mut Ctx| {
        build_tree(tuples, ctx, root.tree_slot()).then(|| root.keep_tree(0))
    };
    if par.for_items(num_groups) <= 1 {
        for g in 0..num_groups {
            let tree = add(&mut root, src.group_outliers(g), ctx);
            root.push(src.group_pattern(g).iter().copied(), src.group_count(g), tree, -1);
        }
    } else {
        let gs: Vec<u32> = (0..num_groups as u32).collect();
        let minsup = ctx.minsup;
        let parts = par_chunks(par, &gs, |_, chunk| {
            let mut ctx = Ctx::new(src.num_ranks(), minsup);
            let mut trees = Vec::with_capacity(chunk.len());
            for &g in chunk {
                let mut tree = FpTree::default();
                let built = build_tree(src.group_outliers(g as usize), &mut ctx, &mut tree);
                trees.push(built.then_some(tree));
            }
            trees
        });
        for (lo, trees) in parts {
            for (g, tree) in (lo..num_groups).zip(trees) {
                let tree = tree.map(|tree| {
                    *root.tree_slot() = tree;
                    root.keep_tree(0)
                });
                let pattern = src.group_pattern(g).iter().copied();
                root.push(pattern, src.group_count(g), tree, -1);
            }
        }
    }
    if !src.plain().is_empty() {
        let tree = add(&mut root, src.plain(), ctx);
        root.push([], src.plain().len() as u64, tree, -1);
    }
    root
}

/// Counts one node's conditional groups into `frequent`: pattern items
/// via group counts, outliers via tree headers. Both paths are
/// group-at-a-time: one weighted add stands in for a whole group (or
/// header row) of member tuples. Leaves the locally frequent `(rank,
/// count)` pairs (ascending) in `frequent` and returns the single source
/// group if Lemma 3.1 applies.
fn count_cgs(
    node: &Forest,
    trees: Trees<'_>,
    ctx: &mut Ctx,
    frequent: &mut Vec<(u32, u64)>,
) -> Option<u32> {
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
        if let Some(tree) = cg.tree {
            for h in trees.get(tree).headers() {
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
    frequent.clear();
    frequent.extend(
        ctx.scratch
            .touched()
            .iter()
            .map(|&x| (x, ctx.scratch.get(x)))
            .filter(|&(_, c)| c >= ctx.minsup),
    );
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
    single_group
}

/// Mines the node at depth `d ≥ 1` (`levels[d - 1].child`): single-path
/// and Lemma 3.1 shortcuts if they fire, otherwise extend by every
/// locally frequent rank, each child projected into `levels[d]`.
fn mine_node(
    s: &mut Search<'_>,
    d: usize,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    s.reach(d);
    {
        let Search { root, levels, ctx } = &mut *s;
        let (upper, lower) = levels.split_at_mut(d);
        let trees = Trees { root, levels: upper };
        let node = &upper[d - 1].child;
        if try_single_path(node, trees, ctx, emitter, sink) {
            return;
        }
        let frequent = &mut lower[0].frequent;
        let single_group = count_cgs(node, trees, ctx, frequent);
        if frequent.is_empty() {
            return;
        }
        if single_group.is_some() && frequent.len() <= 62 {
            for_each_subset(frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
            return;
        }
    }
    for k in 0.. {
        let Search { root, levels, ctx } = &mut *s;
        let (upper, lower) = levels.split_at_mut(d);
        let FpLevel { frequent, child } = &mut lower[0];
        let Some(&(r, c)) = frequent.get(k) else { break };
        emitter.push(r);
        emitter.emit(sink, c);
        let trees = Trees { root, levels: upper };
        project(&upper[d - 1].child, trees, r, frequent, child, d as u32 + 1, ctx);
        if !child.cgs.is_empty() {
            metrics::add("mine.projected_dbs", 1);
            histogram::observe("mine.projected_db_size", child.cgs.len() as u64);
            mine_node(s, d + 1, emitter, sink);
        }
        emitter.pop();
    }
}

/// Projects every conditional group of `node` on rank `r` into `out`
/// (the node at `depth`), in two passes, so that each new conditional
/// tree is thresholded at the child node it feeds.
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
    trees: Trees<'_>,
    r: u32,
    node_frequent: &[(u32, u64)],
    out: &mut Forest,
    depth: u32,
    ctx: &mut Ctx,
) {
    let is_node_frequent = |x: u32| node_frequent.binary_search_by_key(&x, |&(fr, _)| fr).is_ok();
    let Ctx { scratch, counts, arena, pending, climb, freq, chains, minsup, .. } = ctx;
    // The bases live in the arena only until pass 2 has built the child
    // trees — one generation per projection, no per-path allocation.
    arena.reset();
    pending.clear();
    out.clear();
    // Per-path work of conditional-base extraction (the part compression
    // does NOT save — pattern-item projections are O(1)).
    let mut touches = 0u64;
    for (ci, cg) in node.cgs.iter().enumerate() {
        let pattern = node.pattern(cg);
        let tree = cg.tree.map(|t| trees.get(t));
        match pattern.binary_search(&r) {
            Ok(pos) => {
                // Pattern item: every member follows, the tree is kept
                // with a raised bound.
                let pattern = &pattern[pos + 1..];
                let above_r = tree.map_or(&[][..], |t| headers_above(t, r));
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
                let Some(tree) = tree else { continue };
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
    for p in pending.iter() {
        let cg = &node.cgs[p.cg];
        let (tree, bound) = match p.base {
            None => {
                let kept = cg
                    .tree
                    .filter(|&t| headers_above(trees.get(t), r).iter().any(|h| keep(h.rank)));
                (kept, r as i64)
            }
            Some((lo, hi)) => {
                let built = build_base_tree(arena, lo, hi, keep, counts, freq, chains, out);
                (built.then(|| out.keep_tree(depth)), -1)
            }
        };
        let pattern = node.pattern(cg)[p.from..].iter().copied().filter(|&x| keep(x));
        out.push(pattern, p.count, tree, bound);
    }
    scratch.clear();
}

/// The header rows of `tree` with rank above `r` — the ones a projection
/// on `r` keeps.
fn headers_above(tree: &FpTree, r: u32) -> &[FpHeader] {
    let h = tree.headers();
    &h[h.partition_point(|h| h.rank <= r)..]
}

/// Builds one outlier projection's conditional tree from its base, rows
/// `lo..hi` of `arena`, over the ranks `keep` admits, into `out`'s next
/// tree slot; returns whether any rank was left. `counts` tallies the
/// tree's header rows into `freq`.
#[allow(clippy::too_many_arguments)]
fn build_base_tree(
    arena: &ProjectionArena,
    lo: usize,
    hi: usize,
    keep: impl Fn(u32) -> bool,
    counts: &mut ScratchCounts,
    freq: &mut Vec<(u32, u64)>,
    chains: &mut FpChains,
    out: &mut Forest,
) -> bool {
    let rows = arena.rows().as_slices().range(lo, hi);
    let weights = &arena.weights()[lo..hi];
    for (ranks, &w) in rows.iter().zip(weights) {
        for &x in ranks {
            if keep(x) {
                counts.add(x, w);
            }
        }
    }
    counts.drain_frequent(1, freq);
    if freq.is_empty() {
        return false;
    }
    let mut b = FpTreeBuilder::new(out.tree_slot(), chains, freq);
    for (ranks, &w) in rows.iter().zip(weights) {
        b.insert_desc(ranks.iter().rev().copied().filter(|&x| keep(x)), w);
    }
    b.finish();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::CsrTuples;

    fn tree(root: &mut Forest, ctx: &mut Ctx, rows: &[&[u32]]) -> Option<TreeRef> {
        let rows: CsrTuples<u32> = rows.iter().map(|r| r.to_vec()).collect();
        build_tree(rows.as_slices(), ctx, root.tree_slot()).then(|| root.keep_tree(0))
    }

    /// The rank-space form of `tests/fp_recycle.rs`'s fixture: projecting
    /// on rank 0 drops rank 5 from a residual pattern and ranks 1 and 2
    /// from a conditional base — all frequent at the root, none under 0.
    #[test]
    fn projection_keeps_only_child_frequent_ranks() {
        let mut ctx = Ctx::new(6, 3);
        let mut root = Forest::default();
        for (pattern, count, rows) in [
            (&[0, 3, 4, 5][..], 2, &[][..]),
            (&[5], 8, &[]),
            (&[4], 3, &[&[0, 1, 2][..], &[0, 2], &[0, 3]]),
            (&[], 5, &[&[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3]]),
        ] {
            let tree = tree(&mut root, &mut ctx, rows);
            root.push(pattern.iter().copied(), count, tree, -1);
        }
        let trees = Trees { root: &root, levels: &[] };
        let mut frequent = Vec::new();
        count_cgs(&root, trees, &mut ctx, &mut frequent);
        assert_eq!(frequent, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]);
        let mut child = Forest::default();
        project(&root, trees, 0, &frequent, &mut child, 1, &mut ctx);
        let patterns: Vec<&[u32]> = child.cgs.iter().map(|cg| child.pattern(cg)).collect();
        assert_eq!(patterns, [&[3, 4][..], &[4]]);
        assert_eq!(child.cgs.iter().map(|cg| cg.count).collect::<Vec<_>>(), [2, 3]);
        assert!(child.cgs[0].tree.is_none());
        // The base rows [1, 2], [2], [3] shrink to the one row [3].
        let t = child.cgs[1].tree.expect("rank 3 survives");
        assert_eq!((t.depth, t.idx, child.built), (1, 0, 1));
        let t = &child.trees[0];
        assert_eq!(t.headers().iter().map(|h| (h.rank, h.count)).collect::<Vec<_>>(), [(3, 1)]);
        assert_eq!(t.num_nodes(), 2);
    }

    /// On layouts without groups, the classic FP-growth fast path and
    /// the generic conditional-group traversal emit the same stream.
    #[test]
    fn raw_fast_path_matches_grouped_traversal() {
        crate::cases::fast_path_matches_grouped(
            &|src, raw, flist, minsup, par, sink| {
                let mut ctx = Ctx::new(flist.len(), minsup);
                let root = build_root(src, &mut ctx, par);
                mine_root(&root, raw, flist, ctx, par, sink);
            },
            false,
        );
    }
}
