//! The H-Mine family engine: hyper-structure search over the RP-Struct
//! arena (paper §4.1, Figures 4–8), generic over [`GroupedSource`].
//!
//! H-Mine's defining trait is **pseudo-projection**: tuples are loaded
//! once into an entry arena and never copied; a projected database is a
//! set of references into that arena. The paper's *RP-Struct* extends
//! this with group heads (pattern + member count + member tails), group
//! tails (the members' outlying items as arena entries), and per-node
//! RP-Header tables whose *item-links* reach tails and whose
//! *group-links* reach whole groups.
//!
//! Our realization keeps all of that, with one engineering deviation
//! that matters for *partial* groups — groups projected through an
//! outlying item, so that only some members remain. The paper's figures
//! only exercise whole groups; threading each partial member through the
//! header tables individually (one link hop per remaining pattern item
//! per member) degenerates to per-member × per-pattern-item work and is
//! measurably slower than plain H-Mine on dense data. Instead, each
//! search node holds its groups as **projected group views**: the source
//! group id, an offset into its pattern, the surviving members as
//! `(tail, entry position)` pairs, and a bare-member count. Projection
//! through a pattern item advances the offset and keeps the member list
//! (the whole group follows — the paper's group-link move); projection
//! through an outlying item collects the members holding that entry (the
//! paper's item-link move). Item data is never copied; only member
//! reference lists are.
//!
//! On the degenerate [`gogreen_data::PlainRanks`] substrate there are no
//! groups at all: every tuple is a plain tail, the group-view machinery
//! is never entered, and the search is exactly classic H-Mine (per-rank
//! queues realized as buckets, queue relinks as bucket hops). Savings on
//! the real substrate (paper §3.1): counting touches each group view
//! once per pattern item — weight = member count — instead of once per
//! member tuple; projecting on a pattern item moves the whole view in
//! one step; and Lemma 3.1 (single-group pattern generation) prunes
//! entire subtrees into subset enumeration.
//!
//! The classic H-Mine economies survive the genericity. In the generic
//! search, queued members are anchored *at* the entry of their queue
//! rank, so hops and projections resume in place instead of rescanning
//! the tail, and the last locally frequent rank of a node is emitted
//! without building its child, which anti-monotonicity proves empty.
//! Beyond that, the group-free substrate dispatches each first-level
//! unit to a *classic* H-Mine fast path (`RawUnit`): the unit's
//! suffixes are compacted into a private arena threaded by intrusive
//! hyperlinks — one reusable link per entry, the original algorithm's
//! trick — so queue hops write a single index and no per-node structures
//! are materialized at all. The fast path is a static specialization
//! (`GroupedSource::GROUPED` is `false`), emits the byte-identical
//! stream the generic search produces on a degenerately grouped
//! database, and keeps the degenerate instantiation at parity with a
//! hand-written H-Mine.

use crate::common::{
    encode_db_pruned, fan_out_ordered, for_each_subset, RankEmitter, ScratchCounts,
};
use gogreen_data::{
    FList, GroupedSource, Item, MinSupport, NoPrune, PatternSink, PlainRanks, SearchPrune,
    TransactionDb,
};
use gogreen_obs::{histogram, metrics};
use gogreen_util::pool::Parallelism;

/// Entry item marking the end of a tail.
const SENT: u32 = u32::MAX;
/// `tail_group` value for plain (uncovered) tuples.
const GNONE: u32 = u32::MAX;

const SRC_NONE: u32 = u32::MAX;
const SRC_MIXED: u32 = u32::MAX - 1;

/// The RP-Struct arenas: all tuple data, loaded once, never copied.
///
/// Public so the memory estimator in `gogreen-core` can budget against
/// [`RpStruct::arena_bytes`]; mining code never needs it directly.
pub struct RpStruct {
    /// Entry items (ranks, ascending within a tail); `SENT` terminates
    /// each tail.
    eitem: Vec<u32>,
    /// First entry of each tail.
    tail_first: Vec<u32>,
    /// Owning group of each tail (`GNONE` for plain tuples).
    tail_group: Vec<u32>,
    /// Group patterns (ranks ascending).
    gpat: Vec<Vec<u32>>,
    /// Group member counts (including bare members).
    gcount: Vec<u64>,
    /// Tails of each group (members with outlying items).
    gtails: Vec<Vec<u32>>,
}

impl RpStruct {
    /// Loads `src` into the arena. On a group-free substrate this is a
    /// plain H-Mine hyper-structure: one tail per tuple, no group rows.
    pub fn build<S: GroupedSource>(src: &S) -> Self {
        let num_groups = src.num_groups();
        let total_entries: usize = (0..num_groups)
            .flat_map(|g| src.group_outliers(g))
            .chain(src.plain())
            .map(|t| t.len() + 1)
            .sum();
        let num_tails: usize =
            (0..num_groups).map(|g| src.group_outliers(g).len()).sum::<usize>() + src.plain().len();
        let mut s = RpStruct {
            eitem: Vec::with_capacity(total_entries),
            tail_first: Vec::with_capacity(num_tails),
            tail_group: Vec::with_capacity(num_tails),
            gpat: Vec::with_capacity(num_groups),
            gcount: Vec::with_capacity(num_groups),
            gtails: Vec::with_capacity(num_groups),
        };
        fn push_tail(s: &mut RpStruct, items: &[u32], group: u32) -> u32 {
            let t = s.tail_first.len() as u32;
            s.tail_first.push(s.eitem.len() as u32);
            s.tail_group.push(group);
            s.eitem.extend_from_slice(items);
            s.eitem.push(SENT);
            t
        }
        if S::GROUPED {
            for g in 0..num_groups {
                let gid = s.gpat.len() as u32;
                s.gpat.push(src.group_pattern(g).to_vec());
                s.gcount.push(src.group_count(g));
                let tails: Vec<u32> =
                    src.group_outliers(g).into_iter().map(|o| push_tail(&mut s, o, gid)).collect();
                s.gtails.push(tails);
            }
        }
        for t in src.plain() {
            push_tail(&mut s, t, GNONE);
        }
        s
    }

    /// Arena bytes — the base quantity the paper's memory estimator
    /// (§3.3) budgets against.
    pub fn arena_bytes(&self) -> usize {
        self.eitem.capacity() * 4
            + (self.tail_first.capacity() + self.tail_group.capacity()) * 4
            + self.gcount.capacity() * 8
            + self.gpat.iter().map(|p| p.capacity() * 4).sum::<usize>()
            + self.gtails.iter().map(|t| t.capacity() * 4).sum::<usize>()
    }
}

/// A member reference: a tail plus the first arena entry still relevant
/// (anchors advance as projections consume entries, so no entry is
/// re-skipped by descendant nodes).
type Member = (u32, u32);

/// Marks a bucketed member as belonging to the plain partition.
const VNONE: u32 = u32::MAX;

/// One group's presence in the current projection.
struct GroupView {
    /// Source group.
    gid: u32,
    /// Residual pattern = `gpat[gid][pat_from..]` (every rank greater
    /// than the node's projection bound, maintained by construction).
    pat_from: u32,
    /// Members with (possibly) relevant outlying items.
    members: Vec<Member>,
    /// Members known to have no relevant outliers (counted only).
    bare: u64,
    /// The locally frequent pattern rank this view currently queues at
    /// (its group-link position); `u32::MAX` once the residual pattern
    /// has no locally frequent item left.
    cur: u32,
}

impl GroupView {
    fn count(&self) -> u64 {
        self.members.len() as u64 + self.bare
    }
}

/// One node of the depth-first search: the paper's RP-Header scope.
struct Node {
    views: Vec<GroupView>,
    plain: Vec<Member>,
}

/// One header row's queues: the RP-Header's group-link (whole views) and
/// item-link (individual members; `VNONE` view = plain tuple) chains.
#[derive(Default)]
struct Bucket {
    views: Vec<u32>,
    members: Vec<(u32, Member)>,
}

/// Reusable per-depth scratch of the DFS: the bucket array of one node,
/// the member grouping buffer, and the bucket currently being processed.
/// Kept in a depth-indexed arena on [`Ctx`] so sibling nodes at the same
/// depth recycle each other's allocations instead of growing fresh
/// `Vec<Bucket>`s per node.
#[derive(Default)]
struct LevelScratch {
    buckets: Vec<Bucket>,
    member_run: Vec<(u32, Member)>,
    cur: Bucket,
}

impl LevelScratch {
    /// Clears all queues and guarantees at least `n` buckets, preserving
    /// every inner capacity.
    fn reset(&mut self, n: usize) {
        for b in &mut self.buckets {
            b.views.clear();
            b.members.clear();
        }
        if self.buckets.len() < n {
            self.buckets.resize_with(n, Bucket::default);
        }
        self.cur.views.clear();
        self.cur.members.clear();
        self.member_run.clear();
    }
}

/// Per-worker mining state. The RP-Struct arena is shared by reference:
/// it is read-only once built, so parallel first-level units each carry
/// their own `Ctx` over the same arena.
struct Ctx<'s> {
    s: &'s RpStruct,
    scratch: ScratchCounts,
    src: Vec<u32>,
    /// Local-frequency tags: `lf_tag[rank] == lf_gen` ⇔ rank is locally
    /// frequent at the node currently being processed; `lf_pos` then
    /// holds its bucket index.
    lf_tag: Vec<u32>,
    lf_pos: Vec<u32>,
    lf_gen: u32,
    minsup: u64,
    /// Apply the Lemma 3.1 subset shortcut (disabled under constraint
    /// pushdown: enumeration would bypass the per-prefix checks).
    shortcut: bool,
    /// Depth-indexed scratch arenas (index = recursion depth below this
    /// context's root).
    levels: Vec<LevelScratch>,
    depth: usize,
}

impl<'s> Ctx<'s> {
    fn new(s: &'s RpStruct, num_ranks: usize, minsup: u64, shortcut: bool) -> Self {
        Ctx {
            s,
            scratch: ScratchCounts::new(num_ranks),
            src: vec![SRC_NONE; num_ranks],
            lf_tag: vec![0; num_ranks],
            lf_pos: vec![0; num_ranks],
            lf_gen: 0,
            minsup,
            shortcut,
            levels: Vec::new(),
            depth: 0,
        }
    }

    /// Finds the entry of rank `r` in `member`'s remaining outliers,
    /// exploiting the ascending entry order for early exit.
    #[inline]
    fn find_entry(&self, (_, pos): Member, r: u32) -> Option<u32> {
        let mut e = pos as usize;
        loop {
            let x = self.s.eitem[e];
            if x == SENT || x > r {
                return None;
            }
            if x == r {
                return Some(e as u32);
            }
            e += 1;
        }
    }

    /// First entry of `member` with rank > `r`, or `None` when the
    /// remaining outliers are exhausted.
    #[inline]
    fn advance_past(&self, (_, pos): Member, r: u32) -> Option<u32> {
        let mut e = pos as usize;
        loop {
            let x = self.s.eitem[e];
            if x == SENT {
                return None;
            }
            if x > r {
                return Some(e as u32);
            }
            e += 1;
        }
    }

    /// First *locally frequent* outlier rank of `member` strictly greater
    /// than `after` (`-1` = no bound), with its arena entry index so the
    /// caller can queue the member anchored *at* that entry. Re-anchoring
    /// on every queue hop is what keeps relinking linear: every scan
    /// (this one, [`Ctx::find_entry`], the next relink) resumes from the
    /// previous queue position instead of the node's original anchor.
    #[inline]
    fn first_lf_outlier(&self, (_, pos): Member, after: i64) -> Option<(u32, u32)> {
        let mut e = pos as usize;
        loop {
            let x = self.s.eitem[e];
            if x == SENT {
                return None;
            }
            if (x as i64) > after && self.lf_tag[x as usize] == self.lf_gen {
                return Some((x, e as u32));
            }
            e += 1;
        }
    }

    /// First locally frequent entry at or after arena position `e`, with
    /// no rank bound: the plain-path variant of [`Ctx::first_lf_outlier`]
    /// for exact anchors, where ascending entry order already guarantees
    /// every entry from `e` on is past the consumed rank.
    #[inline]
    fn first_lf_from(&self, mut e: usize) -> Option<(u32, u32)> {
        loop {
            let x = self.s.eitem[e];
            if x == SENT {
                return None;
            }
            if self.lf_tag[x as usize] == self.lf_gen {
                return Some((x, e as u32));
            }
            e += 1;
        }
    }

    /// First locally frequent residual pattern rank of `view` strictly
    /// greater than `after`.
    #[inline]
    fn first_lf_pattern(&self, view: &GroupView, after: i64) -> Option<u32> {
        self.s.gpat[view.gid as usize][view.pat_from as usize..]
            .iter()
            .copied()
            .find(|&x| (x as i64) > after && self.lf_tag[x as usize] == self.lf_gen)
    }

    /// Adds +1 for each remaining outlier rank of `member` (anchors
    /// guarantee every remaining entry is in scope); returns the number
    /// of entries touched. `track_src` marks each rank as multi-source
    /// for the Lemma 3.1 test — pointless (and skipped) on nodes with no
    /// group views, where the lemma can never fire.
    #[inline]
    fn count_member(&mut self, (_, pos): Member, track_src: bool) -> u64 {
        let mut e = pos as usize;
        let mut touched = 0u64;
        loop {
            let x = self.s.eitem[e];
            if x == SENT {
                return touched;
            }
            self.scratch.add(x, 1);
            if track_src {
                self.src[x as usize] = SRC_MIXED;
            }
            touched += 1;
            e += 1;
        }
    }

    fn merge_src(&mut self, x: u32, view_idx: u32) {
        let s = &mut self.src[x as usize];
        *s = match *s {
            SRC_NONE => view_idx,
            cur if cur == view_idx => cur,
            _ => SRC_MIXED,
        };
    }

    /// Installs `frequent` as the current node's local-frequency tags.
    fn tag_lf(&mut self, frequent: &[(u32, u64)]) {
        self.lf_gen = self.lf_gen.wrapping_add(1);
        for (k, &(x, _)) in frequent.iter().enumerate() {
            self.lf_tag[x as usize] = self.lf_gen;
            self.lf_pos[x as usize] = k as u32;
        }
    }
}

/// Mines `src` against `flist` at the absolute threshold `minsup`,
/// emitting every pattern prefixed by `prefix_items`, with the root
/// header table fanned out over `par` scoped threads.
///
/// This is the resumable entry point the memory-limited driver uses: a
/// spilled `i`-projected partition is mined by passing it with
/// `prefix_items = [item(i)]`. Supports are counted from the partition
/// itself (group counts for pattern items, per occurrence for outliers),
/// not taken from the global F-list.
///
/// The root node is counted once on the caller thread; each locally
/// frequent rank then becomes an independent unit. The serial search
/// discovers a rank's root bucket incrementally (H-Mine queue relinks),
/// but the bucket contents at rank `r`'s processing time are a pure
/// function of the node: a view is queued at `r` iff `r` is in its
/// locally frequent residual pattern, and a member is queued at `r` iff
/// `r` is one of its locally frequent outliers (relinks walk each tuple
/// through exactly those positions in rank order, and the `cur` coverage
/// rule only defers a queueing, never cancels it). One sweep therefore
/// precomputes every unit's bucket, and workers share the read-only
/// RP-Struct and root views.
pub fn mine_source_par<S: GroupedSource>(
    src: &S,
    flist: &FList,
    prefix_items: &[Item],
    minsup: u64,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    let s = RpStruct::build(src);
    let node = root_views(&s);
    let num_ranks = flist.len();
    metrics::set_max("mine.max_depth", prefix_items.len() as u64);
    let mut root_ctx = Ctx::new(&s, num_ranks, minsup, true);
    let counted = count_node(&node, &mut root_ctx);
    if counted.frequent.is_empty() {
        return;
    }
    if counted.single_group && counted.frequent.len() <= 62 {
        let mut emitter = RankEmitter::new(flist);
        for &it in prefix_items {
            emitter.push_item(it);
        }
        for_each_subset(&counted.frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
        return;
    }
    let frequent = counted.frequent;
    root_ctx.tag_lf(&frequent);
    // Root plan sweep (see above): bucket every view at each locally
    // frequent residual pattern rank, every member at each locally
    // frequent outlier rank — anchored at that rank's own entry, so the
    // unit's projection resumes in O(1) instead of rescanning the tail.
    let mut plan: Vec<Bucket> = (0..frequent.len()).map(|_| Bucket::default()).collect();
    for (vi, v) in node.views.iter().enumerate() {
        for &x in &s.gpat[v.gid as usize][v.pat_from as usize..] {
            if root_ctx.lf_tag[x as usize] == root_ctx.lf_gen {
                plan[root_ctx.lf_pos[x as usize] as usize].views.push(vi as u32);
            }
        }
        for &m in &v.members {
            push_lf_outliers(&root_ctx, vi as u32, m, &mut plan);
        }
    }
    for &m in &node.plain {
        push_lf_outliers(&root_ctx, VNONE, m, &mut plan);
    }
    drop(root_ctx);
    let (s, node, frequent, plan) = (&s, &node, &frequent, &plan);
    fan_out_ordered(
        par,
        frequent.len(),
        sink,
        || {
            let mut emitter = RankEmitter::new(flist);
            for &it in prefix_items {
                emitter.push_item(it);
            }
            let state = if S::GROUPED {
                UnitState::Grouped { ctx: Ctx::new(s, num_ranks, minsup, true), run: Vec::new() }
            } else {
                UnitState::Raw(RawUnit::new(num_ranks))
            };
            (state, emitter)
        },
        |(state, emitter), li, sink| {
            let (r, c) = frequent[li];
            emitter.push(r);
            emitter.emit(sink, c);
            // Last-cell skip: the last root-frequent rank has no
            // frequent extension (anti-monotone), so its unit is pure
            // emission.
            if li + 1 < frequent.len() {
                match state {
                    UnitState::Grouped { ctx, run } => {
                        let child = build_child(&node.views, &plan[li], r, run, ctx);
                        if !child.views.is_empty() || !child.plain.is_empty() {
                            metrics::add("mine.projected_dbs", 1);
                            histogram::observe(
                                "mine.projected_db_size",
                                (child.views.len() + child.plain.len()) as u64,
                            );
                            mine_node(child, ctx, &NoPrune, emitter, sink);
                        }
                    }
                    UnitState::Raw(raw) => {
                        raw.mine_unit(s, &plan[li].members, minsup, emitter, sink);
                    }
                }
            }
            emitter.pop();
        },
    );
}

/// Per-worker state of one first-level fan-out unit. The substrate picks
/// the variant statically, so each monomorphization constructs only one.
enum UnitState<'s> {
    /// The generic engine over group views.
    Grouped { ctx: Ctx<'s>, run: Vec<(u32, Member)> },
    /// The classic H-Mine fast path of the group-free substrate.
    Raw(RawUnit),
}

/// Serial constrained mining: `prune` abandons subtrees whose prefix
/// violates a pushed anti-monotone predicate and bounds the extension
/// depth (disallowed *items* are the caller's job — strip them from the
/// substrate before encoding). The Lemma 3.1 shortcut is disabled, since
/// subset enumeration would bypass the per-prefix checks; the [`NoPrune`]
/// instantiation used by the unpruned paths monomorphizes the checks
/// away entirely.
pub fn mine_source_pruned<S: GroupedSource, P: SearchPrune + ?Sized>(
    src: &S,
    flist: &FList,
    prefix_items: &[Item],
    minsup: u64,
    prune: &P,
    sink: &mut dyn PatternSink,
) {
    let s = RpStruct::build(src);
    let node = root_views(&s);
    metrics::set_max("mine.max_depth", prefix_items.len() as u64);
    let mut ctx = Ctx::new(&s, flist.len(), minsup, false);
    let mut emitter = RankEmitter::new(flist);
    for &it in prefix_items {
        emitter.push_item(it);
    }
    mine_node(node, &mut ctx, prune, &mut emitter, sink);
}

/// Serial constrained H-Mine on a plain database: items the pushed
/// predicates disallow are stripped before encoding, and `prune` checks
/// the rest inside the search ([`mine_source_pruned`]).
pub fn mine_db_pruned<P: SearchPrune + ?Sized>(
    db: &TransactionDb,
    min_support: MinSupport,
    prune: &P,
    sink: &mut dyn PatternSink,
) {
    let minsup = min_support.to_absolute(db.len());
    let flist = FList::from_db(db, minsup);
    if flist.is_empty() {
        return;
    }
    let allowed: Vec<bool> =
        (0..flist.len() as u32).map(|r| prune.item_allowed(flist.item(r))).collect();
    let tuples = encode_db_pruned(db, &flist, &allowed);
    let src = PlainRanks::from_csr(&tuples, flist.len());
    mine_source_pruned(&src, &flist, &[], minsup, prune, sink);
}

/// Builds the root node's group views and plain member list over `s`.
fn root_views(s: &RpStruct) -> Node {
    let mut views = Vec::with_capacity(s.gpat.len());
    let mut plain = Vec::new();
    let mut group_tail_count = 0usize;
    for gid in 0..s.gpat.len() as u32 {
        let members: Vec<Member> =
            s.gtails[gid as usize].iter().map(|&t| (t, s.tail_first[t as usize])).collect();
        let bare = s.gcount[gid as usize] - members.len() as u64;
        group_tail_count += members.len();
        views.push(GroupView { gid, pat_from: 0, members, bare, cur: u32::MAX });
    }
    for t in group_tail_count as u32..s.tail_first.len() as u32 {
        debug_assert_eq!(s.tail_group[t as usize], GNONE);
        plain.push((t, s.tail_first[t as usize]));
    }
    Node { views, plain }
}

/// Queues `m` (of view `vi`, or plain when `VNONE`) at every locally
/// frequent outlier rank — the root plan sweep's member rule. The queued
/// anchor is the matching entry itself, so the consuming unit's
/// projection finds it without rescanning.
fn push_lf_outliers(ctx: &Ctx<'_>, vi: u32, m: Member, plan: &mut [Bucket]) {
    let mut e = m.1 as usize;
    loop {
        let x = ctx.s.eitem[e];
        if x == SENT {
            return;
        }
        if ctx.lf_tag[x as usize] == ctx.lf_gen {
            plan[ctx.lf_pos[x as usize] as usize].members.push((vi, (m.0, e as u32)));
        }
        e += 1;
    }
}

/// Counting outcome of one node.
struct Counted {
    frequent: Vec<(u32, u64)>,
    /// Lemma 3.1: every occurrence of every frequent rank lies in a
    /// single group view's pattern.
    single_group: bool,
}

/// Counts candidate extensions of the node: residual pattern items once
/// per view (weight = member count), outliers and plain tuples per
/// occurrence.
fn count_node(node: &Node, ctx: &mut Ctx<'_>) -> Counted {
    let track_src = !node.views.is_empty();
    let mut group_hits = 0u64;
    let mut touches = 0u64;
    for (vi, v) in node.views.iter().enumerate() {
        let c = v.count();
        for k in v.pat_from as usize..ctx.s.gpat[v.gid as usize].len() {
            let x = ctx.s.gpat[v.gid as usize][k];
            ctx.scratch.add(x, c);
            ctx.merge_src(x, vi as u32);
            group_hits += 1;
        }
        for &m in &v.members {
            touches += ctx.count_member(m, true);
        }
    }
    for &m in &node.plain {
        touches += ctx.count_member(m, track_src);
    }
    if group_hits > 0 {
        metrics::add("mine.group_hits", group_hits);
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
    metrics::add("mine.candidate_tests", ctx.scratch.touched().len() as u64);
    let mut frequent: Vec<(u32, u64)> = ctx
        .scratch
        .touched()
        .iter()
        .map(|&x| (x, ctx.scratch.get(x)))
        .filter(|&(_, c)| c >= ctx.minsup)
        .collect();
    frequent.sort_unstable_by_key(|&(x, _)| x);
    let single_group = track_src
        && match frequent.split_first() {
            Some((&(x0, _), rest)) => {
                let g0 = ctx.src[x0 as usize];
                g0 != SRC_MIXED && rest.iter().all(|&(x, _)| ctx.src[x as usize] == g0)
            }
            None => false,
        };
    if track_src {
        for &x in ctx.scratch.touched() {
            ctx.src[x as usize] = SRC_NONE;
        }
    }
    ctx.scratch.clear();
    Counted { frequent, single_group }
}

/// Queues a view on its first locally frequent pattern rank after
/// `after` (its group-link position), and queues its members whose first
/// locally frequent outlier precedes that rank on their item-links. A
/// view with no frequent pattern rank left dissolves: its members carry
/// on individually.
fn bucket_view(
    views: &mut [GroupView],
    vi: u32,
    after: i64,
    buckets: &mut [Bucket],
    ctx: &Ctx<'_>,
) {
    let v = &views[vi as usize];
    match ctx.first_lf_pattern(v, after) {
        Some(p) => {
            buckets[ctx.lf_pos[p as usize] as usize].views.push(vi);
            for &m in &v.members {
                if let Some((f, e)) = ctx.first_lf_outlier(m, after) {
                    if f < p {
                        buckets[ctx.lf_pos[f as usize] as usize].members.push((vi, (m.0, e)));
                    }
                }
            }
            views[vi as usize].cur = p;
        }
        None => {
            for &m in &v.members {
                if let Some((f, e)) = ctx.first_lf_outlier(m, after) {
                    buckets[ctx.lf_pos[f as usize] as usize].members.push((vi, (m.0, e)));
                }
            }
            views[vi as usize].cur = u32::MAX;
        }
    }
}

/// Queues an individual member (of view `vi`, or plain when `VNONE`) on
/// its first locally frequent outlier after `after` — unless that rank
/// is already covered by the owning view's queue position.
fn bucket_member(
    views: &[GroupView],
    vi: u32,
    m: Member,
    after: i64,
    buckets: &mut [Bucket],
    ctx: &Ctx<'_>,
) {
    if let Some((f, e)) = ctx.first_lf_outlier(m, after) {
        let covered_from = if vi == VNONE { u32::MAX } else { views[vi as usize].cur };
        if f < covered_from || covered_from == u32::MAX {
            buckets[ctx.lf_pos[f as usize] as usize].members.push((vi, (m.0, e)));
        }
    }
}

/// Depth-first search over one node (procedure Recycle-HM, Figure 8,
/// with Lemma 3.1 as lines 1–2). Tuples hop between per-rank buckets
/// exactly like H-Mine queue relinks, so each extension only pays for
/// its own projection. `prune` gates emission and descent; the queues
/// always relink so later ranks still see every tuple.
fn mine_node<P: SearchPrune + ?Sized>(
    mut node: Node,
    ctx: &mut Ctx<'_>,
    prune: &P,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    let counted = count_node(&node, ctx);
    if counted.frequent.is_empty() {
        return;
    }
    if ctx.shortcut && counted.single_group && counted.frequent.len() <= 62 {
        for_each_subset(&counted.frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
        return;
    }
    let frequent = counted.frequent;
    // The *last* locally frequent rank cannot be extended: every rank
    // after it in any tail or residual pattern is locally infrequent
    // here, hence infrequent in its child too (anti-monotone). Its child
    // is never built and its queue never relinks — classic H-Mine's
    // last-cell skip, valid on both substrates. A single-rank node
    // therefore needs no header table at all.
    if let [(r, c)] = frequent[..] {
        emitter.push(r);
        if prune.prefix_ok(emitter.prefix()) {
            emitter.emit(sink, c);
        }
        emitter.pop();
        return;
    }
    ctx.tag_lf(&frequent);
    // Borrow this depth's scratch arena; the recursion below only uses
    // deeper slots, so taking it out of the context is conflict-free.
    let depth = ctx.depth;
    if ctx.levels.len() <= depth {
        ctx.levels.resize_with(depth + 1, LevelScratch::default);
    }
    let mut lvl = std::mem::take(&mut ctx.levels[depth]);
    lvl.reset(frequent.len());
    ctx.depth = depth + 1;
    if node.views.is_empty() {
        // Plain-only node: no group coverage to consult, and anchors are
        // exact, so queue each member straight from its anchor.
        for &m in &node.plain {
            if let Some((f, e)) = ctx.first_lf_from(m.1 as usize) {
                lvl.buckets[ctx.lf_pos[f as usize] as usize].members.push((VNONE, (m.0, e)));
            }
        }
    } else {
        for vi in 0..node.views.len() as u32 {
            bucket_view(&mut node.views, vi, -1, &mut lvl.buckets, ctx);
        }
        for &m in &node.plain {
            bucket_member(&node.views, VNONE, m, -1, &mut lvl.buckets, ctx);
        }
    }
    // Plain members live only in buckets from here on.
    node.plain.clear();

    for li in 0..frequent.len() {
        let (r, c) = frequent[li];
        emitter.push(r);
        // Anti-monotone pushdown: a violating prefix dooms the subtree
        // (but the queues must still relink for the later ranks).
        let prefix_ok = prune.prefix_ok(emitter.prefix());
        if prefix_ok {
            emitter.emit(sink, c);
        }
        if li + 1 == frequent.len() {
            // Last-cell skip (see above): no child, no relink.
            emitter.pop();
            break;
        }
        // `cur` is empty here (reset, or cleared by the previous
        // iteration), so the swap hands this bucket over while keeping
        // both allocations alive for reuse.
        std::mem::swap(&mut lvl.cur, &mut lvl.buckets[li]);

        if prefix_ok && prune.may_extend(emitter.depth()) {
            let child = build_child(&node.views, &lvl.cur, r, &mut lvl.member_run, ctx);
            if !child.views.is_empty() || !child.plain.is_empty() {
                metrics::add("mine.projected_dbs", 1);
                histogram::observe(
                    "mine.projected_db_size",
                    (child.views.len() + child.plain.len()) as u64,
                );
                mine_node(child, ctx, prune, emitter, sink);
                // The recursion reused the tag arrays; restore this node's.
                ctx.tag_lf(&frequent);
            }
        }

        // Relink forward (Fill-RPHeader on the items after r): everything
        // queued at r hops to its next locally frequent rank.
        if node.views.is_empty() {
            // Exact anchors sit *at* the `r` entry, so the hop resumes
            // one entry later with no rank comparison needed.
            for &(_, m) in &lvl.cur.members {
                if let Some((f, e)) = ctx.first_lf_from(m.1 as usize + 1) {
                    lvl.buckets[ctx.lf_pos[f as usize] as usize].members.push((VNONE, (m.0, e)));
                }
            }
        } else {
            for &vi in &lvl.cur.views {
                bucket_view(&mut node.views, vi, r as i64, &mut lvl.buckets, ctx);
            }
            for &(vi, m) in &lvl.cur.members {
                bucket_member(&node.views, vi, m, r as i64, &mut lvl.buckets, ctx);
            }
        }
        lvl.cur.views.clear();
        lvl.cur.members.clear();
        emitter.pop();
    }
    ctx.depth = depth;
    ctx.levels[depth] = lvl;
}

/// Builds the `r`-projection from one bucket: whole views advance past
/// `r` (the paper's group-link move), individual members are grouped by
/// owning view and projected through their `r` entry (the item-link
/// move). `member_run` is caller-provided grouping scratch. Shared by
/// the serial loop of [`mine_node`] and the root fan-out units.
fn build_child(
    views: &[GroupView],
    bucket: &Bucket,
    r: u32,
    member_run: &mut Vec<(u32, Member)>,
    ctx: &Ctx<'_>,
) -> Node {
    let mut child_views: Vec<GroupView> = Vec::new();
    let mut child_plain: Vec<Member> = Vec::new();
    // Degenerate fast path: with no views at all (the raw substrate)
    // every bucketed member is plain and anchored *at* its `r` entry, so
    // projection is one bounds-checked lookahead per member — no
    // grouping, no sort.
    if views.is_empty() {
        child_plain.reserve(bucket.members.len());
        for &(_, m) in &bucket.members {
            debug_assert_eq!(ctx.s.eitem[m.1 as usize], r);
            if ctx.s.eitem[m.1 as usize + 1] != SENT {
                child_plain.push((m.0, m.1 + 1));
            }
        }
        return Node { views: child_views, plain: child_plain };
    }
    for &vi in &bucket.views {
        let v = &views[vi as usize];
        let gpat = &ctx.s.gpat[v.gid as usize];
        // r is in the residual pattern (it is v's queue rank).
        let off = gpat[v.pat_from as usize..]
            .binary_search(&r)
            .expect("queued view contains its queue rank");
        let pat_from = v.pat_from + off as u32 + 1;
        let mut bare = v.bare;
        let mut members = Vec::with_capacity(v.members.len());
        for &m in &v.members {
            match ctx.advance_past(m, r) {
                Some(e) => members.push((m.0, e)),
                None => bare += 1,
            }
        }
        if (pat_from as usize) < gpat.len() {
            child_views.push(GroupView { gid: v.gid, pat_from, members, bare, cur: u32::MAX });
        } else {
            child_plain.extend(members);
        }
    }
    // Individual members: group by owning view to rebuild views.
    member_run.clear();
    member_run.extend(bucket.members.iter().copied());
    member_run.sort_unstable_by_key(|&(vi, _)| vi);
    let mut k = 0;
    while k < member_run.len() {
        let vi = member_run[k].0;
        let mut end = k + 1;
        while end < member_run.len() && member_run[end].0 == vi {
            end += 1;
        }
        if vi == VNONE {
            for &(_, m) in &member_run[k..end] {
                if let Some(e) = ctx.find_entry(m, r) {
                    if ctx.s.eitem[e as usize + 1] != SENT {
                        child_plain.push((m.0, e + 1));
                    }
                }
            }
        } else {
            let v = &views[vi as usize];
            let gpat = &ctx.s.gpat[v.gid as usize];
            let off = gpat[v.pat_from as usize..].partition_point(|&x| x <= r);
            let pat_from = v.pat_from + off as u32;
            let keep_pattern = (pat_from as usize) < gpat.len();
            let mut members = Vec::new();
            let mut bare = 0u64;
            for &(_, m) in &member_run[k..end] {
                let e = ctx.find_entry(m, r).expect("queued member contains its rank");
                if ctx.s.eitem[e as usize + 1] == SENT {
                    bare += 1;
                } else {
                    members.push((m.0, e + 1));
                }
            }
            if keep_pattern {
                if bare > 0 || !members.is_empty() {
                    child_views.push(GroupView {
                        gid: v.gid,
                        pat_from,
                        members,
                        bare,
                        cur: u32::MAX,
                    });
                }
            } else {
                child_plain.extend(members);
            }
        }
        k = end;
    }
    Node { views: child_views, plain: child_plain }
}

/// Queue-link sentinel of the classic fast path.
const NIL: u32 = u32::MAX;

/// One header cell of the classic fast path: an item (rank), its support
/// in the current projection, and the head of its tuple queue.
struct RawCell {
    rank: u32,
    count: u64,
    head: u32,
}

/// The classic H-Mine fast path of the group-free substrate (see the
/// module doc): per-worker buffers reused across first-level units.
///
/// `eitem`/`next` are the unit's private hyper-structure — suffix
/// entries compacted from the shared arena, threaded by one intrusive
/// hyperlink per entry. The single-link trick is sound for the same
/// reason as in the original algorithm: during the depth-first search an
/// entry is live in at most one queue at a time, and descendants' stale
/// links are dead by the time an ancestor relinks the entry forward.
/// `active[rank] == depth` ⇔ rank belongs to the current level's header
/// table (levels nest, so a depth number plus restore-on-exit suffices);
/// `cell_of` maps each active rank to its header cell.
struct RawUnit {
    eitem: Vec<u32>,
    next: Vec<u32>,
    firsts: Vec<u32>,
    active: Vec<u32>,
    cell_of: Vec<u32>,
    scratch: ScratchCounts,
    /// Slab-accounting mirror of [`gogreen_data::ProjectionArena`]: bytes
    /// *used* (not reserved) by each unit's compacted hyper-structure and
    /// the number of non-empty fills, flushed to the `alloc.*` counters
    /// on drop. Used-bytes, unlike capacity, is thread-invariant.
    used_bytes: u64,
    reuses: u64,
}

impl RawUnit {
    fn new(num_ranks: usize) -> Self {
        RawUnit {
            eitem: Vec::new(),
            next: Vec::new(),
            firsts: Vec::new(),
            active: vec![0; num_ranks],
            cell_of: vec![NIL; num_ranks],
            scratch: ScratchCounts::new(num_ranks),
            used_bytes: 0,
            reuses: 0,
        }
    }

    /// Mines one first-level unit: compact the suffixes past each
    /// member's anchor (counting them in the same pass), build the
    /// unit-local header table and queues, and run the classic level
    /// search. The whole subtree touches a working set sized to this
    /// unit, not to the full database.
    fn mine_unit(
        &mut self,
        s: &RpStruct,
        members: &[(u32, Member)],
        minsup: u64,
        emitter: &mut RankEmitter<'_>,
        sink: &mut dyn PatternSink,
    ) {
        self.eitem.clear();
        self.firsts.clear();
        let mut touches = 0u64;
        for &(_, m) in members {
            let mut e = m.1 as usize + 1;
            if s.eitem[e] == SENT {
                continue;
            }
            self.firsts.push(self.eitem.len() as u32);
            loop {
                let x = s.eitem[e];
                if x == SENT {
                    break;
                }
                self.eitem.push(x);
                self.scratch.add(x, 1);
                touches += 1;
                e += 1;
            }
            self.eitem.push(SENT);
        }
        metrics::add("mine.tuple_touches", touches);
        histogram::observe("mine.touches_per_projection", touches);
        metrics::add("mine.candidate_tests", self.scratch.touched().len() as u64);
        if !self.firsts.is_empty() {
            self.reuses += 1;
            self.used_bytes += (self.eitem.len() + self.firsts.len()) as u64 * 4;
        }
        let sub = self.scratch.drain_frequent(minsup);
        if sub.is_empty() {
            return;
        }
        metrics::add("mine.projected_dbs", 1);
        histogram::observe("mine.projected_db_size", self.firsts.len() as u64);
        self.next.clear();
        self.next.resize(self.eitem.len(), NIL);
        self.used_bytes += self.next.len() as u64 * 4;
        let mut cells: Vec<RawCell> =
            sub.iter().map(|&(x, c)| RawCell { rank: x, count: c, head: NIL }).collect();
        for (i, c) in cells.iter().enumerate() {
            self.active[c.rank as usize] = 1;
            self.cell_of[c.rank as usize] = i as u32;
        }
        // Queue each tuple on its first *active* entry (a tuple may
        // start with locally infrequent ranks).
        for fi in 0..self.firsts.len() {
            let mut e = self.firsts[fi] as usize;
            loop {
                let x = self.eitem[e];
                if x == SENT {
                    break;
                }
                if self.active[x as usize] == 1 {
                    let ci = self.cell_of[x as usize] as usize;
                    self.next[e] = cells[ci].head;
                    cells[ci].head = e as u32;
                    break;
                }
                e += 1;
            }
        }
        mine_level_raw(self, &mut cells, 1, minsup, emitter, sink);
        // Un-tag this unit's ranks so the next unit starts clean.
        for &(x, _) in &sub {
            self.active[x as usize] = 0;
            self.cell_of[x as usize] = NIL;
        }
    }
}

impl Drop for RawUnit {
    fn drop(&mut self) {
        if self.used_bytes > 0 {
            metrics::add("alloc.projection_bytes", self.used_bytes);
            metrics::add("alloc.arena_reuses", self.reuses);
        }
    }
}

/// Processes one header table of the classic fast path: for each cell in
/// ascending rank order, emit its pattern, count its locally frequent
/// extensions, thread its queue into the sub-header and recurse, then
/// relink the queue forward within this level. The last cell needs none
/// of that — every later rank is locally infrequent here, hence in the
/// child too (the same anti-monotone skip the generic search takes).
fn mine_level_raw(
    u: &mut RawUnit,
    cells: &mut [RawCell],
    depth: u32,
    minsup: u64,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    for idx in 0..cells.len() {
        emitter.push(cells[idx].rank);
        emitter.emit(sink, cells[idx].count);
        if idx + 1 == cells.len() {
            emitter.pop();
            break;
        }
        // Pass 1 — count extensions of this cell among its queue's
        // tuples, filtered to this level's active ranks (nothing else
        // can be frequent deeper).
        let mut touches = 0u64;
        let mut e = cells[idx].head;
        let mut rows = 0u64;
        while e != NIL {
            rows += 1;
            let mut p = e as usize + 1;
            loop {
                let x = u.eitem[p];
                if x == SENT {
                    break;
                }
                if u.active[x as usize] == depth {
                    u.scratch.add(x, 1);
                    touches += 1;
                }
                p += 1;
            }
            e = u.next[e as usize];
        }
        metrics::add("mine.tuple_touches", touches);
        histogram::observe("mine.touches_per_projection", touches);
        metrics::add("mine.candidate_tests", u.scratch.touched().len() as u64);
        let sub = u.scratch.drain_frequent(minsup);
        if !sub.is_empty() {
            metrics::add("mine.projected_dbs", 1);
            histogram::observe("mine.projected_db_size", rows);
            // Enter sub-level: activate its ranks, saving parent state.
            let mut subcells: Vec<RawCell> =
                sub.iter().map(|&(x, c)| RawCell { rank: x, count: c, head: NIL }).collect();
            let saved: Vec<(u32, u32)> =
                sub.iter().map(|&(x, _)| (x, u.cell_of[x as usize])).collect();
            for (i, c) in subcells.iter().enumerate() {
                u.active[c.rank as usize] = depth + 1;
                u.cell_of[c.rank as usize] = i as u32;
            }
            // Pass 2 — thread each tuple into the queue of its first
            // sub-active entry after the cell's rank.
            let mut e = cells[idx].head;
            while e != NIL {
                let succ = u.next[e as usize];
                let mut p = e as usize + 1;
                loop {
                    let x = u.eitem[p];
                    if x == SENT {
                        break;
                    }
                    if u.active[x as usize] == depth + 1 {
                        let ci = u.cell_of[x as usize] as usize;
                        u.next[p] = subcells[ci].head;
                        subcells[ci].head = p as u32;
                        break;
                    }
                    p += 1;
                }
                e = succ;
            }
            mine_level_raw(u, &mut subcells, depth + 1, minsup, emitter, sink);
            // Exit sub-level: restore parent activity and cell map.
            for (x, old_cell) in saved {
                u.active[x as usize] = depth;
                u.cell_of[x as usize] = old_cell;
            }
        }
        // Pass 3 — relink: move each tuple of this queue to the queue of
        // its next item active at THIS level, so later cells see it.
        let mut e = cells[idx].head;
        while e != NIL {
            let succ = u.next[e as usize];
            let mut p = e as usize + 1;
            loop {
                let x = u.eitem[p];
                if x == SENT {
                    break;
                }
                if u.active[x as usize] == depth {
                    let ci = u.cell_of[x as usize] as usize;
                    u.next[p] = cells[ci].head;
                    cells[ci].head = p as u32;
                    break;
                }
                p += 1;
            }
            e = succ;
        }
        emitter.pop();
    }
}
