//! The H-Mine family engine: hyper-structure search over the RP-Struct
//! arena (paper §4.1, Figures 4–8), over the compressed rank layout
//! [`CompressedRankDb`].
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
//! search node holds its groups as **projected groups**: the source
//! group id, an offset into its pattern, a bare-member count, and a
//! range of the node's **member slab** — one vector of `(tail, entry
//! position)` references shared by all the node's groups. Projection
//! through a pattern item advances the offset and carries the members
//! (the whole group follows — the paper's group-link move); projection
//! through an outlying item collects the members holding that entry (the
//! paper's item-link move). Item data is never copied, and neither is
//! any per-group structure: the RP-Struct's sections are flat arrays
//! with offsets, and a node is three vectors (groups, member slab, plain
//! members) held in a per-depth buffer that every child of the node at
//! that depth is cleared and refilled into, so after warm-up the search
//! allocates nothing per node.
//!
//! On a layout with zero groups — a plain database — every tuple is a
//! plain tail, the projected-group machinery is never entered, and the
//! search is exactly classic H-Mine (per-rank queues realized as
//! buckets, queue relinks as bucket hops). Savings on real groups (paper
//! §3.1): counting touches each projected group once per pattern item —
//! weight = member count — instead of once per member tuple; projecting
//! on a pattern item moves the whole group in one step; and Lemma 3.1
//! (single-group pattern generation) prunes entire subtrees into subset
//! enumeration.
//!
//! The classic H-Mine economies survive the genericity. In the generic
//! search, queued members are anchored *at* the entry of their queue
//! rank, so hops and projections resume in place instead of rescanning
//! the tail, and the last locally frequent rank of a node is emitted
//! without building its child, which anti-monotonicity proves empty.
//! Beyond that, a layout whose groups have no outliers dispatches each
//! first-level unit to a *classic* H-Mine fast path (`RawUnit`): the
//! unit's suffixes are compacted into a private arena threaded by
//! intrusive hyperlinks — one reusable link per entry, the original
//! algorithm's trick — so queue hops write a single index and no
//! per-node structures are materialized at all. Such a layout is a plain
//! database, raw or with its repeated rows merged into bare-only groups
//! ([`CompressedRankDb::merge_repeats`], what raw mining hands the
//! engine): each group's pattern is then one row weighing its count,
//! carried by the row's terminator in the private arena, so a row
//! repeated k times is walked once and counted k times. The engine
//! chooses the fast path once per run, at the root, from the layout's
//! outlier rows; it emits the byte-identical stream the generic search
//! produces on the same layout (a unit test pins both sides, with and
//! without merged repeats), and keeps plain mining at parity with a
//! hand-written H-Mine. The weights stay on the fast path: the generic
//! search, which every recycled answer takes, never loads one.

use crate::common::{
    encode_db_pruned, fan_out_ordered, for_each_subset, RankEmitter, ScratchCounts,
};
use gogreen_data::{
    CompressedRankDb, FList, Item, MinSupport, NoPrune, PatternSink, SearchPrune, TransactionDb,
};
use gogreen_obs::{histogram, metrics};
use gogreen_util::pool::Parallelism;

/// Entry item marking the end of a tail.
const SENT: u32 = u32::MAX;

const SRC_NONE: u32 = u32::MAX;
const SRC_MIXED: u32 = u32::MAX - 1;

/// The RP-Struct arenas: all tuple data, loaded once, never copied.
///
/// Every section is flat. Group `g`'s pattern is
/// `gpat[gpat_start[g]..gpat_start[g + 1]]`, and because a group's tails
/// are loaded consecutively (groups first, in group order, then the
/// plain tuples), group `g` owns tails `gtail_start[g]..gtail_start[g +
/// 1]` — no per-group heap vector at all.
struct RpStruct {
    /// Entry items (ranks, ascending within a tail); `SENT` terminates
    /// each tail.
    eitem: Vec<u32>,
    /// First entry of each tail.
    tail_first: Vec<u32>,
    /// Group patterns (ranks ascending within each), concatenated.
    gpat: Vec<u32>,
    /// Pattern offsets: one per group plus a final end offset.
    gpat_start: Vec<u32>,
    /// Group member counts (including bare members).
    gcount: Vec<u64>,
    /// Tail offsets: one per group plus a final end offset, which is
    /// also the first plain tail.
    gtail_start: Vec<u32>,
    /// Weights of the leading plain tails (the fast path's merged
    /// repeats); every later tail weighs 1. Empty for the generic search.
    tweight: Vec<u64>,
}

impl RpStruct {
    /// Loads `src` into the arena. On a layout without groups this is a
    /// plain H-Mine hyper-structure: one tail per tuple, no group rows.
    fn build(src: &CompressedRankDb) -> Self {
        Self::load(src, false)
    }

    /// [`RpStruct::build`], or with `weighted` the fast path's plain
    /// hyper-structure of a layout whose groups are bare-only (merged
    /// repeats): each group's pattern is one tail weighing its count,
    /// ahead of the plain tuples, and no group rows are kept.
    fn load(src: &CompressedRankDb, weighted: bool) -> Self {
        debug_assert!(!weighted || src.group_outlier_rows() == 0);
        let num_groups = if weighted { 0 } else { src.num_groups() };
        let pattern_tails = if weighted { src.num_groups() } else { 0 };
        let pattern_items = src.pattern_items();
        let plain = src.plain();
        let total_entries = src.group_outlier_items()
            + src.group_outlier_rows()
            + if weighted { pattern_items + pattern_tails } else { 0 }
            + plain.total_elems()
            + plain.len();
        let num_tails = src.group_outlier_rows() + pattern_tails + plain.len();
        let mut s = RpStruct {
            eitem: Vec::with_capacity(total_entries),
            tail_first: Vec::with_capacity(num_tails),
            gpat: Vec::with_capacity(if weighted { 0 } else { pattern_items }),
            gpat_start: Vec::with_capacity(num_groups + 1),
            gcount: Vec::with_capacity(num_groups),
            gtail_start: Vec::with_capacity(num_groups + 1),
            tweight: Vec::with_capacity(pattern_tails),
        };
        fn push_tail(s: &mut RpStruct, items: &[u32]) {
            s.tail_first.push(s.eitem.len() as u32);
            s.eitem.extend_from_slice(items);
            s.eitem.push(SENT);
        }
        for g in 0..num_groups {
            s.gpat_start.push(s.gpat.len() as u32);
            s.gpat.extend_from_slice(src.group_pattern(g));
            s.gcount.push(src.group_count(g));
            s.gtail_start.push(s.tail_first.len() as u32);
            for o in src.group_outliers(g) {
                push_tail(&mut s, o);
            }
        }
        s.gpat_start.push(s.gpat.len() as u32);
        s.gtail_start.push(s.tail_first.len() as u32);
        if weighted {
            for g in src.groups() {
                assert!(
                    g.bare <= MAX_WEIGHT,
                    "a row repeats {} times, above the fast path's bound",
                    g.bare
                );
                push_tail(&mut s, g.pattern);
                s.tweight.push(g.bare);
            }
        }
        for t in plain {
            push_tail(&mut s, t);
        }
        s
    }

    /// The weight of tail `t`: its row's multiplicity.
    #[inline]
    fn weight(&self, t: u32) -> u64 {
        self.tweight.get(t as usize).copied().unwrap_or(1)
    }

    /// Number of groups.
    fn num_groups(&self) -> usize {
        self.gcount.len()
    }

    /// Group `g`'s pattern (ranks ascending).
    #[inline]
    fn pattern(&self, g: u32) -> &[u32] {
        &self.gpat[self.gpat_start[g as usize] as usize..self.gpat_start[g as usize + 1] as usize]
    }

    /// The tail ids group `g` owns.
    fn tails(&self, g: u32) -> std::ops::Range<u32> {
        self.gtail_start[g as usize]..self.gtail_start[g as usize + 1]
    }
}

/// A member reference: a tail plus the first arena entry still relevant
/// (anchors advance as projections consume entries, so no entry is
/// re-skipped by descendant nodes).
type Member = (u32, u32);

/// Marks a bucketed member as belonging to the plain partition.
const VNONE: u32 = u32::MAX;

/// One group's presence in a node's projection: a window onto its
/// source group's pattern and a range of the node's member slab.
struct ProjGroup {
    /// Source group.
    gid: u32,
    /// Residual pattern = `pattern(gid)[pat_from..]` (every rank greater
    /// than the node's projection bound, maintained by construction).
    pat_from: u32,
    /// Members with (possibly) relevant outlying items:
    /// `node.members[mem_from..mem_to]`.
    mem_from: u32,
    mem_to: u32,
    /// Members known to have no relevant outliers (counted only).
    bare: u64,
    /// The locally frequent pattern rank this group currently queues at
    /// (its group-link position); `u32::MAX` once the residual pattern
    /// has no locally frequent item left.
    cur: u32,
}

impl ProjGroup {
    fn count(&self) -> u64 {
        (self.mem_to - self.mem_from) as u64 + self.bare
    }
}

/// One node of the depth-first search: the paper's RP-Header scope.
/// Three flat vectors, so a node buffer is refilled in place: each
/// group's members are a range of the one `members` slab.
#[derive(Default)]
struct Node {
    groups: Vec<ProjGroup>,
    members: Vec<Member>,
    plain: Vec<Member>,
}

impl Node {
    /// The member references of `g`, one of this node's groups.
    #[inline]
    fn members_of(&self, g: &ProjGroup) -> &[Member] {
        &self.members[g.mem_from as usize..g.mem_to as usize]
    }

    fn is_empty(&self) -> bool {
        self.groups.is_empty() && self.plain.is_empty()
    }

    fn clear(&mut self) {
        self.groups.clear();
        self.members.clear();
        self.plain.clear();
    }
}

/// One header row's queues: the RP-Header's group-link (whole groups,
/// each with the position of the row's rank in its pattern) and
/// item-link (individual members; `VNONE` group = plain tuple) chains.
#[derive(Default)]
struct Bucket {
    groups: Vec<(u32, u32)>,
    members: Vec<(u32, Member)>,
}

/// Reusable per-depth scratch of the DFS: the bucket array of one node,
/// the member grouping buffer, the bucket currently being processed, and
/// the buffer every child of the node is projected into. Kept in a
/// depth-indexed arena on [`Ctx`] so sibling nodes at the same depth
/// recycle each other's allocations: after warm-up the search allocates
/// nothing per node.
#[derive(Default)]
struct LevelScratch {
    /// The node's locally frequent `(rank, count)` pairs, ascending.
    frequent: Vec<(u32, u64)>,
    buckets: Vec<Bucket>,
    member_run: Vec<(u32, Member)>,
    cur: Bucket,
    child: Node,
}

impl LevelScratch {
    /// Clears all queues and guarantees at least `n` buckets, preserving
    /// every inner capacity.
    fn reset(&mut self, n: usize) {
        for b in &mut self.buckets {
            b.groups.clear();
            b.members.clear();
        }
        if self.buckets.len() < n {
            self.buckets.resize_with(n, Bucket::default);
        }
        self.cur.groups.clear();
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

    /// First locally frequent rank of group `gid`'s pattern at or after
    /// position `from`, with its position.
    #[inline]
    fn first_lf_pattern(&self, gid: u32, from: u32) -> Option<(u32, u32)> {
        let pattern = self.s.pattern(gid);
        (from..pattern.len() as u32)
            .map(|k| (pattern[k as usize], k))
            .find(|&(x, _)| self.lf_tag[x as usize] == self.lf_gen)
    }

    /// Adds `w` for each remaining outlier rank of `member` (anchors
    /// guarantee every remaining entry is in scope); returns the number
    /// of entries touched. `track_src` marks each rank as multi-source
    /// for the Lemma 3.1 test — pointless (and skipped) on nodes with no
    /// projected groups, where the lemma can never fire.
    #[inline]
    fn count_member(&mut self, (_, pos): Member, w: u64, track_src: bool) -> u64 {
        let mut e = pos as usize;
        let mut touched = 0u64;
        loop {
            let x = self.s.eitem[e];
            if x == SENT {
                return touched;
            }
            self.scratch.add(x, w);
            if track_src {
                self.src[x as usize] = SRC_MIXED;
            }
            touched += 1;
            e += 1;
        }
    }

    fn merge_src(&mut self, x: u32, group_idx: u32) {
        let s = &mut self.src[x as usize];
        *s = match *s {
            SRC_NONE => group_idx,
            cur if cur == group_idx => cur,
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
/// function of the node: a group is queued at `r` iff `r` is in its
/// locally frequent residual pattern, and a member is queued at `r` iff
/// `r` is one of its locally frequent outliers (relinks walk each tuple
/// through exactly those positions in rank order, and the `cur` coverage
/// rule only defers a queueing, never cancels it). One sweep therefore
/// precomputes every unit's bucket, and workers share the read-only
/// RP-Struct and root node.
pub fn mine_source_par(
    src: &CompressedRankDb,
    flist: &FList,
    prefix_items: &[Item],
    minsup: u64,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    mine_root(src, src.group_outlier_rows() == 0, flist, prefix_items, minsup, par, sink);
}

/// [`mine_source_par`] with the unit path chosen by `raw`: the classic
/// H-Mine fast path (`RawUnit`), valid only on a layout whose groups are
/// bare-only (merged repeats, each read as one weighted row), or the
/// generic search over projected groups.
fn mine_root(
    src: &CompressedRankDb,
    raw: bool,
    flist: &FList,
    prefix_items: &[Item],
    minsup: u64,
    par: Parallelism,
    sink: &mut dyn PatternSink,
) {
    debug_assert!(!raw || src.group_outlier_rows() == 0, "the raw fast path has no outliers");
    let s = RpStruct::load(src, raw);
    let node = root_node(&s);
    let num_ranks = flist.len();
    metrics::set_max("mine.max_depth", prefix_items.len() as u64);
    let mut root_ctx = Ctx::new(&s, num_ranks, minsup, true);
    let mut frequent = Vec::new();
    let single_group = if raw {
        // Every tail is plain, so the lemma cannot fire; each merged
        // repeat is walked once and counted with its weight.
        let mut touches = 0;
        for &m in &node.plain {
            touches += root_ctx.count_member(m, s.weight(m.0), false);
        }
        tally_node(&mut root_ctx, touches, 0, false, &mut frequent)
    } else {
        count_node(&node, &mut root_ctx, &mut frequent)
    };
    if frequent.is_empty() {
        return;
    }
    if single_group && frequent.len() <= 62 {
        let mut emitter = RankEmitter::new(flist);
        for &it in prefix_items {
            emitter.push_item(it);
        }
        for_each_subset(&frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
        return;
    }
    root_ctx.tag_lf(&frequent);
    // Root plan sweep (see above): bucket every group at each locally
    // frequent residual pattern rank, every member at each locally
    // frequent outlier rank — anchored at that rank's own entry, so the
    // unit's projection resumes in O(1) instead of rescanning the tail.
    let mut plan: Vec<Bucket> = (0..frequent.len()).map(|_| Bucket::default()).collect();
    for (gi, g) in node.groups.iter().enumerate() {
        let pattern = s.pattern(g.gid);
        for k in g.pat_from..pattern.len() as u32 {
            let x = pattern[k as usize];
            if root_ctx.lf_tag[x as usize] == root_ctx.lf_gen {
                plan[root_ctx.lf_pos[x as usize] as usize].groups.push((gi as u32, k));
            }
        }
        for &m in node.members_of(g) {
            push_lf_outliers(&root_ctx, gi as u32, m, &mut plan);
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
            let state = if raw {
                UnitState::Raw(RawUnit::new(num_ranks))
            } else {
                UnitState::Grouped {
                    ctx: Ctx::new(s, num_ranks, minsup, true),
                    run: Vec::new(),
                    child: Node::default(),
                }
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
                    UnitState::Grouped { ctx, run, child } => {
                        build_child(node, &plan[li], r, run, ctx, child);
                        if !child.is_empty() {
                            metrics::add("mine.projected_dbs", 1);
                            histogram::observe(
                                "mine.projected_db_size",
                                (child.groups.len() + child.plain.len()) as u64,
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

/// Per-worker state of one first-level fan-out unit. The run picks the
/// variant once, at the root, so every worker constructs the same one.
enum UnitState<'s> {
    /// The generic engine over projected groups, with the worker's
    /// grouping scratch and the buffer its units' children fill.
    Grouped { ctx: Ctx<'s>, run: Vec<(u32, Member)>, child: Node },
    /// The classic H-Mine fast path of a layout without groups.
    Raw(RawUnit),
}

/// Serial constrained mining: `prune` abandons subtrees whose prefix
/// violates a pushed anti-monotone predicate and bounds the extension
/// depth (disallowed *items* are the caller's job — strip them from the
/// substrate before encoding). The Lemma 3.1 shortcut is disabled, since
/// subset enumeration would bypass the per-prefix checks; the [`NoPrune`]
/// instantiation used by the unpruned paths monomorphizes the checks
/// away entirely.
pub fn mine_source_pruned<P: SearchPrune + ?Sized>(
    src: &CompressedRankDb,
    flist: &FList,
    prefix_items: &[Item],
    minsup: u64,
    prune: &P,
    sink: &mut dyn PatternSink,
) {
    let s = RpStruct::build(src);
    let mut node = root_node(&s);
    metrics::set_max("mine.max_depth", prefix_items.len() as u64);
    let mut ctx = Ctx::new(&s, flist.len(), minsup, false);
    let mut emitter = RankEmitter::new(flist);
    for &it in prefix_items {
        emitter.push_item(it);
    }
    mine_node(&mut node, &mut ctx, prune, &mut emitter, sink);
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
    let src = CompressedRankDb::from_plain(encode_db_pruned(db, &flist, &allowed), flist.len());
    mine_source_pruned(&src, &flist, &[], minsup, prune, sink);
}

/// Builds the root node over `s`: one projected group per source group,
/// whose members are its tails, and every plain tail. Group tails come
/// first in the arena, so the member slab is the arena's tails in order.
fn root_node(s: &RpStruct) -> Node {
    let group_tails = s.gtail_start[s.num_groups()];
    let anchored = |t: u32| (t, s.tail_first[t as usize]);
    let groups = (0..s.num_groups() as u32)
        .map(|gid| {
            let tails = s.tails(gid);
            let bare = s.gcount[gid as usize] - tails.len() as u64;
            ProjGroup {
                gid,
                pat_from: 0,
                mem_from: tails.start,
                mem_to: tails.end,
                bare,
                cur: u32::MAX,
            }
        })
        .collect();
    let members = (0..group_tails).map(anchored).collect();
    let plain = (group_tails..s.tail_first.len() as u32).map(anchored).collect();
    Node { groups, members, plain }
}

/// Queues `m` (of group `gi`, or plain when `VNONE`) at every locally
/// frequent outlier rank — the root plan sweep's member rule. The queued
/// anchor is the matching entry itself, so the consuming unit's
/// projection finds it without rescanning.
fn push_lf_outliers(ctx: &Ctx<'_>, gi: u32, m: Member, plan: &mut [Bucket]) {
    let mut e = m.1 as usize;
    loop {
        let x = ctx.s.eitem[e];
        if x == SENT {
            return;
        }
        if ctx.lf_tag[x as usize] == ctx.lf_gen {
            plan[ctx.lf_pos[x as usize] as usize].members.push((gi, (m.0, e as u32)));
        }
        e += 1;
    }
}

/// Counts candidate extensions of the node: residual pattern items once
/// per group (weight = member count), outliers and plain tuples per
/// occurrence. Leaves the locally frequent `(rank, count)` pairs,
/// ascending, in `frequent` and returns whether Lemma 3.1 applies: every
/// occurrence of every frequent rank lies in a single projected group's
/// pattern.
fn count_node(node: &Node, ctx: &mut Ctx<'_>, frequent: &mut Vec<(u32, u64)>) -> bool {
    let track_src = !node.groups.is_empty();
    let mut group_hits = 0u64;
    let mut touches = 0u64;
    for (gi, g) in node.groups.iter().enumerate() {
        let c = g.count();
        let s = ctx.s;
        for &x in &s.pattern(g.gid)[g.pat_from as usize..] {
            ctx.scratch.add(x, c);
            ctx.merge_src(x, gi as u32);
            group_hits += 1;
        }
        for &m in node.members_of(g) {
            touches += ctx.count_member(m, 1, true);
        }
    }
    for &m in &node.plain {
        touches += ctx.count_member(m, 1, track_src);
    }
    tally_node(ctx, touches, group_hits, track_src, frequent)
}

/// Closes a node's counting pass: records its counters, leaves the
/// locally frequent `(rank, count)` pairs, ascending, in `frequent`,
/// evaluates the Lemma 3.1 test when `track_src`, and clears the counts.
fn tally_node(
    ctx: &mut Ctx<'_>,
    touches: u64,
    group_hits: u64,
    track_src: bool,
    frequent: &mut Vec<(u32, u64)>,
) -> bool {
    if group_hits > 0 {
        metrics::add("mine.group_hits", group_hits);
    }
    metrics::add("mine.tuple_touches", touches);
    histogram::observe("mine.touches_per_projection", touches);
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
    single_group
}

/// Queues group `gi` on its first locally frequent pattern rank at or
/// after pattern position `from` (its group-link position; every rank
/// there is greater than `after`), and queues its members whose first
/// locally frequent outlier after `after` precedes that rank on their
/// item-links. A group with no frequent pattern rank left dissolves: its
/// members carry on individually.
///
/// Relinks only move forward, so the members' anchors in the node's slab
/// advance past every entry up to `after` as they are scanned: a member
/// riding with its group is not rescanned from its original anchor at
/// every hop. Entries above `after` stay in reach, so later projections
/// of the group see exactly what they did.
fn bucket_group(
    node: &mut Node,
    gi: u32,
    from: u32,
    after: i64,
    buckets: &mut [Bucket],
    ctx: &Ctx<'_>,
) {
    let Node { groups, members, .. } = node;
    let g = &mut groups[gi as usize];
    let cur = ctx.first_lf_pattern(g.gid, from);
    // A dissolved group covers no rank: every member queues on its own.
    let covered_from = cur.map_or(u32::MAX, |(p, _)| p);
    if let Some((p, pos)) = cur {
        buckets[ctx.lf_pos[p as usize] as usize].groups.push((gi, pos));
    }
    g.cur = covered_from;
    for m in &mut members[g.mem_from as usize..g.mem_to as usize] {
        let mut e = m.1 as usize;
        // `SENT` exceeds every rank, so the skip stops at the tail's end.
        while i64::from(ctx.s.eitem[e]) <= after {
            e += 1;
        }
        m.1 = e as u32;
        if let Some((f, e)) = ctx.first_lf_from(e) {
            if f < covered_from {
                buckets[ctx.lf_pos[f as usize] as usize].members.push((gi, (m.0, e)));
            }
        }
    }
}

/// Queues an individual member (of group `gi`, or plain when `VNONE`) on
/// its first locally frequent outlier after `after` — unless that rank
/// is already covered by the owning group's queue position.
fn bucket_member(
    groups: &[ProjGroup],
    gi: u32,
    m: Member,
    after: i64,
    buckets: &mut [Bucket],
    ctx: &Ctx<'_>,
) {
    if let Some((f, e)) = ctx.first_lf_outlier(m, after) {
        let covered_from = if gi == VNONE { u32::MAX } else { groups[gi as usize].cur };
        if f < covered_from || covered_from == u32::MAX {
            buckets[ctx.lf_pos[f as usize] as usize].members.push((gi, (m.0, e)));
        }
    }
}

/// Depth-first search over one node (procedure Recycle-HM, Figure 8,
/// with Lemma 3.1 as lines 1–2). Tuples hop between per-rank buckets
/// exactly like H-Mine queue relinks, so each extension only pays for
/// its own projection. `prune` gates emission and descent; the queues
/// always relink so later ranks still see every tuple.
fn mine_node<P: SearchPrune + ?Sized>(
    node: &mut Node,
    ctx: &mut Ctx<'_>,
    prune: &P,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    // Borrow this depth's scratch arena; the recursion below only uses
    // deeper slots, so taking it out of the context is conflict-free
    // (its vectors leave empty ones behind, which allocate nothing).
    let depth = ctx.depth;
    if ctx.levels.len() <= depth {
        ctx.levels.resize_with(depth + 1, LevelScratch::default);
    }
    let mut lvl = std::mem::take(&mut ctx.levels[depth]);
    let single_group = count_node(node, ctx, &mut lvl.frequent);
    let frequent = &lvl.frequent;
    if ctx.shortcut && single_group && frequent.len() <= 62 {
        for_each_subset(frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
        ctx.levels[depth] = lvl;
        return;
    }
    // The *last* locally frequent rank cannot be extended: every rank
    // after it in any tail or residual pattern is locally infrequent
    // here, hence infrequent in its child too (anti-monotone). Its child
    // is never built and its queue never relinks — classic H-Mine's
    // last-cell skip, valid on both substrates. A node of at most one
    // rank therefore needs no header table at all.
    if frequent.len() <= 1 {
        if let [(r, c)] = frequent[..] {
            emitter.push(r);
            if prune.prefix_ok(emitter.prefix()) {
                emitter.emit(sink, c);
            }
            emitter.pop();
        }
        ctx.levels[depth] = lvl;
        return;
    }
    ctx.tag_lf(frequent);
    let n = frequent.len();
    lvl.reset(n);
    ctx.depth = depth + 1;
    if node.groups.is_empty() {
        // Plain-only node: no group coverage to consult, and anchors are
        // exact, so queue each member straight from its anchor.
        for &m in &node.plain {
            if let Some((f, e)) = ctx.first_lf_from(m.1 as usize) {
                lvl.buckets[ctx.lf_pos[f as usize] as usize].members.push((VNONE, (m.0, e)));
            }
        }
    } else {
        for gi in 0..node.groups.len() as u32 {
            let from = node.groups[gi as usize].pat_from;
            bucket_group(node, gi, from, -1, &mut lvl.buckets, ctx);
        }
        for &m in &node.plain {
            bucket_member(&node.groups, VNONE, m, -1, &mut lvl.buckets, ctx);
        }
    }

    for li in 0..n {
        let (r, c) = lvl.frequent[li];
        emitter.push(r);
        // Anti-monotone pushdown: a violating prefix dooms the subtree
        // (but the queues must still relink for the later ranks).
        let prefix_ok = prune.prefix_ok(emitter.prefix());
        if prefix_ok {
            emitter.emit(sink, c);
        }
        if li + 1 == n {
            // Last-cell skip (see above): no child, no relink.
            emitter.pop();
            break;
        }
        // `cur` is empty here (reset, or cleared by the previous
        // iteration), so the swap hands this bucket over while keeping
        // both allocations alive for reuse.
        std::mem::swap(&mut lvl.cur, &mut lvl.buckets[li]);

        if prefix_ok && prune.may_extend(emitter.depth()) {
            let LevelScratch { cur, member_run, child, .. } = &mut lvl;
            build_child(node, cur, r, member_run, ctx, child);
            if !child.is_empty() {
                metrics::add("mine.projected_dbs", 1);
                histogram::observe(
                    "mine.projected_db_size",
                    (child.groups.len() + child.plain.len()) as u64,
                );
                mine_node(child, ctx, prune, emitter, sink);
                // The recursion reused the tag arrays; restore this node's.
                ctx.tag_lf(&lvl.frequent);
            }
        }

        // Relink forward (Fill-RPHeader on the items after r): everything
        // queued at r hops to its next locally frequent rank.
        if node.groups.is_empty() {
            // Exact anchors sit *at* the `r` entry, so the hop resumes
            // one entry later with no rank comparison needed.
            for &(_, m) in &lvl.cur.members {
                if let Some((f, e)) = ctx.first_lf_from(m.1 as usize + 1) {
                    lvl.buckets[ctx.lf_pos[f as usize] as usize].members.push((VNONE, (m.0, e)));
                }
            }
        } else {
            for &(gi, pos) in &lvl.cur.groups {
                bucket_group(node, gi, pos + 1, r as i64, &mut lvl.buckets, ctx);
            }
            for &(gi, m) in &lvl.cur.members {
                bucket_member(&node.groups, gi, m, r as i64, &mut lvl.buckets, ctx);
            }
        }
        lvl.cur.groups.clear();
        lvl.cur.members.clear();
        emitter.pop();
    }
    ctx.depth = depth;
    ctx.levels[depth] = lvl;
}

/// Projects `node` through `r` from its bucket at `r` into `child`
/// (cleared first): whole groups advance past `r` (the paper's
/// group-link move), individual members are grouped by owning group and
/// projected through their `r` entry (the item-link move). Each child
/// group's members are appended to the child's one member slab; a group
/// whose residual pattern empties hands its members to the plain
/// partition instead. `member_run` is caller-provided grouping scratch.
/// Shared by the serial loop of [`mine_node`] and the root fan-out units.
fn build_child(
    node: &Node,
    bucket: &Bucket,
    r: u32,
    member_run: &mut Vec<(u32, Member)>,
    ctx: &Ctx<'_>,
    child: &mut Node,
) {
    child.clear();
    // Degenerate fast path: with no groups at all (the raw substrate)
    // every bucketed member is plain and anchored *at* its `r` entry, so
    // projection is one bounds-checked lookahead per member — no
    // grouping, no sort.
    if node.groups.is_empty() {
        for &(_, m) in &bucket.members {
            debug_assert_eq!(ctx.s.eitem[m.1 as usize], r);
            if ctx.s.eitem[m.1 as usize + 1] != SENT {
                child.plain.push((m.0, m.1 + 1));
            }
        }
        return;
    }
    let Node { groups, members, plain } = child;
    for &(gi, pos) in &bucket.groups {
        let g = &node.groups[gi as usize];
        let pattern = ctx.s.pattern(g.gid);
        // r is g's queue rank, queued with its pattern position.
        debug_assert_eq!(pattern[pos as usize], r);
        let pat_from = pos + 1;
        let keep_pattern = (pat_from as usize) < pattern.len();
        let out = if keep_pattern { &mut *members } else { &mut *plain };
        let mem_from = out.len() as u32;
        let mut bare = g.bare;
        for &m in node.members_of(g) {
            match ctx.advance_past(m, r) {
                Some(e) => out.push((m.0, e)),
                None => bare += 1,
            }
        }
        if keep_pattern {
            let mem_to = members.len() as u32;
            groups.push(ProjGroup { gid: g.gid, pat_from, mem_from, mem_to, bare, cur: u32::MAX });
        }
    }
    // Individual members: group by owning group to rebuild groups.
    member_run.clear();
    member_run.extend(bucket.members.iter().copied());
    member_run.sort_unstable_by_key(|&(gi, _)| gi);
    for run in member_run.chunk_by(|a, b| a.0 == b.0) {
        let gi = run[0].0;
        if gi == VNONE {
            for &(_, m) in run {
                if let Some(e) = ctx.find_entry(m, r) {
                    if ctx.s.eitem[e as usize + 1] != SENT {
                        plain.push((m.0, e + 1));
                    }
                }
            }
            continue;
        }
        let g = &node.groups[gi as usize];
        let pattern = ctx.s.pattern(g.gid);
        let pat_from =
            g.pat_from + pattern[g.pat_from as usize..].partition_point(|&x| x <= r) as u32;
        let keep_pattern = (pat_from as usize) < pattern.len();
        let out = if keep_pattern { &mut *members } else { &mut *plain };
        let mem_from = out.len() as u32;
        let mut bare = 0u64;
        for &(_, m) in run {
            let e = ctx.find_entry(m, r).expect("queued member contains its rank");
            if ctx.s.eitem[e as usize + 1] == SENT {
                bare += 1;
            } else {
                out.push((m.0, e + 1));
            }
        }
        let mem_to = out.len() as u32;
        if keep_pattern && (bare > 0 || mem_to > mem_from) {
            groups.push(ProjGroup { gid: g.gid, pat_from, mem_from, mem_to, bare, cur: u32::MAX });
        }
    }
}

/// Queue-link sentinel of the classic fast path.
const NIL: u32 = u32::MAX;

/// Every terminator of the fast path's private arena is at least this,
/// above every rank. A tail of weight `w` ends in `SENT - (w - 1)`, so a
/// single row ends in `SENT` as in the shared arena and a merged repeat
/// carries its multiplicity where its walks stop anyway.
const TERM_MIN: u32 = 1 << 31;

/// The largest weight a terminator can carry.
const MAX_WEIGHT: u64 = (SENT - TERM_MIN) as u64 + 1;

/// Whether arena entry `x` ends its tail.
#[inline]
fn is_term(x: u32) -> bool {
    x >= TERM_MIN
}

/// One header cell of the classic fast path: an item (rank), its support
/// in the current projection, and the head of its tuple queue.
struct RawCell {
    rank: u32,
    count: u64,
    head: u32,
}

/// One level's header table of the classic fast path. Its vectors are
/// cleared and refilled across siblings; taking a level out of its
/// [`RawUnit`] for the recursion leaves empty vectors behind, which
/// allocate nothing.
#[derive(Default)]
struct RawLevel {
    /// The level's locally frequent `(rank, count)` pairs.
    sub: Vec<(u32, u64)>,
    cells: Vec<RawCell>,
    /// The enclosing level's cell of each `sub` rank, restored on exit.
    saved: Vec<(u32, u32)>,
}

impl RawUnit {
    /// Takes level `depth`'s storage out of the unit (see [`RawLevel`]).
    fn take_level(&mut self, depth: usize) -> RawLevel {
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, RawLevel::default);
        }
        std::mem::take(&mut self.levels[depth])
    }

    /// Drains the scratch counts into `lvl`'s header: its frequent
    /// ranks, one empty queue each.
    fn fill_header(&mut self, lvl: &mut RawLevel, minsup: u64) {
        self.scratch.drain_frequent(minsup, &mut lvl.sub);
        lvl.cells.clear();
        lvl.cells.extend(lvl.sub.iter().map(|&(x, c)| RawCell { rank: x, count: c, head: NIL }));
    }
}

/// The classic H-Mine fast path of a layout with no outliers (see the
/// module doc): per-worker buffers reused across first-level units.
///
/// `eitem`/`next` are the unit's private hyper-structure — suffix
/// entries compacted from the shared arena, each tail ended by a
/// terminator carrying its row's weight (see [`TERM_MIN`]), threaded by
/// one intrusive hyperlink per entry. The single-link trick is sound for
/// the same reason as in the original algorithm: during the depth-first
/// search an entry is live in at most one queue at a time, and
/// descendants' stale links are dead by the time an ancestor relinks the
/// entry forward.
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
    /// Header storage per level (index 0 = the unit's own header),
    /// reused across siblings.
    levels: Vec<RawLevel>,
    /// Slab-accounting mirror of [`gogreen_data::ProjectionArena`]: bytes
    /// *used* (not reserved) by each unit's compacted hyper-structure and
    /// the number of non-empty fills, flushed to the `alloc.*` counters
    /// on drop. Used-bytes, unlike capacity, is thread-invariant.
    used_bytes: u64,
    reuses: u64,
}

impl RawUnit {
    fn new(num_ranks: usize) -> Self {
        debug_assert!(num_ranks < TERM_MIN as usize);
        RawUnit {
            eitem: Vec::new(),
            next: Vec::new(),
            firsts: Vec::new(),
            active: vec![0; num_ranks],
            cell_of: vec![NIL; num_ranks],
            scratch: ScratchCounts::new(num_ranks),
            levels: Vec::new(),
            used_bytes: 0,
            reuses: 0,
        }
    }

    /// Mines one first-level unit: compact the suffixes past each
    /// member's anchor (counting them, with the row's weight, in the
    /// same pass; the terminator keeps the weight), build the
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
            let w = s.weight(m.0);
            self.firsts.push(self.eitem.len() as u32);
            loop {
                let x = s.eitem[e];
                if x == SENT {
                    break;
                }
                self.eitem.push(x);
                self.scratch.add(x, w);
                touches += 1;
                e += 1;
            }
            self.eitem.push(SENT - (w - 1) as u32);
        }
        metrics::add("mine.tuple_touches", touches);
        histogram::observe("mine.touches_per_projection", touches);
        metrics::add("mine.candidate_tests", self.scratch.touched().len() as u64);
        if !self.firsts.is_empty() {
            self.reuses += 1;
            self.used_bytes += (self.eitem.len() + self.firsts.len()) as u64 * 4;
        }
        let mut lvl = self.take_level(0);
        self.fill_header(&mut lvl, minsup);
        if lvl.sub.is_empty() {
            self.levels[0] = lvl;
            return;
        }
        metrics::add("mine.projected_dbs", 1);
        histogram::observe("mine.projected_db_size", self.firsts.len() as u64);
        self.next.clear();
        self.next.resize(self.eitem.len(), NIL);
        self.used_bytes += self.next.len() as u64 * 4;
        for (i, c) in lvl.cells.iter().enumerate() {
            self.active[c.rank as usize] = 1;
            self.cell_of[c.rank as usize] = i as u32;
        }
        // Queue each tuple on its first *active* entry (a tuple may
        // start with locally infrequent ranks).
        for fi in 0..self.firsts.len() {
            let mut e = self.firsts[fi] as usize;
            loop {
                let x = self.eitem[e];
                if is_term(x) {
                    break;
                }
                if self.active[x as usize] == 1 {
                    let ci = self.cell_of[x as usize] as usize;
                    self.next[e] = lvl.cells[ci].head;
                    lvl.cells[ci].head = e as u32;
                    break;
                }
                e += 1;
            }
        }
        mine_level_raw(self, &mut lvl.cells, 1, minsup, emitter, sink);
        // Un-tag this unit's ranks so the next unit starts clean.
        for &(x, _) in &lvl.sub {
            self.active[x as usize] = 0;
            self.cell_of[x as usize] = NIL;
        }
        self.levels[0] = lvl;
    }

    /// Adds the other `copies` of a merged repeat: its entries in
    /// `range` active at `depth`, walked again once pass 1 found the
    /// row's weight at its terminator. Kept out of line so the walk of a
    /// single row stays as tight as before.
    #[cold]
    #[inline(never)]
    fn count_copies(&mut self, range: std::ops::Range<usize>, depth: u32, copies: u64) {
        for &x in &self.eitem[range] {
            if self.active[x as usize] == depth {
                self.scratch.add(x, copies);
            }
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
    // The sub-header of every cell lives in this depth's storage.
    let mut sub = u.take_level(depth as usize);
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
            let term = loop {
                let x = u.eitem[p];
                if is_term(x) {
                    break x;
                }
                if u.active[x as usize] == depth {
                    u.scratch.add(x, 1);
                    touches += 1;
                }
                p += 1;
            };
            if term != SENT {
                u.count_copies(e as usize + 1..p, depth, u64::from(SENT - term));
            }
            e = u.next[e as usize];
        }
        metrics::add("mine.tuple_touches", touches);
        histogram::observe("mine.touches_per_projection", touches);
        metrics::add("mine.candidate_tests", u.scratch.touched().len() as u64);
        u.fill_header(&mut sub, minsup);
        if !sub.sub.is_empty() {
            metrics::add("mine.projected_dbs", 1);
            histogram::observe("mine.projected_db_size", rows);
            // Enter sub-level: activate its ranks, saving parent state.
            sub.saved.clear();
            sub.saved.extend(sub.sub.iter().map(|&(x, _)| (x, u.cell_of[x as usize])));
            for (i, c) in sub.cells.iter().enumerate() {
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
                    if is_term(x) {
                        break;
                    }
                    if u.active[x as usize] == depth + 1 {
                        let ci = u.cell_of[x as usize] as usize;
                        u.next[p] = sub.cells[ci].head;
                        sub.cells[ci].head = p as u32;
                        break;
                    }
                    p += 1;
                }
                e = succ;
            }
            mine_level_raw(u, &mut sub.cells, depth + 1, minsup, emitter, sink);
            // Exit sub-level: restore parent activity and cell map.
            for &(x, old_cell) in &sub.saved {
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
                if is_term(x) {
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
    u.levels[depth as usize] = sub;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_apriori;
    use gogreen_data::CollectSink;

    const K: u32 = 8;

    /// Whole groups on 1, 3, 5 and on 2, 6; partial groups elsewhere; a
    /// group whose residual empties on 4 (its members turn plain); a
    /// bare-only group; and plain rows.
    fn source() -> CompressedRankDb {
        let mut src = CompressedRankDb::empty(K as usize);
        src.push_group(&[1, 3, 5], [&[0, 2][..], &[4, 6], &[2, 7]], 2);
        src.push_group(&[2, 6], [&[1, 4][..], &[3], &[1, 5, 7]], 1);
        src.push_group(&[4], [&[2, 5][..], &[3, 6, 7], &[5], &[0, 5]], 3);
        src.push_group(&[0, 2, 7], std::iter::empty(), 5);
        for row in [&[0, 1, 2][..], &[1, 3], &[4, 6], &[5, 6, 7], &[0, 7], &[6]] {
            src.push_plain(row);
        }
        src
    }

    /// A node spelt out: `(gid, residual pattern, member rows, bare)`
    /// per group (sorted by gid, member rows sorted), and the sorted
    /// plain rows.
    type Spelt = (Vec<(u32, Vec<u32>, Vec<Vec<u32>>, u64)>, Vec<Vec<u32>>);

    /// The arena entries from `m`'s anchor to its sentinel.
    fn rest(s: &RpStruct, m: Member) -> Vec<u32> {
        s.eitem[m.1 as usize..].iter().copied().take_while(|&x| x != SENT).collect()
    }

    fn spell(s: &RpStruct, node: &Node) -> Spelt {
        let mut groups: Vec<_> = node
            .groups
            .iter()
            .map(|g| {
                let mut members: Vec<Vec<u32>> =
                    node.members_of(g).iter().map(|&m| rest(s, m)).collect();
                members.sort();
                (g.gid, s.pattern(g.gid)[g.pat_from as usize..].to_vec(), members, g.bare)
            })
            .collect();
        groups.sort();
        let mut plain: Vec<Vec<u32>> = node.plain.iter().map(|&m| rest(s, m)).collect();
        plain.sort();
        (groups, plain)
    }

    /// RP-Mine's projection of a spelt node through `r` (paper Figure 3,
    /// Example 3): a group holding `r` in its pattern follows whole,
    /// otherwise only its members holding `r` follow, carrying the
    /// residual pattern; a group whose residual empties dissolves into
    /// plain rows; rows empty past `r` are bare in a group and vanish
    /// outside one.
    fn rp_project((groups, plain): &Spelt, r: u32) -> Spelt {
        let past = |t: &[u32]| -> Vec<u32> { t.iter().copied().filter(|&x| x > r).collect() };
        let mut out_groups = Vec::new();
        let mut out_plain: Vec<Vec<u32>> = Vec::new();
        for (gid, pattern, members, bare) in groups {
            let whole = pattern.contains(&r);
            let residual = past(pattern);
            let mut child_bare = if whole { *bare } else { 0 };
            let mut child_members = Vec::new();
            for m in members.iter().filter(|m| whole || m.contains(&r)) {
                let tail = past(m);
                if tail.is_empty() {
                    child_bare += 1;
                } else {
                    child_members.push(tail);
                }
            }
            if residual.is_empty() {
                out_plain.extend(child_members);
            } else if child_bare > 0 || !child_members.is_empty() {
                child_members.sort();
                out_groups.push((*gid, residual, child_members, child_bare));
            }
        }
        for t in plain.iter().filter(|t| t.contains(&r)) {
            let tail = past(t);
            if !tail.is_empty() {
                out_plain.push(tail);
            }
        }
        out_groups.sort();
        out_plain.sort();
        (out_groups, out_plain)
    }

    /// `node`'s bucket at `r` as a header table holds it when `r` is
    /// processed: every group with `r` in its residual pattern, and every
    /// other member or plain row holding `r`, anchored at that entry.
    fn bucket_at(s: &RpStruct, node: &Node, r: u32) -> Bucket {
        let mut bucket = Bucket::default();
        let mut queue = |gi: u32, m: Member| {
            let e = (m.1..).find(|&e| s.eitem[e as usize] >= r).unwrap();
            if s.eitem[e as usize] == r {
                bucket.members.push((gi, (m.0, e)));
            }
        };
        for (gi, g) in node.groups.iter().enumerate() {
            let pattern = s.pattern(g.gid);
            if let Some(pos) =
                (g.pat_from..pattern.len() as u32).find(|&k| pattern[k as usize] == r)
            {
                bucket.groups.push((gi as u32, pos));
            } else {
                node.members_of(g).iter().for_each(|&m| queue(gi as u32, m));
            }
        }
        node.plain.iter().for_each(|&m| queue(VNONE, m));
        // Header tables queue members in relink order, not node order.
        bucket.members.reverse();
        bucket
    }

    /// Every child of the hand-built root, and every child of those
    /// children, equals RP-Mine's projection of the same data — the
    /// buckets mix whole groups, members of several groups, a group
    /// whose residual empties, a bare-only group and plain rows.
    #[test]
    fn slab_children_equal_rp_mine_projections() {
        let src = source();
        let s = RpStruct::build(&src);
        let root = root_node(&s);
        let ctx = Ctx::new(&s, K as usize, 1, true);
        let (mut run, mut child, mut grandchild) = (Vec::new(), Node::default(), Node::default());
        let mut mixed = 0;
        for r in 0..K {
            let bucket = bucket_at(&s, &root, r);
            let dissolving = bucket.groups.iter().any(|&(gi, _)| {
                let g = &root.groups[gi as usize];
                s.pattern(g.gid).last() == Some(&r) && g.mem_to > g.mem_from
            });
            if !bucket.groups.is_empty() && bucket.members.len() > 1 {
                mixed += 1;
            }
            build_child(&root, &bucket, r, &mut run, &ctx, &mut child);
            let want = rp_project(&spell(&s, &root), r);
            assert_eq!(spell(&s, &child), want, "child {r}");
            if dissolving {
                assert!(!want.1.is_empty(), "child {r}: a dissolved group leaves plain rows");
            }
            for r2 in r + 1..K {
                let bucket = bucket_at(&s, &child, r2);
                build_child(&child, &bucket, r2, &mut run, &ctx, &mut grandchild);
                assert_eq!(spell(&s, &grandchild), rp_project(&want, r2), "child {r}, {r2}");
            }
        }
        assert!(mixed >= 2, "buckets must mix whole groups and members");
        // And the whole search finds exactly the frequent itemsets of
        // the expanded tuples, serial or fanned out.
        let flist = FList::from_counts(&[1; K as usize], 1);
        let mut tuples: Vec<Vec<u32>> = src.plain().iter().map(<[u32]>::to_vec).collect();
        for g in src.groups() {
            for o in g.outliers.iter() {
                let mut t = [g.pattern, o].concat();
                t.sort_unstable();
                tuples.push(t);
            }
            tuples.extend((0..g.bare).map(|_| g.pattern.to_vec()));
        }
        let items: Vec<Vec<u32>> = tuples
            .iter()
            .map(|t| {
                let mut ids: Vec<u32> = t.iter().map(|&r| flist.item(r).id()).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        let refs: Vec<&[u32]> = items.iter().map(Vec::as_slice).collect();
        for minsup in [1, 2, 3, 5] {
            let oracle =
                mine_apriori(&TransactionDb::from_rows(&refs), MinSupport::Absolute(minsup));
            let mut serial = CollectSink::new();
            mine_source_pruned(&src, &flist, &[], minsup, &NoPrune, &mut serial);
            assert!(serial.into_set().same_patterns_as(&oracle), "serial, minsup {minsup}");
            for threads in [1, 3] {
                let mut par = CollectSink::new();
                let p = Parallelism::threads(threads);
                mine_source_par(&src, &flist, &[], minsup, p, &mut par);
                assert!(par.into_set().same_patterns_as(&oracle), "{threads} threads, {minsup}");
            }
        }
    }

    /// The flat RP-Struct: each group owns the consecutive tail ids
    /// right after the previous group's, and they hold its outlier rows
    /// in order; the pattern offsets spell each group's pattern; the
    /// plain tails follow the last group's.
    #[test]
    fn rp_struct_sections_are_flat_and_owned() {
        let src = source();
        let s = RpStruct::build(&src);
        assert_eq!(s.num_groups(), src.num_groups());
        let mut next_tail = 0;
        for (g, view) in src.groups().enumerate() {
            let g32 = g as u32;
            assert_eq!(s.pattern(g32), view.pattern, "group {g} pattern");
            let tails = s.tails(g32);
            let rows = view.outliers.len() as u32;
            assert_eq!(tails, next_tail..next_tail + rows, "group {g} tails");
            next_tail = tails.end;
            for (t, row) in tails.zip(view.outliers.iter()) {
                assert_eq!(rest(&s, (t, s.tail_first[t as usize])), row, "tail {t}");
            }
            assert_eq!(s.gcount[g], view.count());
        }
        assert_eq!(*s.gpat_start.last().unwrap() as usize, s.gpat.len());
        let plain: Vec<Vec<u32>> = (next_tail..s.tail_first.len() as u32)
            .map(|t| rest(&s, (t, s.tail_first[t as usize])))
            .collect();
        assert_eq!(plain, src.plain().iter().map(<[u32]>::to_vec).collect::<Vec<_>>());
    }

    /// On layouts without groups, and on the same layouts with their
    /// repeats merged into bare-only groups (weighted rows on the fast
    /// path), the classic H-Mine fast path and the generic
    /// projected-group search emit the same stream.
    #[test]
    fn raw_fast_path_matches_grouped_traversal() {
        for merged in [false, true] {
            crate::cases::fast_path_matches_grouped(
                &|src, raw, flist, minsup, par, sink| {
                    mine_root(src, raw, flist, &[], minsup, par, sink);
                },
                merged,
            );
        }
    }
}
