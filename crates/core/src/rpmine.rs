//! RP-Mine: the paper's naive recycling algorithm (Figure 3).
//!
//! A direct realization of mining-by-projection over the compressed
//! representation, exactly as the paper's Example 3 walks through:
//!
//! * **Counting** exploits groups: each group-pattern item is bumped once
//!   with the group's member count instead of once per member tuple.
//! * **Projection** touches each group head once: if the projected item is
//!   in the pattern, the whole group moves into the projection with a
//!   shortened pattern; otherwise only members whose outliers contain the
//!   item move, carrying the residual pattern.
//! * **Lemma 3.1 (single-group pattern generation)**: when every
//!   occurrence of every locally frequent item lies in one group's
//!   pattern, the complete pattern set of the sub-space is all
//!   combinations of those items with the group's projected count — no
//!   recursion needed.
//!
//! The four engine families, mined on compressed databases
//! ([`crate::engine`]), implement the same semantics over cleverer data
//! structures; RP-Mine doubles as their readable specification and as a
//! differential-testing partner (see [`crate::oracle`]).

use gogreen_data::{CompressedDb, CompressedRankDb, MinSupport, NoPrune, PatternSink, SearchPrune};
use gogreen_miners::common::{for_each_subset, RankEmitter, ScratchCounts};
use gogreen_miners::Miner;
use gogreen_obs::metrics;

/// Per-rank contribution source, for the Lemma 3.1 check.
const SRC_NONE: u32 = u32::MAX;
const SRC_MIXED: u32 = u32::MAX - 1;

/// The naive recycling miner.
#[derive(Debug, Clone)]
pub struct RpMine {
    /// Apply the Lemma 3.1 single-group shortcut (default true; the
    /// ablation benches turn it off to measure its contribution).
    pub single_group_shortcut: bool,
}

impl Default for RpMine {
    fn default() -> Self {
        RpMine { single_group_shortcut: true }
    }
}

/// RP-Mine is the readable specification and differential-testing
/// partner of the unified engines, so it stays deliberately serial (the
/// default [`Miner::mine_into_par`]) — the engines own the parallel
/// fan-out.
impl Miner<CompressedDb> for RpMine {
    fn name(&self) -> &'static str {
        "RP-Mine"
    }

    fn mine_into(&self, cdb: &CompressedDb, min_support: MinSupport, sink: &mut dyn PatternSink) {
        let minsup = min_support.to_absolute(cdb.num_tuples());
        let flist = cdb.flist(minsup);
        if flist.is_empty() {
            return;
        }
        let view = cdb.to_ranks(&flist);
        let mut ctx = Ctx {
            scratch: ScratchCounts::new(flist.len()),
            src: vec![SRC_NONE; flist.len()],
            minsup,
            shortcut: self.single_group_shortcut,
        };
        let mut emitter = RankEmitter::new(&flist);
        mine_rec(&view, &mut ctx, &NoPrune, &mut emitter, sink);
    }
}

impl RpMine {
    /// Constrained *recycling*: mines the compressed database while
    /// consulting `prune` — disallowed items are stripped from group
    /// patterns and outliers up front (supports of surviving items are
    /// unchanged), violating prefixes abandon their subtrees, and the
    /// length bound stops extension. Recycling and constraint pushdown
    /// compose: the answer equals the unconstrained answer filtered by
    /// the pushed predicates.
    pub fn mine_pruned(
        &self,
        cdb: &CompressedDb,
        min_support: MinSupport,
        prune: &dyn SearchPrune,
        sink: &mut dyn PatternSink,
    ) {
        let minsup = min_support.to_absolute(cdb.num_tuples());
        let flist = cdb.flist(minsup);
        if flist.is_empty() {
            return;
        }
        let view = cdb.to_ranks(&flist).retain_ranks(|r| prune.item_allowed(flist.item(r)));
        let mut emitter = RankEmitter::new(&flist);
        let mut ctx = Ctx {
            scratch: ScratchCounts::new(flist.len()),
            src: vec![SRC_NONE; flist.len()],
            minsup,
            // Subset enumeration would bypass the per-prefix checks;
            // pruned mining always uses plain recursion.
            shortcut: false,
        };
        mine_rec(&view, &mut ctx, prune, &mut emitter, sink);
    }
}

struct Ctx {
    scratch: ScratchCounts,
    src: Vec<u32>,
    minsup: u64,
    shortcut: bool,
}

/// Counting outcome of one (projected) view.
struct Counted {
    /// Locally frequent `(rank, count)`, ascending.
    frequent: Vec<(u32, u64)>,
    /// `Some(group index)` when every occurrence of every frequent rank
    /// lies in that single group's pattern (Lemma 3.1 applies).
    single_group: Option<usize>,
}

/// Counts item supports of `view`, tracking contribution sources.
fn count_view(view: &CompressedRankDb, ctx: &mut Ctx) -> Counted {
    let mut group_hits = 0u64;
    let mut touches = 0u64;
    for gi in 0..view.num_groups() {
        let c = view.group_count(gi);
        for &r in view.group_pattern(gi) {
            ctx.scratch.add(r, c);
            group_hits += 1;
            let s = &mut ctx.src[r as usize];
            *s = match *s {
                SRC_NONE => gi as u32,
                cur if cur == gi as u32 => cur,
                _ => SRC_MIXED,
            };
        }
        for o in view.group_outliers(gi) {
            for &r in o {
                ctx.scratch.add(r, 1);
                ctx.src[r as usize] = SRC_MIXED;
            }
            touches += o.len() as u64;
        }
    }
    for t in view.plain() {
        for &r in t {
            ctx.scratch.add(r, 1);
            ctx.src[r as usize] = SRC_MIXED;
        }
        touches += t.len() as u64;
    }
    metrics::add("mine.group_hits", group_hits);
    metrics::add("mine.tuple_touches", touches);
    metrics::add("mine.candidate_tests", ctx.scratch.touched().len() as u64);
    let mut frequent: Vec<(u32, u64)> = ctx
        .scratch
        .touched()
        .iter()
        .map(|&r| (r, ctx.scratch.get(r)))
        .filter(|&(_, c)| c >= ctx.minsup)
        .collect();
    frequent.sort_unstable_by_key(|&(r, _)| r);
    let single_group = match frequent.split_first() {
        Some((&(r0, _), rest)) => {
            let g0 = ctx.src[r0 as usize];
            if g0 != SRC_MIXED && rest.iter().all(|&(r, _)| ctx.src[r as usize] == g0) {
                Some(g0 as usize)
            } else {
                None
            }
        }
        None => None,
    };
    for &r in ctx.scratch.touched() {
        ctx.src[r as usize] = SRC_NONE;
    }
    ctx.scratch.clear();
    Counted { frequent, single_group }
}

/// Materializes the `r`-projection of a compressed view — one pass,
/// suffix slices copied straight into the projection's sections.
fn project(view: &CompressedRankDb, r: u32) -> CompressedRankDb {
    let mut out = CompressedRankDb::empty(view.num_ranks());
    let mut rows: Vec<&[u32]> = Vec::new();
    for g in view.groups() {
        // The members joining the projection, cut past `r`: on a pattern
        // item the whole group follows, bare members included; otherwise
        // only the members whose outliers hold `r`, keeping the residual
        // pattern (items after `r`).
        rows.clear();
        let (pattern, mut bare) = match g.pattern.binary_search(&r) {
            Ok(pos) => {
                rows.extend(g.outliers.iter().map(|o| &o[o.partition_point(|&x| x <= r)..]));
                (&g.pattern[pos + 1..], g.bare)
            }
            Err(pos) => {
                let holding =
                    g.outliers.iter().filter_map(|o| Some(&o[o.binary_search(&r).ok()? + 1..]));
                rows.extend(holding);
                (&g.pattern[pos..], 0)
            }
        };
        let followed = rows.iter().copied().filter(|o| !o.is_empty());
        if pattern.is_empty() {
            // The group dissolves: its members turn plain.
            followed.for_each(|o| out.push_plain(o));
            continue;
        }
        bare += rows.iter().filter(|o| o.is_empty()).count() as u64;
        if bare > 0 || !rows.is_empty() {
            out.push_group(pattern, followed, bare);
        }
    }
    for t in view.plain() {
        if let Ok(pos) = t.binary_search(&r) {
            if pos + 1 < t.len() {
                out.push_plain(&t[pos + 1..]);
            }
        }
    }
    out
}

/// Procedure RP-InMemory (paper Figure 3) with the Lemma 3.1 shortcut.
fn mine_rec(
    view: &CompressedRankDb,
    ctx: &mut Ctx,
    prune: &dyn SearchPrune,
    emitter: &mut RankEmitter<'_>,
    sink: &mut dyn PatternSink,
) {
    metrics::set_max("mine.max_depth", emitter.depth() as u64);
    let counted = count_view(view, ctx);
    if counted.frequent.is_empty() {
        return;
    }
    if ctx.shortcut && counted.single_group.is_some() && counted.frequent.len() <= 62 {
        for_each_subset(&counted.frequent, &mut |ranks, sup| emitter.emit_with(sink, ranks, sup));
        return;
    }
    for &(r, c) in &counted.frequent {
        emitter.push(r);
        if !prune.prefix_ok(emitter.prefix()) {
            emitter.pop();
            continue;
        }
        emitter.emit(sink, c);
        if prune.may_extend(emitter.depth()) {
            let sub = project(view, r);
            if sub.num_groups() > 0 || !sub.plain().is_empty() {
                metrics::add("mine.projected_dbs", 1);
                mine_rec(&sub, ctx, prune, emitter, sink);
            }
        }
        emitter.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use crate::utility::Strategy;
    use gogreen_data::{Item, TransactionDb};
    use gogreen_miners::mine_apriori;

    fn paper_setup(strategy: Strategy) -> CompressedDb {
        let db = TransactionDb::paper_example();
        let fp = mine_apriori(&db, MinSupport::Absolute(3));
        Compressor::new(strategy).compress(&db, &fp)
    }

    #[test]
    fn reproduces_paper_example_3() {
        let cdb = paper_setup(Strategy::Mcp);
        let fp = RpMine::default().mine(&cdb, MinSupport::Absolute(2));
        let oracle = mine_apriori(&TransactionDb::paper_example(), MinSupport::Absolute(2));
        assert!(fp.same_patterns_as(&oracle), "rp {} vs oracle {}", fp.len(), oracle.len());
        // Example 3 step (1): all d-extensions, supports 2.
        for ids in
            [&[3u32, 2][..], &[3, 5], &[3, 6], &[2, 3, 5], &[2, 3, 6], &[3, 5, 6], &[2, 3, 5, 6]]
        {
            let items: Vec<Item> = ids.iter().map(|&i| Item(i)).collect();
            let mut items = items;
            items.sort_unstable();
            assert_eq!(fp.support_of(&items), Some(2), "{ids:?}");
        }
    }

    #[test]
    fn exact_for_both_strategies_all_thresholds() {
        let db = TransactionDb::paper_example();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let cdb = paper_setup(strategy);
            for minsup in 1..=5 {
                let fp = RpMine::default().mine(&cdb, MinSupport::Absolute(minsup));
                let oracle = mine_apriori(&db, MinSupport::Absolute(minsup));
                assert!(fp.same_patterns_as(&oracle), "{strategy:?} minsup={minsup}");
            }
        }
    }

    #[test]
    fn uncompressed_cdb_equals_plain_mining() {
        let db = TransactionDb::from_rows(&[
            &[1, 2, 5],
            &[2, 4],
            &[2, 3],
            &[1, 2, 4],
            &[1, 3],
            &[2, 3],
            &[1, 3],
            &[1, 2, 3, 5],
            &[1, 2, 3],
        ]);
        let cdb = CompressedDb::uncompressed(&db);
        for minsup in 1..=4 {
            let fp = RpMine::default().mine(&cdb, MinSupport::Absolute(minsup));
            let oracle = mine_apriori(&db, MinSupport::Absolute(minsup));
            assert!(fp.same_patterns_as(&oracle), "minsup={minsup}");
        }
    }

    #[test]
    fn single_group_shortcut_fires_on_pure_projection() {
        // One group, no outliers, no plain: the root itself is single-group.
        let db = TransactionDb::from_rows(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3]]);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(4));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        assert_eq!(cdb.num_groups(), 1);
        assert_eq!(cdb.group(0).bare, 4);
        let fp = RpMine::default().mine(&cdb, MinSupport::Absolute(2));
        assert_eq!(fp.len(), 7);
        assert_eq!(fp.support_of(&[Item(1), Item(2), Item(3)]), Some(4));
    }

    /// Lemma 3.1 is a shortcut, never a semantic: on a dense analog,
    /// where single-group projections are common, RP-Mine finds the same
    /// patterns with and without it.
    #[test]
    fn single_group_shortcut_changes_no_pattern() {
        use gogreen_datagen::{DatasetPreset, PresetKind};
        use gogreen_miners::{Family, Miner};
        let preset = DatasetPreset::new(PresetKind::Connect4, 0.001);
        let db = preset.generate();
        let cdb =
            Compressor::new(Strategy::Mcp).compress(&db, &Family::Hm.mine(&db, preset.xi_old()));
        let xi_new = preset.sweep()[2];
        let with = RpMine::default().mine(&cdb, xi_new);
        let without = RpMine { single_group_shortcut: false }.mine(&cdb, xi_new);
        assert!(!with.is_empty() && with.same_patterns_as(&without));
    }

    #[test]
    fn recycled_patterns_need_not_be_frequent_at_new_threshold() {
        // Compress with patterns mined at support 1 (including rare ones):
        // mining at higher thresholds must still be exact.
        let db = TransactionDb::from_rows(&[&[1, 2, 3], &[1, 2], &[4, 5], &[1, 4, 5], &[2, 3]]);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(1));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        for minsup in 1..=3 {
            let fp = RpMine::default().mine(&cdb, MinSupport::Absolute(minsup));
            let oracle = mine_apriori(&db, MinSupport::Absolute(minsup));
            assert!(fp.same_patterns_as(&oracle), "minsup={minsup}");
        }
    }

    #[test]
    fn empty_cdb_yields_nothing() {
        let cdb = CompressedDb::uncompressed(&TransactionDb::new());
        assert!(RpMine::default().mine(&cdb, MinSupport::Absolute(1)).is_empty());
    }

    fn rows(v: gogreen_data::TupleSlices<'_>) -> Vec<Vec<u32>> {
        v.iter().map(|t| t.to_vec()).collect()
    }

    #[test]
    fn projection_moves_whole_group_on_pattern_item() {
        let mut view = CompressedRankDb::empty(4);
        view.push_group(&[1, 3], [&[0u32, 2][..], &[2]], 1);
        view.push_plain(&[1, 2]);
        let p = project(&view, 1);
        // Group: pattern {3}, outliers filtered to {2},{2}; bare stays 1.
        assert_eq!(p.num_groups(), 1);
        assert_eq!(p.group_pattern(0), &[3]);
        assert_eq!(rows(p.group_outliers(0)), vec![vec![2], vec![2]]);
        assert_eq!(p.group_bare(0), 1);
        // Plain tuple [1,2] -> [2].
        assert_eq!(rows(p.plain()), vec![vec![2]]);
    }

    #[test]
    fn projection_takes_partial_group_on_outlier_item() {
        let mut view = CompressedRankDb::empty(4);
        view.push_group(&[1, 3], [&[0u32, 2][..], &[2], &[0]], 2);
        // Project on rank 0 (outlier item): members 1 and 3 contain it.
        let p = project(&view, 0);
        assert_eq!(p.num_groups(), 1);
        assert_eq!(p.group_pattern(0), &[1, 3]);
        assert_eq!(rows(p.group_outliers(0)), vec![vec![2]]);
        assert_eq!(p.group_bare(0), 1); // member 3's outliers exhausted
        assert!(p.plain().is_empty());
    }

    #[test]
    fn projection_degrades_exhausted_pattern_to_plain() {
        let mut view = CompressedRankDb::empty(4);
        view.push_group(&[1], [&[2u32, 3][..], &[0]], 1);
        let p = project(&view, 1);
        assert_eq!(p.num_groups(), 0);
        assert_eq!(rows(p.plain()), vec![vec![2, 3]]);
    }
}
