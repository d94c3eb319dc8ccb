//! The compression algorithm (paper Figure 1).
//!
//! 1. Compute the utility of every recycled pattern under the chosen
//!    [`Strategy`].
//! 2. Sort patterns by descending utility.
//! 3. Cover each tuple with the first (highest-utility) pattern it
//!    contains; tuples with no matching pattern stay plain.
//!
//! Step 3 runs on the [`CoverIndex`] kernel (see [`crate::cover`]): one
//! vertical sweep claims every tuple for its minimum-rank containing
//! pattern through bit-parallel AND-chains — provably the same choice as
//! the seed's per-tuple full-list scan at a fraction of the work. With a
//! non-serial [`Parallelism`], the database is chunked across scoped
//! worker threads (one sweep per chunk) and the partial per-pattern
//! member lists are merged in chunk order, so the output is *identical*
//! to the serial pass for any thread count.

use crate::cdb::{CompressedDb, Group};
use crate::cover::CoverIndex;
use crate::utility::{order_by_utility, Strategy};
use gogreen_data::{
    difference_into, CsrTuples, Item, Pattern, PatternSet, TransactionDb, TupleSlices,
};
use gogreen_obs::{histogram, metrics, span};
use gogreen_util::pool::{par_ranges, Parallelism};
use gogreen_util::{FxHashMap, Stopwatch};
use std::time::{Duration, Instant};

/// Outcome metrics of one compression run (paper Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Wall time of the compression pass itself (the paper's "pipeline"
    /// time: I/O excluded — this library compresses in memory).
    pub duration: Duration,
    /// `S_c / S_o` (smaller = better compression).
    pub ratio: f64,
    /// Number of groups formed.
    pub num_groups: usize,
    /// Tuples covered by some pattern.
    pub covered_tuples: usize,
    /// Total tuples.
    pub num_tuples: usize,
}

/// Per-pattern accumulation: members' outlying items plus the count of
/// members that *are* the pattern.
type Members = (Vec<Vec<Item>>, u32);

/// Compresses databases with recycled patterns (paper Figure 1).
///
/// ```
/// use gogreen_core::{Compressor, Strategy};
/// use gogreen_data::{MinSupport, TransactionDb};
/// use gogreen_miners::{Family, Miner};
///
/// let db = TransactionDb::paper_example();
/// let fp = Family::Hm.mine(&db, MinSupport::Absolute(3));
/// let (cdb, stats) = Compressor::new(Strategy::Mcp).compress_with_stats(&db, &fp);
/// // The paper's Table 2: groups fgc and ae cover all five tuples.
/// assert_eq!(stats.num_groups, 2);
/// assert_eq!(stats.covered_tuples, 5);
/// assert!(stats.ratio < 1.0);
/// // Compression is lossless.
/// assert_eq!(cdb.reconstruct().len(), db.len());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Compressor {
    strategy: Strategy,
    parallelism: Parallelism,
}

impl Compressor {
    /// A compressor using `strategy` to rank patterns (single-threaded).
    pub fn new(strategy: Strategy) -> Self {
        Compressor { strategy, parallelism: Parallelism::serial() }
    }

    /// Sets the worker-thread budget for the covering pass. The output
    /// is identical for every setting; only wall time changes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Convenience for [`Self::with_parallelism`] from a raw thread
    /// count (`0` = all cores).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::threads(threads))
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The configured thread budget.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Algorithm name fragment ("MCP"/"MLP").
    pub fn name(&self) -> &'static str {
        self.strategy.suffix()
    }

    /// Compresses `db` using the recycled pattern set `fp`.
    pub fn compress(&self, db: &TransactionDb, fp: &PatternSet) -> CompressedDb {
        self.compress_with_stats(db, fp).0
    }

    /// Compresses and reports [`CompressionStats`].
    pub fn compress_with_stats(
        &self,
        db: &TransactionDb,
        fp: &PatternSet,
    ) -> (CompressedDb, CompressionStats) {
        let start = Instant::now();
        let mut sp = span("compress");
        let mut watch = Stopwatch::started();
        let index = {
            let _build_sp = span("cover.build");
            CoverIndex::new(db, fp, self.strategy)
        };
        let build = watch.lap();

        // Each worker runs the vertical sweep on one contiguous row range
        // of the database's CSR storage (`par_ranges` is a single inline
        // range when serial) — a chunk is a borrowed window, so splitting
        // costs two offsets. Merging the partial maps in chunk order
        // concatenates every pattern's member list exactly as one serial
        // pass over the whole database would have, so the CDB is
        // identical for any thread count.
        let mut cover_sp = span("cover");
        cover_sp.field("tuples", db.len()).field("patterns", fp.len());
        let tuples = db.tuples();
        let parts = par_ranges(self.parallelism, db.len(), |_, range| {
            let chunk = tuples.range(range.start, range.end);
            let assign = index.cover_all(chunk);
            let mut by_pattern: FxHashMap<u32, Members> = FxHashMap::default();
            let mut plain: CsrTuples<Item> = CsrTuples::new();
            let mut items = 0usize;
            let mut rest: Vec<Item> = Vec::new();
            for (t, covered_by) in chunk.iter().zip(assign) {
                items += t.len();
                match covered_by {
                    Some(pidx) => {
                        rest.clear();
                        difference_into(t, index.pattern(pidx).items(), &mut rest);
                        let slot = by_pattern.entry(pidx).or_insert_with(|| (Vec::new(), 0));
                        if rest.is_empty() {
                            slot.1 += 1;
                        } else {
                            slot.0.push(rest.clone());
                        }
                    }
                    None => plain.push_row(t),
                }
            }
            (by_pattern, plain, items)
        });
        drop(cover_sp);
        let mut by_pattern: FxHashMap<u32, Members> = FxHashMap::default();
        let mut plain: CsrTuples<Item> = CsrTuples::new();
        let mut original_items = 0usize;
        for (_, (part, part_plain, items)) in parts {
            original_items += items;
            for t in part_plain.iter() {
                plain.push_row(t);
            }
            for (pidx, (outliers, bare)) in part {
                let slot = by_pattern.entry(pidx).or_insert_with(|| (Vec::new(), 0));
                slot.0.extend(outliers);
                slot.1 += bare;
            }
        }

        let groups = emit_groups(
            by_pattern,
            |pidx| index.rank_of(pidx),
            |pidx| index.pattern(pidx).items().to_vec(),
        );
        let cdb = CompressedDb::new(groups, plain, original_items);
        let sweep = watch.lap();
        let s = cdb.stats();
        let stats = CompressionStats {
            duration: start.elapsed(),
            ratio: s.ratio(),
            num_groups: s.num_groups,
            covered_tuples: s.covered_tuples,
            num_tuples: s.num_tuples,
        };
        metrics::add("compress.runs", 1);
        metrics::add("compress.tuples_total", stats.num_tuples as u64);
        metrics::add("compress.tuples_covered", stats.covered_tuples as u64);
        metrics::add("compress.groups_emitted", stats.num_groups as u64);
        sp.field("strategy", self.name())
            .field("patterns", fp.len())
            .field("tuples", stats.num_tuples)
            .field("covered", stats.covered_tuples)
            .field("groups", stats.num_groups)
            .field("build_us", build.as_micros() as u64)
            .field("sweep_us", sweep.as_micros() as u64);
        (cdb, stats)
    }

    /// Begins a streaming compression: the caller supplies the *global*
    /// item supports and tuple count up front (a segmented store reads
    /// them from its per-segment sidecars) and then feeds tuple chunks —
    /// e.g. one loaded segment at a time — in database order. The
    /// finished [`CompressedDb`] is identical to
    /// [`Compressor::compress_with_stats`] over the concatenated
    /// database: cover assignment is tuple-local once the utility order
    /// and rarity ranks are fixed, group members and plain rows
    /// accumulate in tuple order, and groups are emitted in utility-rank
    /// order regardless of which chunk their members arrived in.
    pub fn stream<'a>(
        &self,
        patterns: &'a [Pattern],
        supports: Vec<u64>,
        db_len: usize,
    ) -> StreamCompressor<'a> {
        let index = {
            let _build_sp = span("cover.build");
            CoverIndex::from_supports(patterns, self.strategy, supports, db_len)
        };
        StreamCompressor {
            index,
            strategy: self.strategy,
            parallelism: self.parallelism,
            by_pattern: FxHashMap::default(),
            plain: CsrTuples::new(),
            original_items: 0,
            num_tuples: 0,
            started: Instant::now(),
        }
    }

    /// The seed's O(|DB|·|FP|·|X|) linear-scan cover, kept as the
    /// reference implementation: the differential tests assert the
    /// indexed kernel (serial and parallel) reproduces its output
    /// exactly, and the benches measure the speedup against it.
    pub fn compress_reference(&self, db: &TransactionDb, fp: &PatternSet) -> CompressedDb {
        let patterns: Vec<Pattern> = fp.iter().cloned().collect();
        let order = order_by_utility(&patterns, self.strategy, db.len());
        let mut rank = vec![0u32; patterns.len()];
        for (k, &pidx) in order.iter().enumerate() {
            rank[pidx as usize] = k as u32;
        }

        let max_item =
            db.iter().filter_map(|t| t.last()).map(|it| it.index()).max().map_or(0, |m| m + 1);
        let mut present = vec![false; max_item];

        let mut by_pattern: FxHashMap<u32, Members> = FxHashMap::default();
        let mut plain: CsrTuples<Item> = CsrTuples::new();
        let mut original_items = 0usize;
        for t in db.iter() {
            original_items += t.len();
            for it in t {
                present[it.index()] = true;
            }
            let mut chosen: Option<u32> = None;
            'patterns: for &pidx in &order {
                let p = &patterns[pidx as usize];
                if p.len() > t.len() {
                    continue;
                }
                for it in p.items() {
                    if it.index() >= max_item || !present[it.index()] {
                        continue 'patterns;
                    }
                }
                chosen = Some(pidx);
                break;
            }
            for it in t {
                present[it.index()] = false;
            }
            match chosen {
                Some(pidx) => {
                    let mut rest = Vec::new();
                    difference_into(t, patterns[pidx as usize].items(), &mut rest);
                    let slot = by_pattern.entry(pidx).or_insert_with(|| (Vec::new(), 0));
                    if rest.is_empty() {
                        slot.1 += 1;
                    } else {
                        slot.0.push(rest);
                    }
                }
                None => plain.push_row(t),
            }
        }

        let groups = emit_groups(
            by_pattern,
            |pidx| rank[pidx as usize],
            |pidx| patterns[pidx as usize].items().to_vec(),
        );
        CompressedDb::new(groups, plain, original_items)
    }
}

/// An in-progress streaming compression (see [`Compressor::stream`]).
///
/// Feed tuple chunks in database order, then [`StreamCompressor::finish`].
/// Only the accumulating group members, plain residue, and the cover
/// index are resident between feeds — never the database itself.
#[derive(Debug)]
pub struct StreamCompressor<'a> {
    index: CoverIndex<'a>,
    strategy: Strategy,
    parallelism: Parallelism,
    by_pattern: FxHashMap<u32, Members>,
    plain: CsrTuples<Item>,
    original_items: usize,
    num_tuples: usize,
    started: Instant,
}

impl StreamCompressor<'_> {
    /// Covers one chunk of tuples (fanned out over the configured
    /// thread budget; partial results merge in chunk order, so the
    /// accumulated state only depends on the tuples fed so far).
    pub fn feed(&mut self, tuples: TupleSlices<'_, Item>) {
        let mut cover_sp = span("cover");
        cover_sp.field("tuples", tuples.len());
        let index = &self.index;
        let parts = par_ranges(self.parallelism, tuples.len(), |_, range| {
            let chunk = tuples.range(range.start, range.end);
            let assign = index.cover_all(chunk);
            let mut by_pattern: FxHashMap<u32, Members> = FxHashMap::default();
            let mut plain: CsrTuples<Item> = CsrTuples::new();
            let mut items = 0usize;
            let mut rest: Vec<Item> = Vec::new();
            for (t, covered_by) in chunk.iter().zip(assign) {
                items += t.len();
                match covered_by {
                    Some(pidx) => {
                        rest.clear();
                        difference_into(t, index.pattern(pidx).items(), &mut rest);
                        let slot = by_pattern.entry(pidx).or_insert_with(|| (Vec::new(), 0));
                        if rest.is_empty() {
                            slot.1 += 1;
                        } else {
                            slot.0.push(rest.clone());
                        }
                    }
                    None => plain.push_row(t),
                }
            }
            (by_pattern, plain, items)
        });
        self.num_tuples += tuples.len();
        for (_, (part, part_plain, items)) in parts {
            self.original_items += items;
            for t in part_plain.iter() {
                self.plain.push_row(t);
            }
            for (pidx, (outliers, bare)) in part {
                let slot = self.by_pattern.entry(pidx).or_insert_with(|| (Vec::new(), 0));
                slot.0.extend(outliers);
                slot.1 += bare;
            }
        }
    }

    /// Seals the stream into a compressed database plus stats, emitting
    /// the same `compress.*` counters as a whole-database run.
    pub fn finish(self) -> (CompressedDb, CompressionStats) {
        let mut sp = span("compress");
        let groups = emit_groups(
            self.by_pattern,
            |pidx| self.index.rank_of(pidx),
            |pidx| self.index.pattern(pidx).items().to_vec(),
        );
        let cdb = CompressedDb::new(groups, self.plain, self.original_items);
        let s = cdb.stats();
        let stats = CompressionStats {
            duration: self.started.elapsed(),
            ratio: s.ratio(),
            num_groups: s.num_groups,
            covered_tuples: s.covered_tuples,
            num_tuples: s.num_tuples,
        };
        metrics::add("compress.runs", 1);
        metrics::add("compress.tuples_total", stats.num_tuples as u64);
        metrics::add("compress.tuples_covered", stats.covered_tuples as u64);
        metrics::add("compress.groups_emitted", stats.num_groups as u64);
        sp.field("strategy", self.strategy.suffix())
            .field("tuples", stats.num_tuples)
            .field("covered", stats.covered_tuples)
            .field("groups", stats.num_groups);
        (cdb, stats)
    }
}

/// Emits groups in utility order. Only the patterns actually used are
/// sorted — the seed walked the *entire* order doing a hash remove per
/// pattern, which costs O(|FP|) even when a handful of groups exist.
fn emit_groups(
    mut by_pattern: FxHashMap<u32, Members>,
    rank_of: impl Fn(u32) -> u32,
    items_of: impl Fn(u32) -> Vec<Item>,
) -> Vec<Group> {
    let mut used: Vec<u32> = by_pattern.keys().copied().collect();
    used.sort_unstable_by_key(|&pidx| rank_of(pidx));
    used.into_iter()
        .map(|pidx| {
            let (outliers, bare) = by_pattern.remove(&pidx).expect("used key vanished");
            histogram::observe("compress.group_size", outliers.len() as u64 + bare as u64);
            Group::new(items_of(pidx), outliers, bare)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::MinSupport;
    use gogreen_miners::mine_apriori;

    fn paper_fp() -> PatternSet {
        mine_apriori(&TransactionDb::paper_example(), MinSupport::Absolute(3))
    }

    #[test]
    fn mcp_reproduces_paper_table_2() {
        let db = TransactionDb::paper_example();
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &paper_fp());
        // Two groups: fgc covering 100/200/300 and ae covering 400/500.
        assert_eq!(cdb.groups().len(), 2);
        let g_fgc = &cdb.groups()[0];
        assert_eq!(g_fgc.pattern(), &[Item(2), Item(5), Item(6)]);
        assert_eq!(g_fgc.count(), 3);
        let g_ae = &cdb.groups()[1];
        assert_eq!(g_ae.pattern(), &[Item(0), Item(4)]);
        assert_eq!(g_ae.count(), 2);
        assert!(cdb.plain().is_empty());
        // Outliers of tuple 100 are a,d,e; of 200 b,d; of 300 e.
        let o: Vec<&[Item]> = g_fgc.outliers().iter().collect();
        assert!(o.contains(&&[Item(0), Item(3), Item(4)][..]));
        assert!(o.contains(&&[Item(1), Item(3)][..]));
        assert!(o.contains(&&[Item(4)][..]));
    }

    #[test]
    fn compression_is_lossless_both_strategies() {
        let db = TransactionDb::paper_example();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let cdb = Compressor::new(strategy).compress(&db, &paper_fp());
            let rebuilt = cdb.reconstruct();
            let mut a: Vec<Vec<Item>> = rebuilt.iter().map(|t| t.to_vec()).collect();
            let mut b: Vec<Vec<Item>> = db.iter().map(|t| t.to_vec()).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{strategy:?}");
        }
    }

    #[test]
    fn empty_pattern_set_leaves_everything_plain() {
        let db = TransactionDb::paper_example();
        let cdb = Compressor::default().compress(&db, &PatternSet::new());
        assert!(cdb.groups().is_empty());
        assert_eq!(cdb.plain().len(), 5);
        assert_eq!(cdb.stats().ratio(), 1.0);
    }

    #[test]
    fn unmatched_tuples_stay_plain() {
        let db = TransactionDb::from_rows(&[&[1, 2], &[3, 4], &[1, 2, 9]]);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([1, 2], 2));
        let cdb = Compressor::default().compress(&db, &fp);
        assert_eq!(cdb.groups().len(), 1);
        assert_eq!(cdb.groups()[0].count(), 2);
        assert_eq!(cdb.groups()[0].bare(), 1); // tuple [1,2] exactly
        assert_eq!(cdb.plain().len(), 1); // [3,4]
    }

    #[test]
    fn stats_track_coverage() {
        let db = TransactionDb::paper_example();
        let (_, stats) = Compressor::new(Strategy::Mcp).compress_with_stats(&db, &paper_fp());
        assert_eq!(stats.num_tuples, 5);
        assert_eq!(stats.covered_tuples, 5);
        assert_eq!(stats.num_groups, 2);
        assert!(stats.ratio < 1.0);
    }

    #[test]
    fn mlp_prefers_longest_pattern() {
        // Tuple {1,2,3}: MLP must pick {1,2,3} (support 1) over {1,2}
        // (support 3); MCP picks {1,2}: U = 3·3 = 9 > 7·1.
        let db = TransactionDb::from_rows(&[&[1, 2, 3], &[1, 2], &[1, 2]]);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([1, 2], 3));
        fp.insert(Pattern::from_ids([1, 2, 3], 1));
        let mlp = Compressor::new(Strategy::Mlp).compress(&db, &fp);
        assert!(mlp.groups().iter().any(|g| g.pattern().len() == 3));
        let mcp = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        assert_eq!(mcp.groups().len(), 1);
        assert_eq!(mcp.groups()[0].pattern().len(), 2);
        // (The paper's "MLP compresses better" claim is empirical, not
        // universal: each group stores its pattern once, so splitting
        // tuples across more groups can cost more than it saves. The
        // Table 3 experiment checks the claim on realistic data.)
    }

    #[test]
    fn patterns_with_items_outside_db_never_match() {
        let db = TransactionDb::from_rows(&[&[1, 2]]);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([1, 2, 500], 1));
        let cdb = Compressor::default().compress(&db, &fp);
        assert!(cdb.groups().is_empty());
        assert_eq!(cdb.plain().len(), 1);
    }

    #[test]
    fn parallel_output_is_identical_to_serial() {
        let db = TransactionDb::paper_example();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let serial = Compressor::new(strategy).compress(&db, &paper_fp());
            for threads in [2, 3, 8] {
                let par =
                    Compressor::new(strategy).with_threads(threads).compress(&db, &paper_fp());
                assert_eq!(serial, par, "{strategy:?} threads={threads}");
            }
        }
    }

    #[test]
    fn streaming_chunks_match_whole_database_run() {
        let db = TransactionDb::paper_example();
        let fp = paper_fp();
        let patterns: Vec<Pattern> = fp.iter().cloned().collect();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let c = Compressor::new(strategy);
            let whole = c.compress(&db, &fp);
            // Feed the same tuples split at every possible boundary.
            for split in 0..=db.len() {
                let mut sc = c.stream(&patterns, db.item_supports(), db.len());
                sc.feed(db.tuples().range(0, split));
                sc.feed(db.tuples().range(split, db.len()));
                let (streamed, stats) = sc.finish();
                assert_eq!(streamed, whole, "{strategy:?} split={split}");
                assert_eq!(stats.num_tuples, db.len());
            }
        }
    }

    #[test]
    fn reference_scan_agrees_with_indexed_kernel() {
        let db = TransactionDb::paper_example();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let c = Compressor::new(strategy);
            assert_eq!(c.compress(&db, &paper_fp()), c.compress_reference(&db, &paper_fp()));
        }
    }
}
