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
//!
//! Whole-database, streaming ([`Compressor::stream`]) and reference
//! compression record their results through one accumulator. A covered
//! member's outlying items are computed by the branch-free
//! [`difference_into`] straight into one staging CSR, as a row tagged
//! with its pattern index; a member with no outlying item only bumps its
//! pattern's slot in a dense bare-count vector. Parallel parts merge by
//! concatenation. Sealing sorts the used patterns into utility order and
//! counting-sorts the staged rows by group into the [`CompressedDb`]'s
//! outlier section, so each member row is copied once after it is
//! staged and a group's members keep their tuple order. Streaming is the
//! whole-database pass fed in chunks — the index, and the AND-chains it
//! compiles, live for the whole stream.

use crate::cover::CoverIndex;
use crate::utility::{order_by_utility, Strategy};
use gogreen_data::{
    difference_into, CompressedDb, CsrTuples, Item, Pattern, PatternSet, TransactionDb, TupleSlices,
};
use gogreen_obs::{histogram, metrics, span, Span};
use gogreen_util::pool::{par_ranges, Parallelism};
use gogreen_util::Stopwatch;
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// Outcome metrics of one compression run (paper Table 3 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
        let mut acc = Accumulator::new(index.len());
        {
            let mut cover_sp = span("cover");
            cover_sp.field("tuples", db.len()).field("patterns", fp.len());
            acc.feed(&index, db.tuples(), self.parallelism);
        }
        sp.field("strategy", self.name()).field("patterns", fp.len());
        let (cdb, stats) = acc.finish(&index, start, &mut sp);
        let sweep = watch.lap();
        sp.field("build_us", build.as_micros() as u64).field("sweep_us", sweep.as_micros() as u64);
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
            acc: Accumulator::new(patterns.len()),
            index,
            strategy: self.strategy,
            parallelism: self.parallelism,
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

        let mut acc = Accumulator::new(patterns.len());
        for t in db.iter() {
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
            acc.record(t, chosen.map(|pidx| (pidx, patterns[pidx as usize].items())));
        }
        acc.into_cdb(
            |a, b| rank[a as usize].cmp(&rank[b as usize]),
            |pidx| patterns[pidx as usize].items(),
        )
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
    acc: Accumulator,
    started: Instant,
}

impl StreamCompressor<'_> {
    /// Covers one chunk of tuples (fanned out over the configured
    /// thread budget; partial results merge in chunk order, so the
    /// accumulated state only depends on the tuples fed so far).
    pub fn feed(&mut self, tuples: TupleSlices<'_, Item>) {
        let mut cover_sp = span("cover");
        cover_sp.field("tuples", tuples.len());
        self.acc.feed(&self.index, tuples, self.parallelism);
    }

    /// Seals the stream into a compressed database plus stats, emitting
    /// the same `compress.*` counters as a whole-database run.
    pub fn finish(self) -> (CompressedDb, CompressionStats) {
        let mut sp = span("compress");
        sp.field("strategy", self.strategy.suffix());
        self.acc.finish(&self.index, self.started, &mut sp)
    }
}

/// Cover results accumulated in tuple order — the one accumulate path
/// behind whole-database, streaming and reference compression (see the
/// module docs).
#[derive(Debug)]
struct Accumulator {
    /// Outlier rows of covered members, in tuple order.
    rows: CsrTuples<Item>,
    /// `row_pattern[r]` = the pattern index covering staged row `r`.
    row_pattern: Vec<u32>,
    /// `bare[pattern index]` = its members with no outlying items.
    bare: Vec<u64>,
    plain: CsrTuples<Item>,
    original_items: usize,
}

impl Accumulator {
    /// An empty accumulator for a run over `num_patterns` patterns.
    fn new(num_patterns: usize) -> Self {
        Accumulator {
            rows: CsrTuples::new(),
            row_pattern: Vec::new(),
            bare: vec![0; num_patterns],
            plain: CsrTuples::new(),
            original_items: 0,
        }
    }

    /// Covers `tuples` with `index` and appends the result; a serial
    /// pass records straight into `self`. With a non-serial `par` each
    /// worker sweeps one contiguous row range (a borrowed window of the
    /// CSR storage, so splitting costs two offsets) into its own
    /// accumulator, and the parts merge in range order — concatenating
    /// the staged rows exactly as one serial pass would, so the result
    /// is identical for any thread count.
    fn feed(&mut self, index: &CoverIndex<'_>, tuples: TupleSlices<'_, Item>, par: Parallelism) {
        if par.for_items(tuples.len()) <= 1 {
            self.cover(index, tuples);
            return;
        }
        let parts = par_ranges(par, tuples.len(), |_, range| {
            let mut part = Accumulator::new(index.len());
            part.cover(index, tuples.range(range.start, range.end));
            part
        });
        for (_, part) in parts {
            self.merge(part);
        }
    }

    /// Sweeps `tuples` with `index` and records every tuple in order.
    fn cover(&mut self, index: &CoverIndex<'_>, tuples: TupleSlices<'_, Item>) {
        let assign = index.cover_all(tuples);
        for (t, covered_by) in tuples.iter().zip(assign) {
            self.record(t, covered_by.map(|pidx| (pidx, index.pattern(pidx).items())));
        }
    }

    /// Records tuple `t`: a member of `covered_by`'s group — `(pattern
    /// index, pattern items)` — or, when `None`, a plain row.
    fn record(&mut self, t: &[Item], covered_by: Option<(u32, &[Item])>) {
        self.original_items += t.len();
        let Some((pidx, pattern)) = covered_by else {
            self.plain.push_row(t);
            return;
        };
        self.rows.push_with(t.len(), Item(0), |slots| difference_into(t, pattern, slots));
        if self.rows.commit_nonempty() {
            self.row_pattern.push(pidx);
        } else {
            self.bare[pidx as usize] += 1;
        }
    }

    /// Appends `part`, which covered the tuples following this one's.
    fn merge(&mut self, part: Accumulator) {
        if self.original_items == 0 && self.plain.is_empty() {
            *self = part;
            return;
        }
        self.original_items += part.original_items;
        self.plain.append(&part.plain);
        self.rows.append(&part.rows);
        self.row_pattern.extend(part.row_pattern);
        self.bare.iter_mut().zip(part.bare).for_each(|(b, p)| *b += p);
    }

    /// Lays the used patterns' groups out in utility order and
    /// counting-sorts the staged rows into the outlier section: a
    /// group's members keep their tuple order. Only the used patterns
    /// are sorted. `by_rank` compares two pattern indices in utility
    /// order.
    fn into_cdb<'p>(
        self,
        by_rank: impl Fn(u32, u32) -> Ordering,
        items_of: impl Fn(u32) -> &'p [Item],
    ) -> CompressedDb {
        // Per pattern: staged rows and items, then (below) the position
        // of its next row and item in the outlier section.
        let mut next_row = vec![0u32; self.bare.len()];
        let mut next_elem = vec![0u32; self.bare.len()];
        for (row, &p) in self.rows.iter().zip(&self.row_pattern) {
            next_row[p as usize] += 1;
            next_elem[p as usize] += row.len() as u32;
        }
        let mut used: Vec<u32> = (0..self.bare.len() as u32)
            .filter(|&p| next_row[p as usize] > 0 || self.bare[p as usize] > 0)
            .collect();
        used.sort_unstable_by(|&a, &b| by_rank(a, b));
        let mut patterns = CsrTuples::new();
        let (mut outlier_start, mut bare) = (vec![0u32], Vec::new());
        let (mut row_at, mut elem_at) = (0u32, 0u32);
        for &p in &used {
            let p = p as usize;
            histogram::observe("compress.group_size", u64::from(next_row[p]) + self.bare[p]);
            row_at += std::mem::replace(&mut next_row[p], row_at);
            elem_at += std::mem::replace(&mut next_elem[p], elem_at);
            patterns.push_row(items_of(p as u32));
            outlier_start.push(row_at);
            bare.push(self.bare[p]);
        }
        let mut data = vec![Item(0); self.rows.total_elems()];
        let mut offsets = vec![0u32; self.rows.len() + 1];
        for (row, &p) in self.rows.iter().zip(&self.row_pattern) {
            let (r, e) = (next_row[p as usize] as usize, next_elem[p as usize] as usize);
            data[e..e + row.len()].copy_from_slice(row);
            offsets[r + 1] = (e + row.len()) as u32;
            next_row[p as usize] += 1;
            next_elem[p as usize] += row.len() as u32;
        }
        let outliers = CsrTuples::from_raw_parts(data, offsets);
        CompressedDb::from_raw_parts(
            patterns,
            outliers,
            outlier_start,
            bare,
            self.plain,
            self.original_items,
        )
    }

    /// Seals a compression run: emits the groups, records its
    /// `compress.*` counters and its outcome fields on `sp`.
    fn finish(
        self,
        index: &CoverIndex<'_>,
        started: Instant,
        sp: &mut Span,
    ) -> (CompressedDb, CompressionStats) {
        let cdb = self.into_cdb(|a, b| index.cmp_utility(a, b), |pidx| index.pattern(pidx).items());
        let s = cdb.stats();
        let stats = CompressionStats {
            duration: started.elapsed(),
            ratio: s.ratio(),
            num_groups: s.num_groups,
            covered_tuples: s.covered_tuples,
            num_tuples: s.num_tuples,
        };
        metrics::add("compress.runs", 1);
        metrics::add("compress.tuples_total", stats.num_tuples as u64);
        metrics::add("compress.tuples_covered", stats.covered_tuples as u64);
        metrics::add("compress.groups_emitted", stats.num_groups as u64);
        sp.field("tuples", stats.num_tuples)
            .field("covered", stats.covered_tuples)
            .field("groups", stats.num_groups);
        (cdb, stats)
    }
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
        assert_eq!(cdb.num_groups(), 2);
        let g_fgc = cdb.group(0);
        assert_eq!(g_fgc.pattern, &[Item(2), Item(5), Item(6)]);
        assert_eq!(g_fgc.count(), 3);
        let g_ae = cdb.group(1);
        assert_eq!(g_ae.pattern, &[Item(0), Item(4)]);
        assert_eq!(g_ae.count(), 2);
        assert!(cdb.plain().is_empty());
        // Outliers of tuple 100 are a,d,e; of 200 b,d; of 300 e.
        let o: Vec<&[Item]> = g_fgc.outliers.iter().collect();
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
        assert_eq!(cdb.num_groups(), 0);
        assert_eq!(cdb.plain().len(), 5);
        assert_eq!(cdb.stats().ratio(), 1.0);
    }

    #[test]
    fn unmatched_tuples_stay_plain() {
        let db = TransactionDb::from_rows(&[&[1, 2], &[3, 4], &[1, 2, 9]]);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([1, 2], 2));
        let cdb = Compressor::default().compress(&db, &fp);
        assert_eq!(cdb.num_groups(), 1);
        assert_eq!(cdb.group(0).count(), 2);
        assert_eq!(cdb.group(0).bare, 1); // tuple [1,2] exactly
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
        assert!(mlp.groups().any(|g| g.pattern.len() == 3));
        let mcp = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        assert_eq!(mcp.num_groups(), 1);
        assert_eq!(mcp.group(0).pattern.len(), 2);
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
        assert_eq!(cdb.num_groups(), 0);
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
