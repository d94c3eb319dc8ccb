//! `fleet-dense`: batched fleets and follow-up rounds on the connect4
//! analog.
//!
//! An epoch starts one [`MiningSession`] per family and runs the k = 8
//! Zipf ladder over the preset's sweep as one batch, so the shared pass
//! runs at the 80% floor. Two tighter follow-ups must be answered by
//! filtering the published floor set, and one relaxation below the
//! floor by recycling it. Every batch member's latency is the batch's.
//!
//! Which dense items sit near the floor varies with the seed, and with
//! it the cost of a pass, so a stream pass runs one epoch on each of
//! [`DATASETS`] databases drawn from the seed. The scratch pass mines
//! every distinct (database, family, ξ) with the raw miners; it costs
//! several stream passes, so it runs every [`SCRATCH_EVERY`] passes.

use crate::calib::Timing;
use crate::ctx::{count, median, ms, Ctx};
use crate::oracle::digest;
use crate::{datasets, Samples, Workload, FAMILIES};
use gogreen_bench::batchwork::zipf_ladder;
use gogreen_constraints::ConstraintSet;
use gogreen_core::batch::BatchQuery;
use gogreen_core::engine::engine_named;
use gogreen_core::session::{Engine, MiningSession, RunMode};
use gogreen_data::{MinSupport, PatternSet, TransactionDb};
use std::collections::BTreeMap;

const SWEEP_PCT: [f64; 5] = [92.0, 89.0, 86.0, 83.0, 80.0];
const FLEET: usize = 8;
/// Databases per seed, one epoch each per stream pass.
const DATASETS: u64 = 8;
/// Stream passes per scratch pass.
const SCRATCH_EVERY: usize = 3;
/// Follow-up rounds after the batch, with the dispatch each must take.
const FOLLOW_UPS: [(f64, RunMode); 3] =
    [(90.0, RunMode::Filtered), (85.0, RunMode::Filtered), (77.0, RunMode::Recycled)];

pub struct Fleet {
    seed: u64,
    rows: usize,
    dbs: Vec<TransactionDb>,
    ladder: Vec<MinSupport>,
    /// Oracle digest per (database, family, absolute ξ).
    oracle: BTreeMap<(usize, usize, u64), u64>,
    /// Follow-up rounds per dispatch outcome, over traced passes.
    modes: BTreeMap<&'static str, u64>,
    traced_passes: u64,
}

/// One answer: its threshold, result and latency.
type Answer = (MinSupport, PatternSet, Timing);

impl Fleet {
    pub fn new(seed: u64) -> Self {
        Fleet::with_rows(seed, 1_000)
    }

    pub fn with_rows(seed: u64, rows: usize) -> Self {
        let sweep: Vec<MinSupport> = SWEEP_PCT.iter().map(|&p| MinSupport::percent(p)).collect();
        Fleet {
            seed,
            rows,
            dbs: Vec::new(),
            ladder: zipf_ladder(&sweep, FLEET),
            oracle: BTreeMap::new(),
            modes: BTreeMap::new(),
            traced_passes: 0,
        }
    }

    /// Every threshold an epoch asks, deduplicated.
    fn distinct(&self) -> Vec<MinSupport> {
        let mut all = self.ladder.clone();
        all.extend(FOLLOW_UPS.iter().map(|&(p, _)| MinSupport::percent(p)));
        all.dedup();
        all
    }

    /// One family's session on database `d`: the batch, then the
    /// follow-ups. Returns every answer and, per follow-up, whether it
    /// took the planned dispatch.
    fn session(
        &self,
        ctx: &mut Ctx,
        d: usize,
        family: usize,
    ) -> (Vec<Answer>, Vec<(RunMode, bool)>) {
        let (key, tag) = FAMILIES[family];
        let engine = Engine::from_key(key).expect("session family");
        let mut session =
            ctx.untimed(|| MiningSession::new(self.dbs[d].clone()).with_engine(engine));
        let queries: Vec<BatchQuery> = self
            .ladder
            .iter()
            .enumerate()
            .map(|(i, &xi)| BatchQuery::new(format!("z{i}"), ConstraintSet::support_only(xi)))
            .collect();
        let (out, t) =
            ctx.op(&format!("batch.run.{tag}"), || session.run_batch(queries).expect("batch runs"));
        let mut answers: Vec<Answer> =
            self.ladder.iter().zip(out.results).map(|(&xi, set)| (xi, set, t)).collect();
        let mut modes = Vec::new();
        for (pct, want) in FOLLOW_UPS {
            let xi = MinSupport::percent(pct);
            let name = match want {
                RunMode::Recycled => format!("session.recycle.{tag}"),
                _ => format!("session.filter.{tag}"),
            };
            let ((set, report), t) =
                ctx.op(&name, || session.run_with_report(ConstraintSet::support_only(xi)));
            answers.push((xi, set, t));
            modes.push((want, report.mode == want));
        }
        (answers, modes)
    }

    /// Mines every distinct (database, family, ξ) with the raw miners,
    /// recording the oracle's digests.
    fn scratch(&mut self, ctx: &mut Ctx, s: &mut Samples) {
        let distinct = self.distinct();
        let dbs = &self.dbs;
        let oracle = &mut self.oracle;
        ctx.group("scratch", |ctx| {
            for (d, db) in dbs.iter().enumerate() {
                for (f, &(key, tag)) in FAMILIES.iter().enumerate() {
                    for &xi in &distinct {
                        let miner = engine_named(key).expect("registered family").raw();
                        let (set, t) = ctx.op(&format!("raw.{tag}"), || miner.mine(db, xi));
                        let abs = xi.to_absolute(db.len());
                        s.scratch_call(format!("{d}/{f}/{abs}"), t);
                        let digest = ctx.untimed(|| digest(&set));
                        let want = *oracle.entry((d, f, abs)).or_insert(digest);
                        assert_eq!(want, digest, "raw miners disagree between passes");
                    }
                }
            }
        });
    }
}

impl Workload for Fleet {
    fn setup(&mut self, ctx: &mut Ctx) {
        self.dbs = (0..DATASETS)
            .map(|i| {
                let seed = self.seed.wrapping_mul(DATASETS).wrapping_add(i);
                let gen = datasets::connect4(self.rows, seed);
                ctx.op("datagen.generate", || gen.generate()).0
            })
            .collect();
        // Warm-up: one epoch on every database, as in a stream pass.
        for d in 0..self.dbs.len() {
            for f in 0..FAMILIES.len() {
                self.session(ctx, d, f);
            }
        }
    }

    fn cycle(&mut self, ctx: &mut Ctx, s: &mut Samples, cycle: usize) {
        if cycle.is_multiple_of(SCRATCH_EVERY) {
            self.scratch(ctx, s);
        }
        let traced = ctx.tracing();
        let mut observed = Vec::new();
        let ((), t, peak) = ctx.stream(|ctx| {
            for d in 0..self.dbs.len() {
                for f in 0..FAMILIES.len() {
                    let (answers, modes) = self.session(ctx, d, f);
                    for (i, (xi, set, t)) in answers.into_iter().enumerate() {
                        s.answers.push(t);
                        // Batch members share one call: count it once.
                        if i == 0 || i >= FLEET {
                            s.stream_call(format!("{d}/{f}/{i}"), t);
                        }
                        let abs = xi.to_absolute(self.dbs[d].len());
                        let digest = ctx.untimed(|| digest(&set));
                        // A follow-up dispatched otherwise than planned
                        // means the store lost the floor set: a failed
                        // answer, however right its patterns.
                        let dispatched = i < FLEET || modes[i - FLEET].1;
                        s.tally.record(self.oracle[&(d, f, abs)] == digest && dispatched);
                        ctx.untimed(|| drop(set));
                    }
                    observed.extend(modes);
                }
            }
        });
        s.pass(t, traced, peak);
        if traced {
            self.traced_passes += 1;
            for (want, ok) in observed {
                let label = if ok { want.label() } else { RunMode::Fresh.label() };
                *self.modes.entry(label).or_default() += 1;
            }
            // The batches' floor: a solo raw pass at ξ_min per family.
            ctx.group("probe", |ctx| {
                for db in &self.dbs {
                    let n = db.len();
                    let floor =
                        *self.ladder.iter().min_by_key(|xi| xi.to_absolute(n)).expect("fleet");
                    for &(key, _) in &FAMILIES {
                        let miner = engine_named(key).expect("registered family").raw();
                        ctx.op("batch.floor", || miner.mine(db, floor));
                    }
                }
            });
        }
    }

    fn layers(&self, ctx: &Ctx) -> Vec<(&'static str, f64)> {
        let is_raw = |n: &str| n.starts_with("raw.");
        let is_batch = |n: &str| n.starts_with("batch.run.");
        let is_rec = |n: &str| n.starts_with("session.recycle.");
        let all = |_: &str| true;
        let per_pass = |mode: RunMode| {
            self.modes.get(mode.label()).copied().unwrap_or(0) as f64
                / self.traced_passes.max(1) as f64
        };
        let run_ms = ms(ctx, "stream", is_batch);
        let floor_ms = median(&ctx.per_root("probe", |n| n == "batch.floor", |s| s.cal_ms));
        vec![
            ("datagen.generate_ms", ms(ctx, "setup", |n| n == "datagen.generate")),
            ("miners.raw_ms.hm", ms(ctx, "scratch", |n| n == "raw.hm")),
            ("miners.raw_ms.fp", ms(ctx, "scratch", |n| n == "raw.fp")),
            ("miners.raw_ms.tp", ms(ctx, "scratch", |n| n == "raw.tp")),
            ("miners.raw_ms.vt", ms(ctx, "scratch", |n| n == "raw.vt")),
            ("mine.tuple_touches", count(ctx, "scratch", is_raw, "mine.tuple_touches")),
            ("mine.candidate_tests", count(ctx, "scratch", is_raw, "mine.candidate_tests")),
            ("mine.projected_dbs", count(ctx, "scratch", is_raw, "mine.projected_dbs")),
            ("compress.groups_emitted", count(ctx, "stream", all, "compress.groups_emitted")),
            ("compress.tuples_covered", count(ctx, "stream", all, "compress.tuples_covered")),
            ("cover.words_scanned", count(ctx, "stream", all, "cover.words_scanned")),
            ("recycle.ms.hm", ms(ctx, "stream", |n| n == "session.recycle.hm")),
            ("recycle.ms.fp", ms(ctx, "stream", |n| n == "session.recycle.fp")),
            ("recycle.ms.tp", ms(ctx, "stream", |n| n == "session.recycle.tp")),
            ("recycle.ms.vt", ms(ctx, "stream", |n| n == "session.recycle.vt")),
            ("recycle.tuple_touches", count(ctx, "stream", is_rec, "mine.tuple_touches")),
            ("recycle.group_hits", count(ctx, "stream", is_rec, "mine.group_hits")),
            ("recycle.fp_nodes", count(ctx, "stream", is_rec, "mine.fp_nodes")),
            (
                "recycle.bitmap_words_scanned",
                count(ctx, "stream", is_rec, "mine.bitmap_words_scanned"),
            ),
            ("recycle.projection_bytes", count(ctx, "stream", is_rec, "alloc.projection_bytes")),
            ("batch.run_ms", run_ms),
            ("batch.floor_ms", floor_ms),
            ("batch.overhead_ms", run_ms - floor_ms),
            ("batch.shared_passes", count(ctx, "stream", is_batch, "batch.shared_passes")),
            ("batch.rejected", count(ctx, "stream", is_batch, "batch.rejected")),
            ("batch.demux_patterns", count(ctx, "stream", is_batch, "batch.demux_patterns")),
            ("session.filter_ms", ms(ctx, "stream", |n| n.starts_with("session.filter."))),
            ("session.recycle_ms", ms(ctx, "stream", is_rec)),
            ("session.rounds_filtered", per_pass(RunMode::Filtered)),
            ("session.rounds_recycled", per_pass(RunMode::Recycled)),
            ("session.rounds_fresh", per_pass(RunMode::Fresh)),
        ]
    }
}
