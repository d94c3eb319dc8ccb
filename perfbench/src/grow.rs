//! `grow-ooc`: weather-analog rows streamed into the out-of-core store.
//!
//! One stream pass builds a fresh store: small insert batches go through
//! [`SegmentedIncrementalMiner::insert`] under a resident budget smaller
//! than the dataset, and every few inserts a mining round at a fixed ξ
//! recycles the previous round's patterns through the streaming
//! compressor. Each round is checked against in-memory H-Mine on the
//! same prefix, which the scratch pass before every stream pass mines
//! (the scratch baseline). Traced passes also split rounds into their
//! compress and mine halves with [`OocMiner`] probes.

use crate::ctx::{count, counter, median, ms, Ctx};
use crate::oracle::digest;
use crate::{datasets, Samples, Workload};
use gogreen_core::recycle_hm::RecycleHm;
use gogreen_core::{RecyclingMiner, Strategy};
use gogreen_data::{MinSupport, PatternSet, TransactionDb};
use gogreen_miners::{HMine, Miner};
use gogreen_storage::{MemoryBudget, OocMiner, SegmentedIncrementalMiner};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const XI_PCT: f64 = 3.0;

/// Workload size: rows per insert batch, inserts per mining round,
/// segment payload cap and the resident budget.
pub struct Shape {
    pub rows: usize,
    pub batch_rows: usize,
    pub mine_every: usize,
    pub segment_bytes: usize,
    pub budget_bytes: usize,
}

pub struct Grow {
    seed: u64,
    shape: Shape,
    dir: PathBuf,
    rows: Vec<Vec<u32>>,
    /// Oracle digest per mining round, keyed by its insert batch.
    oracle: BTreeMap<usize, u64>,
    /// Per pass: segment bytes written / raw row bytes, and store bytes
    /// on disk / raw row bytes.
    write_amp: Vec<f64>,
    space_amp: Vec<f64>,
    /// Compression ratio of each traced round's recycled compression.
    ratio: Vec<f64>,
}

/// Bytes of every regular file under `dir` whose name satisfies `pick`.
fn disk_bytes(dir: &Path, pick: &dyn Fn(&str) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                disk_bytes(&path, pick)
            } else if e.file_name().to_str().is_some_and(pick) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

fn remove(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove the store directory");
    }
}

impl Grow {
    pub fn new(seed: u64, out: PathBuf) -> Self {
        let shape = Shape {
            rows: 10_000,
            batch_rows: 100,
            mine_every: 4,
            segment_bytes: 16 << 10,
            budget_bytes: 64 << 10,
        };
        Grow::with_shape(seed, out, shape)
    }

    pub fn with_shape(seed: u64, out: PathBuf, shape: Shape) -> Self {
        let dir = out.join(format!("store-{}", std::process::id()));
        Grow {
            seed,
            shape,
            dir,
            rows: Vec::new(),
            oracle: BTreeMap::new(),
            write_amp: Vec::new(),
            space_amp: Vec::new(),
            ratio: Vec::new(),
        }
    }

    /// The insert batches after which a stream pass mines, with the
    /// rows inserted by then.
    fn rounds(&self) -> Vec<(usize, usize)> {
        let batches = self.rows.len().div_ceil(self.shape.batch_rows);
        (0..batches)
            .filter(|b| (b + 1) % self.shape.mine_every == 0)
            .map(|b| (b, ((b + 1) * self.shape.batch_rows).min(self.rows.len())))
            .collect()
    }

    /// Mines every round's prefix with in-memory H-Mine, recording the
    /// oracle's digests.
    fn scratch(&mut self, ctx: &mut Ctx, s: &mut Samples) {
        let xi = MinSupport::percent(XI_PCT);
        let rounds = self.rounds();
        let rows = &self.rows;
        let oracle = &mut self.oracle;
        ctx.group("scratch", |ctx| {
            for (b, prefix_rows) in rounds {
                let prefix = ctx.untimed(|| {
                    let refs: Vec<&[u32]> = rows[..prefix_rows].iter().map(Vec::as_slice).collect();
                    TransactionDb::from_rows(&refs)
                });
                let (set, t) = ctx.op("raw.hm", || HMine.mine(&prefix, xi));
                s.scratch_call(format!("r{b}"), t);
                let d = ctx.untimed(|| digest(&set));
                let want = *oracle.entry(b).or_insert(d);
                assert_eq!(want, d, "raw miners disagree between passes");
                ctx.untimed(|| drop((set, prefix)));
            }
        });
    }

    /// One pass over every insert batch into a fresh store; pushes its
    /// samples into `s` when given.
    fn pass(&mut self, ctx: &mut Ctx, mut s: Option<&mut Samples>) {
        let xi = MinSupport::percent(XI_PCT);
        let shape = &self.shape;
        let dir = &self.dir;
        let rows = &self.rows;
        let oracle = &self.oracle;
        let ratio = &mut self.ratio;
        ctx.untimed(|| remove(dir));
        let mut inc = ctx.untimed(|| {
            SegmentedIncrementalMiner::create(dir, shape.segment_bytes)
                .expect("create the store")
                .with_budget(MemoryBudget::bytes(shape.budget_bytes))
        });
        let mut prev: Option<PatternSet> = None;
        let traced = ctx.tracing();
        let chunks: Vec<&[Vec<u32>]> = rows.chunks(shape.batch_rows).collect();
        let ((), t, peak) = ctx.stream(|ctx| {
            for (b, chunk) in chunks.iter().enumerate() {
                let ((), t) = ctx.op("storage.write", || inc.insert(chunk.iter()).expect("insert"));
                if let Some(s) = s.as_deref_mut() {
                    s.writes.push(t);
                    s.stream_call(format!("w{b}"), t);
                }
                if (b + 1) % shape.mine_every != 0 {
                    continue;
                }
                let (set, t) = ctx.op("ooc.round", || inc.mine(xi).expect("mine round"));
                if traced {
                    if let Some(old) = &prev {
                        let db = inc.db().expect("open the store");
                        let ((cdb, stats), _) = ctx.aside("ooc.compress", || {
                            OocMiner::new(&db).compress(old, Strategy::Mcp).expect("compress")
                        });
                        ctx.aside("ooc.mine", || RecycleHm.mine(&cdb, xi));
                        ratio.push(stats.ratio);
                    }
                }
                ctx.untimed(|| {
                    if let Some(s) = s.as_deref_mut() {
                        s.answers.push(t);
                        s.stream_call(format!("r{b}"), t);
                        s.tally.check(oracle[&b], digest(&set));
                    }
                    prev = Some(set);
                });
            }
        });
        let Some(s) = s else { return ctx.untimed(|| remove(dir)) };
        s.pass(t, traced, peak);
        ctx.untimed(|| {
            let inserted: usize = chunks.iter().flat_map(|c| c.iter()).map(|r| r.len() + 1).sum();
            let raw_bytes = (inserted * 4) as f64;
            let segments = disk_bytes(dir, &|n| n.ends_with(".ggs"));
            self.write_amp.push(segments as f64 / raw_bytes);
            self.space_amp.push(disk_bytes(dir, &|_| true) as f64 / raw_bytes);
            remove(dir);
        });
    }
}

impl Workload for Grow {
    fn setup(&mut self, ctx: &mut Ctx) {
        let gen = datasets::weather(self.shape.rows, self.seed);
        self.rows = ctx
            .op("datagen.generate", || {
                let mut rows = Vec::with_capacity(gen.num_transactions);
                gen.for_each_transaction(|r| rows.push(r.to_vec()));
                rows
            })
            .0;
        // Warm-up: one whole pass.
        self.pass(ctx, None);
    }

    fn cycle(&mut self, ctx: &mut Ctx, s: &mut Samples, _cycle: usize) {
        self.scratch(ctx, s);
        self.pass(ctx, Some(s));
    }

    fn layers(&self, ctx: &Ctx) -> Vec<(&'static str, f64)> {
        let round = |n: &str| n == "ooc.round";
        let write = |n: &str| n == "storage.write";
        let oracle = |n: &str| n == "raw.hm";
        let probe_mine = |n: &str| n == "ooc.mine";
        let compress_ms = ms(ctx, "stream", |n| n == "ooc.compress");
        let mine_ms = ms(ctx, "stream", probe_mine);
        vec![
            ("datagen.generate_ms", ms(ctx, "setup", |n| n == "datagen.generate")),
            ("miners.raw_ms.hm", ms(ctx, "scratch", oracle)),
            ("mine.tuple_touches", count(ctx, "scratch", oracle, "mine.tuple_touches")),
            ("mine.candidate_tests", count(ctx, "scratch", oracle, "mine.candidate_tests")),
            ("mine.projected_dbs", count(ctx, "scratch", oracle, "mine.projected_dbs")),
            ("compress.ms", compress_ms),
            ("compress.ratio", median(&self.ratio)),
            ("compress.groups_emitted", count(ctx, "stream", round, "compress.groups_emitted")),
            ("compress.tuples_covered", count(ctx, "stream", round, "compress.tuples_covered")),
            ("cover.words_scanned", count(ctx, "stream", round, "cover.words_scanned")),
            ("recycle.ms.hm", mine_ms),
            ("recycle.tuple_touches", count(ctx, "stream", probe_mine, "mine.tuple_touches")),
            ("recycle.group_hits", count(ctx, "stream", probe_mine, "mine.group_hits")),
            (
                "recycle.projection_bytes",
                count(ctx, "stream", probe_mine, "alloc.projection_bytes"),
            ),
            ("storage.write_ms", ms(ctx, "stream", write)),
            ("storage.segments_written", count(ctx, "stream", write, "storage.segments_written")),
            ("storage.write_amp", median(&self.write_amp)),
            ("ooc.round_ms", ms(ctx, "stream", round)),
            ("ooc.compress_ms", compress_ms),
            ("ooc.mine_ms", mine_ms),
            ("storage.segments_read", count(ctx, "stream", round, "storage.segments_read")),
            (
                "storage.resident_peak",
                ctx.spans
                    .iter()
                    .filter(|s| round(&s.name))
                    .map(|s| counter(s, "storage.resident_peak"))
                    .fold(0.0, f64::max),
            ),
            ("storage.delta_bytes", count(ctx, "stream", round, "storage.delta_bytes")),
            ("ooc.space_amp", median(&self.space_amp)),
        ]
    }
}
