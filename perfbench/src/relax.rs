//! `relax-sparse`: users relax the published ξ_old set on the weather
//! analog.
//!
//! Each answer is the paper's pipeline: compress the database with the
//! ξ_old = 5% patterns (MCP), then mine the compressed database at one
//! ξ_new with one family's recycling miner. The 20 distinct queries
//! (5 thresholds × 4 families) make one stream pass, in a seeded order.
//! The scratch pass mines the same 20 queries with the raw miners, every
//! [`SCRATCH_EVERY`] stream passes.

use crate::ctx::{count, ms, Ctx};
use crate::oracle::digest;
use crate::{datasets, Samples, Workload, FAMILIES};
use gogreen_core::engine::engine_named;
use gogreen_core::{CompressedDb, Compressor, Strategy};
use gogreen_data::{MinSupport, PatternSet, TransactionDb};
use gogreen_util::pool::Parallelism;
use std::collections::BTreeMap;

const XI_OLD_PCT: f64 = 5.0;
const XI_NEW_PCT: [f64; 5] = [4.0, 3.0, 2.0, 1.5, 1.0];
/// Stream passes per scratch pass.
const SCRATCH_EVERY: usize = 2;

pub struct Relax {
    seed: u64,
    rows: usize,
    db: TransactionDb,
    fodder: PatternSet,
    /// Oracle digest per (family, ξ_new index).
    oracle: BTreeMap<(usize, usize), u64>,
    ratio: f64,
}

fn mine_raw(family: usize, db: &TransactionDb, xi: MinSupport) -> PatternSet {
    engine_named(FAMILIES[family].0).expect("registered family").raw().mine(db, xi)
}

fn mine_recycled(family: usize, cdb: &CompressedDb, xi: MinSupport) -> PatternSet {
    engine_named(FAMILIES[family].0)
        .expect("registered family")
        .recycling(Parallelism::serial())
        .expect("family recycles")
        .mine(cdb, xi)
}

impl Relax {
    pub fn new(seed: u64) -> Self {
        Relax::with_rows(seed, 20_000)
    }

    pub fn with_rows(seed: u64, rows: usize) -> Self {
        Relax {
            seed,
            rows,
            db: TransactionDb::new(),
            fodder: PatternSet::new(),
            oracle: BTreeMap::new(),
            ratio: 0.0,
        }
    }

    fn queries() -> impl Iterator<Item = (usize, usize)> {
        (0..FAMILIES.len()).flat_map(|f| (0..XI_NEW_PCT.len()).map(move |x| (f, x)))
    }

    /// One answer: compress with the ξ_old set, mine recycled.
    fn answer(&self, ctx: &mut Ctx, family: usize, x: usize) -> PatternSet {
        let ((cdb, _), _) = ctx.op("compress", || {
            Compressor::new(Strategy::Mcp).compress_with_stats(&self.db, &self.fodder)
        });
        let name = format!("recycle.{}", FAMILIES[family].1);
        ctx.op(&name, || mine_recycled(family, &cdb, MinSupport::percent(XI_NEW_PCT[x]))).0
    }

    /// Mines the distinct queries with the raw miners, recording the
    /// oracle's digests.
    fn scratch(&mut self, ctx: &mut Ctx, s: &mut Samples) {
        let db = &self.db;
        let oracle = &mut self.oracle;
        ctx.group("scratch", |ctx| {
            for (f, x) in Relax::queries() {
                let name = format!("raw.{}", FAMILIES[f].1);
                let xi = MinSupport::percent(XI_NEW_PCT[x]);
                let (set, t) = ctx.op(&name, || mine_raw(f, db, xi));
                s.scratch_call(format!("{f}/{x}"), t);
                let d = ctx.untimed(|| digest(&set));
                let want = *oracle.entry((f, x)).or_insert(d);
                assert_eq!(want, d, "raw miners disagree between passes");
            }
        });
    }
}

/// A seeded permutation of `n` items (Fisher–Yates over splitmix64).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

impl Workload for Relax {
    fn setup(&mut self, ctx: &mut Ctx) {
        let gen = datasets::weather(self.rows, self.seed);
        self.db = ctx.op("datagen.generate", || gen.generate()).0;
        let xi_old = MinSupport::percent(XI_OLD_PCT);
        self.fodder = ctx.op("fodder.hm", || mine_raw(0, &self.db, xi_old)).0;
        self.ratio = ctx.untimed(|| {
            Compressor::new(Strategy::Mcp).compress_with_stats(&self.db, &self.fodder).1.ratio
        });
        // Warm-up: every distinct query once.
        for (f, x) in Relax::queries() {
            self.answer(ctx, f, x);
        }
    }

    fn cycle(&mut self, ctx: &mut Ctx, s: &mut Samples, cycle: usize) {
        if cycle.is_multiple_of(SCRATCH_EVERY) {
            self.scratch(ctx, s);
        }
        let queries: Vec<(usize, usize)> = Relax::queries().collect();
        let order = shuffled(queries.len(), self.seed ^ cycle as u64);
        let traced = ctx.tracing();
        let ((), t, peak) = ctx.stream(|ctx| {
            for &i in &order {
                let (f, x) = queries[i];
                let (set, t) = ctx.group("answer", |ctx| self.answer(ctx, f, x));
                s.answers.push(t);
                s.stream_call(format!("{f}/{x}"), t);
                let d = ctx.untimed(|| digest(&set));
                s.tally.check(self.oracle[&(f, x)], d);
                ctx.untimed(|| drop(set));
            }
        });
        s.pass(t, traced, peak);
    }

    fn layers(&self, ctx: &Ctx) -> Vec<(&'static str, f64)> {
        let is_raw = |n: &str| n.starts_with("raw.");
        let is_rec = |n: &str| n.starts_with("recycle.");
        let all = |_: &str| true;
        vec![
            ("datagen.generate_ms", ms(ctx, "setup", |n| n == "datagen.generate")),
            ("miners.raw_ms.hm", ms(ctx, "scratch", |n| n == "raw.hm")),
            ("miners.raw_ms.fp", ms(ctx, "scratch", |n| n == "raw.fp")),
            ("miners.raw_ms.tp", ms(ctx, "scratch", |n| n == "raw.tp")),
            ("miners.raw_ms.vt", ms(ctx, "scratch", |n| n == "raw.vt")),
            ("mine.tuple_touches", count(ctx, "scratch", is_raw, "mine.tuple_touches")),
            ("mine.candidate_tests", count(ctx, "scratch", is_raw, "mine.candidate_tests")),
            ("mine.projected_dbs", count(ctx, "scratch", is_raw, "mine.projected_dbs")),
            ("compress.ms", ms(ctx, "stream", |n| n == "compress")),
            ("compress.ratio", self.ratio),
            ("compress.groups_emitted", count(ctx, "stream", all, "compress.groups_emitted")),
            ("compress.tuples_covered", count(ctx, "stream", all, "compress.tuples_covered")),
            ("cover.words_scanned", count(ctx, "stream", all, "cover.words_scanned")),
            ("recycle.ms.hm", ms(ctx, "stream", |n| n == "recycle.hm")),
            ("recycle.ms.fp", ms(ctx, "stream", |n| n == "recycle.fp")),
            ("recycle.ms.tp", ms(ctx, "stream", |n| n == "recycle.tp")),
            ("recycle.ms.vt", ms(ctx, "stream", |n| n == "recycle.vt")),
            ("recycle.tuple_touches", count(ctx, "stream", is_rec, "mine.tuple_touches")),
            ("recycle.group_hits", count(ctx, "stream", is_rec, "mine.group_hits")),
            ("recycle.fp_nodes", count(ctx, "stream", is_rec, "mine.fp_nodes")),
            (
                "recycle.bitmap_words_scanned",
                count(ctx, "stream", is_rec, "mine.bitmap_words_scanned"),
            ),
            ("recycle.projection_bytes", count(ctx, "stream", is_rec, "alloc.projection_bytes")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(20, 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(a, shuffled(20, 3));
        assert_ne!(a, shuffled(20, 4));
    }
}
