//! Differential tests for batched multi-query mining: every member of a
//! [`QueryBatch`] must receive the *byte-identical* stream a solo run of
//! the same query produces — across all four engine families, on the
//! raw and the MCP-compressed substrate, at any thread count — and the
//! shared pass's thread-invariant counters (`mine.*`, `batch.*`) must be
//! bit-identical at any `--threads N`.

use gogreen::constraints::{Constraint, ConstraintSet};
use gogreen::data::FnSink;
use gogreen::obs::measure;
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;
use gogreen_datagen::{DatasetPreset, PresetKind};

const FAMILIES: [Family; 4] = Family::ALL;

fn weather() -> (TransactionDb, CompressedDb) {
    let preset = DatasetPreset::new(PresetKind::Weather, 0.005);
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    (db, cdb)
}

/// A mixed-fleet batch on `db`: a tight pure-support query, a loose one
/// capped in length, and a mid query confined to the densest items.
fn fleet(db: &TransactionDb) -> QueryBatch {
    let counts = db.item_supports();
    let mut by_support: Vec<usize> = (0..counts.len()).collect();
    by_support.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    let mut dense: Vec<Item> =
        by_support[..12.min(by_support.len())].iter().map(|&i| Item(i as u32)).collect();
    dense.sort_unstable();

    let mut batch = QueryBatch::new();
    batch.push(BatchQuery::new("tight", ConstraintSet::support_only(MinSupport::Relative(0.04))));
    batch.push(BatchQuery::new(
        "loose-short",
        ConstraintSet::support_only(MinSupport::Relative(0.02)).with(Constraint::MaxLength(2)),
    ));
    batch.push(BatchQuery::new(
        "mid-dense",
        ConstraintSet::support_only(MinSupport::Relative(0.03)).with(Constraint::SubsetOf(dense)),
    ));
    batch
}

/// The exact emission sequence of one query's stream.
type Stream = Vec<(Vec<Item>, u64)>;

fn stream_of(f: &mut dyn FnMut(&mut dyn PatternSink)) -> Stream {
    let mut out: Stream = Vec::new();
    {
        let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
        f(&mut sink);
    }
    out
}

/// Runs `batch` on the raw db and returns all member streams.
fn batched_raw(batch: &QueryBatch, db: &TransactionDb, algo: Family) -> Vec<Stream> {
    let k = batch.len();
    let mut streams: Vec<Stream> = vec![Vec::new(); k];
    {
        let mut sinks: Vec<FnSink<_>> = Vec::new();
        let mut parts = streams.iter_mut();
        for _ in 0..k {
            let out = parts.next().unwrap();
            sinks.push(FnSink(move |items: &[Item], sup: u64| out.push((items.to_vec(), sup))));
        }
        let mut refs: Vec<&mut dyn PatternSink> =
            sinks.iter_mut().map(|s| s as &mut dyn PatternSink).collect();
        batch.run_into(db, algo, &mut refs).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
    streams
}

/// Runs `batch` on the compressed substrate and returns member streams.
fn batched_recycled(batch: &QueryBatch, cdb: &CompressedDb, algo: Family) -> Vec<Stream> {
    let k = batch.len();
    let mut streams: Vec<Stream> = vec![Vec::new(); k];
    {
        let mut sinks: Vec<FnSink<_>> = Vec::new();
        let mut parts = streams.iter_mut();
        for _ in 0..k {
            let out = parts.next().unwrap();
            sinks.push(FnSink(move |items: &[Item], sup: u64| out.push((items.to_vec(), sup))));
        }
        let mut refs: Vec<&mut dyn PatternSink> =
            sinks.iter_mut().map(|s| s as &mut dyn PatternSink).collect();
        batch.run_recycled_into(cdb, algo, &mut refs).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
    }
    streams
}

#[test]
fn raw_batched_streams_match_solo_at_every_thread_count() {
    let (db, _) = weather();
    for algo in FAMILIES {
        let batch = fleet(&db);
        let solo: Vec<Stream> = (0..batch.len())
            .map(|i| stream_of(&mut |sink| batch.run_solo(i, &db, algo, sink).unwrap()))
            .collect();
        assert!(solo.iter().all(|s| !s.is_empty()), "{algo:?}: a solo run emitted nothing");
        for threads in [1usize, 4, 8] {
            let batch = fleet(&db).with_parallelism(Parallelism::threads(threads));
            let streams = batched_raw(&batch, &db, algo);
            for (i, (got, want)) in streams.iter().zip(&solo).enumerate() {
                assert_eq!(
                    got, want,
                    "{algo:?} raw query #{i} at {threads} threads diverged from solo"
                );
            }
        }
    }
}

#[test]
fn recycled_batched_streams_match_solo_at_every_thread_count() {
    let (db, cdb) = weather();
    for algo in FAMILIES {
        let batch = fleet(&db);
        let solo: Vec<Stream> = (0..batch.len())
            .map(|i| stream_of(&mut |sink| batch.run_solo_recycled(i, &cdb, algo, sink).unwrap()))
            .collect();
        assert!(solo.iter().all(|s| !s.is_empty()), "{algo:?}: a solo run emitted nothing");
        for threads in [1usize, 4, 8] {
            let batch = fleet(&db).with_parallelism(Parallelism::threads(threads));
            let streams = batched_recycled(&batch, &cdb, algo);
            for (i, (got, want)) in streams.iter().zip(&solo).enumerate() {
                assert_eq!(
                    got, want,
                    "{algo:?} MCP query #{i} at {threads} threads diverged from solo"
                );
            }
        }
    }
}

/// Raw and recycled substrates answer every member identically (order
/// aside, both are normalized, so even order matches).
#[test]
fn raw_and_recycled_batches_agree() {
    let (db, cdb) = weather();
    for algo in FAMILIES {
        let batch = fleet(&db);
        let raw = batched_raw(&batch, &db, algo);
        let rec = batched_recycled(&batch, &cdb, algo);
        assert_eq!(raw, rec, "{algo:?}: raw and MCP batches disagree");
    }
}

/// Runs the fleet across every family (raw + MCP) at `threads` and
/// returns all thread-invariant `mine.*` / `batch.*` counter totals.
fn batch_counters(
    db: &TransactionDb,
    cdb: &CompressedDb,
    threads: usize,
) -> Vec<(&'static str, u64)> {
    let ((), snap) = measure(|| {
        for algo in FAMILIES {
            let batch = fleet(db).with_parallelism(Parallelism::threads(threads));
            batch.run(db, algo).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            let batch = fleet(db).with_parallelism(Parallelism::threads(threads));
            batch.run_recycled(cdb, algo).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        }
    });
    snap.metrics
        .into_iter()
        .filter(|(name, _)| name.starts_with("mine.") || name.starts_with("batch."))
        .map(|(name, m)| (name, m.value))
        .collect()
}

#[test]
fn shared_pass_counters_bit_identical_across_thread_counts() {
    let (db, cdb) = weather();
    let serial = batch_counters(&db, &cdb, 1);
    let threaded = batch_counters(&db, &cdb, 4);
    for required in [
        "batch.queries",
        "batch.shared_passes",
        "batch.demux_patterns",
        "mine.tuple_touches",
        "mine.candidate_tests",
    ] {
        assert!(
            serial.iter().any(|&(n, v)| n == required && v > 0),
            "counter {required} missing from {serial:?}"
        );
    }
    assert_eq!(serial, threaded);
}
