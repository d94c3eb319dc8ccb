//! Snapshot and profile semantics across the real pipeline:
//!
//! 1. A measured scope reports exactly its own activity — the same
//!    numbers a standalone measurement of the same work reports, however
//!    much the enclosing scope recorded before it — and the enclosing
//!    scope's totals include it.
//! 2. `MiningSession` emits one labelled snapshot per round through the
//!    exporter hook, each carrying only that round's activity (max-gauges
//!    included), and the thread-invariant part of each is bit-identical
//!    at `--threads 1` and `--threads 8` (histogram bucket vectors
//!    included).
//! 3. The self-time profile telescopes: summing `self_us` over a root's
//!    subtree reproduces the root's `total_us` exactly, and the
//!    collapsed-stack export carries the same numbers.

use gogreen::obs::{measure, metrics, MetricsSnapshot, Recorder};
use gogreen::prelude::*;
use gogreen_constraints::ConstraintSet;
use gogreen_datagen::{DatasetPreset, PresetKind};
use std::sync::{Arc, Mutex};

fn weather_db() -> TransactionDb {
    DatasetPreset::new(PresetKind::Weather, 0.005).generate()
}

#[test]
fn measured_scope_reports_only_its_own_activity() {
    let db = weather_db();
    let fp = Family::Hm.mine(&db, MinSupport::percent(5.0));
    let workload = || {
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        std::hint::black_box(Family::Hm.mine(&cdb, MinSupport::percent(2.0)));
    };
    let ((), reference) = measure(workload);

    // The same workload measured after the enclosing scope already
    // recorded a run of it: the inner scope sees only its own run, and
    // the enclosing totals are the two runs added.
    let (inner, outer) = measure(|| {
        workload();
        measure(workload).1
    });
    assert_eq!(inner, reference);
    for (name, m) in &reference.metrics {
        if m.kind == metrics::Kind::Counter {
            assert_eq!(outer.value(name), Some(2 * m.value), "counter {name}");
        }
    }
    for (name, h) in &reference.hists {
        assert_eq!(outer.hists[name].count, 2 * h.count, "histogram {name}");
    }
    assert!(reference.value("compress.runs").is_some_and(|v| v > 0));
    assert!(reference.hists.contains_key("mine.projected_db_size"));
}

/// Runs a session's rounds at the given supports with an exporter
/// installed and returns each round's labelled snapshot.
fn session_rounds(
    db: &TransactionDb,
    threads: usize,
    supports: &[f64],
) -> Vec<(String, MetricsSnapshot)> {
    let collected: Arc<Mutex<Vec<(String, MetricsSnapshot)>>> = Arc::default();
    let sink = collected.clone();
    Recorder::new()
        .with_exporter(Box::new(move |label, snap| {
            sink.lock().unwrap().push((label.to_owned(), snap.clone()));
        }))
        .install();
    let mut session = gogreen::core::session::MiningSession::new(db.clone())
        .with_engine(Family::Fp)
        .with_threads(threads);
    for &pct in supports {
        session.run(ConstraintSet::support_only(MinSupport::percent(pct)));
    }
    drop(Recorder::uninstall());
    Arc::try_unwrap(collected).expect("exporter dropped").into_inner().unwrap()
}

/// Strips a snapshot down to its registry-invariant part (thread-variant
/// machine work like `cover.*` legitimately differs across fan-outs).
fn invariant_part(snap: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = snap.clone();
    out.metrics.retain(|name, _| metrics::is_thread_invariant(name));
    out.hists.retain(|name, _| metrics::is_thread_invariant(name));
    out
}

#[test]
fn session_emits_one_snapshot_per_round_identical_across_threads() {
    let db = weather_db();
    // Mine, then relax and recycle.
    let serial = session_rounds(&db, 1, &[5.0, 2.0]);
    let threaded = session_rounds(&db, 8, &[5.0, 2.0]);

    let labels: Vec<&str> = serial.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["session.round/1", "session.round/2"]);
    assert_eq!(threaded.len(), 2);

    // Round 2 recycles, so its snapshot shows compression activity that
    // round 1's does not — the snapshots really are per-round.
    assert_eq!(serial[0].1.value("compress.runs"), None);
    assert!(serial[1].1.value("compress.runs").is_some_and(|v| v > 0));
    assert!(serial[1].1.hists.contains_key("compress.group_size"));

    // Bit-identical invariant snapshots at 1 and 8 threads: counters, and
    // full 65-bucket histogram vectors via Histogram's PartialEq.
    for ((l1, s1), (l8, s8)) in serial.iter().zip(threaded.iter()) {
        assert_eq!(l1, l8);
        assert_eq!(invariant_part(s1), invariant_part(s8), "round {l1}");
    }
}

/// A round answered by filtering a published superset mines nothing, so
/// its snapshot carries no mining gauge — not the high-water mark a
/// previous round left behind.
#[test]
fn filtered_round_reports_no_earlier_rounds_max_gauges() {
    let rounds = session_rounds(&weather_db(), 1, &[2.0, 5.0]);
    assert!(rounds[0].1.value("mine.max_depth").is_some_and(|d| d > 0));
    let filtered = &rounds[1].1;
    assert_eq!(filtered.value("session.rounds_filtered"), Some(1));
    assert_eq!(filtered.value("mine.max_depth"), None, "{filtered:?}");
}

#[test]
fn profile_self_times_telescope_to_root_total() {
    let db = weather_db();
    let fp = Family::Hm.mine(&db, MinSupport::percent(5.0));
    Recorder::new().with_profile().install();
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    std::hint::black_box(Family::Hm.mine(&cdb, MinSupport::percent(2.0)));
    let rec = Recorder::uninstall().expect("installed above");
    let profile = rec.profile().expect("profiling recorder");

    let roots: Vec<&str> = profile.iter().map(|(p, _)| p).filter(|p| !p.contains(';')).collect();
    assert!(!roots.is_empty(), "profiling recorded nothing");
    assert!(roots.contains(&"compress"), "roots: {roots:?}");
    // Telescoping: every root's subtree self-times sum back to exactly
    // its own total (integer µs — no drift, no double counting).
    for root in &roots {
        let total = profile.get(root).expect("root node").total_us;
        assert_eq!(profile.subtree_self_us(root), total, "root {root}");
    }

    // The collapsed export carries the same self-times: re-summing the
    // "path self_us" lines per root reproduces the totals again.
    let collapsed = profile.to_collapsed();
    for root in &roots {
        let sum: u64 = collapsed
            .lines()
            .map(|line| {
                let (path, self_us) = line.rsplit_once(' ').expect("collapsed line shape");
                let self_us: u64 = self_us.parse().expect("numeric self time");
                (path, self_us)
            })
            .filter(|(p, _)| {
                *p == *root || p.strip_prefix(root).is_some_and(|r| r.starts_with(';'))
            })
            .map(|(_, s)| s)
            .sum();
        assert_eq!(sum, profile.get(root).unwrap().total_us, "collapsed root {root}");
    }
}
