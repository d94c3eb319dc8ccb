//! Observability invariants across the whole pipeline:
//!
//! 1. Thread-invariant counters are *bit-identical* between `--threads 1`
//!    and `--threads 4` on the weather analog — the totals measure
//!    logical work, so parallelism must not change them.
//! 2. Span JSONL round-trips through `gogreen_util::json` with intact
//!    parent links and fields for the compress/cover/mine phases.
//! 3. The disabled instrumentation costs < 2% of a compression run even
//!    at 10⁴ metric updates (near-zero-cost when off) — and the same
//!    holds for the histogram path against a vertical (vt) mining run.
//! 4. Histogram bucket vectors — not just counts and sums — are
//!    bit-identical at 1/2/4/8 threads on the weather and connect4
//!    analogs, for every registry-invariant histogram.

use gogreen::obs::histogram::{self, Histogram};
use gogreen::obs::{measure, metrics, Recorder};
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_util::{Json, Stopwatch};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn weather() -> (TransactionDb, PatternSet) {
    let preset = DatasetPreset::new(PresetKind::Weather, 0.005);
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    (db, fp)
}

/// Runs one compress + recycle + session-relaxation round at `threads`
/// and returns the thread-invariant counter totals.
fn invariant_counters(db: &TransactionDb, threads: usize) -> Vec<(&'static str, u64)> {
    let ((), snap) = measure(|| {
        let mut session = gogreen::core::session::MiningSession::new(db.clone())
            .with_engine(Family::Fp)
            .with_threads(threads);
        session.run(gogreen_constraints::ConstraintSet::support_only(MinSupport::percent(5.0)));
        // Relaxed: compresses with round 1's patterns and recycles them.
        session.run(gogreen_constraints::ConstraintSet::support_only(MinSupport::percent(2.0)));
    });
    snap.metrics
        .into_iter()
        .filter(|(name, _)| metrics::is_thread_invariant(name))
        .map(|(name, m)| (name, m.value))
        .collect()
}

#[test]
fn counter_totals_identical_across_thread_counts() {
    let (db, _) = weather();
    let serial = invariant_counters(&db, 1);
    let threaded = invariant_counters(&db, 4);
    // The interesting counters actually fired…
    for required in ["mine.candidate_tests", "mine.group_hits", "compress.runs", "session.rounds"] {
        assert!(
            serial.iter().any(|&(n, v)| n == required && v > 0),
            "counter {required} missing from {serial:?}"
        );
    }
    // …and parallelism changed none of them.
    assert_eq!(serial, threaded);
}

/// A trace writer into a shared buffer.
struct Buf(Arc<Mutex<Vec<u8>>>);
impl Write for Buf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn span_jsonl_round_trips_with_parent_links() {
    let (db, fp) = weather();
    let buf = Arc::new(Mutex::new(Vec::new()));
    Recorder::new().with_trace(Box::new(Buf(buf.clone()))).install();
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    let patterns = Family::Hm.mine(&cdb, MinSupport::percent(2.0));
    drop(Recorder::uninstall());
    assert!(!patterns.is_empty());

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("valid JSONL")).collect();
    assert!(!spans.is_empty());
    let by_name = |name: &str| {
        spans
            .iter()
            .find(|j| j.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no span {name:?} in:\n{text}"))
    };
    let compress = by_name("compress");
    let cover = by_name("cover");
    let mine = by_name("mine");
    // The cover sweep nests inside compress; both top-level phases have
    // no parent here (no enclosing session round).
    assert_eq!(cover.get("parent"), compress.get("id"));
    assert_eq!(compress.get("parent"), Some(&Json::Null));
    assert_eq!(mine.get("parent"), Some(&Json::Null));
    // Fields survive the round-trip with their values.
    let fields = compress.get("fields").expect("compress fields");
    assert_eq!(fields.get("strategy").and_then(Json::as_str), Some("MCP"));
    assert_eq!(fields.get("tuples").and_then(Json::as_u64), Some(db.len() as u64));
    assert_eq!(
        mine.get("fields").and_then(|f| f.get("patterns")).and_then(Json::as_u64),
        Some(patterns.len() as u64)
    );
    for sp in &spans {
        assert_eq!(sp.get("type").and_then(Json::as_str), Some("span"));
        assert!(sp.get("dur_us").and_then(Json::as_u64).is_some());
    }
}

#[test]
fn disabled_instrumentation_is_nearly_free() {
    assert!(!metrics::enabled(), "a test thread starts without a recorder");
    let (db, fp) = weather();
    let compressor = Compressor::new(Strategy::Mcp);

    // Warm up, then time the compress run (itself full of disabled
    // metric/span calls) and 10⁴ explicit disabled updates.
    std::hint::black_box(compressor.compress(&db, &fp));
    let mut watch = Stopwatch::started();
    std::hint::black_box(compressor.compress(&db, &fp));
    let compress_time = watch.lap();
    for k in 0..10_000u64 {
        metrics::add("obs.disabled_probe", k);
        metrics::set_max("obs.disabled_probe_max", k);
    }
    let overhead = watch.lap();

    assert!(metrics::snapshot().is_empty(), "disabled add must record nothing");
    // < 2% of the run, with an absolute floor so scheduler noise on a
    // fast compress cannot flake the assertion.
    let budget = std::cmp::max(compress_time.mul_f64(0.02), std::time::Duration::from_millis(2));
    assert!(
        overhead < budget,
        "10k disabled updates took {overhead:?}, budget {budget:?} (compress {compress_time:?})"
    );

    // Same story on the vertical engine and the histogram path: a vt
    // mining run is full of disabled `histogram::observe` calls (tidset
    // word counts, projected sizes), and 10⁴ explicit disabled observes
    // must stay under the same 2% budget.
    let vt = Family::Vt(VtRepr::Auto);
    let mut sink = CountSink::new();
    vt.mine_into_par(&db, MinSupport::percent(5.0), Parallelism::serial(), &mut sink);
    let mut watch = Stopwatch::started();
    let mut sink = CountSink::new();
    vt.mine_into_par(&db, MinSupport::percent(5.0), Parallelism::serial(), &mut sink);
    let vt_time = watch.lap();
    for k in 0..10_000u64 {
        histogram::observe("obs.disabled_probe_hist", k);
    }
    let hist_overhead = watch.lap();
    assert!(sink.count() > 0);
    assert!(Recorder::uninstall().is_none(), "disabled observe must install nothing");
    let budget = std::cmp::max(vt_time.mul_f64(0.02), std::time::Duration::from_millis(2));
    assert!(
        hist_overhead < budget,
        "10k disabled observes took {hist_overhead:?}, budget {budget:?} (vt mine {vt_time:?})"
    );
}

/// Mines `db` fresh and recycled on the hmine and vt engines at
/// `threads` and returns the registry-invariant histogram totals.
fn invariant_histograms(
    db: &TransactionDb,
    cdb: &gogreen::core::cdb::CompressedDb,
    xi_new: MinSupport,
    threads: usize,
) -> Vec<(&'static str, Histogram)> {
    let par = Parallelism::threads(threads);
    let ((), snap) = measure(|| {
        for family in [Family::Hm, Family::Vt(VtRepr::Auto)] {
            let mut sink = CountSink::new();
            family.mine_into_par(db, xi_new, par, &mut sink);
            let mut sink = CountSink::new();
            family.mine_into_par(cdb, xi_new, par, &mut sink);
        }
    });
    snap.hists.into_iter().filter(|(name, _)| metrics::is_thread_invariant(name)).collect()
}

#[test]
fn histogram_buckets_identical_across_thread_counts() {
    for kind in [PresetKind::Weather, PresetKind::Connect4] {
        let preset = DatasetPreset::new(kind, 0.005);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        let xi_new = *preset.sweep().last().expect("non-empty sweep");
        let serial = invariant_histograms(&db, &cdb, xi_new, 1);
        // The horizontal and vertical shape histograms actually fired…
        for required in ["mine.projected_db_size", "mine.tidset_words"] {
            assert!(
                serial.iter().any(|(n, h)| *n == required && h.count > 0),
                "{required} missing on {} from {:?}",
                preset.name(),
                serial.iter().map(|(n, _)| n).collect::<Vec<_>>()
            );
        }
        // …and every bucket vector (Histogram's PartialEq covers all 65
        // buckets, count and sum) is identical at any fan-out.
        for threads in [2usize, 4, 8] {
            let threaded = invariant_histograms(&db, &cdb, xi_new, threads);
            assert_eq!(serial, threaded, "{} at {threads} threads", preset.name());
        }
    }
}
