//! Differential tests for the parallel mining phase: at any thread count
//! the emitted pattern stream must be *byte-identical* to the serial run
//! (same patterns, same supports, same order), and every `mine.*`
//! counter total must be *bit-identical* — parallelism redistributes the
//! work without changing it.
//!
//! Covers all baseline miners on the raw weather analog and all
//! recycling miners on both an uncompressed view and an MCP-compressed
//! database.

use gogreen::data::FnSink;
use gogreen::obs::measure;
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;
use gogreen_datagen::{DatasetPreset, PresetKind};

const XI_NEW: MinSupport = MinSupport::Relative(0.02);

fn weather() -> (TransactionDb, CompressedDb) {
    let preset = DatasetPreset::new(PresetKind::Weather, 0.005);
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    (db, cdb)
}

/// The census analog at its own sweep floor (75% — pumsb supports are
/// two orders above weather's; relaxing further explodes the lattice):
/// the regime where the adaptive engine mixes representations per node.
fn pumsb() -> (TransactionDb, CompressedDb, MinSupport) {
    let preset = DatasetPreset::new(PresetKind::Pumsb, 0.005);
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    let xi_new = *preset.sweep().last().expect("pumsb sweep");
    (db, cdb, xi_new)
}

/// The exact emission sequence of one mining run.
type Stream = Vec<(Vec<Item>, u64)>;

fn stream_of(f: &mut dyn FnMut(&mut dyn PatternSink)) -> Stream {
    let mut out: Stream = Vec::new();
    {
        let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
        f(&mut sink);
    }
    out
}

fn assert_streams_match(serial: &Stream, name: &str, mut run: impl FnMut(Parallelism) -> Stream) {
    assert!(!serial.is_empty(), "{name}: serial run emitted nothing");
    for threads in [2usize, 4, 8] {
        let par = run(Parallelism::threads(threads));
        assert_eq!(serial.len(), par.len(), "{name} at {threads} threads: stream length");
        assert!(serial == &par, "{name} at {threads} threads: stream diverged from serial");
    }
}

#[test]
fn baseline_miner_streams_identical_across_thread_counts() {
    let (db, _) = weather();
    for m in Family::ALL {
        let serial =
            stream_of(&mut |sink| m.mine_into_par(&db, XI_NEW, Parallelism::serial(), sink));
        assert_streams_match(&serial, m.name(), |par| {
            stream_of(&mut |sink| m.mine_into_par(&db, XI_NEW, par, sink))
        });
    }
}

#[test]
fn recycling_miner_streams_identical_across_thread_counts() {
    let (db, cdb) = weather();
    let raw = CompressedDb::uncompressed(&db);
    let mut miners: Vec<Box<dyn Miner<CompressedDb>>> =
        Family::ALL.map(|f| Box::new(f) as Box<dyn Miner<_>>).into();
    miners.push(Box::new(RpMine::default()));
    for m in &miners {
        for (label, view) in [("uncompressed", &raw), ("MCP", &cdb)] {
            let serial =
                stream_of(&mut |sink| m.mine_into_par(view, XI_NEW, Parallelism::serial(), sink));
            assert_streams_match(&serial, &format!("{} on {label}", m.name()), |par| {
                stream_of(&mut |sink| m.mine_into_par(view, XI_NEW, par, sink))
            });
        }
    }
}

/// The vertical family under every `--vt-repr` mode, raw and recycled,
/// on the sparse weather and pumsb analogs: every forced representation
/// must emit the byte-identical stream the adaptive default emits, at
/// every thread count.
#[test]
fn vt_repr_streams_identical_across_modes_and_threads() {
    let (wdb, wcdb) = weather();
    for (db, cdb, xi) in [(wdb, wcdb, XI_NEW), pumsb()] {
        let mut raw_first: Option<Stream> = None;
        let mut rec_first: Option<Stream> = None;
        for repr in VtRepr::ALL {
            let raw = Family::Vt(repr);
            let serial =
                stream_of(&mut |sink| raw.mine_into_par(&db, xi, Parallelism::serial(), sink));
            assert_streams_match(&serial, &format!("Eclat --vt-repr {repr}"), |par| {
                stream_of(&mut |sink| raw.mine_into_par(&db, xi, par, sink))
            });
            assert_eq!(
                &serial,
                raw_first.get_or_insert_with(|| serial.clone()),
                "Eclat --vt-repr {repr}: stream differs across modes"
            );
            let rec = Family::Vt(repr);
            let serial =
                stream_of(&mut |sink| rec.mine_into_par(&cdb, xi, Parallelism::serial(), sink));
            assert_streams_match(&serial, &format!("VT-recycle --vt-repr {repr}"), |par| {
                stream_of(&mut |sink| rec.mine_into_par(&cdb, xi, par, sink))
            });
            assert_eq!(
                &serial,
                rec_first.get_or_insert_with(|| serial.clone()),
                "VT-recycle --vt-repr {repr}: stream differs across modes"
            );
        }
    }
}

/// Runs every miner once at `threads` and returns all `mine.*` counter
/// totals.
fn mine_counters(
    db: &TransactionDb,
    cdb: &CompressedDb,
    threads: usize,
) -> Vec<(&'static str, u64)> {
    let par = Parallelism::threads(threads);
    let ((), snap) = measure(|| {
        let mut sink = FnSink(|_: &[Item], _: u64| {});
        for m in Family::ALL {
            m.mine_into_par(db, XI_NEW, par, &mut sink);
        }
        for m in Family::ALL {
            m.mine_into_par(cdb, XI_NEW, par, &mut sink);
        }
        RpMine::default().mine_into_par(cdb, XI_NEW, par, &mut sink);
    });
    snap.metrics
        .into_iter()
        .filter(|(name, _)| name.starts_with("mine."))
        .map(|(name, m)| (name, m.value))
        .collect()
}

#[test]
fn mine_counters_bit_identical_across_thread_counts() {
    let (db, cdb) = weather();
    let serial = mine_counters(&db, &cdb, 1);
    let threaded = mine_counters(&db, &cdb, 4);
    for required in [
        "mine.candidate_tests",
        "mine.tuple_touches",
        "mine.projected_dbs",
        "mine.max_depth",
        "mine.bitmap_words_scanned",
    ] {
        assert!(
            serial.iter().any(|&(n, v)| n == required && v > 0),
            "counter {required} missing from {serial:?}"
        );
    }
    assert_eq!(serial, threaded);
}
