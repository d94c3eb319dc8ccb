//! Differential suite for the flat (CSR + arena) datapath: the memory
//! layout is an implementation detail, so every miner must emit a
//! *byte-identical* pattern stream over every substrate view — raw,
//! MCP-compressed, MLP-compressed — at any thread count, and the
//! `mine.*` / `alloc.*` counters must be bit-identical between thread
//! counts. The spill codec's CSR group records must survive an
//! encode/decode round-trip and fail loudly on corrupt bytes.

use gogreen::data::FnSink;
use gogreen::obs::{measure, metrics};
use gogreen::prelude::*;
use gogreen::storage::codec::{ByteReader, DecodeError, SpillRecord};
use gogreen::util::pool::Parallelism;
use gogreen_datagen::{DatasetPreset, PresetKind};

const XI_NEW: MinSupport = MinSupport::Relative(0.02);

/// Raw database plus one compressed view per strategy family.
fn substrates() -> (TransactionDb, CompressedDb, CompressedDb) {
    let preset = DatasetPreset::new(PresetKind::Weather, 0.005);
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    let mcp = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    let mlp = Compressor::new(Strategy::Mlp).compress(&db, &fp);
    (db, mcp, mlp)
}

type Stream = Vec<(Vec<Item>, u64)>;

fn stream_of(f: &mut dyn FnMut(&mut dyn PatternSink)) -> Stream {
    let mut out: Stream = Vec::new();
    {
        let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
        f(&mut sink);
    }
    out
}

/// All 7 miners, every substrate each supports, threads 1 vs 4: the
/// stream must not move by a byte.
#[test]
fn all_miners_identical_on_every_substrate() {
    let (db, mcp, mlp) = substrates();
    let raw = CompressedDb::uncompressed(&db);

    let baselines: Vec<Box<dyn Miner>> =
        vec![Box::new(Family::Hm), Box::new(Family::Fp), Box::new(Family::Tp)];
    for m in &baselines {
        let serial =
            stream_of(&mut |sink| m.mine_into_par(&db, XI_NEW, Parallelism::serial(), sink));
        let par =
            stream_of(&mut |sink| m.mine_into_par(&db, XI_NEW, Parallelism::threads(4), sink));
        assert!(!serial.is_empty(), "{}: serial run emitted nothing", m.name());
        assert!(serial == par, "{}: stream diverged at 4 threads", m.name());
    }

    let recyclers: Vec<Box<dyn Miner<CompressedDb>>> = vec![
        Box::new(Family::Hm),
        Box::new(Family::Fp),
        Box::new(Family::Tp),
        Box::new(RpMine::default()),
    ];
    for m in &recyclers {
        let mut oracle: Option<PatternSet> = None;
        for (label, view) in [("raw", &raw), ("MCP", &mcp), ("MLP", &mlp)] {
            let serial =
                stream_of(&mut |sink| m.mine_into_par(view, XI_NEW, Parallelism::serial(), sink));
            let par =
                stream_of(&mut |sink| m.mine_into_par(view, XI_NEW, Parallelism::threads(4), sink));
            assert!(!serial.is_empty(), "{} on {label}: serial run emitted nothing", m.name());
            assert!(serial == par, "{} on {label}: stream diverged at 4 threads", m.name());
            // Substrates may reorder the stream but never change the set.
            let set: PatternSet =
                serial.iter().map(|(items, sup)| Pattern::new(items.clone(), *sup)).collect();
            match &oracle {
                None => oracle = Some(set),
                Some(o) => {
                    assert!(set.same_patterns_as(o), "{} on {label}: pattern set moved", m.name())
                }
            }
        }
    }
}

/// Runs every miner once at `threads`; returns all `mine.*` and
/// `alloc.*` totals.
fn counters(db: &TransactionDb, cdb: &CompressedDb, threads: usize) -> Vec<(&'static str, u64)> {
    let par = Parallelism::threads(threads);
    let ((), snap) = measure(|| {
        let mut sink = FnSink(|_: &[Item], _: u64| {});
        for m in [Family::Hm, Family::Fp, Family::Tp] {
            m.mine_into_par(db, XI_NEW, par, &mut sink);
        }
        let recyclers: [&dyn Miner<CompressedDb>; 4] =
            [&Family::Hm, &Family::Fp, &Family::Tp, &RpMine::default()];
        for m in recyclers {
            m.mine_into_par(cdb, XI_NEW, par, &mut sink);
        }
    });
    snap.metrics
        .into_iter()
        .filter(|(name, _)| name.starts_with("mine.") || name.starts_with("alloc."))
        .map(|(name, m)| (name, m.value))
        .collect()
}

/// The arena accounting counts *used* bytes per projection, so worker
/// count cannot move `alloc.*` — and `mine.*` stays bit-identical as
/// before the flat layout.
#[test]
fn alloc_and_mine_counters_thread_invariant() {
    let (db, mcp, _) = substrates();
    let serial = counters(&db, &mcp, 1);
    let threaded = counters(&db, &mcp, 4);
    for required in ["alloc.projection_bytes", "alloc.arena_reuses", "mine.candidate_tests"] {
        assert!(metrics::is_thread_invariant(required));
        assert!(
            serial.iter().any(|&(n, v)| n == required && v > 0),
            "counter {required} missing from {serial:?}"
        );
    }
    assert_eq!(serial, threaded);
}

/// The database's CSR storage is faithful: rows come back exactly as
/// pushed, via both the row iterator and the borrowed window.
#[test]
fn csr_storage_round_trips_tuples() {
    let db = TransactionDb::paper_example();
    let rows: Vec<Vec<Item>> = db.iter().map(|t| t.to_vec()).collect();
    assert_eq!(rows.len(), db.len());
    let view = db.tuples();
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(db.tuple(i), row.as_slice());
        assert_eq!(view.row(i), row.as_slice());
    }
    assert_eq!(view.flat().len(), rows.iter().map(Vec::len).sum::<usize>());
}

fn csr(rows: &[&[u32]]) -> CsrTuples<u32> {
    let mut c = CsrTuples::new();
    for r in rows {
        c.push_row(r);
    }
    c
}

/// Spill records with CSR outlier slabs survive an encode/decode
/// round-trip in a mixed stream.
#[test]
fn spill_codec_round_trips_csr_groups() {
    let records = vec![
        SpillRecord::Plain(vec![1, 4, 9]),
        SpillRecord::Group { pattern: vec![2, 5], bare: 3, outliers: csr(&[&[6], &[7, 8]]) },
        SpillRecord::Group { pattern: vec![0], bare: 0, outliers: CsrTuples::new() },
        SpillRecord::Plain(vec![0]),
    ];
    let mut buf = Vec::new();
    for r in &records {
        r.encode(&mut buf);
    }
    let mut reader = ByteReader::new(&buf);
    let mut back = Vec::new();
    while let Some(r) = SpillRecord::decode(&mut reader).expect("clean buffer decodes") {
        back.push(r);
    }
    assert_eq!(back, records);
}

/// Corruption surfaces as a structured error, never a panic or a
/// silently wrong record: bad tags, and truncation at every byte.
#[test]
fn spill_codec_rejects_corruption() {
    let mut buf = Vec::new();
    SpillRecord::Group { pattern: vec![3], bare: 2, outliers: csr(&[&[5, 6], &[7]]) }
        .encode(&mut buf);
    // Every proper prefix is a truncation error.
    for cut in 1..buf.len() {
        let mut b = ByteReader::new(&buf[..cut]);
        let got = SpillRecord::decode(&mut b);
        assert!(matches!(got, Err(DecodeError::Truncated { .. })), "cut={cut}: {got:?}");
    }
    // A flipped tag byte is a BadTag at its offset.
    let mut bad = buf.clone();
    bad[0] = 0xEE;
    let mut b = ByteReader::new(&bad);
    assert_eq!(SpillRecord::decode(&mut b), Err(DecodeError::BadTag { offset: 0, tag: 0xEE }));
}
