//! Differential tests for the unified engines: each algorithm family is
//! written once, generically over `GroupedSource`, and instantiated on
//! two substrates — the degenerate `PlainRanks` view (raw mining) and
//! the real `CompressedRankDb` (recycled mining). This suite pins the
//! unification down three ways per family:
//!
//! 1. the raw miner equals the Apriori oracle;
//! 2. mining an *uncompressed* compressed database (every tuple in the
//!    plain partition, zero groups) emits the **byte-identical stream**
//!    the raw miner emits — the degenerate substrate is a view, not a
//!    different algorithm;
//! 3. MCP- and MLP-compressed databases mine to the oracle set too,
//!    serial and at 4 threads.

use gogreen::core::oracle;
use gogreen::data::FnSink;
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;

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

fn as_set(stream: &Stream) -> PatternSet {
    stream.iter().map(|(items, sup)| Pattern::new(items.clone(), *sup)).collect()
}

/// A database with shared prefixes, identical tuples (bare group
/// members), and items that fall in and out of frequency across
/// thresholds.
fn structured_db() -> TransactionDb {
    TransactionDb::from_rows(&[
        &[1, 2, 3, 4],
        &[1, 2, 3, 5],
        &[1, 2, 4, 5],
        &[2, 3, 4, 5],
        &[1, 2, 3],
        &[1, 2, 3],
        &[1, 2],
        &[4, 5],
        &[4, 5, 6],
        &[1, 6],
    ])
}

/// A raw miner and its recycled counterpart.
type Pair = (&'static str, Box<dyn Miner>, Box<dyn Miner<CompressedDb>>);

/// Every raw/recycled pair: the four families, then the naive oracle
/// pair (NaiveProjection / RP-Mine). Apriori has no recycled
/// counterpart.
fn pairs() -> Vec<Pair> {
    let mut pairs: Vec<Pair> = Family::ALL
        .into_iter()
        .map(|f| (f.key(), Box::new(f) as Box<dyn Miner>, Box::new(f) as Box<dyn Miner<_>>))
        .collect();
    pairs.push(("naive", oracle::raw("naive").unwrap(), oracle::recycling("naive").unwrap()));
    pairs
}

#[test]
fn registry_pairs_every_family() {
    let keys: Vec<&str> = pairs().iter().map(|p| p.0).collect();
    assert_eq!(keys, vec!["hmine", "fp", "tp", "vt", "naive"]);
    assert_eq!(Family::ALL.map(Family::aliases), [&["hm"][..], &[], &[], &["eclat"]]);
    assert!(oracle::recycling("apriori").is_none());
}

/// A dense connect4-style analog: few distinct items, long tuples, heavy
/// overlap — the regime where tidset bitmaps stay word-dense and the
/// vertical engine's chain shortcut and bound pruning matter most. Every
/// family must stay exact and thread-invariant here too.
fn dense_analog_db() -> TransactionDb {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for i in 0..90u32 {
        // Ten base items, each row dropping two rotating positions plus
        // a sparse tail item: supports cluster near the top like a
        // game-position database.
        let mut r: Vec<u32> =
            (0..10u32).filter(|&x| x != i % 10 && x != (i * 3 + 1) % 10).collect();
        if i % 9 == 0 {
            r.push(10 + i % 4);
        }
        rows.push(r);
    }
    let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
    TransactionDb::from_rows(&row_refs)
}

#[test]
fn dense_analog_is_exact_for_every_family() {
    use gogreen::core::Compressor;
    let db = dense_analog_db();
    let fp_old = mine_apriori(&db, MinSupport::Absolute(60));
    for (key, raw_miner, rec_miner) in pairs() {
        for minsup in [30u64, 50, 70] {
            let ms = MinSupport::Absolute(minsup);
            let oracle = mine_apriori(&db, ms);
            let raw = stream_of(&mut |sink| {
                raw_miner.mine_into_par(&db, ms, Parallelism::serial(), sink)
            });
            assert!(
                as_set(&raw).same_patterns_as(&oracle),
                "{key} raw ξ={minsup}: {} vs oracle {}",
                raw.len(),
                oracle.len()
            );
            for strategy in [Strategy::Mcp, Strategy::Mlp] {
                let cdb = Compressor::new(strategy).compress(&db, &fp_old);
                for threads in [1usize, 4] {
                    let par = Parallelism::threads(threads);
                    let got = stream_of(&mut |sink| rec_miner.mine_into_par(&cdb, ms, par, sink));
                    assert!(
                        as_set(&got).same_patterns_as(&oracle),
                        "{key} {strategy:?} ξ={minsup} t={threads}"
                    );
                }
            }
        }
    }
}

/// A sparse pumsb-style analog: a wide universe (census categories),
/// short tuples, and a support distribution with a handful of heavy
/// items over a long light tail — the regime where tid-lists beat
/// bitmaps and the adaptive engine switches representations early.
fn sparse_pumsb_analog_db() -> TransactionDb {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for i in 0..240u32 {
        // Two heavy demographic codes most rows share, one mid-frequency
        // band, and a sparse tail over a 200-item universe.
        let mut r = vec![i % 2, 2 + i % 3];
        r.push(5 + i % 12);
        r.push(17 + (i * 7) % 83);
        if i % 4 == 0 {
            r.push(100 + (i * 13) % 100);
        }
        r.sort_unstable();
        r.dedup();
        rows.push(r);
    }
    let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
    TransactionDb::from_rows(&row_refs)
}

/// The vertical family under every `--vt-repr` mode: on both the dense
/// connect4-style and sparse pumsb-style analogs, raw and recycled,
/// every forced representation must emit the byte-identical stream the
/// adaptive default emits (which in turn matches the oracle), serial
/// and threaded alike.
#[test]
fn vt_repr_modes_emit_identical_streams() {
    use gogreen::core::Compressor;
    for (db, xi_old, minsup) in
        [(dense_analog_db(), 60u64, 40u64), (sparse_pumsb_analog_db(), 100, 20)]
    {
        let ms = MinSupport::Absolute(minsup);
        let oracle = mine_apriori(&db, ms);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        let mut raw_auto: Option<Stream> = None;
        let mut rec_auto: Option<Stream> = None;
        for repr in VtRepr::ALL {
            let vt = Family::Vt(repr);
            for threads in [1usize, 4] {
                let par = Parallelism::threads(threads);
                let raw = stream_of(&mut |sink| vt.mine_into_par(&db, ms, par, sink));
                let rec = stream_of(&mut |sink| vt.mine_into_par(&cdb, ms, par, sink));
                assert!(
                    as_set(&raw).same_patterns_as(&oracle),
                    "vt --vt-repr {repr} t={threads}: raw diverges from oracle"
                );
                assert_eq!(
                    &raw,
                    raw_auto.get_or_insert_with(|| raw.clone()),
                    "vt --vt-repr {repr} t={threads}: raw stream differs from auto"
                );
                assert_eq!(
                    &rec,
                    rec_auto.get_or_insert_with(|| rec.clone()),
                    "vt --vt-repr {repr} t={threads}: recycled stream differs from auto"
                );
            }
        }
    }
}

#[test]
fn raw_and_degenerate_grouped_streams_are_identical() {
    for db in [TransactionDb::paper_example(), structured_db()] {
        let cdb = CompressedDb::uncompressed(&db);
        for (key, raw_miner, rec_miner) in pairs() {
            for minsup in [1, 2, 3] {
                let ms = MinSupport::Absolute(minsup);
                for threads in [1usize, 4] {
                    let par = Parallelism::threads(threads);
                    let raw = stream_of(&mut |sink| raw_miner.mine_into_par(&db, ms, par, sink));
                    let grouped =
                        stream_of(&mut |sink| rec_miner.mine_into_par(&cdb, ms, par, sink));
                    assert_eq!(
                        raw, grouped,
                        "{key} ξ={minsup} t={threads}: raw and degenerate streams differ"
                    );
                    let oracle = mine_apriori(&db, ms);
                    assert!(
                        as_set(&raw).same_patterns_as(&oracle),
                        "{key} ξ={minsup} t={threads}: raw diverges from oracle"
                    );
                }
            }
        }
    }
}

#[test]
fn compressed_mining_matches_oracle_for_both_strategies() {
    use gogreen::core::Compressor;
    for db in [TransactionDb::paper_example(), structured_db()] {
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            for xi_old in [3u64, 4] {
                let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
                let cdb = Compressor::new(strategy).compress(&db, &fp_old);
                for (key, _, rec_miner) in pairs() {
                    for minsup in [1u64, 2, 3] {
                        let ms = MinSupport::Absolute(minsup);
                        let oracle = mine_apriori(&db, ms);
                        for threads in [1usize, 4] {
                            let par = Parallelism::threads(threads);
                            let got =
                                stream_of(&mut |sink| rec_miner.mine_into_par(&cdb, ms, par, sink));
                            assert!(
                                as_set(&got).same_patterns_as(&oracle),
                                "{key} {strategy:?} ξ_old={xi_old} ξ={minsup} t={threads}: \
                                 {} vs oracle {}",
                                got.len(),
                                oracle.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn recycled_streams_are_thread_invariant() {
    use gogreen::core::Compressor;
    let db = structured_db();
    let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    for (key, _, rec_miner) in pairs() {
        let ms = MinSupport::Absolute(2);
        let serial =
            stream_of(&mut |sink| rec_miner.mine_into_par(&cdb, ms, Parallelism::serial(), sink));
        for threads in [2usize, 4] {
            let par = Parallelism::threads(threads);
            let threaded = stream_of(&mut |sink| rec_miner.mine_into_par(&cdb, ms, par, sink));
            assert_eq!(serial, threaded, "{key} t={threads}: stream not byte-identical");
        }
    }
}
