//! Differential tests for recycled FP-growth, whose conditional trees are
//! thresholded at the child node they feed (every group's contribution to
//! the child is counted before any child tree is built).
//!
//! On MCP- and MLP-compressed weather and pumsb analogs, at every sweep
//! `ξ_new`, serial and at 4 threads, recycled FP must
//!
//! 1. find exactly the raw FP-growth pattern set;
//! 2. emit the same stream and the same `mine.*` counters at any thread
//!    count;
//! 3. at the sweep floor, allocate fewer FP-tree nodes than raw
//!    FP-growth — the compression saving reaches the trees.
//!
//! A hand-built compressed database adds the case the threshold exists
//! for: ranks frequent at a node that are infrequent in its child, both
//! inside a residual pattern and inside a conditional base.

mod common;

use common::{as_set, stream_of, Stream};
use gogreen::obs::{measure, MetricsSnapshot};
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;
use gogreen_datagen::{DatasetPreset, PresetKind};

/// Mines `db` with FP-growth at `threads`, returning the stream and the
/// run's own counters.
fn run<D>(db: &D, ms: MinSupport, threads: usize) -> (Stream, MetricsSnapshot)
where
    Family: Miner<D>,
{
    let par = Parallelism::threads(threads);
    measure(|| stream_of(&mut |sink| Family::Fp.mine_into_par(db, ms, par, sink)))
}

fn mine_counters(snap: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    snap.metrics
        .iter()
        .filter(|(name, _)| name.starts_with("mine."))
        .map(|(&name, m)| (name, m.value))
        .collect()
}

#[test]
fn recycled_fp_matches_raw_fp_on_compressed_presets() {
    for kind in [PresetKind::Weather, PresetKind::Pumsb] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp_old = Family::Hm.mine(&db, preset.xi_old());
        let sweep = preset.sweep();
        let floor = *sweep.last().expect("non-empty sweep");
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let cdb = Compressor::new(strategy).compress(&db, &fp_old);
            for &xi in &sweep {
                let name = format!("{} {strategy:?} ξ_new={xi:?}", preset.name());
                let (raw, raw_snap) = run(&db, xi, 1);
                let (serial, serial_snap) = run(&cdb, xi, 1);
                assert!(!raw.is_empty(), "{name}: raw FP found nothing");
                assert!(as_set(&serial).same_patterns_as(&as_set(&raw)), "{name}: sets differ");
                let (threaded, threaded_snap) = run(&cdb, xi, 4);
                assert!(serial == threaded, "{name}: stream differs at 4 threads");
                assert_eq!(
                    mine_counters(&serial_snap),
                    mine_counters(&threaded_snap),
                    "{name}: mine.* counters differ at 4 threads"
                );
                if xi == floor {
                    let nodes = |s: &MetricsSnapshot| s.value("mine.fp_nodes").unwrap_or(0);
                    assert!(
                        nodes(&serial_snap) < nodes(&raw_snap),
                        "{name}: recycled FP built {} nodes, raw FP {}",
                        nodes(&serial_snap),
                        nodes(&raw_snap)
                    );
                }
            }
        }
    }
}

/// A group as `(pattern, outlier row per non-bare member, bare members)`.
type Group<'a> = (&'a [u32], &'a [&'a [u32]], u64);

/// Builds a compressed database from hand-chosen groups and plain rows,
/// together with the raw database it compresses.
fn hand_compressed(groups: &[Group<'_>], plain: &[&[u32]]) -> (TransactionDb, CompressedDb) {
    let items = |ids: &[u32]| ids.iter().map(|&x| Item(x)).collect::<Vec<_>>();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for &(pattern, members, bare) in groups {
        for m in members {
            let mut row = [pattern, m].concat();
            row.sort_unstable();
            rows.push(row);
        }
        rows.extend((0..bare).map(|_| pattern.to_vec()));
    }
    rows.extend(plain.iter().map(|r| r.to_vec()));
    let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
    let db = TransactionDb::from_rows(&row_refs);
    let mut cdb = CompressedDb::empty(rows.iter().map(Vec::len).sum());
    for &(pattern, members, bare) in groups {
        let outliers: Vec<Vec<Item>> = members.iter().map(|m| items(m)).collect();
        cdb.push_group(&items(pattern), outliers.iter().map(Vec::as_slice), bare);
    }
    for r in plain {
        cdb.push_plain(&items(r));
    }
    (db, cdb)
}

/// Item supports 5, 6, …, 10 for items 1, 2, …, 6, so item `x` has rank
/// `x − 1`. At ξ = 3, projecting the root on item 1 (support 5) must
/// drop ranks that are frequent at the root but not under item 1:
///
/// * group {1, 4, 5, 6} ×2 follows whole, but item 6 co-occurs with
///   item 1 only there (support 2), so it leaves the residual pattern;
/// * group {5}'s members {1, 2, 3}, {1, 3}, {1, 4} put items 2, 3 and 4
///   in item 1's conditional base; items 2 and 3 reach only support 1
///   and 2 under item 1, so only item 4 (2 + 1 = 3) enters the child
///   tree.
fn infrequent_in_child_fixture() -> (TransactionDb, CompressedDb) {
    hand_compressed(
        &[(&[1, 4, 5, 6], &[], 2), (&[6], &[], 8), (&[5], &[&[1, 2, 3], &[1, 3], &[1, 4]], 0)],
        &[&[2, 3, 4, 5], &[2, 3, 4, 5], &[2, 3, 4, 5], &[2, 3, 4, 5], &[2, 3, 4]],
    )
}

#[test]
fn ranks_infrequent_in_the_child_are_dropped_exactly() {
    let (db, cdb) = infrequent_in_child_fixture();
    let supports: Vec<u64> = (1..=6).map(|x| db.support_of(&[Item(x)])).collect();
    assert_eq!(supports, [5, 6, 7, 8, 9, 10]);
    for minsup in 1..=6 {
        let ms = MinSupport::Absolute(minsup);
        let oracle = mine_apriori(&db, ms);
        let (serial, _) = run(&cdb, ms, 1);
        assert!(as_set(&serial).same_patterns_as(&oracle), "ξ={minsup}: differs from oracle");
        assert_eq!(serial, run(&cdb, ms, 4).0, "ξ={minsup}: stream differs at 4 threads");
    }
}
