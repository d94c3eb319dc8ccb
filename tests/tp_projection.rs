//! Differential tests for TreeProjection's projections. The root
//! projects through a rank → member-rows index shared by every fan-out
//! worker; a deeper node projects its children in ascending extension
//! order through forward cursors, restarted at each new node. A child
//! with a single frequent extension is not projected at all: its one
//! pattern comes from the parent's pair matrix.
//!
//! On the weather and connect4 analogs, at every sweep `ξ_new`, raw and
//! MCP-/MLP-recycled TreeProjection must, at 1, 3 and 4 threads,
//!
//! 1. find exactly H-Mine's pattern set;
//! 2. emit the same stream and the same `mine.*` counters at any thread
//!    count. Three threads hand a worker root units that are not
//!    consecutive, so its index reads skip extensions between units.
//!
//! On databases with no repeated row, raw TreeProjection must project
//! exactly the itemsets that branch: the frequent itemsets with two or
//! more frequent one-item extensions later in F-list order, counted
//! from the Apriori oracle.

mod common;

use common::{as_set, stream_of, Stream};
use gogreen::data::CompressedRankDb;
use gogreen::miners::Apriori;
use gogreen::obs::{measure, MetricsSnapshot};
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;
use gogreen::util::{FxHashMap, FxHashSet};
use gogreen_datagen::{DatasetPreset, PresetKind};

/// Mines `db` with TreeProjection at `threads`, returning the stream and
/// the `mine.*` counters of the run.
fn run<D>(db: &D, ms: MinSupport, threads: usize) -> (Stream, Vec<(&'static str, u64)>)
where
    Family: Miner<D>,
{
    let par = Parallelism::threads(threads);
    let (stream, snap): (Stream, MetricsSnapshot) =
        measure(|| stream_of(&mut |sink| Family::Tp.mine_into_par(db, ms, par, sink)));
    let counters = snap
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("mine."))
        .map(|(&name, m)| (name, m.value))
        .collect();
    (stream, counters)
}

/// Checks one database at one threshold against H-Mine's set and across
/// thread counts.
fn check<D>(name: &str, db: &D, xi: MinSupport, hmine: &PatternSet)
where
    Family: Miner<D>,
{
    let (serial, serial_counters) = run(db, xi, 1);
    assert!(as_set(&serial).same_patterns_as(hmine), "{name}: set differs from H-Mine");
    for threads in [3, 4] {
        let (stream, counters) = run(db, xi, threads);
        assert!(serial == stream, "{name}: stream differs at {threads} threads");
        assert_eq!(
            serial_counters, counters,
            "{name}: mine.* counters differ at {threads} threads"
        );
    }
}

#[test]
fn tp_matches_hmine_raw_and_recycled_at_any_thread_count() {
    for kind in [PresetKind::Weather, PresetKind::Connect4] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp_old = Family::Hm.mine(&db, preset.xi_old());
        let cdbs = [Strategy::Mcp, Strategy::Mlp]
            .map(|strategy| (strategy, Compressor::new(strategy).compress(&db, &fp_old)));
        for xi in preset.sweep() {
            let hmine = Family::Hm.mine(&db, xi);
            assert!(!hmine.is_empty(), "{} ξ_new={xi:?}: H-Mine found nothing", preset.name());
            check(&format!("{} raw ξ_new={xi:?}", preset.name()), &db, xi, &hmine);
            for (strategy, cdb) in &cdbs {
                let name = format!("{} {strategy:?} ξ_new={xi:?}", preset.name());
                check(&name, cdb, xi, &hmine);
            }
        }
    }
}

/// `db`'s transactions cut to their items frequent at `minsup`, each
/// distinct cut row kept once; repeated until a pass changes nothing, so
/// every item left is frequent and no encoded row repeats.
fn distinct_frequent_rows(db: &TransactionDb, minsup: u64) -> TransactionDb {
    let mut rows: Vec<Vec<u32>> = db.iter().map(|t| t.iter().map(|i| i.0).collect()).collect();
    loop {
        let mut support: FxHashMap<u32, u64> = FxHashMap::default();
        for &x in rows.iter().flatten() {
            *support.entry(x).or_default() += 1;
        }
        let mut seen = FxHashSet::default();
        let cut: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| r.iter().copied().filter(|x| support[x] >= minsup).collect::<Vec<_>>())
            .filter(|r| !r.is_empty() && seen.insert(r.clone()))
            .collect();
        if cut == rows {
            let rows: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
            return TransactionDb::from_rows(&rows);
        }
        rows = cut;
    }
}

/// The frequent itemsets of `oracle` that have two or more frequent
/// one-item extensions later in F-list order: the lexicographic nodes
/// with a pair to count. An itemset's parent is itself less its item
/// latest in F-list order.
fn branching_itemsets(oracle: &PatternSet, flist: &FList) -> usize {
    let mut children: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
    for p in oracle.iter().filter(|p| p.len() >= 2) {
        let mut ranks: Vec<u32> = p.items().iter().map(|&i| flist.rank_of(i).unwrap()).collect();
        ranks.sort_unstable();
        ranks.pop();
        *children.entry(ranks).or_default() += 1;
    }
    children.values().filter(|&&n| n >= 2).count()
}

#[test]
fn raw_tp_projects_exactly_the_itemsets_that_branch() {
    for kind in [PresetKind::Weather, PresetKind::Forest] {
        let preset = DatasetPreset::new(kind, 0.01);
        let generated = preset.generate();
        let xi = *preset.sweep().last().unwrap();
        let minsup = xi.to_absolute(generated.len());
        let db = distinct_frequent_rows(&generated, minsup);
        let flist = FList::from_db(&db, minsup);
        let merged = CompressedRankDb::encode(&db, &flist).merge_repeats();
        assert_eq!(merged.num_groups(), 0, "{}: the database repeats a row", preset.name());
        let oracle = Apriori.mine(&db, MinSupport::Absolute(minsup));
        let want = branching_itemsets(&oracle, &flist) as u64;
        assert!(want > 0, "{}: no itemset branches", preset.name());
        for threads in [1, 4] {
            let (stream, counters) = run(&db, MinSupport::Absolute(minsup), threads);
            assert!(as_set(&stream).same_patterns_as(&oracle), "{}: set differs", preset.name());
            let got = counters.iter().find(|(name, _)| *name == "mine.projected_dbs");
            assert_eq!(
                got.map(|&(_, n)| n),
                Some(want),
                "{} at {threads} threads: mine.projected_dbs",
                preset.name()
            );
        }
    }
}
