//! Differential tests for TreeProjection's projection sweep: a node's
//! children are projected in ascending extension order through forward
//! cursors, and a root fan-out worker rewinds its cursors whenever its
//! next unit is not above its last one.
//!
//! On the weather and connect4 analogs, at every sweep `ξ_new`, raw and
//! MCP-/MLP-recycled TreeProjection must, at 1, 3 and 4 threads,
//!
//! 1. find exactly H-Mine's pattern set;
//! 2. emit the same stream and the same `mine.*` counters at any thread
//!    count. Three threads hand a worker root units that are not
//!    consecutive, so its cursors skip extensions between units.

mod common;

use common::{as_set, stream_of, Stream};
use gogreen::obs::{measure, MetricsSnapshot};
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;
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
