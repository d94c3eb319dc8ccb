//! Differential tests for recycled H-Mine's search: every node is
//! projected into a reused per-depth buffer whose groups own ranges of
//! one member slab, over a flat RP-Struct.
//!
//! On the weather, connect4 and pumsb analogs, at every sweep `ξ_new`,
//! MCP- and MLP-recycled H-Mine must, at 1, 3 and 4 threads,
//!
//! 1. find exactly raw H-Mine's and RP-Mine's pattern sets;
//! 2. emit the same stream and the same `mine.*` counters at any thread
//!    count. Three threads hand a worker root units that are not
//!    consecutive, so its child buffer is refilled across gaps.

mod common;

use common::{as_set, stream_of, Stream};
use gogreen::obs::{measure, MetricsSnapshot};
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;
use gogreen_datagen::{DatasetPreset, PresetKind};

/// Mines `cdb` with recycled H-Mine at `threads`, returning the stream
/// and the `mine.*` counters of the run.
fn run(cdb: &CompressedDb, ms: MinSupport, threads: usize) -> (Stream, Vec<(&'static str, u64)>) {
    let par = Parallelism::threads(threads);
    let (stream, snap): (Stream, MetricsSnapshot) =
        measure(|| stream_of(&mut |sink| Family::Hm.mine_into_par(cdb, ms, par, sink)));
    let counters = snap
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("mine."))
        .map(|(&name, m)| (name, m.value))
        .collect();
    (stream, counters)
}

#[test]
fn recycled_hmine_matches_raw_and_rp_mine_at_any_thread_count() {
    for kind in [PresetKind::Weather, PresetKind::Connect4, PresetKind::Pumsb] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp_old = Family::Hm.mine(&db, preset.xi_old());
        let cdbs = [Strategy::Mcp, Strategy::Mlp]
            .map(|strategy| (strategy, Compressor::new(strategy).compress(&db, &fp_old)));
        for xi in preset.sweep() {
            let raw = Family::Hm.mine(&db, xi);
            assert!(!raw.is_empty(), "{} ξ_new={xi:?}: H-Mine found nothing", preset.name());
            for (strategy, cdb) in &cdbs {
                let name = format!("{} {strategy:?} ξ_new={xi:?}", preset.name());
                assert!(cdb.num_groups() > 0, "{name}: nothing compressed");
                let (serial, serial_counters) = run(cdb, xi, 1);
                let found = as_set(&serial);
                assert!(found.same_patterns_as(&raw), "{name}: differs from raw H-Mine");
                let rp = RpMine::default().mine(cdb, xi);
                assert!(found.same_patterns_as(&rp), "{name}: differs from RP-Mine");
                for threads in [3, 4] {
                    let (stream, counters) = run(cdb, xi, threads);
                    assert!(serial == stream, "{name}: stream differs at {threads} threads");
                    assert_eq!(
                        serial_counters, counters,
                        "{name}: mine.* counters differ at {threads} threads"
                    );
                }
            }
        }
    }
}
