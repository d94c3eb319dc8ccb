//! Cross-crate session workflows: the interactive loop the paper's
//! introduction motivates, exercised over every engine, with constraint
//! tightening/relaxing, the shared store, and incremental updates.

use gogreen::core::incremental::IncrementalMiner;
use gogreen::core::session::{MiningSession, RunMode};
use gogreen::core::store::PatternStore;
use gogreen::prelude::*;
use gogreen_constraints::{Constraint, ConstraintSet};
use gogreen_datagen::{DatasetPreset, PositionalGenerator, PresetKind, RegimeGenerator};
use gogreen_miners::mine_apriori;

fn small_db() -> TransactionDb {
    RegimeGenerator {
        num_transactions: 1_500,
        positions: 10,
        values_per_position: 40,
        num_regimes: 5,
        adherence: 0.85,
        adherence_lo: 0.2,
        ..RegimeGenerator::default()
    }
    .generate()
}

#[test]
fn long_session_matches_oracle_on_every_engine() {
    let db = small_db();
    // A realistic meandering session: relax, relax, tighten, revisit.
    let script = [8.0, 5.0, 3.0, 6.0, 3.0, 2.0];
    for engine in Family::ALL {
        let mut session = MiningSession::new(db.clone()).with_engine(engine);
        for pct in script {
            let got = session.run(ConstraintSet::support_only(MinSupport::percent(pct)));
            let want = mine_apriori(&db, MinSupport::percent(pct));
            assert!(
                got.same_patterns_as(&want),
                "{engine:?} @ {pct}%: {} vs {}",
                got.len(),
                want.len()
            );
        }
    }
}

#[test]
fn session_dispatch_modes_follow_the_paper() {
    let db = small_db();
    let mut session = MiningSession::new(db);
    let cs = |p: f64| ConstraintSet::support_only(MinSupport::percent(p));
    let modes: Vec<RunMode> = [5.0, 3.0, 3.0, 7.0, 2.0]
        .into_iter()
        .map(|p| session.run_with_report(cs(p)).1.mode)
        .collect();
    assert_eq!(
        modes,
        vec![
            RunMode::Fresh,    // first query
            RunMode::Recycled, // 5% → 3% relaxation
            RunMode::Cached,   // repeat
            RunMode::Filtered, // 3% → 7% tightening
            RunMode::Recycled, // 7% → 2% relaxation
        ]
    );
}

#[test]
fn constrained_session_relaxation_is_exact() {
    let db = small_db();
    let mut session = MiningSession::new(db.clone());
    let base = ConstraintSet::support_only(MinSupport::percent(4.0)).with(Constraint::MinLength(2));
    session.run(base);
    let relaxed =
        ConstraintSet::support_only(MinSupport::percent(2.0)).with(Constraint::MinLength(2));
    let got = session.run(relaxed);
    let want = mine_apriori(&db, MinSupport::percent(2.0)).filter(|p| p.len() >= 2);
    assert!(got.same_patterns_as(&want));
}

#[test]
fn store_backed_recycling_across_users() {
    let db = DatasetPreset::new(PresetKind::Connect4, 0.0005).generate();
    let store = PatternStore::new();
    // User 1 mines and publishes.
    let xi1 = MinSupport::percent(92.0).to_absolute(db.len());
    store.publish("c4", xi1, Family::Hm.mine(&db, MinSupport::Absolute(xi1)));
    // User 2 publishes a richer set.
    let xi2 = MinSupport::percent(88.0).to_absolute(db.len());
    store.publish("c4", xi2, Family::Hm.mine(&db, MinSupport::Absolute(xi2)));
    // User 3 recycles the best available set for a lower threshold.
    let (best_xi, patterns) = store.best_for("c4").expect("two sets published");
    assert_eq!(best_xi, xi2);
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &patterns);
    let target = MinSupport::percent(84.0);
    let got = Family::Hm.mine(&cdb, target);
    assert!(got.same_patterns_as(&Family::Hm.mine(&db, target)));
}

#[test]
fn incremental_rounds_interleaved_with_updates() {
    let base = small_db();
    let extra = RegimeGenerator {
        num_transactions: 400,
        positions: 10,
        values_per_position: 40,
        num_regimes: 5,
        adherence: 0.85,
        adherence_lo: 0.2,
        seed: 99,
        ..RegimeGenerator::default()
    }
    .generate();
    let mut inc = IncrementalMiner::new(base);
    for (batch, pct) in extra.into_transactions().chunks(100).zip([5.0, 4.0, 3.0, 2.0]) {
        inc.insert(batch.to_vec());
        let got = inc.mine(MinSupport::percent(pct));
        let want = mine_apriori(inc.db(), MinSupport::percent(pct));
        assert!(got.same_patterns_as(&want), "after batch @ {pct}%");
    }
}

/// The connect4 analog at the fleet's size: 1,000 rows of 43 positions
/// × 3 values, 16 of them dominated.
fn connect4_analog(seed: u64) -> TransactionDb {
    PositionalGenerator {
        num_transactions: 1_000,
        positions: 43,
        values_per_position: 3,
        skew: 1.2,
        dominated_positions: 16,
        dominant_prob: 0.998,
        dominant_prob_lo: 0.80,
        dominant_gamma: 3.0,
        seed,
    }
    .generate()
}

/// One session's cold work and follow-ups at `threads`: a cold batch on
/// the k = 8 Zipf ladder over the 92–80 % sweep (3, 2, 1, 1, 1 queries
/// per rung), follow-ups at 90, 85 and 77 %, then a cold fresh round at
/// the 80 % floor in a second session. Returns every result, every
/// follow-up's dispatch, both sessions' published thresholds and the
/// thread-invariant counters of the whole run.
#[allow(clippy::type_complexity)]
fn cold_session_run(
    db: &TransactionDb,
    family: Family,
    threads: usize,
) -> (Vec<PatternSet>, Vec<RunMode>, Vec<Vec<u64>>, Vec<(&'static str, u64)>) {
    const LADDER: [f64; 8] = [92.0, 92.0, 92.0, 89.0, 89.0, 86.0, 83.0, 80.0];
    let cs = |p: f64| ConstraintSet::support_only(MinSupport::percent(p));
    let ((results, modes, thresholds), snap) = gogreen::obs::measure(|| {
        let mut session = MiningSession::new(db.clone()).with_engine(family).with_threads(threads);
        let queries =
            LADDER.iter().enumerate().map(|(i, &p)| BatchQuery::new(format!("z{i}"), cs(p)));
        let mut results = session.run_batch(queries.collect()).expect("batch runs").results;
        let mut modes = Vec::new();
        for p in [90.0, 85.0, 77.0] {
            let (set, report) = session.run_with_report(cs(p));
            results.push(set);
            modes.push(report.mode);
        }
        let mut cold = MiningSession::new(db.clone()).with_engine(family).with_threads(threads);
        let (set, report) = cold.run_with_report(cs(80.0));
        assert_eq!(report.mode, RunMode::Fresh);
        assert_eq!(report.compression.is_some(), report.xi_mid.is_some());
        results.push(set);
        (results, modes, vec![session.published_thresholds(), cold.published_thresholds()])
    });
    let counters = snap
        .metrics
        .into_iter()
        .filter(|(name, _)| gogreen::obs::metrics::is_thread_invariant(name))
        .map(|(name, m)| (name, m.value))
        .collect();
    (results, modes, thresholds, counters)
}

#[test]
fn cold_rounds_split_exactly_and_leave_the_store_as_before() {
    let thresholds = [92.0, 92.0, 92.0, 89.0, 89.0, 86.0, 83.0, 80.0, 90.0, 85.0, 77.0, 80.0];
    for seed in 1..=3 {
        let db = connect4_analog(seed);
        let abs = |p: f64| MinSupport::percent(p).to_absolute(db.len());
        let oracle = Family::Fp.mine(&db, MinSupport::percent(77.0));
        for family in Family::ALL {
            let (results, modes, published, counters) = cold_session_run(&db, family, 1);
            for (got, &p) in results.iter().zip(&thresholds) {
                let want = oracle.filter(|q| q.support() >= abs(p));
                assert!(got.same_patterns_as(&want), "{family:?} seed {seed} @ {p}%");
            }
            assert_eq!(modes, [RunMode::Filtered, RunMode::Filtered, RunMode::Recycled]);
            // Exactly the thresholds an unsplit session publishes: the
            // ξ_min floor and each follow-up, never a ξ_mid.
            assert_eq!(
                published,
                [vec![abs(77.0), abs(80.0), abs(85.0), abs(90.0)], vec![abs(80.0)]]
            );
            // The batch and the fresh round both split for H-Mine and
            // TreeProjection; the planner declines FP-tree and Eclat.
            let splits = counters.iter().find(|(n, _)| *n == "session.cold_splits").map(|c| c.1);
            let want_splits = matches!(family, Family::Hm | Family::Tp).then_some(2);
            assert_eq!(splits, want_splits, "{family:?} seed {seed}");

            let (results4, modes4, published4, counters4) = cold_session_run(&db, family, 4);
            for (a, b) in results.iter().zip(&results4) {
                assert_eq!(a.sorted(), b.sorted(), "{family:?} seed {seed}: threads 1 vs 4");
            }
            assert_eq!((modes, published, counters), (modes4, published4, counters4));
        }
    }
}
