//! Cross-crate session workflows: the interactive loop the paper's
//! introduction motivates, exercised over every engine, with constraint
//! tightening/relaxing, the shared store, and incremental updates.

use gogreen::core::incremental::IncrementalMiner;
use gogreen::core::session::{MiningSession, RunMode};
use gogreen::core::store::PatternStore;
use gogreen::prelude::*;
use gogreen_constraints::{Constraint, ConstraintSet};
use gogreen_datagen::{DatasetPreset, PresetKind, RegimeGenerator};
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
