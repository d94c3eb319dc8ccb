//! Interactive mining sessions — the workflow the paper's introduction
//! motivates.
//!
//! A user iterates: run, inspect, refine constraints, run again. The
//! session publishes every round's full frequent set into an internal
//! [`PatternStore`] and dispatches each new round on the cheapest sound
//! path (paper §2):
//!
//! * **same constraints** → cached result, no work;
//! * **a published threshold ≤ ξ exists** → filter the *closest* such
//!   superset ([`PatternStore::best_at_most`] — support-only full sets
//!   are exact supersets of any round at a higher threshold, whatever
//!   the other constraints do);
//! * **otherwise** → no stored set can contain the answer; *recycle* the
//!   richest one ([`PatternStore::best_for`], the paper's §5 rule):
//!   compress the database with it and mine the compressed database with
//!   the configured [`Family`].
//!
//! Fleets of simultaneous queries go through [`MiningSession::run_batch`]
//! (one shared coalesced pass, see [`crate::batch`]); the shared ξ_min
//! result lands in the same store, so follow-up rounds filter instead of
//! mining.
//!
//! Non-support constraints are applied as post-filters on the full
//! frequent set (with anti-monotone parts available for pushdown through
//! [`gogreen_constraints::Pushdown`] in callers that mine manually).

use crate::batch::{BatchOutcome, BatchQuery, QueryBatch};
use crate::compress::{CompressionStats, Compressor};
use crate::store::PatternStore;
use crate::utility::Strategy;
use gogreen_constraints::{ConstraintSet, ItemAttributes, Relation};
use gogreen_data::{PatternSet, TransactionDb};
use gogreen_miners::{Family, Miner};
use gogreen_obs::{metrics, snapshot, span};
use gogreen_util::pool::Parallelism;
use std::time::Duration;

/// The session's internal [`PatternStore`] key: one session, one
/// database, one dataset entry.
const SESSION_DATASET: &str = "session";

/// See `crate::RecyclingMiner`: the session's engine is a [`Family`];
/// this alias keeps `Engine::from_key` compiling in the frozen
/// `perfbench/` harness.
#[doc(hidden)]
pub type Engine = Family;

/// How a round was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// No previous round: mined from scratch.
    Fresh,
    /// Identical constraints: cached result returned.
    Cached,
    /// A published threshold ≤ ξ exists: its closest superset filtered.
    Filtered,
    /// No stored superset: the richest published set recycled through
    /// compression.
    Recycled,
}

impl RunMode {
    /// Lowercase label used in trace spans and metric names.
    pub fn label(self) -> &'static str {
        match self {
            RunMode::Fresh => "fresh",
            RunMode::Cached => "cached",
            RunMode::Filtered => "filtered",
            RunMode::Recycled => "recycled",
        }
    }

    fn counter(self) -> &'static str {
        match self {
            RunMode::Fresh => "session.rounds_fresh",
            RunMode::Cached => "session.rounds_cached",
            RunMode::Filtered => "session.rounds_filtered",
            RunMode::Recycled => "session.rounds_recycled",
        }
    }
}

/// Metrics of one session round.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Dispatch decision.
    pub mode: RunMode,
    /// Wall time of the mining (or filtering) step.
    pub mining_time: Duration,
    /// Compression metrics when `mode == Recycled`.
    pub compression: Option<CompressionStats>,
    /// Patterns returned after all constraints.
    pub num_patterns: usize,
    /// Size of the source set the round was answered from: the filtered
    /// superset (`Filtered`, the *closest* published threshold ≤ ξ) or
    /// the recycled fodder (`Recycled`, the *richest* published set —
    /// paper §5: lower `ξ_old` recycles better).
    pub fodder_patterns: Option<usize>,
}

/// An iterative constrained-mining session over one database.
///
/// ```
/// use gogreen_core::session::{MiningSession, RunMode};
/// use gogreen_constraints::ConstraintSet;
/// use gogreen_data::{MinSupport, TransactionDb};
///
/// let mut session = MiningSession::new(TransactionDb::paper_example());
/// let cs = |n| ConstraintSet::support_only(MinSupport::Absolute(n));
///
/// let (_, r1) = session.run_with_report(cs(3));
/// assert_eq!(r1.mode, RunMode::Fresh);
/// let (_, r2) = session.run_with_report(cs(2)); // relaxed → recycle
/// assert_eq!(r2.mode, RunMode::Recycled);
/// let (_, r3) = session.run_with_report(cs(4)); // tightened → filter
/// assert_eq!(r3.mode, RunMode::Filtered);
/// ```
pub struct MiningSession {
    db: TransactionDb,
    attrs: ItemAttributes,
    family: Family,
    strategy: Strategy,
    parallelism: Parallelism,
    /// Previous round: constraints, the *full* frequent set at that
    /// round's support, and the constraint-filtered answer.
    last: Option<(ConstraintSet, PatternSet, PatternSet)>,
    /// Every round's full frequent set, keyed by absolute threshold:
    /// [`PatternStore::best_at_most`] serves filter rounds, and
    /// [`PatternStore::best_for`] the recycling fodder.
    store: PatternStore,
    /// Rounds run by *this* session — labels the per-round metric
    /// snapshots (the recorder's `session.rounds` counter spans every
    /// session it measures).
    rounds_run: u64,
}

impl MiningSession {
    /// Starts a session with the default engine (H-Mine) and strategy
    /// (MCP).
    pub fn new(db: TransactionDb) -> Self {
        MiningSession {
            db,
            attrs: ItemAttributes::new(),
            family: Family::Hm,
            strategy: Strategy::default(),
            parallelism: Parallelism::serial(),
            last: None,
            store: PatternStore::new(),
            rounds_run: 0,
        }
    }

    /// Selects the algorithm family for fresh and recycled rounds.
    pub fn with_engine(mut self, family: Family) -> Self {
        self.family = family;
        self
    }

    /// Selects the compression strategy for recycled rounds.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread budget for every round: fresh and recycled
    /// mining fan their first-level projections out over this many
    /// threads, and recycled rounds also parallelize compression and
    /// compressed-database setup. Results are identical for every
    /// setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Convenience for [`Self::with_parallelism`] from a raw thread
    /// count (`0` = all cores).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::threads(threads))
    }

    /// Attaches item attributes for aggregate constraints.
    pub fn with_attributes(mut self, attrs: ItemAttributes) -> Self {
        self.attrs = attrs;
        self
    }

    /// The underlying database.
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// Runs one round under `constraints`, returning the result set.
    pub fn run(&mut self, constraints: ConstraintSet) -> PatternSet {
        self.run_with_report(constraints).0
    }

    /// Runs one round, also reporting how it was answered. With a
    /// snapshot exporter installed, the round runs in its own
    /// [`gogreen_obs::measure`] scope and its snapshot — exactly the
    /// round's own activity, maxes included — is emitted as
    /// `session.round/<n>`.
    pub fn run_with_report(&mut self, constraints: ConstraintSet) -> (PatternSet, RoundReport) {
        self.rounds_run += 1;
        if !snapshot::exporter_installed() {
            return self.run_round(constraints);
        }
        let round = self.rounds_run;
        let (out, snap) = gogreen_obs::measure(|| self.run_round(constraints));
        snapshot::emit(&format!("session.round/{round}"), &snap);
        out
    }

    fn run_round(&mut self, constraints: ConstraintSet) -> (PatternSet, RoundReport) {
        let db_len = self.db.len();
        let xi = constraints.min_support().to_absolute(db_len);
        let mut sp = span("session.round");
        let started = std::time::Instant::now();
        if let Some((prev_cs, _, prev_answer)) = &self.last {
            if constraints.relation_to(prev_cs, db_len) == Relation::Equal {
                metrics::add("session.rounds", 1);
                metrics::add(RunMode::Cached.counter(), 1);
                sp.field("mode", RunMode::Cached.label())
                    .field("xi", xi)
                    .field("patterns", prev_answer.len());
                let report = RoundReport {
                    mode: RunMode::Cached,
                    mining_time: started.elapsed(),
                    compression: None,
                    num_patterns: prev_answer.len(),
                    fodder_patterns: None,
                };
                return (prev_answer.clone(), report);
            }
        }
        let (mode, full, compression, fodder_patterns) = if let Some((_, superset)) =
            self.store.best_at_most(SESSION_DATASET, xi)
        {
            // The closest published threshold ≤ ξ: its (support-only,
            // complete) set contains the whole answer, so the round
            // is a support filter regardless of the other
            // constraints' relation.
            let full = superset.filter(|p| p.support() >= xi);
            (RunMode::Filtered, full, None, Some(superset.len()))
        } else if let Some((_, fodder)) = self.store.best_for(SESSION_DATASET) {
            // ξ undercuts everything published: recycle the richest
            // set (paper §5 — lower ξ_old recycles better).
            let (cdb, stats) = Compressor::new(self.strategy)
                .with_parallelism(self.parallelism)
                .compress_with_stats(&self.db, &fodder);
            let full = self.family.mine_par(&cdb, constraints.min_support(), self.parallelism);
            (RunMode::Recycled, full, Some(stats), Some(fodder.len()))
        } else {
            let full = self.family.mine_par(&self.db, constraints.min_support(), self.parallelism);
            (RunMode::Fresh, full, None, None)
        };
        let answer = if constraints.others().is_empty() {
            full.clone()
        } else {
            full.filter(|p| constraints.satisfied_by(p, db_len, &self.attrs))
        };
        let report = RoundReport {
            mode,
            mining_time: started.elapsed(),
            compression,
            num_patterns: answer.len(),
            fodder_patterns,
        };
        metrics::add("session.rounds", 1);
        metrics::add(mode.counter(), 1);
        sp.field("mode", mode.label())
            .field("xi", xi)
            .field("full_patterns", full.len())
            .field("patterns", answer.len());
        if let Some(n) = fodder_patterns {
            sp.field("fodder_patterns", n);
        }
        // Publish the full set so later rounds can filter from (or
        // recycle) it — Filtered rounds included: their result is the
        // complete set at ξ, a closer superset for future lookups.
        self.store.publish(SESSION_DATASET, xi, full.clone());
        self.last = Some((constraints, full, answer.clone()));
        (answer, report)
    }

    /// Runs a fleet of queries as one batched round: a single coalesced
    /// pass at the fleet's ξ_min answers every admitted query (see
    /// [`crate::batch`]), and the shared result is published into the
    /// session's store, so follow-up [`Self::run_with_report`] rounds at
    /// ξ ≥ ξ_min dispatch as `Filtered`.
    pub fn run_batch(&mut self, queries: Vec<BatchQuery>) -> Result<BatchOutcome, String> {
        let mut batch = QueryBatch::new()
            .with_attributes(self.attrs.clone())
            .with_parallelism(self.parallelism);
        for q in queries {
            batch.push(q);
        }
        batch.run_with_store(&self.db, self.family, &self.store, SESSION_DATASET)
    }

    /// Forgets all previous rounds (the next run mines fresh).
    pub fn reset(&mut self) {
        self.last = None;
        self.store = PatternStore::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_constraints::Constraint;
    use gogreen_data::{Item, MinSupport};
    use gogreen_miners::mine_apriori;

    fn cs(minsup: u64) -> ConstraintSet {
        ConstraintSet::support_only(MinSupport::Absolute(minsup))
    }

    #[test]
    fn fresh_then_relax_then_tighten() {
        let db = TransactionDb::paper_example();
        let mut session = MiningSession::new(db.clone());
        let (r1, rep1) = session.run_with_report(cs(3));
        assert_eq!(rep1.mode, RunMode::Fresh);
        assert!(r1.same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(3))));

        // Relax 3 → 2: recycled, exact.
        let (r2, rep2) = session.run_with_report(cs(2));
        assert_eq!(rep2.mode, RunMode::Recycled);
        assert!(rep2.compression.is_some());
        assert!(r2.same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(2))));

        // Tighten 2 → 4: filtered, exact.
        let (r3, rep3) = session.run_with_report(cs(4));
        assert_eq!(rep3.mode, RunMode::Filtered);
        assert!(r3.same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(4))));
    }

    #[test]
    fn repeated_constraints_hit_cache() {
        let mut session = MiningSession::new(TransactionDb::paper_example());
        let (a, _) = session.run_with_report(cs(3));
        let (b, rep) = session.run_with_report(cs(3));
        assert_eq!(rep.mode, RunMode::Cached);
        assert!(a.same_patterns_as(&b));
    }

    #[test]
    fn all_engines_agree_across_a_session() {
        let db = TransactionDb::paper_example();
        let oracle2 = mine_apriori(&db, MinSupport::Absolute(2));
        for family in Family::ALL {
            let mut s = MiningSession::new(db.clone()).with_engine(family);
            s.run(cs(4));
            let relaxed = s.run(cs(2));
            assert!(relaxed.same_patterns_as(&oracle2), "{family:?}");
        }
    }

    #[test]
    fn non_support_constraints_filter_results() {
        let db = TransactionDb::paper_example();
        let mut s = MiningSession::new(db);
        let constrained = s.run(
            ConstraintSet::support_only(MinSupport::Absolute(3)).with(Constraint::MaxLength(1)),
        );
        assert!(constrained.iter().all(|p| p.len() == 1));
        assert_eq!(constrained.len(), 5); // a, c, e, f, g

        // Relaxing both support and length recycles and re-filters.
        let relaxed = s.run(
            ConstraintSet::support_only(MinSupport::Absolute(2)).with(Constraint::MaxLength(2)),
        );
        assert!(relaxed.iter().all(|p| p.len() <= 2));
        assert!(relaxed.contains(&[Item(3), Item(5)])); // df:2
    }

    #[test]
    fn reset_forces_fresh() {
        let mut s = MiningSession::new(TransactionDb::paper_example());
        s.run(cs(3));
        s.reset();
        let (_, rep) = s.run_with_report(cs(3));
        assert_eq!(rep.mode, RunMode::Fresh);
    }

    #[test]
    fn relaxation_filters_from_a_stored_superset() {
        // 2 → 4 → 3: the third round relaxes relative to ξ=4, but the
        // round-1 set mined at ξ=2 is a stored exact superset — the
        // round is a filter, no mining at all.
        let db = TransactionDb::paper_example();
        let mut s = MiningSession::new(db.clone());
        let (r1, _) = s.run_with_report(cs(2));
        s.run(cs(4));
        let (r3, rep3) = s.run_with_report(cs(3));
        assert_eq!(rep3.mode, RunMode::Filtered);
        assert_eq!(rep3.fodder_patterns, Some(r1.len()));
        assert!(r3.same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(3))));
    }

    #[test]
    fn filtering_uses_the_closest_superset_not_the_richest() {
        // 2 → 3 → 4: both earlier sets contain the ξ=4 answer; the
        // session filters the *smaller* ξ=3 set.
        let db = TransactionDb::paper_example();
        let mut s = MiningSession::new(db.clone());
        s.run(cs(2));
        let (r2, _) = s.run_with_report(cs(3));
        let (r4, rep4) = s.run_with_report(cs(4));
        assert_eq!(rep4.mode, RunMode::Filtered);
        assert_eq!(rep4.fodder_patterns, Some(r2.len()));
        assert!(r4.same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(4))));
    }

    #[test]
    fn batched_round_seeds_the_store_for_filtering() {
        use crate::batch::BatchQuery;
        let db = TransactionDb::paper_example();
        let mut s = MiningSession::new(db.clone());
        let out = s
            .run_batch(vec![
                BatchQuery::new("a", cs(4)),
                BatchQuery::new("b", cs(2)),
                BatchQuery::new("c", cs(3)),
            ])
            .unwrap();
        assert_eq!(out.report.published_at, Some(2));
        for (i, xi) in [4u64, 2, 3].into_iter().enumerate() {
            let oracle = mine_apriori(&db, MinSupport::Absolute(xi));
            assert!(out.results[i].same_patterns_as(&oracle), "query {i}");
        }
        // The shared ξ_min = 2 result is in the store: a follow-up round
        // at ξ=3 filters instead of mining.
        let (r, rep) = s.run_with_report(cs(3));
        assert_eq!(rep.mode, RunMode::Filtered);
        assert!(r.same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(3))));
    }

    #[test]
    fn threaded_session_matches_serial() {
        let db = TransactionDb::paper_example();
        for family in Family::ALL {
            let mut serial = MiningSession::new(db.clone()).with_engine(family);
            let mut threaded = MiningSession::new(db.clone()).with_engine(family).with_threads(4);
            serial.run(cs(3));
            threaded.run(cs(3));
            let (a, ra) = serial.run_with_report(cs(2));
            let (b, rb) = threaded.run_with_report(cs(2));
            assert_eq!(ra.mode, RunMode::Recycled);
            assert_eq!(rb.mode, RunMode::Recycled);
            assert!(a.same_patterns_as(&b), "{family:?}");
        }
    }

    #[test]
    fn mixed_change_recycles_and_stays_exact() {
        // Support relaxes while a max-length tightens: Mixed relation.
        let db = TransactionDb::paper_example();
        let mut s = MiningSession::new(db.clone());
        s.run(cs(3).with(Constraint::MaxLength(3)));
        let (out, rep) = s.run_with_report(cs(2).with(Constraint::MaxLength(2)));
        assert_eq!(rep.mode, RunMode::Recycled);
        let want = mine_apriori(&db, MinSupport::Absolute(2)).filter(|p| p.len() <= 2);
        assert!(out.same_patterns_as(&want));
    }
}
