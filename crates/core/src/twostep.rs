//! Two-step mining — the paper's stated future work (§5.2,
//! observation 1).
//!
//! > "This suggests the possibility that we could split a new mining
//! > task with low minimum support into two steps: (a) we first run it
//! > with a high minimum support; (b) we then compress the database with
//! > the strategy MCP and mine the compressed database with the actual
//! > low minimum support. We plan to explore this issue further."
//!
//! [`TwoStepMiner`] is that exploration: a *single* low-support mining
//! request, no prior patterns available, answered by bootstrapping its
//! own recycling fodder. Worth it whenever the high-support pre-pass +
//! compression costs less than the baseline's slowdown at the low
//! threshold — which the dense analogs satisfy comfortably (see the
//! `repro ablation` extension experiment).

use crate::compress::{CompressionStats, Compressor};
use crate::utility::Strategy;
use gogreen_data::{CollectSink, MinSupport, PatternSet, PatternSink, TransactionDb};
use gogreen_miners::{Family, Miner};
use std::time::Duration;

/// Phase timings of a two-step run.
#[derive(Debug, Clone)]
pub struct TwoStepReport {
    /// The intermediate (high) threshold used for the pre-pass.
    pub intermediate: MinSupport,
    /// Patterns the pre-pass produced for recycling.
    pub bootstrap_patterns: usize,
    /// Pre-pass mining time.
    pub bootstrap_time: Duration,
    /// Compression metrics.
    pub compression: CompressionStats,
    /// Final (compressed) mining time.
    pub mining_time: Duration,
}

impl TwoStepReport {
    /// Total wall time of all phases.
    pub fn total(&self) -> Duration {
        self.bootstrap_time + self.compression.duration + self.mining_time
    }
}

/// Answers one low-support mining request via a self-bootstrapped
/// recycle: mine high, compress, mine low on the compressed database.
///
/// ```
/// use gogreen_core::twostep::TwoStepMiner;
/// use gogreen_data::{MinSupport, TransactionDb};
/// use gogreen_miners::{Family, Miner};
///
/// let db = TransactionDb::paper_example();
/// let (patterns, report) = TwoStepMiner::new().mine(&db, MinSupport::Absolute(2));
/// assert!(patterns.same_patterns_as(&Family::Hm.mine(&db, MinSupport::Absolute(2))));
/// assert!(report.intermediate.to_absolute(db.len()) > 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TwoStepMiner {
    strategy: Strategy,
    /// The intermediate threshold is `target × factor` (relative targets)
    /// — high enough to be cheap, low enough to yield useful patterns.
    factor: f64,
}

impl Default for TwoStepMiner {
    fn default() -> Self {
        TwoStepMiner { strategy: Strategy::Mcp, factor: 4.0 }
    }
}

impl TwoStepMiner {
    /// A two-step miner with the default MCP strategy and 4× factor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the compression strategy (the paper suggests MCP).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the intermediate-threshold factor (> 1).
    pub fn with_factor(mut self, factor: f64) -> Self {
        assert!(factor > 1.0, "intermediate factor must exceed 1");
        self.factor = factor;
        self
    }

    /// The intermediate threshold for a given target on a given database:
    /// `target_abs × factor`, but never beyond halfway between the target
    /// and `|DB|` — on dense data the interesting thresholds sit near
    /// `|DB|`, where a multiplicative step would shoot past every
    /// pattern's support and leave nothing to recycle.
    pub fn intermediate_for(&self, target: MinSupport, db_len: usize) -> MinSupport {
        let abs = target.to_absolute(db_len);
        let scaled = (abs as f64 * self.factor) as u64;
        let halfway = abs + (db_len as u64).saturating_sub(abs) / 2;
        MinSupport::Absolute(scaled.min(halfway).max(abs + 1))
    }

    /// Mines `db` at `target` in two steps, emitting into `sink`.
    pub fn mine_into(
        &self,
        db: &TransactionDb,
        target: MinSupport,
        sink: &mut dyn PatternSink,
    ) -> TwoStepReport {
        let intermediate = self.intermediate_for(target, db.len());
        let start = std::time::Instant::now();
        let bootstrap = Family::Hm.mine(db, intermediate);
        let bootstrap_time = start.elapsed();
        let (cdb, compression) = Compressor::new(self.strategy).compress_with_stats(db, &bootstrap);
        let start = std::time::Instant::now();
        Family::Hm.mine_into(&cdb, target, sink);
        let mining_time = start.elapsed();
        TwoStepReport {
            intermediate,
            bootstrap_patterns: bootstrap.len(),
            bootstrap_time,
            compression,
            mining_time,
        }
    }

    /// Collects into a [`PatternSet`] alongside the report.
    pub fn mine(&self, db: &TransactionDb, target: MinSupport) -> (PatternSet, TwoStepReport) {
        let mut sink = CollectSink::new();
        let report = self.mine_into(db, target, &mut sink);
        (sink.into_set(), report)
    }

    /// Single-step baseline for comparison (H-Mine straight at the
    /// target).
    pub fn single_step(db: &TransactionDb, target: MinSupport) -> (PatternSet, Duration) {
        let start = std::time::Instant::now();
        let fp = Family::Hm.mine(db, target);
        (fp, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_miners::mine_apriori;

    #[test]
    fn two_step_is_exact() {
        let db = TransactionDb::paper_example();
        for target in 1..=4 {
            let (got, report) = TwoStepMiner::new().mine(&db, MinSupport::Absolute(target));
            let want = mine_apriori(&db, MinSupport::Absolute(target));
            assert!(
                got.same_patterns_as(&want),
                "target {target}: {} vs {}",
                got.len(),
                want.len()
            );
            assert!(report.intermediate.to_absolute(db.len()) > target);
        }
    }

    #[test]
    fn intermediate_respects_bounds() {
        let m = TwoStepMiner::new().with_factor(8.0);
        // 8× 10 = 80 on a 100-tuple db, but halfway(10, 100) = 55 caps it.
        assert_eq!(m.intermediate_for(MinSupport::Absolute(10), 100), MinSupport::Absolute(55));
        // Dense-style target near |DB|: halfway keeps headroom.
        assert_eq!(m.intermediate_for(MinSupport::Absolute(80), 100), MinSupport::Absolute(90));
        // Always strictly above the target.
        let m = TwoStepMiner::new().with_factor(1.01);
        assert_eq!(m.intermediate_for(MinSupport::Absolute(3), 100), MinSupport::Absolute(4));
        // Small multiplicative steps are kept when below halfway.
        let m = TwoStepMiner::new().with_factor(2.0);
        assert_eq!(m.intermediate_for(MinSupport::Absolute(10), 100), MinSupport::Absolute(20));
    }

    #[test]
    fn empty_prepass_degrades_gracefully() {
        // An intermediate threshold above every support yields no
        // bootstrap patterns: the compressed DB is all-plain and the
        // result must still be exact.
        let db = TransactionDb::from_rows(&[&[1], &[2], &[3], &[4]]);
        let m = TwoStepMiner::new().with_factor(50.0);
        let (got, report) = m.mine(&db, MinSupport::Absolute(1));
        assert_eq!(report.bootstrap_patterns, 0);
        let want = mine_apriori(&db, MinSupport::Absolute(1));
        assert!(got.same_patterns_as(&want));
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn factor_must_exceed_one() {
        TwoStepMiner::new().with_factor(1.0);
    }

    #[test]
    fn report_total_sums_phases() {
        let db = TransactionDb::paper_example();
        let (_, report) = TwoStepMiner::new().mine(&db, MinSupport::Absolute(2));
        assert!(report.total() >= report.mining_time);
        assert!(report.total() >= report.bootstrap_time);
    }
}
