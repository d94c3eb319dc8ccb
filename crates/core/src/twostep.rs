//! Two-step mining — the paper's stated future work (§5.2,
//! observation 1).
//!
//! > "This suggests the possibility that we could split a new mining
//! > task with low minimum support into two steps: (a) we first run it
//! > with a high minimum support; (b) we then compress the database with
//! > the strategy MCP and mine the compressed database with the actual
//! > low minimum support. We plan to explore this issue further."
//!
//! [`plan`] decides whether a *cold* query — no prior patterns to
//! recycle — pays for that split, and at which intermediate threshold
//! ξ_mid; [`split`] performs steps (a) and the compression of (b). The
//! result is exact whatever ξ_mid is, because any exact compressed
//! database mines exactly: the plan only decides speed.
//! [`crate::session::MiningSession`] runs every cold round and cold
//! batch through them; [`TwoStepMiner`] is the single-query form the
//! `repro ablation` experiment times.

use crate::compress::{CompressionStats, Compressor};
use crate::utility::Strategy;
use crate::CompressedDb;
use gogreen_data::{CollectSink, MinSupport, PatternSet, PatternSink, TransactionDb};
use gogreen_miners::{Family, Miner};
use std::time::{Duration, Instant};

/// Plans the two-step split of a cold query at `target_abs` on a
/// database of `db_len` tuples with per-item supports `item_supports`.
/// Returns the pre-mine threshold ξ_mid, or `None` when mining straight
/// at the target is the better plan.
///
/// The rule splits iff all three hold:
///
/// * **family:** H-Mine or TreeProjection. Their cost grows with the
///   projected databases a dense item set produces, and a compressed
///   group stands for many of those rows at once. FP-tree already
///   shares prefixes and Eclat already shares tid-sets, so neither
///   recovers a pre-mine plus a compression on the dense analogs.
/// * **density:** the median support among the items frequent at the
///   target is at least `|DB| / 2`. Only then do the patterns above
///   the median cover most rows; on sparse data a pre-mine finds
///   little to group, and every family lost at every ξ_mid measured.
/// * **threshold:** ξ_mid is that median item's support (the lower
///   of the two middle ones for an even count, which pre-mines more
///   patterns and measured faster), and it must exceed the target, so
///   the pre-mine is strictly cheaper than the query it serves.
///
/// ```
/// use gogreen_core::twostep::plan;
/// use gogreen_miners::Family;
///
/// // Six dense items on a 100-row database: the median frequent item
/// // has support 96.
/// let supports = [99, 98, 97, 96, 90, 85];
/// assert_eq!(plan(Family::Hm, &supports, 100, 80), Some(96));
/// assert_eq!(plan(Family::Fp, &supports, 100, 80), None);
/// ```
pub fn plan(family: Family, item_supports: &[u64], db_len: usize, target_abs: u64) -> Option<u64> {
    if !matches!(family, Family::Hm | Family::Tp) {
        return None;
    }
    let mut frequent: Vec<u64> =
        item_supports.iter().copied().filter(|&s| s >= target_abs).collect();
    if frequent.is_empty() {
        return None;
    }
    let mid = (frequent.len() - 1) / 2;
    let median = *frequent.select_nth_unstable(mid).1;
    (2 * median >= db_len as u64 && median > target_abs).then_some(median)
}

/// Steps (a) and the compression of (b): pre-mines `db` with `family`
/// at `xi_mid`, compresses `db` with the pre-mined set (which is then
/// dropped) and returns the compressed database. The pre-mine runs at
/// the compressor's parallelism. The report's `mining_time` is zero:
/// the caller mines the compressed database.
pub fn split(
    db: &TransactionDb,
    family: Family,
    xi_mid: u64,
    compressor: &Compressor,
) -> (CompressedDb, TwoStepReport) {
    let start = Instant::now();
    let bootstrap = family.mine_par(db, MinSupport::Absolute(xi_mid), compressor.parallelism());
    let bootstrap_time = start.elapsed();
    let (cdb, compression) = compressor.compress_with_stats(db, &bootstrap);
    let report = TwoStepReport {
        intermediate: Some(MinSupport::Absolute(xi_mid)),
        bootstrap_patterns: bootstrap.len(),
        bootstrap_time,
        compression: Some(compression),
        mining_time: Duration::ZERO,
    };
    (cdb, report)
}

/// Phase timings of a two-step run.
#[derive(Debug, Clone)]
pub struct TwoStepReport {
    /// The intermediate (high) threshold of the pre-pass; `None` when
    /// [`plan`] declined and the run was single-step.
    pub intermediate: Option<MinSupport>,
    /// Patterns the pre-pass produced for recycling.
    pub bootstrap_patterns: usize,
    /// Pre-pass mining time.
    pub bootstrap_time: Duration,
    /// Compression metrics; `None` for a single-step run.
    pub compression: Option<CompressionStats>,
    /// Final mining time (on the compressed database when split).
    pub mining_time: Duration,
}

impl TwoStepReport {
    /// Total wall time of all phases.
    pub fn total(&self) -> Duration {
        let compression = self.compression.as_ref().map_or(Duration::ZERO, |c| c.duration);
        self.bootstrap_time + compression + self.mining_time
    }
}

/// Answers one low-support H-Mine request, in two steps when [`plan`]
/// splits it: mine high, compress, mine low on the compressed database.
///
/// ```
/// use gogreen_core::twostep::TwoStepMiner;
/// use gogreen_data::{MinSupport, TransactionDb};
/// use gogreen_miners::{Family, Miner};
///
/// let db = TransactionDb::paper_example();
/// let (patterns, report) = TwoStepMiner::new().mine(&db, MinSupport::Absolute(2));
/// assert!(patterns.same_patterns_as(&Family::Hm.mine(&db, MinSupport::Absolute(2))));
/// if let Some(mid) = report.intermediate {
///     assert!(mid.to_absolute(db.len()) > 2);
/// }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoStepMiner {
    strategy: Strategy,
}

impl TwoStepMiner {
    /// A two-step miner with the default MCP strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the compression strategy (the paper suggests MCP).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Mines `db` at `target`, in two steps when [`plan`] splits it,
    /// emitting into `sink`.
    pub fn mine_into(
        &self,
        db: &TransactionDb,
        target: MinSupport,
        sink: &mut dyn PatternSink,
    ) -> TwoStepReport {
        let target_abs = target.to_absolute(db.len());
        let Some(xi_mid) = plan(Family::Hm, &db.item_supports(), db.len(), target_abs) else {
            let start = Instant::now();
            Family::Hm.mine_into(db, target, sink);
            return TwoStepReport {
                intermediate: None,
                bootstrap_patterns: 0,
                bootstrap_time: Duration::ZERO,
                compression: None,
                mining_time: start.elapsed(),
            };
        };
        let (cdb, mut report) = split(db, Family::Hm, xi_mid, &Compressor::new(self.strategy));
        let start = Instant::now();
        Family::Hm.mine_into(&cdb, target, sink);
        report.mining_time = start.elapsed();
        report
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
        let start = Instant::now();
        let fp = Family::Hm.mine(db, target);
        (fp, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_datagen::{DatasetPreset, PresetKind};
    use gogreen_miners::engine::vt::VtRepr;
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
            if let Some(mid) = report.intermediate {
                assert!(mid.to_absolute(db.len()) > target);
            }
        }
    }

    #[test]
    fn plan_splits_dense_data_above_the_target_and_within_the_db() {
        let db = DatasetPreset::new(PresetKind::Connect4, 0.015).generate();
        let (supports, n) = (db.item_supports(), db.len());
        let target = MinSupport::percent(80.0).to_absolute(n);
        for family in [Family::Hm, Family::Tp] {
            let mid = plan(family, &supports, n, target).expect("dense data splits");
            assert!(target < mid && mid <= n as u64, "{family:?}: {target} < {mid} <= {n}");
        }
        // An exact compressed database mines exactly at the planned ξ_mid.
        let mid = plan(Family::Hm, &supports, n, target).expect("dense data splits");
        let (got, report) = TwoStepMiner::new().mine(&db, MinSupport::Absolute(target));
        assert_eq!(report.intermediate, Some(MinSupport::Absolute(mid)));
        assert!(got.same_patterns_as(&Family::Fp.mine(&db, MinSupport::Absolute(target))));
    }

    #[test]
    fn plan_declines_fp_and_vt() {
        let db = DatasetPreset::new(PresetKind::Connect4, 0.015).generate();
        let target = MinSupport::percent(80.0).to_absolute(db.len());
        for family in [Family::Fp, Family::Vt(VtRepr::Auto)] {
            assert_eq!(plan(family, &db.item_supports(), db.len(), target), None, "{family:?}");
        }
    }

    #[test]
    fn plan_declines_sparse_data_for_every_family() {
        let db = DatasetPreset::new(PresetKind::Weather, 0.01).generate();
        let target = MinSupport::percent(1.0).to_absolute(db.len());
        for family in Family::ALL {
            assert_eq!(plan(family, &db.item_supports(), db.len(), target), None, "{family:?}");
        }
    }

    #[test]
    fn plan_declines_a_target_at_the_median_support() {
        // At ξ = 96 the frequent supports are 96, 96 and 100: the
        // median is the target itself, so a pre-mine would cost as
        // much as the query.
        let supports = [100, 96, 96, 90];
        assert_eq!(plan(Family::Hm, &supports, 100, 90), Some(96));
        assert_eq!(plan(Family::Hm, &supports, 100, 96), None);
        // Nothing frequent: nothing to plan.
        assert_eq!(plan(Family::Tp, &supports, 100, 101), None);
    }

    #[test]
    fn empty_prepass_degrades_gracefully() {
        // An intermediate threshold above every support yields no
        // bootstrap patterns: the compressed DB is all-plain and the
        // result must still be exact.
        let db = TransactionDb::from_rows(&[&[1], &[2], &[3], &[4]]);
        let compressor = Compressor::new(Strategy::Mcp);
        let (cdb, report) = split(&db, Family::Hm, db.len() as u64 + 1, &compressor);
        assert_eq!(report.bootstrap_patterns, 0);
        let want = mine_apriori(&db, MinSupport::Absolute(1));
        for family in Family::ALL {
            assert!(family.mine(&cdb, MinSupport::Absolute(1)).same_patterns_as(&want));
        }
    }

    #[test]
    fn report_total_sums_phases() {
        let db = TransactionDb::paper_example();
        let (_, report) = TwoStepMiner::new().mine(&db, MinSupport::Absolute(2));
        assert!(report.total() >= report.mining_time);
        assert!(report.total() >= report.bootstrap_time);
    }
}
