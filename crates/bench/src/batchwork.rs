//! Batched-fleet workloads for the bench harness: a Zipf-skewed ξ
//! ladder over a preset's sweep, packaged as a [`QueryBatch`].
//!
//! The fleet models the paper's multi-user setting (§2): most users ask
//! cheap high-threshold questions, a few dig to the sweep floor. Ranks
//! are weighted 1/r over the sweep's thresholds (loosest-threshold rung
//! first), so a k=8 fleet over a 5-rung sweep allocates [3, 2, 1, 1, 1]
//! queries per rung — and ξ_min lands on the sweep floor, the same
//! ξ_new the solo bench rows mine at.

use gogreen_constraints::ConstraintSet;
use gogreen_core::batch::{BatchQuery, QueryBatch};
use gogreen_data::{CountSink, MinSupport, PatternSink, TransactionDb};
use gogreen_miners::Family;
use gogreen_util::pool::Parallelism;

/// Distributes `k` queries over `sweep`'s rungs with Zipf (1/r) weights
/// via largest-remainder rounding (ties to the earlier rung), then
/// expands to the per-query threshold ladder, sweep order preserved.
pub fn zipf_ladder(sweep: &[MinSupport], k: usize) -> Vec<MinSupport> {
    assert!(!sweep.is_empty(), "zipf_ladder needs a non-empty sweep");
    assert!(k > 0, "zipf_ladder needs at least one query");
    let n = sweep.len().min(k);
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| k as f64 * w / total).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
        rb.partial_cmp(&ra).expect("finite quotas").then(a.cmp(&b))
    });
    let mut leftover = k - counts.iter().sum::<usize>();
    for &i in order.iter().cycle() {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    sweep.iter().zip(&counts).flat_map(|(&xi, &c)| std::iter::repeat_n(xi, c)).collect()
}

/// A pure-support fleet over `ladder`, labelled `z0`, `z1`, … in ladder
/// order.
pub fn fleet(ladder: &[MinSupport]) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for (i, &xi) in ladder.iter().enumerate() {
        batch.push(BatchQuery::new(format!("z{i}"), ConstraintSet::support_only(xi)));
    }
    batch
}

/// Runs the fleet batched on the raw database, counting (not
/// collecting) every member's stream; returns the total pattern count
/// across members as the bench checksum.
pub fn run_batched(
    db: &TransactionDb,
    family: Family,
    ladder: &[MinSupport],
    par: Parallelism,
) -> u64 {
    let batch = fleet(ladder).with_parallelism(par);
    let mut sinks: Vec<CountSink> = (0..batch.len()).map(|_| CountSink::new()).collect();
    {
        let mut refs: Vec<&mut dyn PatternSink> =
            sinks.iter_mut().map(|s| s as &mut dyn PatternSink).collect();
        batch.run_into(db, family, &mut refs).expect("bench batch");
    }
    sinks.iter().map(CountSink::count).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_miners::mine_apriori;

    fn pct(p: f64) -> MinSupport {
        MinSupport::percent(p)
    }

    #[test]
    fn zipf_allocation_over_five_rungs() {
        let sweep = vec![pct(4.0), pct(3.0), pct(2.0), pct(1.5), pct(1.0)];
        let ladder = zipf_ladder(&sweep, 8);
        let want =
            vec![pct(4.0), pct(4.0), pct(4.0), pct(3.0), pct(3.0), pct(2.0), pct(1.5), pct(1.0)];
        assert_eq!(ladder, want);
        // The floor rung is always populated: ξ_min = the sweep floor.
        assert_eq!(ladder.last(), sweep.last());
    }

    #[test]
    fn small_fleets_use_the_loosest_rungs() {
        let sweep = vec![pct(4.0), pct(3.0), pct(2.0)];
        assert_eq!(zipf_ladder(&sweep, 2), vec![pct(4.0), pct(3.0)]);
        assert_eq!(zipf_ladder(&sweep, 1), vec![pct(4.0)]);
    }

    #[test]
    fn batched_count_matches_solo_totals() {
        let db = TransactionDb::paper_example();
        let ladder = vec![MinSupport::Absolute(4), MinSupport::Absolute(2)];
        let solo: u64 = ladder.iter().map(|&xi| mine_apriori(&db, xi).len() as u64).sum();
        for family in Family::ALL {
            let got = run_batched(&db, family, &ladder, Parallelism::serial());
            assert_eq!(got, solo, "{family:?}");
        }
    }
}
