//! Timed mining for the bench harness, and the paper's family set.
//!
//! Timings use a [`CountSink`], excluding pattern-output cost as the
//! paper does (§5.2), and return the pattern count as a cross-algorithm
//! checksum: a family must report the same count raw and recycled for
//! the same input.

use gogreen_data::{CountSink, MinSupport};
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;
use std::time::Instant;

/// The three families of the paper's evaluation, in its presentation
/// order; the extension experiments take all of [`Family::ALL`]
/// (vertical Eclat included, see `EXPERIMENTS.md` E8).
pub const PAPER_FAMILIES: [Family; 3] = [Family::Hm, Family::Fp, Family::Tp];

/// Wall time and emitted-pattern count of one run.
#[derive(Debug, Clone, Copy)]
pub struct TimedRun {
    /// Seconds of mining wall time.
    pub secs: f64,
    /// Patterns emitted.
    pub patterns: u64,
}

/// Times `family` mining `db` — a plain database (the baseline) or a
/// compressed one (the recycled variant) — with its first-level
/// projections fanned out over `par`.
pub fn timed<D>(family: Family, db: &D, ms: MinSupport, par: Parallelism) -> TimedRun
where
    Family: Miner<D>,
{
    let mut sink = CountSink::new();
    let start = Instant::now();
    family.mine_into_par(db, ms, par, &mut sink);
    TimedRun { secs: start.elapsed().as_secs_f64(), patterns: sink.count() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_core::{Compressor, Strategy};
    use gogreen_data::TransactionDb;
    use gogreen_miners::mine_apriori;

    #[test]
    fn pairs_agree_on_pattern_counts() {
        let db = TransactionDb::paper_example();
        let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        let serial = Parallelism::serial();
        for family in Family::ALL {
            let base = timed(family, &db, MinSupport::Absolute(2), serial);
            let rec = timed(family, &cdb, MinSupport::Absolute(2), serial);
            assert_eq!(base.patterns, rec.patterns, "{family:?}");
            assert!(base.secs >= 0.0 && rec.secs >= 0.0);
        }
    }

    #[test]
    fn names_are_distinct() {
        for id in [Family::name, Family::tag] {
            let ids: std::collections::BTreeSet<_> = Family::ALL.map(id).into_iter().collect();
            assert_eq!(ids.len(), 4);
        }
    }
}
