//! Answer checking: a canonical digest per answer, compared against the
//! from-scratch result for the same query.

use gogreen_data::PatternSet;

/// FNV-1a over the canonically sorted patterns: each pattern's item ids,
/// a separator, then its support. Two answers have the same digest iff
/// (barring a 64-bit collision) they hold the same patterns with the
/// same supports, whatever order an engine emitted them in.
pub fn digest(set: &PatternSet) -> u64 {
    let mut h = Fnv::new();
    h.word(set.len() as u64);
    for p in set.sorted() {
        h.word(p.len() as u64);
        for it in p.items() {
            h.word(u64::from(it.id()));
        }
        h.word(p.support());
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Answers checked and answers that disagreed with the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one answer whose digest is `got` against the oracle's
    /// `want`; returns whether it matched.
    pub fn check(&mut self, want: u64, got: u64) -> bool {
        self.record(want == got)
    }

    /// Counts one answer, failed unless `ok`; returns `ok`.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::{MinSupport, Pattern, TransactionDb};
    use gogreen_miners::mine_hmine;

    fn answer() -> PatternSet {
        let _lock = crate::MINING.lock().unwrap_or_else(|e| e.into_inner());
        mine_hmine(&TransactionDb::paper_example(), MinSupport::Absolute(2))
    }

    #[test]
    fn digest_ignores_emission_order() {
        let set = answer();
        let reversed: PatternSet = set.iter().rev().cloned().collect();
        assert_eq!(digest(&set), digest(&reversed));
    }

    #[test]
    fn a_dropped_pattern_or_a_changed_support_fails() {
        let set = answer();
        let want = digest(&set);
        let mut tally = Tally::default();
        assert!(tally.check(want, digest(&set)));

        let dropped = set.as_slice()[1..].iter().cloned().collect::<PatternSet>();
        assert!(!tally.check(want, digest(&dropped)));

        let bumped: PatternSet = set
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let support = if i == 3 { p.support() + 1 } else { p.support() };
                Pattern::new(p.items().to_vec(), support)
            })
            .collect();
        assert!(!tally.check(want, digest(&bumped)));

        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.fail_frac() - 2.0 / 3.0).abs() < 1e-12);
    }
}
