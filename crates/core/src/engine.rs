//! The hidden engine lookup the frozen `perfbench/` harness compiles
//! against. Both [`Miner`] impls for [`Family`] — plain and compressed
//! databases — live in `gogreen_miners::engine`.

use crate::CompressedDb;
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;

/// See `crate::RecyclingMiner`: `engine_named(key)?.raw()` and
/// `.recycling(par)` for the frozen `perfbench/` harness.
#[doc(hidden)]
pub fn engine_named(key: &str) -> Option<NamedEngine> {
    Family::from_key(key).map(NamedEngine)
}

/// See `engine_named`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct NamedEngine(Family);

impl NamedEngine {
    /// The family, boxed as a plain-database miner.
    pub fn raw(&self) -> Box<dyn Miner> {
        Box::new(self.0)
    }

    /// The family, boxed as a compressed-database miner.
    pub fn recycling(&self, _par: Parallelism) -> Option<Box<dyn Miner<CompressedDb>>> {
        Some(Box::new(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::{MinSupport, TransactionDb};
    use gogreen_miners::engine::vt::VtRepr;
    use gogreen_miners::mine_apriori;

    #[test]
    fn recycling_pairs_are_exact() {
        let db = TransactionDb::paper_example();
        let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
        let cdb = crate::Compressor::new(crate::Strategy::Mcp).compress(&db, &fp_old);
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        for f in Family::ALL.into_iter().chain(VtRepr::ALL.map(Family::Vt)) {
            let got = f.mine(&cdb, MinSupport::Absolute(2));
            assert!(got.same_patterns_as(&oracle), "{f:?}");
        }
        let rp = crate::oracle::recycling("naive").expect("RP-Mine");
        assert!(rp.mine(&cdb, MinSupport::Absolute(2)).same_patterns_as(&oracle));
    }
}
