//! Recycled mining through [`Family`]: the compressed substrate's
//! [`Miner`] impl.
//!
//! Each family's traversal is written once, generically over
//! [`gogreen_data::GroupedSource`], in `gogreen_miners::engine`; mining
//! a plain database instantiates it on the degenerate
//! [`gogreen_data::PlainRanks`] view, and mining a [`CompressedDb`]
//! instantiates it here on the real [`crate::cdb::CompressedRankDb`]:
//! the F-list is counted group-at-a-time from the compressed form, the
//! database is rank-encoded once, and [`Family::mine_source`] runs the
//! family's search on it.

use crate::CompressedDb;
use gogreen_data::{MinSupport, PatternSink};
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;

/// Recycled mining. The name is the family's tag, the prefix of the
/// recycled bench ids (`"HM"` in `"HM-MCP"`).
impl Miner<CompressedDb> for Family {
    fn name(&self) -> &'static str {
        self.tag()
    }

    fn mine_into(&self, cdb: &CompressedDb, min_support: MinSupport, sink: &mut dyn PatternSink) {
        self.mine_into_par(cdb, min_support, Parallelism::serial(), sink);
    }

    fn mine_into_par(
        &self,
        cdb: &CompressedDb,
        min_support: MinSupport,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        let minsup = min_support.to_absolute(cdb.num_tuples());
        let flist = cdb.flist_par(minsup, par);
        if flist.is_empty() {
            return;
        }
        self.mine_source(&cdb.to_ranks(&flist), &flist, minsup, par, sink);
    }
}

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
    use gogreen_data::TransactionDb;
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
