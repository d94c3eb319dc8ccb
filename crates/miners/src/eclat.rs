//! Eclat (Zaki — IEEE TKDE 2000): vertical frequent-pattern mining over
//! tidset bitmaps.
//!
//! The database is transposed once into per-rank tid-bitmaps; from then
//! on support counting is word-wise AND + popcount and projection is
//! tidset intersection — no tuple is ever rescanned. This is the fourth
//! engine family, the one the paper's three horizontal baselines are
//! usually benchmarked against in the vertical-mining literature.
//!
//! The traversal lives in [`crate::engine::vt`], shared with the
//! recycling adaptation in `gogreen-core`; this type instantiates it on
//! the degenerate [`gogreen_data::PlainRanks`] substrate, where every
//! column is built from the encoded tuples and the search is classic
//! Eclat/dEclat with a pair-matrix counting pass, an inclusion-chain
//! shortcut, Kruskal–Katona candidate-bound termination, and per-node
//! representation switching between bitmaps, tid-lists and diffsets
//! ([`VtRepr`], forceable for ablation via [`Eclat::with_repr`]).

use crate::common::encode_db;
use crate::engine::vt::VtRepr;
use crate::Miner;
use gogreen_data::{FList, MinSupport, PatternSink, PlainRanks, TransactionDb};
use gogreen_util::pool::Parallelism;

/// The vertical tidset Eclat algorithm.
#[derive(Debug, Default, Clone)]
pub struct Eclat {
    repr: VtRepr,
}

impl Eclat {
    /// The default density-adaptive miner ([`VtRepr::Auto`]).
    pub fn new() -> Self {
        Eclat::default()
    }

    /// A miner pinned to one vertical representation (ablation and the
    /// CLI `--vt-repr` flag).
    pub fn with_repr(repr: VtRepr) -> Self {
        Eclat { repr }
    }
}

impl Miner for Eclat {
    fn name(&self) -> &'static str {
        "Eclat"
    }

    fn mine_into(&self, db: &TransactionDb, min_support: MinSupport, sink: &mut dyn PatternSink) {
        self.mine_into_par(db, min_support, Parallelism::serial(), sink);
    }

    fn mine_into_par(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        let minsup = min_support.to_absolute(db.len());
        let flist = FList::from_db(db, minsup);
        if flist.is_empty() {
            return;
        }
        let tuples = encode_db(db, &flist);
        let src = PlainRanks::from_csr(&tuples, flist.len());
        crate::engine::vt::mine_source_par_repr(&src, &flist, minsup, par, self.repr, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_apriori;
    use gogreen_data::{FnSink, Item, MinSupport, Transaction, TransactionDb};
    use gogreen_util::rng::{Rng, SmallRng};
    use std::collections::BTreeSet;

    #[test]
    fn matches_oracle_on_paper_example_at_all_thresholds() {
        let db = TransactionDb::paper_example();
        for minsup in 1..=5 {
            let oracle = mine_apriori(&db, MinSupport::Absolute(minsup));
            let vt = Eclat::new().mine(&db, MinSupport::Absolute(minsup));
            assert!(vt.same_patterns_as(&oracle), "minsup={minsup}");
        }
    }

    #[test]
    fn bound_prune_fires_and_stays_exact() {
        // Rows chosen so the {1}-conditional node has exactly one
        // frequent pair whose support is below both member supports:
        // not an inclusion chain, and candidate_bound(1, 2) == 0
        // terminates the node without materializing a child tidset.
        let db = TransactionDb::from_rows(&[&[1, 2, 3][..], &[1, 2, 3], &[1, 2], &[1, 3], &[2, 3]]);
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        let (vt, snap) = gogreen_obs::measure(|| Eclat::new().mine(&db, MinSupport::Absolute(2)));
        let prunes = snap.value("mine.bound_prunes").unwrap_or(0);
        let words = snap.value("mine.bitmap_words_scanned").unwrap_or(0);
        assert!(vt.same_patterns_as(&oracle));
        assert!(prunes >= 1, "bound prune did not fire");
        assert!(words >= 1, "bitmap kernel counter missing");
    }

    /// Random databases: 1..40 tuples of 1..10 distinct items over 0..18.
    fn random_db(rng: &mut SmallRng) -> TransactionDb {
        let rows = 1 + rng.gen_index(39);
        let mut txs = Vec::with_capacity(rows);
        for _ in 0..rows {
            let len = 1 + rng.gen_index(9);
            let mut set = BTreeSet::new();
            for _ in 0..len {
                set.insert(rng.gen_below(18) as u32);
            }
            txs.push(Transaction::from_ids(set));
        }
        TransactionDb::from_transactions(txs)
    }

    #[test]
    fn matches_oracle_on_random_databases() {
        for case in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(0x7e5a_1000 + case);
            let db = random_db(&mut rng);
            let minsup = 1 + rng.gen_below(7);
            let oracle = mine_apriori(&db, MinSupport::Absolute(minsup));
            let vt = Eclat::new().mine(&db, MinSupport::Absolute(minsup));
            assert!(vt.same_patterns_as(&oracle), "case={case} minsup={minsup}");
        }
    }

    #[test]
    fn parallel_stream_is_byte_identical() {
        let mut rng = SmallRng::seed_from_u64(0x7e5a_2000);
        let db = random_db(&mut rng);
        let stream = |par: Parallelism| {
            let mut out: Vec<(Vec<Item>, u64)> = Vec::new();
            {
                let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
                Eclat::new().mine_into_par(&db, MinSupport::Absolute(2), par, &mut sink);
            }
            out
        };
        let serial = stream(Parallelism::serial());
        assert!(!serial.is_empty());
        for threads in [2, 4, 8] {
            assert_eq!(serial, stream(Parallelism::threads(threads)), "{threads} threads");
        }
    }

    #[test]
    fn empty_and_singleton_databases() {
        let empty = TransactionDb::from_rows(&[]);
        assert_eq!(Eclat::new().mine(&empty, MinSupport::Absolute(1)).len(), 0);
        let one = TransactionDb::from_rows(&[&[4][..]]);
        let fp = Eclat::new().mine(&one, MinSupport::Absolute(1));
        assert_eq!(fp.len(), 1);
    }
}
