#![warn(missing_docs)]

//! Baseline frequent-pattern miners.
//!
//! The paper adapts three representative *projected-database* miners —
//! H-Mine, FP-tree (FP-growth) and Tree Projection — to run on compressed
//! databases. This crate implements those three baselines faithfully, plus
//! two reference miners:
//!
//! * [`apriori`] — the classic level-wise algorithm, used across the
//!   workspace as the correctness oracle;
//! * [`naive`] — the plain recursive projected-database miner, the
//!   skeleton the paper's Definition 3.2/3.3 framework describes.
//!
//! A fourth *vertical* family mines tidset bitmaps by word-wise AND +
//! popcount instead of walking tuples, with extension levels pre-sized
//! and terminated by the Kruskal–Katona candidate upper bound of
//! [`bound`].
//!
//! The four families are one enum, [`Family`]: each is a single
//! traversal in [`engine`], written once over the compressed rank
//! layout ([`gogreen_data::CompressedRankDb`]). `Family` implements
//! [`Miner`] on plain databases (the layout with zero groups) and on
//! compressed databases — the same code on real groups. Apriori and the
//! naive miner are separate [`Miner`] impls, the oracles the families
//! are tested against.

pub mod apriori;
pub mod bound;
pub mod common;
pub mod engine;
pub mod fpgrowth;
pub mod naive;
pub mod treeproj;

use gogreen_data::{CollectSink, MinSupport, PatternSet, PatternSink, TransactionDb};
use gogreen_util::pool::Parallelism;

pub use apriori::Apriori;
pub use engine::Family;
pub use naive::NaiveProjection;

/// A frequent-pattern mining algorithm over databases of type `D` —
/// plain [`TransactionDb`]s by default, compressed databases
/// ([`gogreen_data::CompressedDb`]) for the recycling miners.
///
/// ```
/// use gogreen_miners::{Family, Miner};
/// use gogreen_data::{MinSupport, TransactionDb};
///
/// let db = TransactionDb::paper_example();
/// let a = Family::Hm.mine(&db, MinSupport::Absolute(3));
/// let b = Family::Fp.mine(&db, MinSupport::Absolute(3));
/// assert!(a.same_patterns_as(&b));
/// assert_eq!(a.len(), 11);
/// ```
pub trait Miner<D = TransactionDb> {
    /// Short algorithm name for reports ("H-Mine", "FP-tree", …).
    fn name(&self) -> &'static str;

    /// Mines the complete set of frequent patterns of `db` at
    /// `min_support`, emitting each pattern exactly once into `sink`.
    fn mine_into(&self, db: &D, min_support: MinSupport, sink: &mut dyn PatternSink);

    /// Like [`Miner::mine_into`], mining the first-level projections on
    /// `par` scoped threads where the algorithm supports it. The emitted
    /// stream is byte-identical to the serial run at any thread count;
    /// miners without a parallel driver (the oracles) fall back to the
    /// serial path.
    fn mine_into_par(
        &self,
        db: &D,
        min_support: MinSupport,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        let _ = par;
        self.mine_into(db, min_support, sink);
    }

    /// Convenience wrapper collecting the result into a [`PatternSet`].
    fn mine(&self, db: &D, min_support: MinSupport) -> PatternSet {
        self.mine_par(db, min_support, Parallelism::serial())
    }

    /// Parallel convenience wrapper collecting into a [`PatternSet`].
    fn mine_par(&self, db: &D, min_support: MinSupport, par: Parallelism) -> PatternSet {
        let mut sp = gogreen_obs::span("mine");
        let mut sink = CollectSink::new();
        self.mine_into_par(db, min_support, par, &mut sink);
        let set = sink.into_set();
        sp.field("engine", self.name()).field("patterns", set.len());
        set
    }
}

/// Mines with [`Apriori`] (correctness oracle; slowest).
pub fn mine_apriori(db: &TransactionDb, min_support: MinSupport) -> PatternSet {
    Apriori.mine(db, min_support)
}

/// Names the frozen `perfbench/` harness compiles against, each a
/// one-line alias onto [`Family::Hm`]. Nothing in the workspace uses
/// them: write `Family::Hm` instead.
#[doc(hidden)]
#[allow(non_upper_case_globals)]
pub const HMine: Family = Family::Hm;

/// See `HMine`: `Family::Hm.mine(db, min_support)`.
#[doc(hidden)]
pub fn mine_hmine(db: &TransactionDb, min_support: MinSupport) -> PatternSet {
    Family::Hm.mine(db, min_support)
}

#[cfg(test)]
#[macro_use]
mod cases;

// The per-family regression cases, under the module names the suite has
// always reported them by.
#[cfg(test)]
mod hmine {
    family_cases!(crate::Family::Hm;
        matches_oracle_on_paper_example_all_thresholds => paper_example_all_thresholds,
        empty_and_trivial_dbs => empty_and_singleton,
        long_shared_prefix_chain => long_shared_prefix_chain,
        interleaved_queues_regression => interleaved_queues,
    );
}

#[cfg(test)]
mod eclat {
    family_cases!(crate::Family::Vt(crate::engine::vt::VtRepr::Auto);
        matches_oracle_on_paper_example_at_all_thresholds => paper_example_all_thresholds,
        bound_prune_fires_and_stays_exact => bound_prune_fires,
        matches_oracle_on_random_databases => random_databases,
        parallel_stream_is_byte_identical => parallel_stream_is_byte_identical,
        empty_and_singleton_databases => empty_and_singleton,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every miner on the paper's Table 1 example at ξ = 3 must produce
    /// exactly the `FP` set of the paper's Example 1.
    #[test]
    fn all_miners_reproduce_paper_example_1() {
        // a=0,b=1,c=2,d=3,e=4,f=5,g=6,h=7,i=8
        let db = TransactionDb::paper_example();
        let mut miners: Vec<Box<dyn Miner>> = vec![Box::new(Apriori), Box::new(NaiveProjection)];
        miners.extend(Family::ALL.map(|f| Box::new(f) as Box<dyn Miner>));
        for m in &miners {
            let fp = m.mine(&db, MinSupport::Absolute(3));
            // The paper's Example 1 lists 10 patterns but omits fc:3 — a
            // typo, since fc ⊂ fgc:3 must be frequent by anti-monotonicity.
            // The complete set has 11 patterns.
            assert_eq!(fp.len(), 11, "{} pattern count", m.name());
            let expect: &[(&[u32], u64)] = &[
                (&[5], 3),       // f
                (&[5, 6], 3),    // fg
                (&[2, 5], 3),    // fc (omitted in the paper's Example 1)
                (&[2, 5, 6], 3), // fgc
                (&[6], 3),       // g
                (&[2, 6], 3),    // gc
                (&[0], 3),       // a
                (&[0, 4], 3),    // ae
                (&[4], 4),       // e
                (&[2, 4], 3),    // ec
                (&[2], 4),       // c
            ];
            for &(ids, sup) in expect {
                let items: Vec<_> = ids.iter().map(|&i| gogreen_data::Item(i)).collect();
                assert_eq!(fp.support_of(&items), Some(sup), "{}: {:?}", m.name(), ids);
            }
        }
    }

    /// At ξ = 2 the miners must agree with the oracle on the full set,
    /// including the d-extensions the paper's Example 3 walks through.
    #[test]
    fn all_miners_agree_at_support_two() {
        let db = TransactionDb::paper_example();
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        // Spot-check Example 3 step (1): dcfg:2 and friends.
        let it = |ids: &[u32]| ids.iter().map(|&i| gogreen_data::Item(i)).collect::<Vec<_>>();
        assert_eq!(oracle.support_of(&it(&[2, 3, 5, 6])), Some(2)); // dcfg
        assert_eq!(oracle.support_of(&it(&[3, 5])), Some(2)); // df
        assert_eq!(oracle.support_of(&it(&[0, 2, 4])), Some(2)); // ace
        for f in Family::ALL {
            assert!(f.mine(&db, MinSupport::Absolute(2)).same_patterns_as(&oracle), "{f:?}");
        }
        assert!(NaiveProjection.mine(&db, MinSupport::Absolute(2)).same_patterns_as(&oracle));
    }
}
