//! One traversal implementation per algorithm family, generic over the
//! [`gogreen_data::GroupedSource`] substrate, and the [`Family`] enum
//! that dispatches to them.
//!
//! The paper's central identity — a raw database is a compressed database
//! in which every group has an empty head and unit count — means the
//! baseline miners and their recycling adaptations differ only in *what
//! the root of the search is built from*, never in how the search runs.
//! Each submodule here is that single search implementation:
//!
//! * [`hm`] — H-Mine over the RP-Struct arena (paper §4.1, Figures 4–8);
//! * [`fp`] — FP-growth over a forest of conditional groups (§4.2);
//! * [`tp`] — depth-first Tree Projection over grouped partitions (§4.2);
//! * [`vt`] — vertical (Eclat-style) mining over per-rank tid-bitmaps,
//!   the fourth family: support counting is word-wise AND + popcount,
//!   with group runs filled word-at-a-time on the compressed substrate.
//!
//! [`Family`] is the whole engine surface: [`Family::mine_source`] is the
//! one dispatch over the four families, and [`Miner`] is implemented for
//! it once per substrate — here on plain [`TransactionDb`]s (through the
//! degenerate, group-free [`PlainRanks`] view) and in `gogreen-core` on
//! compressed databases (through `CompressedRankDb`). Group handling is
//! driven by the substrate's group count (zero for the degenerate view),
//! so the plain instantiations pay nothing for the group machinery.
//!
//! Parallelism contract: each engine routes its first-level fan-out
//! through [`crate::common::fan_out_ordered`] exactly once, so the
//! emitted stream is byte-identical and every `mine.*` counter
//! thread-invariant at any thread count — for both substrates.

pub mod fp;
pub mod hm;
pub mod tp;
pub mod vt;

use crate::common::encode_db;
use crate::Miner;
use gogreen_data::{FList, GroupedSource, MinSupport, PatternSink, PlainRanks, TransactionDb};
use gogreen_util::pool::Parallelism;
use vt::VtRepr;

/// An algorithm family: one search, mined on either substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// H-Mine and its RP-Struct recycling (the paper's primary pair).
    Hm,
    /// FP-growth over conditional FP-trees.
    Fp,
    /// Depth-first Tree Projection.
    Tp,
    /// Vertical Eclat, in the given tidset representation mode.
    Vt(VtRepr),
}

/// `(key, aliases, report name, tag)` per family, in [`Family::ALL`]
/// order. Report names and tags are the ids of the archived bench rows
/// (`H-Mine`, `HM-MCP`, `VT-Batch8`, …).
const META: [(&str, &[&str], &str, &str); 4] = [
    ("hmine", &["hm"], "H-Mine", "HM"),
    ("fp", &[], "FP-tree", "FP"),
    ("tp", &[], "TreeProjection", "TP"),
    ("vt", &["eclat"], "Eclat", "VT"),
];

impl Family {
    /// Every family, in presentation order (vt in its adaptive mode).
    pub const ALL: [Family; 4] = [Family::Hm, Family::Fp, Family::Tp, Family::Vt(VtRepr::Auto)];

    fn meta(self) -> (&'static str, &'static [&'static str], &'static str, &'static str) {
        let i = match self {
            Family::Hm => 0,
            Family::Fp => 1,
            Family::Tp => 2,
            Family::Vt(_) => 3,
        };
        META[i]
    }

    /// The canonical `--algo` spelling (`"hmine"`, `"fp"`, `"tp"`, `"vt"`).
    pub fn key(self) -> &'static str {
        self.meta().0
    }

    /// Additional accepted spellings (`"hm"`, `"eclat"`).
    pub fn aliases(self) -> &'static [&'static str] {
        self.meta().1
    }

    /// Report name of the from-scratch miner (`"H-Mine"`, `"FP-tree"`, …).
    pub fn name(self) -> &'static str {
        self.meta().2
    }

    /// Short tag of the recycled variants (`"HM"` in `"HM-MCP"`).
    pub fn tag(self) -> &'static str {
        self.meta().3
    }

    /// Resolves a key or alias; vt resolves to its adaptive mode.
    pub fn from_key(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.key() == name || f.aliases().contains(&name))
    }

    /// Every canonical key, `|`-separated (for usage text).
    pub fn keys() -> String {
        Family::ALL.map(Family::key).join("|")
    }

    /// Pins the vt family to `repr` (the `--vt-repr` flag); the other
    /// families have no representation knob and are returned unchanged.
    pub fn with_vt_repr(self, repr: VtRepr) -> Family {
        match self {
            Family::Vt(_) => Family::Vt(repr),
            other => other,
        }
    }

    /// Mines `src` against `flist` at the absolute threshold `minsup`,
    /// the first-level projections fanned out over `par` scoped threads.
    /// The emitted stream is byte-identical for any thread count.
    pub fn mine_source<S: GroupedSource + Sync>(
        self,
        src: &S,
        flist: &FList,
        minsup: u64,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        match self {
            Family::Hm => hm::mine_source_par(src, flist, &[], minsup, par, sink),
            Family::Fp => fp::mine_source_par(src, flist, minsup, par, sink),
            Family::Tp => tp::mine_source_par(src, flist, minsup, par, sink),
            Family::Vt(repr) => vt::mine_source_par(src, flist, minsup, par, repr, sink),
        }
    }
}

/// The plain substrate: F-list, rank-encode, then the degenerate
/// all-plain [`PlainRanks`] view.
impl Miner for Family {
    fn name(&self) -> &'static str {
        Family::name(*self)
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
        self.mine_source(&PlainRanks::from_csr(&tuples, flist.len()), &flist, minsup, par, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_apriori;
    use gogreen_data::{CollectSink, NoPrune};

    #[test]
    fn lookup_resolves_keys_and_aliases() {
        for f in Family::ALL {
            assert_eq!(Family::from_key(f.key()), Some(f));
        }
        assert_eq!(Family::from_key("hm"), Some(Family::Hm));
        assert_eq!(Family::from_key("eclat"), Some(Family::Vt(VtRepr::Auto)));
        for other in ["bogus", "naive", "apriori"] {
            assert_eq!(Family::from_key(other), None, "{other}");
        }
        assert_eq!(Family::keys(), "hmine|fp|tp|vt");
        assert_eq!(Family::Hm.with_vt_repr(VtRepr::Bitmap), Family::Hm);
        assert_eq!(
            Family::Vt(VtRepr::Auto).with_vt_repr(VtRepr::Bitmap),
            Family::Vt(VtRepr::Bitmap)
        );
    }

    #[test]
    fn every_raw_engine_matches_the_oracle() {
        let db = TransactionDb::paper_example();
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        for f in Family::ALL.into_iter().chain(VtRepr::ALL.map(Family::Vt)) {
            assert!(f.mine(&db, MinSupport::Absolute(2)).same_patterns_as(&oracle), "{f:?}");
        }
    }

    /// The pushdown entry point with nothing pushed is the plain search.
    #[test]
    fn pruned_hooks_report_support_correctly() {
        let db = TransactionDb::paper_example();
        let flist = FList::from_db(&db, 2);
        let tuples = encode_db(&db, &flist);
        let src = PlainRanks::from_csr(&tuples, flist.len());
        let mut sink = CollectSink::new();
        hm::mine_source_pruned(&src, &flist, &[], 2, &NoPrune, &mut sink);
        assert!(sink.into_set().same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(2))));
    }
}
