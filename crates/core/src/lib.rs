#![warn(missing_docs)]

//! Pattern recycling — the contribution of *"Go Green: Recycle and Reuse
//! Frequent Patterns"* (ICDE 2004).
//!
//! The pipeline has two phases:
//!
//! 1. **Compression** ([`compress`]): pick, for every tuple, the
//!    highest-utility pattern from a previous round's `FP` that the tuple
//!    contains, and factor the tuple into `(group pattern, outlying
//!    items)`. Utilities come from [`utility`]: the cost-minimizing MCP or
//!    the storage-minimizing MLP.
//! 2. **Mining the compressed database** ([`cdb`], [`engine`]):
//!    projected-database miners run directly on the grouped
//!    representation, saving work in support counting (group counts
//!    stand in for per-tuple scans) and in projection construction (group
//!    heads are touched once). Each of the four engine families —
//!    H-Mine's RP-Struct adaptation (Figs. 4–8), the FP-tree and Tree
//!    Projection adaptations (§4.2) and the vertical Eclat adaptation —
//!    is one [`Family`](gogreen_miners::Family) value: the same generic
//!    traversal that mines plain databases, instantiated here on the
//!    compressed substrate. [`oracle`] holds the reference miners,
//!    including [`rpmine::RpMine`], the paper's naive Algorithm
//!    *Recycling* (Fig. 3) with the Lemma 3.1 single-group shortcut.
//!
//! On top of the pipeline sit the interactive pieces the paper motivates:
//! [`session::MiningSession`] (iterative constraint refinement with
//! automatic filter-vs-recycle dispatch), [`store::PatternStore`]
//! (multi-user pattern sharing), [`incremental`] (the §2 extension to
//! changed databases), and [`twostep`] (the paper's stated future work:
//! bootstrap a single low-support request through its own high-support
//! pre-pass).
//!
//! All recycling miners are *exact*: on any database, any recycled
//! pattern set, and any new threshold, they produce the identical pattern
//! set a from-scratch miner produces. The test suite enforces this
//! against the Apriori oracle.

pub mod batch;
pub mod cdb;
pub mod compress;
pub mod cover;
pub mod engine;
pub mod incremental;
pub mod memory;
pub mod oracle;
pub mod rpmine;
pub mod session;
pub mod store;
pub mod twostep;
pub mod utility;

pub use batch::{BatchOutcome, BatchPlan, BatchQuery, BatchReport, QueryBatch};
pub use cdb::CompressedDb;
pub use compress::{CompressionStats, Compressor};
pub use cover::{CoverIndex, CoverScratch};
pub use utility::Strategy;

#[cfg(test)]
#[macro_use]
mod cases;

/// Names the frozen `perfbench/` harness compiles against, kept as
/// aliases onto `gogreen_miners::{Family, Miner}` (with
/// `engine::engine_named` and `session::Engine`, whose paths are fixed
/// too). Nothing in the workspace uses them.
#[doc(hidden)]
pub use gogreen_miners::Miner as RecyclingMiner;

/// See `RecyclingMiner`. The module also holds the recycled H-Mine
/// regression cases.
#[doc(hidden)]
pub mod recycle_hm {
    use gogreen_miners::Family;

    /// `Family::Hm`, the recycled H-Mine of paper Figs. 4–8.
    #[allow(non_upper_case_globals)]
    pub const RecycleHm: Family = Family::Hm;

    #[cfg(test)]
    family_cases!(gogreen_miners::Family::Hm;
        reproduces_paper_examples_4_and_5 => paper_examples_4_and_5,
        exact_for_both_strategies_all_thresholds => exact_on_paper_example,
        uncompressed_cdb_equals_plain_mining => uncompressed_is_plain,
        partial_groups_in_nested_projections => partial_groups_in_nested_projections,
        agrees_with_rpmine_on_structured_cases => agrees_with_rpmine_on_structured_cases,
        bare_members_count_through_group_heads => bare_members_count_through_group_heads,
        empty_cdb => empty_cdb,
    );
}

// The other families' recycled regression cases, under the module names
// the suite has always reported them by.
#[cfg(test)]
mod recycle_fp {
    family_cases!(gogreen_miners::Family::Fp;
        exact_on_paper_example => exact_on_paper_example,
        uncompressed_cdb_is_plain_fpgrowth => uncompressed_is_plain,
        shared_tree_bound_projection => shared_tree_bound_projection,
        agrees_with_rpmine => agrees_with_rpmine,
        empty_cdb => empty_cdb,
    );
}

#[cfg(test)]
mod recycle_tp {
    family_cases!(gogreen_miners::Family::Tp;
        exact_on_paper_example => exact_on_paper_example,
        uncompressed_cdb_is_plain_treeproj => uncompressed_is_plain,
        all_bare_group_shortcut => all_bare_group_shortcut,
        agrees_with_rpmine => agrees_with_rpmine,
        empty_cdb => empty_cdb,
    );
}

#[cfg(test)]
mod recycle_vt {
    family_cases!(gogreen_miners::Family::Vt(gogreen_miners::engine::vt::VtRepr::Auto);
        exact_on_paper_example => exact_on_paper_example,
        uncompressed_cdb_is_plain_eclat => uncompressed_is_plain,
        all_bare_group_chain_shortcut => all_bare_group_shortcut,
        agrees_with_rpmine => agrees_with_rpmine,
        empty_cdb => empty_cdb,
    );
}
