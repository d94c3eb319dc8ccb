#![warn(missing_docs)]

//! # gogreen — Recycle and Reuse Frequent Patterns
//!
//! A Rust implementation of the pattern-recycling frequent-itemset mining
//! system from *"Go Green: Recycle and Reuse Frequent Patterns"* (Cong,
//! Ooi, Tan, Tung — ICDE 2004).
//!
//! This facade crate re-exports the workspace crates under stable module
//! names:
//!
//! * [`data`] — items, transactions, databases, F-lists, patterns.
//! * [`datagen`] — synthetic dataset generators and paper-analog presets.
//! * [`miners`] — the four engine families as one [`miners::Family`]
//!   (H-Mine, FP-growth, Tree Projection, vertical bitmap Eclat), plus
//!   the Apriori and naive-projection oracles.
//! * [`constraints`] — the constrained-mining framework (anti-monotone,
//!   monotone, succinct, convertible constraint classes).
//! * [`core`] — the paper's contribution: MCP/MLP compression, compressed
//!   databases, every family mining them (Recycle-HM and the FP/TP/VT
//!   adaptations), RP-Mine, and the iterative
//!   [`core::session::MiningSession`].
//! * [`storage`] — memory budgets, disk spill, and memory-limited mining.
//! * [`obs`] — tracing spans and mining counters (`--trace-out` /
//!   `--metrics-out` in the CLI); the counters quantify the candidate
//!   tests and projections recycling saves.
//! * [`util`] — hashing/timing/memory-accounting support.
//!
//! ## Quickstart
//!
//! ```
//! use gogreen::prelude::*;
//!
//! // A tiny market-basket database (the paper's Table 1).
//! let db = TransactionDb::paper_example();
//!
//! // Round 1: mine at a high support threshold.
//! let old = Family::Hm.mine(&db, MinSupport::Absolute(3));
//!
//! // Round 2: the user relaxes the threshold; recycle round 1's patterns.
//! let compressed = Compressor::new(Strategy::Mcp).compress(&db, &old);
//! let fresh = Family::Hm.mine(&compressed, MinSupport::Absolute(2));
//!
//! // Recycling is exact: same answer as mining from scratch.
//! let scratch = Family::Hm.mine(&db, MinSupport::Absolute(2));
//! assert!(fresh.same_patterns_as(&scratch));
//! ```

pub use gogreen_constraints as constraints;
pub use gogreen_core as core;
pub use gogreen_data as data;
pub use gogreen_datagen as datagen;
pub use gogreen_miners as miners;
pub use gogreen_obs as obs;
pub use gogreen_storage as storage;
pub use gogreen_util as util;

/// One-stop imports for applications.
pub mod prelude {
    pub use gogreen_core::batch::{BatchOutcome, BatchPlan, BatchQuery, BatchReport, QueryBatch};
    pub use gogreen_core::cdb::CompressedDb;
    pub use gogreen_core::compress::Compressor;
    pub use gogreen_core::rpmine::RpMine;
    pub use gogreen_core::session::MiningSession;
    pub use gogreen_core::store::PatternStore;
    pub use gogreen_core::utility::Strategy;
    pub use gogreen_data::{
        contains_all, CollectSink, CountSink, CsrTuples, FList, Item, ItemCatalog, MinSupport,
        Pattern, PatternSet, PatternSink, ProjectionArena, Transaction, TransactionDb, TupleSlices,
    };
    pub use gogreen_miners::engine::vt::VtRepr;
    pub use gogreen_miners::{mine_apriori, Family, Miner};
}
