#![warn(missing_docs)]

//! Transaction-database substrate for the `gogreen` workspace.
//!
//! Everything the miners and the recycling engine share lives here:
//!
//! * [`Item`] and [`ItemCatalog`] — integer item identifiers and a symbol
//!   table mapping them to external names.
//! * [`Transaction`] and [`TransactionDb`] — a tuple of items and a database
//!   of tuples, in the sense of the paper's §2 problem statement.
//! * [`FList`] — the *frequent list*: frequent items ordered by ascending
//!   support (paper Definition 3.1). All projected-database miners traverse
//!   the search space in F-list order.
//! * [`MinSupport`] — absolute or relative support thresholds.
//! * [`Pattern`], [`PatternSet`], [`PatternSink`] — mining output. Sinks let
//!   benchmarks count patterns without materializing them, matching the
//!   paper's practice of excluding output cost from timings (§5.2).
//! * [`flat`] — CSR tuple storage ([`CsrTuples`] / [`TupleSlices`]) and
//!   the [`ProjectionArena`] bump slab: the canonical flat memory layout
//!   every engine scans.
//! * [`bitmap`] — the shared word-wise AND/popcount kernels (4-way
//!   unrolled scalar) and the [`BitsetArena`] tidset slab used by the
//!   cover sweep and the vertical mining engine.
//! * [`cdb`] — the compressed database (paper §3.1) in item and rank
//!   space, [`CompressedDb`] and [`CompressedRankDb`]. The rank form is
//!   the one substrate every mining engine reads: a plain database is
//!   the layout with zero groups (the paper's raw-DB-as-degenerate-CDB
//!   identity).
//! * [`projected`] — materialized projected databases (paper Definition
//!   3.2) used by the reference miner.
//! * [`io`] / [`pattern_io`] — plain text interchange formats for
//!   transactions (one per line) and pattern sets (`items : support`).

pub mod bitmap;
pub mod cdb;
pub mod database;
pub mod error;
pub mod flat;
pub mod flist;
pub mod io;
pub mod item;
pub mod pattern;
pub mod pattern_io;
pub mod projected;
pub mod prune;
pub mod sink;
pub mod support;
pub mod transaction;

pub use bitmap::BitsetArena;
pub use cdb::{CdbLayout, CdbStats, CompressedDb, CompressedRankDb, GroupView, IdSpace};
pub use database::{DbStats, TransactionDb};
pub use error::DataError;
pub use flat::{CsrTuples, ProjectionArena, TupleSlices};
pub use flist::{FList, NO_RANK};
pub use item::{Item, ItemCatalog};
pub use pattern::{Pattern, PatternSet, INLINE_ITEMS};
pub use prune::{NoPrune, SearchPrune};
pub use sink::{CollectSink, CountSink, FnSink, PatternSink};
pub use support::MinSupport;
pub use transaction::{contains_all, difference_into, Transaction};
