#![warn(missing_docs)]

//! Disk spill and memory-limited mining (paper §3.3 and §5.3).
//!
//! When the mining structure for a (projected) database would exceed the
//! memory budget, Algorithm *Recycling* (paper Figure 3) projects the
//! database onto its frequent items **on disk** and mines each partition
//! independently. The paper adopts *parallel projection*: one scan writes
//! every tuple into all of its first-level projected databases, trading
//! disk space for speed (§3.3).
//!
//! * [`layout`] — the one on-disk file kind: a header, then a
//!   compressed layout's sections written verbatim, read back through
//!   one checked decoder. Segments, the state file and spill chunks are
//!   all such files.
//! * [`spill`] — partition files (runs of rank-space layout chunks)
//!   under a private temp directory, with in-memory size accounting so
//!   the driver can decide load-vs-respill *before* touching a
//!   partition.
//! * [`budget`] — the memory budget (the paper enforces 4 MiB / 8 MiB).
//! * [`limited`] — one Figure 3 spill recursion over a compressed rank
//!   database behind two entry points, one per member of the H-Mine
//!   pair: a raw database enters as its all-plain compressed form, a
//!   compressed one as itself (the paper's §5.3 compares exactly
//!   H-Mine vs HM-MCP because H-Mine-style structures are the ones
//!   whose memory is reliably estimable).
//! * [`crc`] — the CRC-32 every file header and section carries.
//! * [`segment`] — immutable on-disk segments (layouts without groups)
//!   with item-support sidecars: the out-of-core database substrate.
//! * [`version`] — the one crash-safe compressed-state file an
//!   incremental store keeps: the newest round's compressed database as
//!   one item-space layout file, replaced by tmp → rename.
//! * [`ooc`] — out-of-core mining drivers: raw engines and the
//!   segmented incremental miner over the two layers above.

pub mod budget;
/// The layout codec's round-trip and corruption tests.
#[cfg(test)]
#[path = "codec_tests.rs"]
mod codec;
pub mod crc;
pub mod layout;
pub mod limited;
pub mod ooc;
pub mod segment;
pub mod spill;
pub mod version;

pub use budget::MemoryBudget;
pub use limited::{LimitedHMine, LimitedRecycleHm, LimitedReport};
pub use ooc::{OocMiner, SegmentedIncrementalMiner};
pub use segment::{compact, CompactReport, SegmentWriter, SegmentedDb};
pub use spill::SpillManager;
