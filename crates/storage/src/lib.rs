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
//! * [`codec`] — compact binary encoding of spilled records (plain
//!   tuples and compressed groups).
//! * [`spill`] — partition files under a private temp directory, with
//!   in-memory size accounting so the drivers can decide load-vs-respill
//!   *before* touching a partition.
//! * [`budget`] — the memory budget (the paper enforces 4 MiB / 8 MiB).
//! * [`limited`] — memory-limited drivers for the H-Mine pair
//!   (the paper's §5.3 compares exactly H-Mine vs HM-MCP because
//!   H-Mine-style structures are the ones whose memory is reliably
//!   estimable).
//! * [`crc`] — the CRC-32 every on-disk record and file carries.
//! * [`segment`] — immutable on-disk CSR segments with item-support
//!   sidecars: the out-of-core database substrate.
//! * [`version`] — delta-encoded persistence of compressed-database
//!   versions across incremental rounds.
//! * [`ooc`] — out-of-core mining drivers: raw engines and the
//!   segmented incremental miner over the two layers above.

pub mod budget;
pub mod codec;
pub mod crc;
pub mod limited;
pub mod ooc;
pub mod segment;
pub mod spill;
pub mod version;

pub use budget::MemoryBudget;
pub use codec::SpillRecord;
pub use limited::{LimitedHMine, LimitedRecycleHm, LimitedReport};
pub use ooc::{OocMiner, SegmentedIncrementalMiner};
pub use segment::{compact, CompactReport, SegmentWriter, SegmentedDb};
pub use spill::SpillManager;
pub use version::VersionStore;
