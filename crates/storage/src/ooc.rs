//! Out-of-core mining drivers over the segmented store.
//!
//! [`OocMiner`] runs a raw (non-recycling) engine [`Family`] over a
//! [`SegmentedDb`] without ever holding the raw database in memory: the
//! F-list comes from the summed per-segment sidecars, and the one full
//! pass per segment rank-encodes each segment's rows — loaded one at a
//! time under the resident budget — into the frequent projection the
//! engines mine. The emitted pattern stream is **byte-identical** to
//! the in-memory miner at any thread count, because every stage
//! reproduces the in-memory pipeline exactly: `minsup` from the same
//! total row count, the F-list from identical global counts, and the
//! per-segment `encode_push` appends in segment order — which *is* the
//! whole-database encode pass, just chunked.
//!
//! What stays resident is the frequent-rank projection (the paper's
//! H-Mine memory model — §3's hyper-structure holds the frequent
//! projection by design) plus at most one raw segment; the raw database
//! itself never is.
//!
//! [`SegmentedIncrementalMiner`] is the out-of-core counterpart of
//! [`gogreen_core::incremental::IncrementalMiner`]: updates append
//! through a [`SegmentWriter`], each round compresses the store
//! segment-at-a-time with the previous round's patterns
//! ([`gogreen_core::Compressor::stream`]) and mines the compressed
//! database with the recycling H-Mine, and every round's compressed
//! database persists into a [`VersionStore`] as a delta against its
//! predecessor. Round for round it returns exactly what the in-memory
//! incremental miner returns on the same update sequence.

use crate::budget::MemoryBudget;
use crate::segment::{SegmentWriter, SegmentedDb};
use crate::version::VersionStore;
use gogreen_core::cdb::CompressedDb;
use gogreen_core::store::PatternStore;
use gogreen_core::{CompressionStats, Compressor, Strategy};
use gogreen_data::{
    CollectSink, CsrTuples, FList, MinSupport, PatternSet, PatternSink, PlainRanks,
};
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Raw out-of-core mining over a segmented store.
#[derive(Debug)]
pub struct OocMiner<'a> {
    db: &'a SegmentedDb,
    family: Family,
    parallelism: Parallelism,
}

impl<'a> OocMiner<'a> {
    /// A miner over `db` using H-Mine, single-threaded.
    pub fn new(db: &'a SegmentedDb) -> Self {
        OocMiner { db, family: Family::Hm, parallelism: Parallelism::serial() }
    }

    /// Selects the engine family.
    pub fn with_engine(mut self, family: Family) -> Self {
        self.family = family;
        self
    }

    /// Sets the worker-thread budget. The emitted stream is identical
    /// for every setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Mines the store at `min_support` into `sink`.
    pub fn mine_into(&self, min_support: MinSupport, sink: &mut dyn PatternSink) -> io::Result<()> {
        let minsup = min_support.to_absolute(self.db.total_rows());
        let flist = FList::from_counts(&self.db.item_supports()?, minsup);
        if flist.is_empty() {
            return Ok(());
        }
        // The whole-database encode pass, one segment resident at a
        // time. Appending per-segment encodes in segment order yields
        // the exact rank CSR the in-memory encode of the concatenated
        // database would build.
        let mut tuples: CsrTuples<u32> = CsrTuples::new();
        self.db.for_each_segment(|_, seg| {
            for t in seg.iter() {
                if flist.encode_push(t, &mut tuples) == 0 {
                    tuples.discard_row();
                } else {
                    tuples.commit_row();
                }
            }
            Ok(())
        })?;
        let src = PlainRanks::new(tuples.as_slices(), flist.len());
        self.family.mine_source(&src, &flist, minsup, self.parallelism, sink);
        Ok(())
    }

    /// [`OocMiner::mine_into`] collected into a [`PatternSet`].
    pub fn mine(&self, min_support: MinSupport) -> io::Result<PatternSet> {
        let mut sink = CollectSink::new();
        self.mine_into(min_support, &mut sink)?;
        Ok(sink.into_set())
    }

    /// Compresses the store with recycled `patterns` segment by
    /// segment, never holding more than one raw segment plus the
    /// (compressed) output resident. The result is identical to
    /// [`gogreen_core::Compressor::compress_with_stats`] over the
    /// materialized database.
    pub fn compress(
        &self,
        patterns: &PatternSet,
        strategy: Strategy,
    ) -> io::Result<(CompressedDb, CompressionStats)> {
        let supports = self.db.item_supports()?;
        let compressor = Compressor::new(strategy).with_parallelism(self.parallelism);
        let mut stream = compressor.stream(patterns.as_slice(), supports, self.db.total_rows());
        self.db.for_each_segment(|_, seg| {
            stream.feed(seg.csr().as_slices());
            Ok(())
        })?;
        Ok(stream.finish())
    }
}

/// Out-of-core incremental mining with versioned compressed databases.
///
/// The round-for-round behavior mirrors
/// [`gogreen_core::incremental::IncrementalMiner::mine`] exactly: the
/// first round (or any round with an empty recycled set) mines the
/// trivial all-plain compression; later rounds compress with the
/// previous round's patterns first. Each round's compressed database is
/// pushed into the version chain under `<dir>/versions`, so reopening
/// the miner later finds both the data (segments) and the newest
/// compressed form (versions) on disk.
#[derive(Debug)]
pub struct SegmentedIncrementalMiner {
    dir: PathBuf,
    segment_bytes: usize,
    budget: MemoryBudget,
    strategy: Strategy,
    parallelism: Parallelism,
    versions: VersionStore,
    recycled: Option<PatternSet>,
    store: Option<(Arc<PatternStore>, String)>,
}

impl SegmentedIncrementalMiner {
    /// Opens (or creates) the segmented database under `dir`, sealing
    /// appended rows into segments of at most `segment_bytes` payload.
    pub fn create(dir: impl AsRef<Path>, segment_bytes: usize) -> io::Result<Self> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir)?;
        let versions = VersionStore::open(dir.join("versions"))?;
        Ok(SegmentedIncrementalMiner {
            dir,
            segment_bytes,
            budget: MemoryBudget::unlimited(),
            strategy: Strategy::Mcp,
            parallelism: Parallelism::serial(),
            versions,
            recycled: None,
            store: None,
        })
    }

    /// Selects the compression strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread budget for the cover and mining passes.
    /// The result is identical for every setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Caps the raw-segment resident budget enforced on every load.
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Publishes every round's pattern set into `store` under
    /// `dataset`, and seeds the first round's recycled set from the
    /// store's best prior entry when this miner has none of its own —
    /// the paper's multi-user recycling, out of core.
    pub fn with_store(mut self, store: Arc<PatternStore>, dataset: impl Into<String>) -> Self {
        self.store = Some((store, dataset.into()));
        self
    }

    /// Appends tuples (item ids, each row sorted ascending) to the
    /// store, sealing full segments as they fill.
    pub fn insert<R: AsRef<[u32]>>(&mut self, rows: impl IntoIterator<Item = R>) -> io::Result<()> {
        let mut writer = SegmentWriter::create(&self.dir, self.segment_bytes)?;
        for row in rows {
            writer.push_row(row.as_ref())?;
        }
        writer.finish()?;
        Ok(())
    }

    /// Read view of the current segments under the configured budget.
    pub fn db(&self) -> io::Result<SegmentedDb> {
        Ok(SegmentedDb::open(&self.dir)?.with_budget(self.budget))
    }

    /// Number of persisted compressed-database versions.
    pub fn version_count(&self) -> usize {
        self.versions.version_count()
    }

    /// The latest persisted compressed database, if any round ran.
    pub fn current_version(&self) -> Option<&CompressedDb> {
        self.versions.current()
    }

    /// Mines the current store at `min_support`, recycling the previous
    /// round's patterns, and persists the round's compressed database
    /// as a new version. Returns exactly what
    /// [`gogreen_core::incremental::IncrementalMiner::mine`] returns on
    /// the same database and update sequence.
    pub fn mine(&mut self, min_support: MinSupport) -> io::Result<PatternSet> {
        let db = self.db()?;
        if self.recycled.is_none() {
            if let Some((store, dataset)) = &self.store {
                if let Some((_, seeded)) = store.best_for(dataset) {
                    self.recycled = Some((*seeded).clone());
                }
            }
        }
        let cdb = match &self.recycled {
            Some(old) if !old.is_empty() => {
                OocMiner::new(&db)
                    .with_parallelism(self.parallelism)
                    .compress(old, self.strategy)?
                    .0
            }
            _ => {
                // Nothing to recycle: the trivial all-plain compression,
                // streamed out of the segments. Content-equal to
                // `CompressedDb::uncompressed` of the materialized
                // database.
                let mut plain: CsrTuples<gogreen_data::Item> =
                    CsrTuples::with_capacity(db.total_rows(), db.total_elems());
                db.for_each_segment(|_, seg| {
                    for t in seg.iter() {
                        plain.push_row(t);
                    }
                    Ok(())
                })?;
                let original_items = plain.total_elems();
                CompressedDb::new(Vec::new(), plain, original_items)
            }
        };
        let result = Family::Hm.mine_par(&cdb, min_support, self.parallelism);
        self.versions.push(&cdb)?;
        if let Some((store, dataset)) = &self.store {
            store.publish(dataset, min_support.to_absolute(db.total_rows()), result.clone());
        }
        self.recycled = Some(result.clone());
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::TransactionDb;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gogreen-ooc-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    fn synthetic_rows(n: u32) -> Vec<Vec<u32>> {
        // Overlapping cliques so recycling has something to chew on.
        (0..n).map(|k| vec![k % 4, 4 + k % 6, 10 + k % 3, 20 + k % 17]).collect()
    }

    fn fill(dir: &Path, rows: &[Vec<u32>], segment_bytes: usize) {
        let mut w = SegmentWriter::create(dir, segment_bytes).unwrap();
        for r in rows {
            w.push_row(r).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn every_engine_matches_in_memory_mining() {
        let dir = temp_dir("engines");
        let rows = synthetic_rows(300);
        fill(&dir, &rows, 256); // many segments
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let expected = Family::Hm.mine(&TransactionDb::from_rows(&refs), MinSupport::Absolute(20));
        let db = SegmentedDb::open(&dir).unwrap();
        assert!(db.num_segments() > 4);
        for family in Family::ALL {
            for threads in [1, 4] {
                let got = OocMiner::new(&db)
                    .with_engine(family)
                    .with_parallelism(Parallelism::threads(threads))
                    .mine(MinSupport::Absolute(20))
                    .unwrap();
                assert!(
                    got.same_patterns_as(&expected),
                    "{family:?} threads={threads} diverged from in-memory mining"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mining_respects_a_tight_resident_budget() {
        let dir = temp_dir("budget");
        let rows = synthetic_rows(400);
        fill(&dir, &rows, 512);
        let db = SegmentedDb::open(&dir).unwrap();
        let total = db.total_payload_bytes() as usize;
        // A budget a quarter of the database still fits every segment.
        let budget = MemoryBudget::bytes(total / 4);
        assert!(db.max_segment_bytes() <= total / 4);
        let db = db.with_budget(budget);
        let got = OocMiner::new(&db).mine(MinSupport::Absolute(30)).unwrap();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let expected = Family::Hm.mine(&TransactionDb::from_rows(&refs), MinSupport::Absolute(30));
        assert!(got.same_patterns_as(&expected));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segmented_compression_matches_whole_database_compression() {
        let dir = temp_dir("compress");
        let rows = synthetic_rows(250);
        fill(&dir, &rows, 300);
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mem_db = TransactionDb::from_rows(&refs);
        let fp = Family::Hm.mine(&mem_db, MinSupport::Absolute(25));
        let db = SegmentedDb::open(&dir).unwrap();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let expected = Compressor::new(strategy).compress(&mem_db, &fp);
            let (got, _) = OocMiner::new(&db).compress(&fp, strategy).unwrap();
            assert_eq!(got, expected, "{strategy:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_rounds_persist_versions_and_reopen() {
        let dir = temp_dir("inc");
        let mut inc = SegmentedIncrementalMiner::create(&dir, 512).unwrap();
        inc.insert(synthetic_rows(120)).unwrap();
        let r1 = inc.mine(MinSupport::Absolute(12)).unwrap();
        assert!(!r1.is_empty());
        assert_eq!(inc.version_count(), 1);
        inc.insert(synthetic_rows(60)).unwrap();
        let r2 = inc.mine(MinSupport::Absolute(12)).unwrap();
        assert_eq!(inc.version_count(), 2);
        // The persisted version chain replays to the round's CDB.
        let reopened = SegmentedIncrementalMiner::create(&dir, 512).unwrap();
        assert_eq!(reopened.version_count(), 2);
        assert_eq!(reopened.current_version(), inc.current_version());
        // And mining is exact: the recycled round equals a from-scratch run.
        let db = inc.db().unwrap();
        let flat = db.to_transaction_db().unwrap();
        let expected = Family::Hm.mine(&flat, MinSupport::Absolute(12));
        assert!(r2.same_patterns_as(&expected));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pattern_store_seeds_and_receives_rounds() {
        let dir_a = temp_dir("store-a");
        let dir_b = temp_dir("store-b");
        let store = Arc::new(PatternStore::new());
        let rows = synthetic_rows(100);
        let mut first = SegmentedIncrementalMiner::create(&dir_a, 1 << 20)
            .unwrap()
            .with_store(Arc::clone(&store), "synth");
        first.insert(rows.clone()).unwrap();
        first.mine(MinSupport::Absolute(10)).unwrap();
        assert_eq!(store.thresholds("synth"), vec![10]);
        // A second session over the same data seeds its first round from
        // the store (so it compresses instead of mining all-plain) and
        // still gets the exact answer.
        let mut second = SegmentedIncrementalMiner::create(&dir_b, 1 << 20)
            .unwrap()
            .with_store(Arc::clone(&store), "synth");
        second.insert(rows.clone()).unwrap();
        let r = second.mine(MinSupport::Absolute(15)).unwrap();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let expected = Family::Hm.mine(&TransactionDb::from_rows(&refs), MinSupport::Absolute(15));
        assert!(r.same_patterns_as(&expected));
        let cdb = second.current_version().unwrap();
        assert!(!cdb.groups().is_empty(), "seeded round should actually compress");
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}
