//! Partition files for parallel projection.
//!
//! A [`SpillManager`] owns one temporary directory holding one file per
//! frequent item (rank). Writers buffer per partition and flush in large
//! appends; a partition's first flush truncates its file, so a stale file
//! left in a reused directory by a killed process is never read back.
//! Readers read a partition file whole and decode it record by record,
//! so reading a partition costs its full encoded size in memory — a
//! partition re-spilled because it exceeds the budget is read whole once
//! for counting and once for re-projection. Every decoded record is held
//! to the rank database's invariants, ranks below the manager's rank
//! count included, so a corrupt partition is `InvalidData`, never a
//! panic. Everything is deleted on drop.

use crate::codec::{
    check_view, for_each_view, group_memory, plain_memory, put_group, put_plain, ByteReader,
};
use gogreen_data::GroupView;
use gogreen_obs::{histogram, metrics};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Flush threshold per partition buffer.
const FLUSH_BYTES: usize = 256 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

struct Partition {
    buf: Vec<u8>,
    created: bool,
    bytes: u64,
    records: u64,
    est_memory: usize,
}

/// One level of disk-resident projected partitions.
pub struct SpillManager {
    dir: PathBuf,
    partitions: Vec<Partition>,
}

impl SpillManager {
    /// Creates a manager with `num_ranks` partitions under a fresh
    /// process-private temp directory.
    pub fn new(num_ranks: usize) -> std::io::Result<Self> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gogreen-spill-{}-{}", std::process::id(), seq));
        std::fs::create_dir_all(&dir)?;
        let partitions = (0..num_ranks)
            .map(|_| Partition {
                buf: Vec::new(),
                created: false,
                bytes: 0,
                records: 0,
                est_memory: 0,
            })
            .collect();
        Ok(SpillManager { dir, partitions })
    }

    /// Appends `g` to partition `rank`: one Group record, or, when its
    /// pattern is empty, one Plain record per outlier row (its bare
    /// members carry nothing).
    pub fn append(&mut self, rank: u32, g: GroupView<'_>) -> std::io::Result<()> {
        if g.pattern.is_empty() {
            return g.outliers.iter().try_for_each(|row| self.append_plain(rank, row));
        }
        self.push(rank, group_memory(&g), |buf| put_group(buf, g))
    }

    /// Appends one Plain record (non-empty ascending ranks) to partition
    /// `rank`.
    pub fn append_plain(&mut self, rank: u32, row: &[u32]) -> std::io::Result<()> {
        self.push(rank, plain_memory(row.len()), |buf| put_plain(buf, row))
    }

    fn push(
        &mut self,
        rank: u32,
        est_memory: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> std::io::Result<()> {
        let p = &mut self.partitions[rank as usize];
        let before = p.buf.len();
        encode(&mut p.buf);
        histogram::observe("storage.spill_record_bytes", (p.buf.len() - before) as u64);
        p.records += 1;
        p.est_memory += est_memory;
        if p.buf.len() >= FLUSH_BYTES {
            Self::flush_partition(&self.dir, rank, p)?;
        }
        Ok(())
    }

    /// Flushes all buffered data; must be called before reading.
    pub fn finish(&mut self) -> std::io::Result<()> {
        for rank in 0..self.partitions.len() {
            let p = &mut self.partitions[rank];
            if !p.buf.is_empty() {
                Self::flush_partition(&self.dir, rank as u32, p)?;
            }
        }
        Ok(())
    }

    fn flush_partition(dir: &std::path::Path, rank: u32, p: &mut Partition) -> std::io::Result<()> {
        let path = dir.join(format!("part-{rank}.bin"));
        // The first flush truncates: the directory name can repeat across
        // processes, and a stale file must not prefix this partition.
        let mut f = if p.created {
            OpenOptions::new().append(true).open(path)?
        } else {
            File::create(path)?
        };
        f.write_all(&p.buf)?;
        metrics::add("storage.spill_bytes", p.buf.len() as u64);
        if !p.created {
            metrics::add("storage.spill_partitions", 1);
        }
        p.bytes += p.buf.len() as u64;
        p.buf.clear();
        p.created = true;
        Ok(())
    }

    /// Bytes written to partition `rank`.
    pub fn partition_bytes(&self, rank: u32) -> u64 {
        self.partitions[rank as usize].bytes + self.partitions[rank as usize].buf.len() as u64
    }

    /// Records written to partition `rank`.
    pub fn partition_records(&self, rank: u32) -> u64 {
        self.partitions[rank as usize].records
    }

    /// Estimated in-memory structure bytes if partition `rank` were
    /// loaded and mined in memory — the paper's `EM(D)`.
    pub fn estimated_memory(&self, rank: u32) -> usize {
        self.partitions[rank as usize].est_memory
    }

    /// Total bytes written across partitions (the disk cost of parallel
    /// projection).
    pub fn total_bytes(&self) -> u64 {
        (0..self.partitions.len() as u32).map(|r| self.partition_bytes(r)).sum()
    }

    /// Streams every record of partition `rank` through `f` as a view,
    /// stopping at the first error. Call [`SpillManager::finish`] first.
    pub fn for_each_record(
        &self,
        rank: u32,
        mut f: impl FnMut(GroupView<'_>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let p = &self.partitions[rank as usize];
        assert!(p.buf.is_empty(), "finish() must run before reading");
        if !p.created {
            return Ok(());
        }
        let path = self.dir.join(format!("part-{rank}.bin"));
        // Spill files are modest per partition; read whole then decode.
        // (Records never span our flush boundaries incorrectly because
        // flushing always writes whole encoded records.)
        let mut raw = Vec::with_capacity(p.bytes as usize);
        File::open(path)?.read_to_end(&mut raw)?;
        // A decode or invariant failure means the partition file is
        // corrupt; it surfaces as InvalidData so the caller can fail this
        // one partition instead of the whole process.
        let num_ranks = self.partitions.len();
        for_each_view(&mut ByteReader::new(&raw), |g| {
            check_view(&g, Some(num_ranks))?;
            f(g)
        })
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoded record, owned: pattern (empty for Plain), bare count,
    /// outlier rows.
    type Owned = (Vec<u32>, u64, Vec<Vec<u32>>);

    fn plain(row: &[u32]) -> Owned {
        (Vec::new(), 0, vec![row.to_vec()])
    }

    fn read(mgr: &SpillManager, rank: u32, seen: &mut Vec<Owned>) -> std::io::Result<()> {
        mgr.for_each_record(rank, |g| {
            seen.push((
                g.pattern.to_vec(),
                g.bare,
                g.outliers.iter().map(<[u32]>::to_vec).collect(),
            ));
            Ok(())
        })
    }

    #[test]
    fn write_finish_read_round_trip() {
        let mut mgr = SpillManager::new(5).unwrap();
        mgr.append_plain(0, &[1, 2]).unwrap();
        mgr.append_plain(0, &[3]).unwrap();
        let g = GroupView { pattern: &[4], outliers: gogreen_data::TupleSlices::empty(), bare: 1 };
        mgr.append(2, g).unwrap();
        mgr.finish().unwrap();
        let mut got = Vec::new();
        read(&mgr, 0, &mut got).unwrap();
        assert_eq!(got, vec![plain(&[1, 2]), plain(&[3])]);
        let mut got2 = Vec::new();
        read(&mgr, 2, &mut got2).unwrap();
        assert_eq!(got2, vec![(vec![4], 1, Vec::new())]);
        assert_eq!(mgr.partition_records(0), 2);
    }

    #[test]
    fn empty_partition_reads_nothing() {
        let mut mgr = SpillManager::new(2).unwrap();
        mgr.finish().unwrap();
        let mut n = 0;
        mgr.for_each_record(1, |_| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 0);
        assert_eq!(mgr.partition_bytes(1), 0);
    }

    #[test]
    fn accounting_accumulates() {
        let mut mgr = SpillManager::new(1).unwrap();
        for k in 0..100u32 {
            mgr.append_plain(0, &[k, k + 1]).unwrap();
        }
        assert_eq!(mgr.partition_records(0), 100);
        assert!(mgr.estimated_memory(0) > 0);
        assert!(mgr.partition_bytes(0) > 0);
        mgr.finish().unwrap();
        assert!(mgr.total_bytes() > 0);
    }

    #[test]
    fn corrupted_partition_file_reads_as_invalid_data() {
        let mut mgr = SpillManager::new(3).unwrap();
        mgr.append_plain(0, &[1, 2]).unwrap();
        mgr.finish().unwrap();
        // Append a record with an unknown tag behind the valid one.
        let path = mgr.dir.join("part-0.bin");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9u8, 0, 0, 0, 0]).unwrap();
        drop(f);
        let mut seen = Vec::new();
        let err = read(&mgr, 0, &mut seen).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tag 9"), "{err}");
        // The valid prefix decoded before the corruption surfaced.
        assert_eq!(seen, vec![plain(&[1, 2])]);
    }

    /// A checksum-valid record whose rank is beyond the manager's rank
    /// count is `InvalidData` — it would otherwise index past a count
    /// array in the driver and the engine.
    #[test]
    fn decoded_rank_beyond_partition_count_is_invalid_data() {
        let mut mgr = SpillManager::new(4).unwrap();
        mgr.append_plain(1, &[2, 3]).unwrap();
        mgr.finish().unwrap();
        let mut forged = Vec::new();
        put_plain(&mut forged, &[9u32]);
        std::fs::write(mgr.dir.join("part-1.bin"), forged).unwrap();
        let err = read(&mgr, 1, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rank 9"), "{err}");
        // Unsorted and empty rows break the rank database's invariants too.
        for row in [&[3u32, 2][..], &[]] {
            let mut forged = Vec::new();
            put_plain(&mut forged, row);
            std::fs::write(mgr.dir.join("part-1.bin"), forged).unwrap();
            let err = read(&mgr, 1, &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{row:?}");
        }
    }

    #[test]
    fn stale_partition_file_is_overwritten_not_read_back() {
        let mut mgr = SpillManager::new(10).unwrap();
        // A killed process with the same pid and sequence number left a
        // CRC-valid record behind in the reused directory.
        let mut stale = Vec::new();
        put_plain(&mut stale, &[7u32, 8, 9]);
        std::fs::write(mgr.dir.join("part-0.bin"), stale).unwrap();
        mgr.append_plain(0, &[1, 2]).unwrap();
        mgr.finish().unwrap();
        let mut got = Vec::new();
        read(&mgr, 0, &mut got).unwrap();
        assert_eq!(got, vec![plain(&[1, 2])]);
    }

    #[test]
    fn temp_dir_removed_on_drop() {
        let dir;
        {
            let mut mgr = SpillManager::new(2).unwrap();
            mgr.append_plain(0, &[1]).unwrap();
            mgr.finish().unwrap();
            dir = mgr.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }

    #[test]
    fn large_volume_triggers_intermediate_flushes() {
        let mut mgr = SpillManager::new(2001).unwrap();
        let fat: Vec<u32> = (0..2000).collect();
        for _ in 0..100 {
            mgr.append_plain(0, &fat).unwrap();
        }
        mgr.finish().unwrap();
        let mut got = Vec::new();
        read(&mgr, 0, &mut got).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|r| *r == plain(&fat)));
    }
}
