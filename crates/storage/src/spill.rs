//! Partition files for parallel projection.
//!
//! A [`SpillManager`] owns one temporary directory holding one file per
//! frequent item (rank). Each partition buffers what is appended to it
//! as a [`CompressedRankDb`] — groups and plain rows in append order
//! within each kind — and flushes it as one rank-space
//! [`crate::layout`] file, a *chunk*, whenever the chunk reaches
//! 256 KiB; a partition file is its chunks back to back. A
//! partition's first flush truncates its file, so a stale file left in a
//! reused directory by a killed process is never read back.
//!
//! Readers take a partition one chunk at a time, through one buffer
//! reused across chunks and sized from each chunk's checked header, so
//! reading never holds more than one chunk however large the partition
//! (a partition re-spilled because it exceeds the budget is read once
//! for counting and once for re-projection). Every chunk goes through
//! the layout reader — header counts within the rest of the file, every
//! section checksum, the one validator with ranks below the manager's
//! rank count — so a corrupt partition is `InvalidData`, never a panic.
//! Everything is deleted on drop.

use crate::layout::{self, invalid};
use gogreen_data::{CompressedRankDb, GroupView, IdSpace};
use gogreen_obs::metrics;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Flush threshold per partition buffer: its encoded chunk size.
const FLUSH_BYTES: usize = 256 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Estimated bytes of the in-memory RP-Struct share one plain row of
/// `len` ranks expands to (used for load-vs-respill decisions).
pub(crate) fn plain_memory(len: usize) -> usize {
    (len + 1) * 12 + 12
}

/// [`plain_memory`] for one group: a fixed group cost, the pattern, and
/// per member row its tail plus a group link.
pub(crate) fn group_memory(g: &GroupView<'_>) -> usize {
    60 + g.pattern.len() * 4 + g.outliers.iter().map(|o| plain_memory(o.len()) + 4).sum::<usize>()
}

struct Partition {
    /// What was appended since the last flush: the next chunk.
    buf: CompressedRankDb,
    created: bool,
    bytes: u64,
    tuples: u64,
    est_memory: usize,
}

impl Partition {
    fn buffered(&self) -> bool {
        self.buf.num_groups() > 0 || !self.buf.plain().is_empty()
    }
}

/// One level of disk-resident projected partitions.
pub struct SpillManager {
    dir: PathBuf,
    partitions: Vec<Partition>,
    /// One chunk's encoding, reused by every flush.
    scratch: Vec<u8>,
    flush_bytes: usize,
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
                buf: CompressedRankDb::empty(num_ranks),
                created: false,
                bytes: 0,
                tuples: 0,
                est_memory: 0,
            })
            .collect();
        Ok(SpillManager { dir, partitions, scratch: Vec::new(), flush_bytes: FLUSH_BYTES })
    }

    pub(crate) fn partition_path(&self, rank: u32) -> PathBuf {
        self.dir.join(format!("part-{rank}.bin"))
    }

    /// Appends `g` to partition `rank`: as a group, or, when its pattern
    /// is empty, as one plain row per outlier row (its bare members carry
    /// nothing).
    pub fn append(&mut self, rank: u32, g: GroupView<'_>) -> std::io::Result<()> {
        if g.pattern.is_empty() {
            return g.outliers.iter().try_for_each(|row| self.append_plain(rank, row));
        }
        let p = &mut self.partitions[rank as usize];
        p.buf.push_group(g.pattern, g.outliers, g.bare);
        p.tuples += g.count();
        p.est_memory += group_memory(&g);
        self.flush_if_full(rank)
    }

    /// Appends one plain row (non-empty ascending ranks) to partition
    /// `rank`.
    pub fn append_plain(&mut self, rank: u32, row: &[u32]) -> std::io::Result<()> {
        let p = &mut self.partitions[rank as usize];
        p.buf.push_plain(row);
        p.tuples += 1;
        p.est_memory += plain_memory(row.len());
        self.flush_if_full(rank)
    }

    fn flush_if_full(&mut self, rank: u32) -> std::io::Result<()> {
        if layout::encoded_len(&self.partitions[rank as usize].buf, 0) >= self.flush_bytes {
            self.flush(rank)?;
        }
        Ok(())
    }

    /// Flushes all buffered data; must be called before reading.
    pub fn finish(&mut self) -> std::io::Result<()> {
        for rank in 0..self.partitions.len() as u32 {
            if self.partitions[rank as usize].buffered() {
                self.flush(rank)?;
            }
        }
        Ok(())
    }

    /// Writes partition `rank`'s buffer as one chunk, in one write.
    fn flush(&mut self, rank: u32) -> std::io::Result<()> {
        let path = self.partition_path(rank);
        let p = &mut self.partitions[rank as usize];
        self.scratch.clear();
        layout::encode(&mut self.scratch, &p.buf, IdSpace::Rank, &[]);
        // The first flush truncates: the directory name can repeat across
        // processes, and a stale file must not prefix this partition.
        let mut f = if p.created {
            OpenOptions::new().append(true).open(path)?
        } else {
            File::create(path)?
        };
        f.write_all(&self.scratch)?;
        metrics::add("storage.spill_bytes", self.scratch.len() as u64);
        if !p.created {
            metrics::add("storage.spill_partitions", 1);
        }
        p.bytes += self.scratch.len() as u64;
        p.buf.clear();
        p.created = true;
        Ok(())
    }

    /// Bytes written to partition `rank`, counting its buffer as the
    /// chunk it would flush to.
    pub fn partition_bytes(&self, rank: u32) -> u64 {
        let p = &self.partitions[rank as usize];
        p.bytes + if p.buffered() { layout::encoded_len(&p.buf, 0) as u64 } else { 0 }
    }

    /// Tuples appended to partition `rank`: a group's members plus plain
    /// rows.
    pub fn partition_tuples(&self, rank: u32) -> u64 {
        self.partitions[rank as usize].tuples
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

    /// Streams partition `rank` through `f` as views, chunk by chunk —
    /// each chunk's groups, then its plain rows as one view with an empty
    /// pattern — stopping at the first error. Call
    /// [`SpillManager::finish`] first.
    pub fn for_each_record(
        &self,
        rank: u32,
        mut f: impl FnMut(GroupView<'_>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let p = &self.partitions[rank as usize];
        assert!(!p.buffered(), "finish() must run before reading");
        if !p.created {
            return Ok(());
        }
        let mut file = File::open(self.partition_path(rank))?;
        let len = file.metadata()?.len();
        if len != p.bytes {
            return Err(invalid(format!(
                "partition {rank}: {len} bytes on disk, {} written",
                p.bytes
            )));
        }
        let num_ranks = self.partitions.len();
        let mut body = Vec::new();
        let mut at = 0;
        while at < len {
            let at_chunk =
                |e: std::io::Error| invalid(format!("partition {rank}, chunk at {at}: {e}"));
            let h = layout::read_header(&mut file, IdSpace::Rank, len - at).map_err(at_chunk)?;
            body.clear();
            body.resize(h.body_bytes() as usize, 0);
            file.read_exact(&mut body)?;
            let chunk = layout::decode_body(&h, &body, Default::default()).map_err(at_chunk)?;
            if chunk.num_ranks() != num_ranks {
                return Err(at_chunk(invalid(format!(
                    "a chunk of {} ranks in a partition of {num_ranks}",
                    chunk.num_ranks()
                ))));
            }
            chunk.groups().try_for_each(&mut f)?;
            if !chunk.plain().is_empty() {
                f(GroupView { pattern: &[], outliers: chunk.plain(), bare: 0 })?;
            }
            at += (layout::HEADER_BYTES + body.len()) as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
impl SpillManager {
    /// Flushes each partition once its chunk reaches `flush_bytes`, so
    /// tests get many chunks from little data.
    pub(crate) fn with_flush_bytes(mut self, flush_bytes: usize) -> Self {
        self.flush_bytes = flush_bytes;
        self
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

    /// A read-back item, owned: pattern (empty for a plain row), bare
    /// count, outlier rows (the one row, for a plain row).
    type Owned = (Vec<u32>, u64, Vec<Vec<u32>>);

    fn plain(row: &[u32]) -> Owned {
        (Vec::new(), 0, vec![row.to_vec()])
    }

    fn group(pattern: &[u32], bare: u64, rows: &[&[u32]]) -> Owned {
        (pattern.to_vec(), bare, rows.iter().map(|r| r.to_vec()).collect())
    }

    /// Reads partition `rank` into `seen`, a plain view as one item per
    /// row.
    fn read(mgr: &SpillManager, rank: u32, seen: &mut Vec<Owned>) -> std::io::Result<()> {
        mgr.for_each_record(rank, |g| {
            if g.pattern.is_empty() {
                seen.extend(g.outliers.iter().map(plain));
            } else {
                seen.push((
                    g.pattern.to_vec(),
                    g.bare,
                    g.outliers.iter().map(<[u32]>::to_vec).collect(),
                ));
            }
            Ok(())
        })
    }

    fn append_owned(mgr: &mut SpillManager, rank: u32, (pattern, bare, rows): &Owned) {
        let rows: gogreen_data::CsrTuples<u32> = rows.iter().cloned().collect();
        mgr.append(rank, GroupView { pattern, outliers: rows.as_slices(), bare: *bare }).unwrap();
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
        assert_eq!(mgr.partition_tuples(0), 2);
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
        let mut mgr = SpillManager::new(101).unwrap();
        for k in 0..100u32 {
            mgr.append_plain(0, &[k, k + 1]).unwrap();
        }
        assert_eq!(mgr.partition_tuples(0), 100);
        assert!(mgr.estimated_memory(0) > 0);
        let buffered = mgr.partition_bytes(0);
        assert!(buffered > 0);
        mgr.finish().unwrap();
        assert_eq!(mgr.total_bytes(), buffered);
    }

    /// A partition written across at least three flushes reads back
    /// chunk by chunk: within each chunk its groups, then its plain rows,
    /// each kind in append order.
    #[test]
    fn partition_across_three_flushes_round_trips() {
        let mut mgr = SpillManager::new(40).unwrap().with_flush_bytes(300);
        let appended: Vec<Owned> = (0..30u32)
            .map(|k| match k % 3 {
                0 => plain(&[k, k + 1]),
                1 => group(&[k % 7, 8 + k % 5], u64::from(k % 2), &[&[20 + k % 9], &[7, 30]]),
                _ => group(&[k], 3, &[]),
            })
            .collect();
        for a in &appended {
            append_owned(&mut mgr, 0, a);
        }
        mgr.finish().unwrap();
        let chunks = layout::tests::chunk_starts(&std::fs::read(mgr.partition_path(0)).unwrap());
        assert!(chunks.len() >= 3, "{} chunks", chunks.len());
        let mut got = Vec::new();
        read(&mgr, 0, &mut got).unwrap();
        let groups =
            |v: &[Owned]| v.iter().filter(|o| !o.0.is_empty()).cloned().collect::<Vec<_>>();
        let plains = |v: &[Owned]| v.iter().filter(|o| o.0.is_empty()).cloned().collect::<Vec<_>>();
        assert_eq!(groups(&got), groups(&appended));
        assert_eq!(plains(&got), plains(&appended));
        assert_eq!(mgr.partition_tuples(0), appended.iter().map(|o| o.1 + o.2.len() as u64).sum());
    }

    /// A chunk header whose counts (under a valid header checksum) claim
    /// more bytes than the file has left is `InvalidData` from the header
    /// check, before the chunk's buffer is sized from it.
    #[test]
    fn chunk_claiming_more_than_the_file_holds_is_invalid_data() {
        let mut mgr = SpillManager::new(8).unwrap().with_flush_bytes(1);
        mgr.append_plain(3, &[4, 5]).unwrap();
        mgr.append_plain(3, &[6]).unwrap();
        mgr.finish().unwrap();
        let path = mgr.partition_path(3);
        let good = std::fs::read(&path).unwrap();
        let second = layout::tests::chunk_starts(&good)[1];
        for (count, value) in [(4, 2), (5, 1000), (6, u32::MAX)] {
            let mut bytes = good.clone();
            layout::tests::set_count(&mut bytes[second..], count, value);
            std::fs::write(&path, &bytes).unwrap();
            let mut seen = Vec::new();
            let err = read(&mgr, 3, &mut seen).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("header counts describe"), "{err}");
            assert_eq!(seen, vec![plain(&[4, 5])], "the first chunk reads before the bad one");
        }
    }

    #[test]
    fn corrupted_partition_file_reads_as_invalid_data() {
        let mut mgr = SpillManager::new(3).unwrap().with_flush_bytes(1);
        mgr.append_plain(0, &[1, 2]).unwrap();
        mgr.append_plain(0, &[2]).unwrap();
        mgr.finish().unwrap();
        let path = mgr.partition_path(0);
        let good = std::fs::read(&path).unwrap();
        // Flip a bit of the second chunk's last rank.
        let mut bytes = good.clone();
        *bytes.last_mut().unwrap() ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut seen = Vec::new();
        let err = read(&mgr, 0, &mut seen).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("plain section checksum"), "{err}");
        // The valid first chunk decoded before the corruption surfaced.
        assert_eq!(seen, vec![plain(&[1, 2])]);
        // Bytes behind the last chunk are caught on the file's length.
        let mut trailing = good;
        trailing.extend([9u8, 0, 0, 0, 0]);
        std::fs::write(&path, &trailing).unwrap();
        let err = read(&mgr, 0, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    /// A checksum-valid chunk whose ranks reach beyond the manager's rank
    /// count is `InvalidData` — it would otherwise index past a count
    /// array in the driver and the engine — and so is a chunk that claims
    /// another rank count, or breaks the rank database's row invariants.
    #[test]
    fn decoded_rank_beyond_partition_count_is_invalid_data() {
        let mut mgr = SpillManager::new(4).unwrap();
        mgr.append_plain(1, &[2, 3]).unwrap();
        mgr.append_plain(1, &[1]).unwrap();
        mgr.finish().unwrap();
        let path = mgr.partition_path(1);
        // Same shape as the real chunk (two rows, three ranks), so the
        // file length still matches what the manager wrote.
        let forge =
            |rows: &[&[u32]], extent| layout::tests::forge(&[], rows, IdSpace::Rank, extent);
        assert_eq!(forge(&[&[2, 3], &[1]], 4), std::fs::read(&path).unwrap());
        for (rows, extent, why) in [
            (&[&[9u32, 10][..], &[1]][..], 4, "rank 9 out of range"),
            (&[&[2, 9], &[1]], 10, "a chunk of 10 ranks"),
            (&[&[3, 2], &[1]], 4, "not strictly ascending"),
            (&[&[], &[1, 2, 3]], 4, "empty"),
        ] {
            std::fs::write(&path, forge(rows, extent)).unwrap();
            let err = read(&mgr, 1, &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{rows:?}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn stale_partition_file_is_overwritten_not_read_back() {
        let mut mgr = SpillManager::new(10).unwrap();
        // A killed process with the same pid and sequence number left a
        // valid chunk behind in the reused directory.
        let stale = layout::tests::forge(&[], &[&[7, 8, 9]], IdSpace::Rank, 10);
        std::fs::write(mgr.partition_path(0), stale).unwrap();
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
        assert!(mgr.partitions[0].created, "the buffer flushed before finish");
        mgr.finish().unwrap();
        let mut got = Vec::new();
        read(&mgr, 0, &mut got).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|r| *r == plain(&fat)));
    }

    #[test]
    fn memory_estimate_grows_with_content() {
        let rows = gogreen_data::CsrTuples::from_iter([vec![4u32, 5], vec![6]]);
        let big = GroupView { pattern: &[1u32, 2, 3], outliers: rows.as_slices(), bare: 0 };
        assert!(group_memory(&big) > plain_memory(1));
    }
}
