//! Immutable on-disk CSR segments — the out-of-core database substrate.
//!
//! A *segment* is one sealed, checksummed file holding a contiguous run
//! of database tuples in exactly the [`CsrTuples`] layout: a flat
//! element array plus an offsets array, written verbatim. Loading a
//! segment is therefore two bulk array reads straight into the in-memory
//! CSR container — no per-row parsing — and a loaded segment hands the
//! engines the same [`gogreen_data::TupleSlices`] windows an in-memory
//! database would (the layout is mmap-friendly by construction; this
//! implementation reads, it does not map, since the workspace takes no
//! mmap dependency).
//!
//! Each segment additionally carries an **item-support sidecar**: the
//! per-item occurrence counts of its own rows, written at seal time.
//! Whole-database supports — what F-list construction and the cover
//! index need — are the sum of the sidecars, so a mining round reads
//! every *sidecar* cheaply and then makes exactly **one full pass per
//! segment** (the encode or cover pass), which `storage.segments_read`
//! counts. `storage.resident_peak` tracks the largest payload resident
//! at once: segments are loaded one at a time and dropped before the
//! next, so the peak stays bounded by the largest segment, not the
//! database.
//!
//! Lifecycle: **append** rows through a [`SegmentWriter`] (rows
//! accumulate in memory up to the configured segment size) → **seal**
//! (the writer flushes a finished file; sealed files are never modified)
//! → **compact** ([`compact`] merges undersized sealed segments into
//! full-sized ones, e.g. after many small incremental appends).
//!
//! ## Wire format
//!
//! All integers little-endian. A 24-byte header:
//!
//! | bytes | field |
//! |------:|-------|
//! | 0..4  | magic `"GGSG"` |
//! | 4..8  | format version (1) |
//! | 8..12 | row count `r` |
//! | 12..16| element count `e` |
//! | 16..20| sidecar entry count `s` |
//! | 20..24| CRC-32 of the payload |
//!
//! followed by the payload: `offsets[r+1] : u32`, `data[e] : u32`,
//! then `s` sidecar pairs `(item : u32, count : u32)`.

use crate::budget::MemoryBudget;
use crate::crc::crc32;
use gogreen_data::{CsrTuples, Item, TransactionDb};
use gogreen_obs::{histogram, metrics};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment file magic.
const MAGIC: [u8; 4] = *b"GGSG";
/// Current format version.
const FORMAT_VERSION: u32 = 1;
/// Header size in bytes.
const HEADER_BYTES: usize = 24;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn segment_file_name(id: u32) -> String {
    format!("seg-{id:06}.ggs")
}

/// Parses `seg-NNNNNN.ggs` back to its id.
fn parse_segment_id(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?.strip_suffix(".ggs")?.parse().ok()
}

/// One segment's header, read without touching the payload.
#[derive(Debug, Clone)]
struct SegmentMeta {
    path: PathBuf,
    rows: u32,
    elems: u32,
    sidecar_entries: u32,
    /// Payload bytes (file size minus header) — the resident cost of
    /// loading this segment.
    payload_bytes: usize,
}

fn read_header(path: &Path) -> io::Result<(SegmentMeta, u32)> {
    let mut f = File::open(path)?;
    let mut header = [0u8; HEADER_BYTES];
    f.read_exact(&mut header)
        .map_err(|_| bad_data(format!("{}: truncated segment header", path.display())))?;
    if header[0..4] != MAGIC {
        return Err(bad_data(format!("{}: not a segment file (bad magic)", path.display())));
    }
    let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().unwrap());
    if word(4) != FORMAT_VERSION {
        return Err(bad_data(format!(
            "{}: unsupported segment format version {}",
            path.display(),
            word(4)
        )));
    }
    let (rows, elems, sidecar_entries, crc) = (word(8), word(12), word(16), word(20));
    let payload = (u64::from(rows) + 1) * 4 + u64::from(elems) * 4 + u64::from(sidecar_entries) * 8;
    // The counts size later allocations: trust them only when they
    // describe exactly this file.
    let file_bytes = f.metadata()?.len();
    let payload_bytes = match usize::try_from(payload) {
        Ok(p) if HEADER_BYTES as u64 + payload == file_bytes => p,
        _ => {
            return Err(bad_data(format!(
                "{}: header counts describe {payload} payload bytes, file has {file_bytes} in all",
                path.display()
            )))
        }
    };
    let meta = SegmentMeta { path: path.to_owned(), rows, elems, sidecar_entries, payload_bytes };
    Ok((meta, crc))
}

/// Builds rows into sealed, immutable segment files under a directory.
///
/// Rows accumulate in an in-memory CSR buffer; when the buffer's
/// payload reaches the configured segment size it is sealed to disk and
/// the buffer restarts empty — the writer's residency is bounded by one
/// segment regardless of how many rows stream through it.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    segment_bytes: usize,
    next_id: u32,
    rows: CsrTuples<u32>,
    counts: Vec<u32>,
    sealed: usize,
}

impl SegmentWriter {
    /// Default segment payload size: 4 MiB, the paper's §5.3 machine
    /// budget.
    pub const DEFAULT_SEGMENT_BYTES: usize = 4 << 20;

    /// Opens `dir` for appending, creating it if needed. New segments
    /// continue after the highest existing id, so appending to a
    /// non-empty store never clobbers sealed files.
    pub fn create(dir: impl AsRef<Path>, segment_bytes: usize) -> io::Result<Self> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir)?;
        let next_id = scan_segment_ids(&dir)?.last().map_or(0, |&id| id + 1);
        Ok(SegmentWriter {
            dir,
            segment_bytes: segment_bytes.max(1),
            next_id,
            rows: CsrTuples::new(),
            counts: Vec::new(),
            sealed: 0,
        })
    }

    /// Appends one tuple (item ids, sorted ascending, duplicate-free),
    /// sealing the open segment first if this row would overflow it.
    pub fn push_row(&mut self, items: &[u32]) -> io::Result<()> {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "rows must be sorted item ids");
        let row_bytes = (items.len() + 1) * 4;
        if !self.rows.is_empty() && self.open_payload_bytes() + row_bytes > self.segment_bytes {
            self.seal()?;
        }
        for &it in items {
            if it as usize >= self.counts.len() {
                self.counts.resize(it as usize + 1, 0);
            }
            self.counts[it as usize] += 1;
        }
        self.rows.push_row(items);
        Ok(())
    }

    /// Payload bytes the open (unsealed) buffer would serialize to.
    fn open_payload_bytes(&self) -> usize {
        let sidecar = self.counts.iter().filter(|&&c| c > 0).count();
        (self.rows.len() + 1) * 4 + self.rows.total_elems() * 4 + sidecar * 8
    }

    /// Rows currently buffered in the open segment.
    pub fn open_rows(&self) -> usize {
        self.rows.len()
    }

    /// Seals the open buffer into a new segment file (no-op when empty).
    pub fn seal(&mut self) -> io::Result<()> {
        if self.rows.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.rows);
        let counts = std::mem::take(&mut self.counts);
        let path = self.dir.join(segment_file_name(self.next_id));
        let bytes = write_segment(&path, &rows, &counts)?;
        self.next_id += 1;
        self.sealed += 1;
        metrics::add("storage.segments_written", 1);
        histogram::observe("storage.segment_bytes", bytes as u64);
        Ok(())
    }

    /// Seals any buffered rows and returns how many segments this
    /// writer sealed in total.
    pub fn finish(mut self) -> io::Result<usize> {
        self.seal()?;
        Ok(self.sealed)
    }
}

/// Serializes one segment file; returns its total size in bytes.
fn write_segment(path: &Path, rows: &CsrTuples<u32>, counts: &[u32]) -> io::Result<u64> {
    let mut payload: Vec<u8> =
        Vec::with_capacity((rows.len() + 1) * 4 + rows.total_elems() * 4 + counts.len() * 8);
    for &off in rows.offsets() {
        payload.extend_from_slice(&off.to_le_bytes());
    }
    for &x in rows.flat() {
        payload.extend_from_slice(&x.to_le_bytes());
    }
    let mut sidecar_entries = 0u32;
    for (item, &count) in counts.iter().enumerate() {
        if count > 0 {
            payload.extend_from_slice(&(item as u32).to_le_bytes());
            payload.extend_from_slice(&count.to_le_bytes());
            sidecar_entries += 1;
        }
    }
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    header.extend_from_slice(&(rows.total_elems() as u32).to_le_bytes());
    header.extend_from_slice(&sidecar_entries.to_le_bytes());
    header.extend_from_slice(&crc32(&payload).to_le_bytes());
    let mut f = File::create(path)?;
    f.write_all(&header)?;
    f.write_all(&payload)?;
    f.flush()?;
    Ok((header.len() + payload.len()) as u64)
}

fn scan_segment_ids(dir: &Path) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                if let Some(id) = entry.file_name().to_str().and_then(parse_segment_id) {
                    ids.push(id);
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    ids.sort_unstable();
    Ok(ids)
}

/// A read view over a directory of sealed segments.
///
/// Opening reads only headers — row/element counts and payload sizes —
/// so the database's shape (`total_rows`, `total_elems`) is known
/// without touching any payload. Payloads are loaded one segment at a
/// time through [`SegmentedDb::load`] under the configured resident
/// budget; summed item supports come from the sidecars alone.
#[derive(Debug)]
pub struct SegmentedDb {
    segments: Vec<SegmentMeta>,
    budget: MemoryBudget,
}

impl SegmentedDb {
    /// Opens the segment store under `dir` with an unlimited resident
    /// budget.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        let mut segments = Vec::new();
        for id in scan_segment_ids(dir)? {
            let (meta, _) = read_header(&dir.join(segment_file_name(id)))?;
            segments.push(meta);
        }
        Ok(SegmentedDb { segments, budget: MemoryBudget::unlimited() })
    }

    /// Sets the resident budget: [`SegmentedDb::load`] refuses any
    /// single segment whose payload exceeds it.
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Number of sealed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total rows across all segments.
    pub fn total_rows(&self) -> usize {
        self.segments.iter().map(|s| s.rows as usize).sum()
    }

    /// Total elements across all segments.
    pub fn total_elems(&self) -> usize {
        self.segments.iter().map(|s| s.elems as usize).sum()
    }

    /// Total on-disk payload bytes across all segments.
    pub fn total_payload_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.payload_bytes as u64).sum()
    }

    /// Largest single-segment payload — the minimum workable resident
    /// budget.
    pub fn max_segment_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.payload_bytes).max().unwrap_or(0)
    }

    /// Whole-database per-item supports, summed from the per-segment
    /// sidecars. Reads headers and sidecar tails only — **not** counted
    /// as a segment pass.
    pub fn item_supports(&self) -> io::Result<Vec<u64>> {
        let mut counts: Vec<u64> = Vec::new();
        for seg in &self.segments {
            let mut f = File::open(&seg.path)?;
            let sidecar_start =
                HEADER_BYTES as u64 + (seg.rows as u64 + 1) * 4 + seg.elems as u64 * 4;
            f.seek(SeekFrom::Start(sidecar_start))?;
            let mut buf = vec![0u8; seg.sidecar_entries as usize * 8];
            f.read_exact(&mut buf)
                .map_err(|_| bad_data(format!("{}: truncated sidecar", seg.path.display())))?;
            for pair in buf.chunks_exact(8) {
                let item = u32::from_le_bytes(pair[0..4].try_into().unwrap()) as usize;
                let count = u32::from_le_bytes(pair[4..8].try_into().unwrap()) as u64;
                if item >= counts.len() {
                    counts.resize(item + 1, 0);
                }
                counts[item] += count;
            }
        }
        Ok(counts)
    }

    /// Loads segment `i` fully: verifies the payload checksum, bumps
    /// `storage.segments_read`, tracks `storage.resident_peak`, and
    /// reassembles the rows as a [`TransactionDb`] via
    /// [`CsrTuples::from_raw_parts`].
    pub fn load(&self, i: usize) -> io::Result<TransactionDb> {
        let seg = &self.segments[i];
        if !self.budget.fits(seg.payload_bytes) {
            return Err(bad_data(format!(
                "{}: segment payload ({} bytes) exceeds the resident budget ({} bytes)",
                seg.path.display(),
                seg.payload_bytes,
                self.budget.limit()
            )));
        }
        let (_, stored_crc) = read_header(&seg.path)?;
        let mut f = File::open(&seg.path)?;
        f.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
        let mut payload = vec![0u8; seg.payload_bytes];
        f.read_exact(&mut payload)
            .map_err(|_| bad_data(format!("{}: truncated payload", seg.path.display())))?;
        let computed = crc32(&payload);
        if computed != stored_crc {
            return Err(bad_data(format!(
                "{}: payload checksum mismatch (stored {stored_crc:#010x}, computed \
                 {computed:#010x})",
                seg.path.display()
            )));
        }
        let offsets_end = (seg.rows as usize + 1) * 4;
        let data_end = offsets_end + seg.elems as usize * 4;
        let offsets: Vec<u32> = payload[..offsets_end]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let data: Vec<Item> = payload[offsets_end..data_end]
            .chunks_exact(4)
            .map(|b| Item(u32::from_le_bytes(b.try_into().unwrap())))
            .collect();
        if offsets.first() != Some(&0)
            || offsets.last().map(|&o| o as usize) != Some(data.len())
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(bad_data(format!("{}: corrupt offsets array", seg.path.display())));
        }
        metrics::add("storage.segments_read", 1);
        metrics::set_max("storage.resident_peak", seg.payload_bytes as u64);
        Ok(TransactionDb::from_csr(CsrTuples::from_raw_parts(data, offsets)))
    }

    /// Loads each segment in turn (one resident at a time) and hands it
    /// to `f` with its index.
    pub fn for_each_segment(
        &self,
        mut f: impl FnMut(usize, &TransactionDb) -> io::Result<()>,
    ) -> io::Result<()> {
        for i in 0..self.segments.len() {
            let db = self.load(i)?;
            f(i, &db)?;
        }
        Ok(())
    }

    /// Materializes the entire store as one in-memory database —
    /// test/compat convenience, not an out-of-core path (residency is
    /// the whole database).
    pub fn to_transaction_db(&self) -> io::Result<TransactionDb> {
        let mut csr = CsrTuples::with_capacity(self.total_rows(), self.total_elems());
        self.for_each_segment(|_, db| {
            for t in db.iter() {
                csr.push_row(t);
            }
            Ok(())
        })?;
        Ok(TransactionDb::from_csr(csr))
    }
}

/// Outcome of a [`compact`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Segment count before compaction.
    pub segments_before: usize,
    /// Segment count after compaction.
    pub segments_after: usize,
    /// Total rows (unchanged by compaction).
    pub rows: usize,
}

/// Rewrites the store so every segment (except possibly the last)
/// reaches the target payload size — merging the undersized tails that
/// accumulate from incremental appends. Row order is preserved exactly;
/// new files are written alongside the old ones and swapped in only
/// after every new segment sealed cleanly.
pub fn compact(dir: impl AsRef<Path>, segment_bytes: usize) -> io::Result<CompactReport> {
    let dir = dir.as_ref();
    let db = SegmentedDb::open(dir)?;
    let before = db.num_segments();
    let rows = db.total_rows();
    let tmp = dir.join("compact-tmp");
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    let mut writer = SegmentWriter::create(&tmp, segment_bytes)?;
    let mut row_ids: Vec<u32> = Vec::new();
    db.for_each_segment(|_, seg_db| {
        for t in seg_db.iter() {
            row_ids.clear();
            row_ids.extend(t.iter().map(|it| it.id()));
            writer.push_row(&row_ids)?;
        }
        Ok(())
    })?;
    let after = writer.finish()?;
    // Swap: drop the old sealed files, move the new ones into place.
    for id in scan_segment_ids(dir)? {
        std::fs::remove_file(dir.join(segment_file_name(id)))?;
    }
    for id in scan_segment_ids(&tmp)? {
        let name = segment_file_name(id);
        std::fs::rename(tmp.join(&name), dir.join(&name))?;
    }
    std::fs::remove_dir_all(&tmp)?;
    Ok(CompactReport { segments_before: before, segments_after: after, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gogreen-segment-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    fn fill(dir: &Path, rows: &[&[u32]], segment_bytes: usize) -> usize {
        let mut w = SegmentWriter::create(dir, segment_bytes).unwrap();
        for r in rows {
            w.push_row(r).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn header_counts_must_match_the_file_length() {
        let dir = temp_dir("hostile-header");
        std::fs::create_dir_all(&dir).unwrap();
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for word in [u32::MAX, u32::MAX, u32::MAX, 0] {
            header.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(header.len(), HEADER_BYTES);
        std::fs::write(dir.join(segment_file_name(0)), &header).unwrap();
        let err = SegmentedDb::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn round_trip_single_segment() {
        let dir = temp_dir("single");
        let rows: &[&[u32]] = &[&[0, 2, 5], &[1], &[2, 3, 4, 9]];
        assert_eq!(fill(&dir, rows, 1 << 20), 1);
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 1);
        assert_eq!(db.total_rows(), 3);
        assert_eq!(db.total_elems(), 8);
        let loaded = db.load(0).unwrap();
        assert_eq!(loaded, TransactionDb::from_rows(rows));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolls_over_at_the_byte_budget_and_preserves_order() {
        let dir = temp_dir("roll");
        let rows: Vec<Vec<u32>> = (0..100u32).map(|k| vec![k, k + 1, k + 200]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        // ~16 bytes per row payload; a 64-byte budget forces many segments.
        let sealed = fill(&dir, &refs, 64);
        assert!(sealed > 10, "expected many segments, got {sealed}");
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), sealed);
        assert_eq!(db.total_rows(), 100);
        assert_eq!(db.to_transaction_db().unwrap(), TransactionDb::from_rows(&refs));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sidecar_supports_match_full_scan() {
        let dir = temp_dir("sidecar");
        let rows: Vec<Vec<u32>> = (0..50u32).map(|k| vec![k % 7, 7 + k % 3, 20]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        fill(&dir, &refs, 128);
        let db = SegmentedDb::open(&dir).unwrap();
        let from_sidecars = db.item_supports().unwrap();
        let from_scan = TransactionDb::from_rows(&refs).item_supports();
        assert_eq!(from_sidecars, from_scan);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_continues_numbering() {
        let dir = temp_dir("append");
        fill(&dir, &[&[1, 2]], 1 << 20);
        fill(&dir, &[&[3, 4]], 1 << 20);
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 2);
        assert_eq!(db.to_transaction_db().unwrap(), TransactionDb::from_rows(&[&[1, 2], &[3, 4]]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_refuses_oversized_segment() {
        let dir = temp_dir("budget");
        fill(&dir, &[&[1, 2, 3, 4, 5, 6, 7, 8]], 1 << 20);
        let db = SegmentedDb::open(&dir).unwrap().with_budget(MemoryBudget::bytes(8));
        let err = db.load(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("resident budget"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let dir = temp_dir("corrupt");
        fill(&dir, &[&[1, 2, 3]], 1 << 20);
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let k = bytes.len() - 3;
        bytes[k] ^= 0x40; // flip a payload bit
        std::fs::write(&path, &bytes).unwrap();
        let db = SegmentedDb::open(&dir).unwrap();
        let err = db.load(0).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_merges_small_segments() {
        let dir = temp_dir("compact");
        let rows: Vec<Vec<u32>> = (0..60u32).map(|k| vec![k, k + 100]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let sealed = fill(&dir, &refs, 48);
        assert!(sealed > 5);
        let report = compact(&dir, 1 << 20).unwrap();
        assert_eq!(report.segments_before, sealed);
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.rows, 60);
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 1);
        assert_eq!(db.to_transaction_db().unwrap(), TransactionDb::from_rows(&refs));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_segment_files_are_ignored() {
        let dir = temp_dir("ignore");
        fill(&dir, &[&[1]], 1 << 20);
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
