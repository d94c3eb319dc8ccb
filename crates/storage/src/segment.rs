//! Immutable on-disk CSR segments — the out-of-core database substrate.
//!
//! A *segment* is one sealed, checksummed file holding a contiguous run
//! of database tuples in exactly the [`CsrTuples`] layout: a flat
//! element array plus an offsets array, written verbatim. Loading a
//! segment is therefore one bulk read of its sections, decoded straight
//! into the in-memory CSR container — no per-row parsing — and a loaded
//! segment hands the
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
//! ## File format
//!
//! A segment is one [`crate::layout`] file: an item-space layout with
//! zero groups, whose plain section holds the rows (`n` row offsets plus
//! `e` item ids), followed by the sidecar of `s` `(item, count)` pairs.
//! The extent is the segment's item-occurrence count `e`. Rollover is
//! decided on the *payload* — the rows' offsets and ids plus the sidecar,
//! `(n + 1) * 4 + e * 4 + s * 8` bytes; the file adds the layout header
//! and the empty group sections to it.

use crate::budget::MemoryBudget;
use crate::layout::{self, invalid};
use gogreen_data::{CompressedDb, CsrTuples, IdSpace, Item, TransactionDb};
use gogreen_obs::{histogram, metrics};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn segment_file_name(id: u32) -> String {
    format!("seg-{id:06}.ggs")
}

/// Parses `seg-NNNNNN.ggs` back to its id.
fn parse_segment_id(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?.strip_suffix(".ggs")?.parse().ok()
}

/// One segment's header, read without touching the rows.
#[derive(Debug, Clone)]
struct SegmentMeta {
    path: PathBuf,
    rows: u32,
    elems: u32,
    /// Section bytes (file size minus header): the payload plus the
    /// empty group sections — the resident cost of loading this segment.
    payload_bytes: usize,
}

/// Opens the segment at `path`, checks its header and adds its sidecar
/// to `supports`.
fn open_segment(path: &Path, supports: &mut Vec<u64>) -> io::Result<SegmentMeta> {
    let (h, mut f) = layout::open(path, IdSpace::Item)?;
    let mut sidecar = vec![0u8; h.sidecar_bytes()];
    f.seek(SeekFrom::Start((layout::HEADER_BYTES as u64) + h.layout_bytes()))?;
    f.read_exact(&mut sidecar)?;
    layout::add_sidecar(&h, &sidecar, supports)
        .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
    Ok(SegmentMeta {
        path: path.to_owned(),
        rows: h.plain_rows() as u32,
        elems: h.plain_ids() as u32,
        payload_bytes: h.body_bytes() as usize,
    })
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
    rows: CsrTuples<Item>,
    counts: Vec<u32>,
    /// Items with a nonzero count in `counts`: the open sidecar's entries.
    distinct: usize,
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
            distinct: 0,
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
            let c = &mut self.counts[it as usize];
            self.distinct += (*c == 0) as usize;
            *c += 1;
            self.rows.push_elem(Item(it));
        }
        self.rows.commit_row();
        Ok(())
    }

    /// Payload bytes the open (unsealed) buffer would serialize to.
    fn open_payload_bytes(&self) -> usize {
        (self.rows.len() + 1) * 4 + self.rows.total_elems() * 4 + self.distinct * 8
    }

    /// Seals the open buffer into a new segment file (no-op when empty).
    pub fn seal(&mut self) -> io::Result<()> {
        if self.rows.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.rows);
        let counts = std::mem::take(&mut self.counts);
        self.distinct = 0;
        let path = self.dir.join(segment_file_name(self.next_id));
        let bytes = write_segment(&path, rows, &counts)?;
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

/// Serializes one segment file — `rows` as a layout without groups, and
/// the sidecar of `counts` — in one write; returns its size in bytes.
fn write_segment(path: &Path, rows: CsrTuples<Item>, counts: &[u32]) -> io::Result<u64> {
    let extent = rows.total_elems();
    let segment = CompressedDb::from_plain(rows, extent);
    let entries = counts.iter().filter(|&&c| c > 0).count();
    let mut buf = Vec::with_capacity(layout::encoded_len(&segment, entries));
    layout::encode(&mut buf, &segment, IdSpace::Item, counts);
    std::fs::File::create(path)?.write_all(&buf)?;
    Ok(buf.len() as u64)
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
/// Opening reads each segment's header and sidecar in one file open —
/// row/element counts, payload sizes and item counts — so the
/// database's shape (`total_rows`, `total_elems`) and its summed item
/// supports are known without touching any row payload. Payloads are
/// loaded one segment at a time through [`SegmentedDb::load`] under the
/// configured resident budget.
#[derive(Debug)]
pub struct SegmentedDb {
    segments: Vec<SegmentMeta>,
    /// Whole-database item supports: the sum of every sidecar.
    supports: Vec<u64>,
    budget: MemoryBudget,
}

impl SegmentedDb {
    /// Opens the segment store under `dir` with an unlimited resident
    /// budget.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        let mut segments = Vec::new();
        let mut supports: Vec<u64> = Vec::new();
        for id in scan_segment_ids(dir)? {
            segments.push(open_segment(&dir.join(segment_file_name(id)), &mut supports)?);
        }
        Ok(SegmentedDb { segments, supports, budget: MemoryBudget::unlimited() })
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
    /// sidecars when the store was opened — **not** counted as a
    /// segment pass. Infallible since then; the `Result` keeps the
    /// signature of a read.
    pub fn item_supports(&self) -> io::Result<Vec<u64>> {
        Ok(self.supports.clone())
    }

    /// Loads segment `i` fully: reads its sections through the layout
    /// reader (every section checksum, then the one validator), bumps
    /// `storage.segments_read`, tracks `storage.resident_peak`, and hands
    /// the rows over as a [`TransactionDb`].
    pub fn load(&self, i: usize) -> io::Result<TransactionDb> {
        self.load_into(i, &mut Vec::new(), TransactionDb::new())
    }

    /// [`SegmentedDb::load`] into reused storage: the layout sections are
    /// read into `body` and the rows decoded into `reuse`'s CSR vectors,
    /// whose capacity the returned database keeps. The sidecar, checked
    /// when the store was opened, is not read again.
    fn load_into(
        &self,
        i: usize,
        body: &mut Vec<u8>,
        reuse: TransactionDb,
    ) -> io::Result<TransactionDb> {
        let seg = &self.segments[i];
        if !self.budget.fits(seg.payload_bytes) {
            return Err(invalid(format!(
                "{}: segment payload ({} bytes) exceeds the resident budget ({} bytes)",
                seg.path.display(),
                seg.payload_bytes,
                self.budget.limit()
            )));
        }
        let (h, mut f) = layout::open(&seg.path, IdSpace::Item)?;
        body.clear();
        body.resize(h.layout_bytes() as usize, 0);
        f.read_exact(body)?;
        let with_path = |e: io::Error| invalid(format!("{}: {e}", seg.path.display()));
        let segment = layout::decode_body(&h, body, reuse.into_csr()).map_err(with_path)?;
        if segment.num_groups() > 0 {
            return Err(with_path(invalid("a segment holds no groups")));
        }
        metrics::add("storage.segments_read", 1);
        metrics::set_max("storage.resident_peak", seg.payload_bytes as u64);
        Ok(TransactionDb::from_csr(segment.into_plain()))
    }

    /// Loads each segment in turn (one resident at a time) and hands it
    /// to `f` with its index. One byte buffer and one decoded CSR serve
    /// every segment.
    pub fn for_each_segment(
        &self,
        mut f: impl FnMut(usize, &TransactionDb) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut body = Vec::new();
        let mut db = TransactionDb::new();
        for i in 0..self.segments.len() {
            db = self.load_into(i, &mut body, db)?;
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

    /// Header counts of `u32::MAX` under a valid header checksum fail the
    /// open on the file's length, before any section is allocated.
    #[test]
    fn header_counts_must_match_the_file_length() {
        let dir = temp_dir("hostile-header");
        fill(&dir, &[&[1, 2], &[3]], 1 << 20);
        let path = dir.join(segment_file_name(0));
        let good = std::fs::read(&path).unwrap();
        for count in 0..7 {
            let mut bytes = good.clone();
            layout::tests::set_count(&mut bytes, count, u32::MAX);
            std::fs::write(&path, &bytes).unwrap();
            let err = SegmentedDb::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("header counts describe"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment of the retired `GGSG` v1 format (a 24-byte header, then
    /// row offsets, items and the sidecar) fails to open with
    /// `InvalidData` naming that format.
    #[test]
    fn ggsg_v1_segment_is_refused_by_name() {
        let dir = temp_dir("ggsg");
        std::fs::create_dir_all(&dir).unwrap();
        let payload: Vec<u8> =
            [0u32, 2, 1, 2, 1, 1, 2, 1].iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut old = b"GGSG".to_vec();
        for word in [1, 1, 2, 2, crate::crc::crc32(&payload)] {
            old.extend(word.to_le_bytes());
        }
        old.extend(payload);
        std::fs::write(dir.join(segment_file_name(0)), &old).unwrap();
        let err = SegmentedDb::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported format GGSG v1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollover_matches_a_recount_of_the_sidecar() {
        // Rows alternate between reusing a few items and introducing
        // fresh ones, so the sidecar grows unevenly from row to row.
        let rows: Vec<Vec<u32>> = (0..300u32)
            .map(|r| match r % 4 {
                0 => vec![1, 2, 3],
                1 => vec![2, 100 + r, 101 + r],
                2 => (0..r % 9).map(|k| 1000 + 7 * r + k).collect(),
                _ => vec![],
            })
            .collect();
        let segment_bytes = 700;
        // The rollover rule, recounting the open segment's distinct items
        // from scratch before every row.
        let mut expected = Vec::new();
        let mut open: Vec<&[u32]> = Vec::new();
        for row in &rows {
            let mut items: Vec<u32> = open.iter().flat_map(|r| r.iter().copied()).collect();
            items.sort_unstable();
            items.dedup();
            let elems: usize = open.iter().map(|r| r.len()).sum();
            let payload = (open.len() + 1) * 4 + elems * 4 + items.len() * 8;
            if !open.is_empty() && payload + (row.len() + 1) * 4 > segment_bytes {
                expected.push(open.len());
                open.clear();
            }
            open.push(row);
        }
        expected.push(open.len());
        assert!(expected.len() > 3, "the rows must span several segments");

        let dir = temp_dir("uneven-sidecar");
        let refs: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        assert_eq!(fill(&dir, &refs, segment_bytes), expected.len());
        let db = SegmentedDb::open(&dir).unwrap();
        let got: Vec<usize> = (0..db.num_segments()).map(|i| db.load(i).unwrap().len()).collect();
        assert_eq!(got, expected);
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

    /// Supports are summed at open, in the same file read as the header:
    /// no segment pass is counted, and a segment cut short inside its
    /// sidecar fails the open with `InvalidData`.
    #[test]
    fn open_reads_sidecars_without_a_segment_pass() {
        let dir = temp_dir("sidecar-open");
        let rows: Vec<Vec<u32>> = (0..40u32).map(|k| vec![k % 5, 10 + k % 7]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        assert!(fill(&dir, &refs, 128) > 2);
        let (supports, snap) =
            gogreen_obs::measure(|| SegmentedDb::open(&dir).unwrap().item_supports().unwrap());
        assert_eq!(supports, TransactionDb::from_rows(&refs).item_supports());
        assert_eq!(snap.value("storage.segments_read"), None);
        let path = dir.join(segment_file_name(1));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = SegmentedDb::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
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
        // Flip a bit of the first row's end offset, past the empty group
        // sections' three offset words.
        bytes[layout::HEADER_BYTES + 16] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let db = SegmentedDb::open(&dir).unwrap();
        let err = db.load(0).unwrap_err();
        assert!(err.to_string().contains("plain section checksum"), "{err}");
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
