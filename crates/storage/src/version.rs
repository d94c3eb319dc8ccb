//! Delta-encoded compressed-database versions.
//!
//! Each compress/recycle round produces a new [`CompressedDb`]; an
//! incremental workflow produces a *chain* of them over a database that
//! changes a little between rounds. Persisting every round in full
//! would store the nearly-identical plain residue and group bodies over
//! and over, so the version store writes **version 0 in full** and each
//! later version as a **delta** against its predecessor:
//!
//! * **groups** — identified by their (unique) pattern: patterns present
//!   before but not after are *removed*; groups that are new or whose
//!   members changed are *added* in full, each carrying its position in
//!   the new group list so utility order is reproduced exactly;
//! * **plain residue** — an edit script of `Copy { start, len }` ranges
//!   from the previous residue interleaved with `Insert` rows, replayed
//!   in order, so unchanged runs cost 9 bytes regardless of length.
//!
//! A delta is *verified at write time*: it is applied to the in-memory
//! predecessor and the result compared against the new database; if
//! reproduction fails (e.g. a pure reorder the group keying cannot
//! express) or the delta would be larger than a full encoding, a full
//! version is written instead. Either way `VersionStore::push` is exact
//! by construction — [`VersionStore::current`] equals the pushed
//! database bit for bit, whichever encoding landed on disk.
//!
//! Files are `v-NNNN.ggd` under the store directory: a 16-byte header
//! (magic `"GGDV"`, format version, kind, payload CRC-32) followed by
//! the payload. Deltas are in *item* space (not rank space): the F-list
//! changes between rounds, so rank encodings of different versions are
//! not comparable, while item space is stable.

use crate::codec::{get_list, put_list, ByteReader, DecodeError};
use crate::crc::crc32;
use gogreen_core::cdb::{CompressedDb, Group};
use gogreen_data::{CsrTuples, Item};
use gogreen_obs::metrics;
use gogreen_util::FxHashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"GGDV";
const FORMAT_VERSION: u32 = 1;
const KIND_FULL: u32 = 0;
const KIND_DELTA: u32 = 1;
const HEADER_BYTES: usize = 16;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn decode_err(path: &Path, e: DecodeError) -> io::Error {
    bad_data(format!("{}: {e}", path.display()))
}

fn version_file_name(v: usize) -> String {
    format!("v-{v:04}.ggd")
}

fn parse_version_id(name: &str) -> Option<usize> {
    name.strip_prefix("v-")?.strip_suffix(".ggd")?.parse().ok()
}

/// One plain-residue edit operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlainOp {
    /// Copy `len` rows of the previous residue starting at `start`.
    Copy { start: u32, len: u32 },
    /// Insert one row (item ids, ascending).
    Insert(Vec<u32>),
}

/// A decoded delta payload.
#[derive(Debug, Default)]
struct Delta {
    original_items: u64,
    /// Patterns (item ids) of groups to drop from the predecessor.
    removed: Vec<Vec<u32>>,
    /// Groups to insert, with their index in the new group list.
    added: Vec<(u32, Group)>,
    /// Edit script rebuilding the new plain residue.
    plain_ops: Vec<PlainOp>,
}

fn items_to_ids(items: &[Item]) -> Vec<u32> {
    items.iter().map(|it| it.id()).collect()
}

fn ids_to_items(ids: &[u32]) -> Vec<Item> {
    ids.iter().map(|&id| Item(id)).collect()
}

fn put_group(buf: &mut Vec<u8>, g: &Group) {
    put_list(buf, &items_to_ids(g.pattern()));
    buf.extend_from_slice(&g.bare().to_le_bytes());
    buf.extend_from_slice(&(g.outliers().len() as u32).to_le_bytes());
    let mut ids = Vec::new();
    for o in g.outliers().iter() {
        ids.clear();
        ids.extend(o.iter().map(|it| it.id()));
        put_list(buf, &ids);
    }
}

/// Smallest encodings: a group (empty pattern list, bare count, outlier
/// count), a list (its length), an added group (position + group), and
/// a plain op (tag + the shorter `Insert` body).
const GROUP_MIN_BYTES: usize = 12;
const LIST_MIN_BYTES: usize = 4;
const ADDED_MIN_BYTES: usize = 4 + GROUP_MIN_BYTES;
const OP_MIN_BYTES: usize = 1 + LIST_MIN_BYTES;

fn get_group(r: &mut ByteReader<'_>) -> Result<Group, DecodeError> {
    let pattern = ids_to_items(&get_list(r)?);
    let bare = r.get_u32_le()?;
    let n = r.get_u32_le()? as usize;
    let mut outliers: CsrTuples<Item> = CsrTuples::new();
    for _ in 0..n {
        let m = r.get_u32_le()? as usize;
        for _ in 0..m {
            outliers.push_elem(Item(r.get_u32_le()?));
        }
        outliers.commit_row();
    }
    Ok(Group::from_csr(pattern, outliers, bare))
}

fn encode_full(cdb: &CompressedDb) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(cdb.stats().original_size as u64).to_le_bytes());
    buf.extend_from_slice(&(cdb.groups().len() as u32).to_le_bytes());
    for g in cdb.groups() {
        put_group(&mut buf, g);
    }
    buf.extend_from_slice(&(cdb.plain().len() as u32).to_le_bytes());
    let mut ids = Vec::new();
    for row in cdb.plain().iter() {
        ids.clear();
        ids.extend(row.iter().map(|it| it.id()));
        put_list(&mut buf, &ids);
    }
    buf
}

fn decode_full(r: &mut ByteReader<'_>) -> Result<CompressedDb, DecodeError> {
    let original_items = r.get_u64_le()? as usize;
    let n_groups = r.get_u32_le()? as usize;
    let mut groups = r.vec_for(n_groups, GROUP_MIN_BYTES);
    for _ in 0..n_groups {
        groups.push(get_group(r)?);
    }
    let n_plain = r.get_u32_le()? as usize;
    let mut plain: CsrTuples<Item> = CsrTuples::new();
    for _ in 0..n_plain {
        let m = r.get_u32_le()? as usize;
        for _ in 0..m {
            plain.push_elem(Item(r.get_u32_le()?));
        }
        plain.commit_row();
    }
    Ok(CompressedDb::new(groups, plain, original_items))
}

fn encode_delta(d: &Delta) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&d.original_items.to_le_bytes());
    buf.extend_from_slice(&(d.removed.len() as u32).to_le_bytes());
    for p in &d.removed {
        put_list(&mut buf, p);
    }
    buf.extend_from_slice(&(d.added.len() as u32).to_le_bytes());
    for (pos, g) in &d.added {
        buf.extend_from_slice(&pos.to_le_bytes());
        put_group(&mut buf, g);
    }
    buf.extend_from_slice(&(d.plain_ops.len() as u32).to_le_bytes());
    for op in &d.plain_ops {
        match op {
            PlainOp::Copy { start, len } => {
                buf.push(0);
                buf.extend_from_slice(&start.to_le_bytes());
                buf.extend_from_slice(&len.to_le_bytes());
            }
            PlainOp::Insert(row) => {
                buf.push(1);
                put_list(&mut buf, row);
            }
        }
    }
    buf
}

fn decode_delta(r: &mut ByteReader<'_>) -> Result<Delta, DecodeError> {
    let original_items = r.get_u64_le()?;
    let n_removed = r.get_u32_le()? as usize;
    let mut removed = r.vec_for(n_removed, LIST_MIN_BYTES);
    for _ in 0..n_removed {
        removed.push(get_list(r)?);
    }
    let n_added = r.get_u32_le()? as usize;
    let mut added = r.vec_for(n_added, ADDED_MIN_BYTES);
    for _ in 0..n_added {
        let pos = r.get_u32_le()?;
        added.push((pos, get_group(r)?));
    }
    let n_ops = r.get_u32_le()? as usize;
    let mut plain_ops = r.vec_for(n_ops, OP_MIN_BYTES);
    for _ in 0..n_ops {
        match r.get_u8()? {
            0 => {
                let start = r.get_u32_le()?;
                let len = r.get_u32_le()?;
                plain_ops.push(PlainOp::Copy { start, len });
            }
            1 => plain_ops.push(PlainOp::Insert(get_list(r)?)),
            tag => return Err(DecodeError::BadTag { offset: r.pos - 1, tag }),
        }
    }
    Ok(Delta { original_items, removed, added, plain_ops })
}

/// Computes the delta turning `prev` into `next`.
fn diff(prev: &CompressedDb, next: &CompressedDb) -> Delta {
    // Groups, keyed by pattern (unique within a CDB).
    let next_by_pattern: FxHashMap<&[Item], &Group> =
        next.groups().iter().map(|g| (g.pattern(), g)).collect();
    let prev_by_pattern: FxHashMap<&[Item], &Group> =
        prev.groups().iter().map(|g| (g.pattern(), g)).collect();
    let mut removed = Vec::new();
    for g in prev.groups() {
        match next_by_pattern.get(g.pattern()) {
            Some(ng) if *ng == g => {}
            _ => removed.push(items_to_ids(g.pattern())),
        }
    }
    let mut added = Vec::new();
    for (pos, g) in next.groups().iter().enumerate() {
        match prev_by_pattern.get(g.pattern()) {
            Some(pg) if *pg == g => {}
            _ => added.push((pos as u32, g.clone())),
        }
    }
    // Plain residue: greedy monotone matching against the previous
    // rows. A match extends the open Copy run when contiguous;
    // unmatched rows become Inserts.
    let mut old_at: FxHashMap<&[Item], Vec<u32>> = FxHashMap::default();
    for (i, row) in prev.plain().iter().enumerate() {
        old_at.entry(row).or_default().push(i as u32);
    }
    let mut plain_ops: Vec<PlainOp> = Vec::new();
    let mut cursor = 0u32; // next unmatched previous row
    for row in next.plain().iter() {
        let matched = old_at
            .get(row)
            .and_then(|ix| ix[ix.partition_point(|&i| i < cursor)..].first().copied());
        match matched {
            Some(i) => {
                cursor = i + 1;
                match plain_ops.last_mut() {
                    Some(PlainOp::Copy { start, len }) if *start + *len == i => *len += 1,
                    _ => plain_ops.push(PlainOp::Copy { start: i, len: 1 }),
                }
            }
            None => plain_ops.push(PlainOp::Insert(row.iter().map(|it| it.id()).collect())),
        }
    }
    Delta { original_items: next.stats().original_size as u64, removed, added, plain_ops }
}

/// Applies `delta` to `prev`; `None` when the delta cannot be replayed
/// (out-of-range copy or insert position — a corrupt or inapplicable
/// delta).
fn apply(prev: &CompressedDb, delta: &Delta) -> Option<CompressedDb> {
    let removed: std::collections::HashSet<Vec<u32>> = delta.removed.iter().cloned().collect();
    let mut groups: Vec<Group> = prev
        .groups()
        .iter()
        .filter(|g| !removed.contains(&items_to_ids(g.pattern())))
        .cloned()
        .collect();
    let mut added = delta.added.clone();
    added.sort_by_key(|(pos, _)| *pos);
    for (pos, g) in added {
        if pos as usize > groups.len() {
            return None;
        }
        groups.insert(pos as usize, g);
    }
    let prev_plain = prev.plain();
    let mut plain: CsrTuples<Item> = CsrTuples::new();
    for op in &delta.plain_ops {
        match op {
            PlainOp::Copy { start, len } => {
                let (start, len) = (*start as usize, *len as usize);
                if start + len > prev_plain.len() {
                    return None;
                }
                for i in start..start + len {
                    plain.push_row(prev_plain.row(i));
                }
            }
            PlainOp::Insert(row) => {
                for &id in row {
                    plain.push_elem(Item(id));
                }
                plain.commit_row();
            }
        }
    }
    Some(CompressedDb::new(groups, plain, delta.original_items as usize))
}

fn write_version_file(path: &Path, kind: u32, payload: &[u8]) -> io::Result<u64> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&kind.to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());
    let mut f = File::create(path)?;
    f.write_all(&header)?;
    f.write_all(payload)?;
    f.flush()?;
    Ok((header.len() + payload.len()) as u64)
}

fn read_version_file(path: &Path) -> io::Result<(u32, Vec<u8>)> {
    let mut f = File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_BYTES || bytes[0..4] != MAGIC {
        return Err(bad_data(format!("{}: not a version file", path.display())));
    }
    let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
    if word(4) != FORMAT_VERSION {
        return Err(bad_data(format!(
            "{}: unsupported version-file format {}",
            path.display(),
            word(4)
        )));
    }
    let kind = word(8);
    let stored = word(12);
    let payload = bytes.split_off(HEADER_BYTES);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(bad_data(format!(
            "{}: payload checksum mismatch (stored {stored:#010x}, computed {computed:#010x})",
            path.display()
        )));
    }
    Ok((kind, payload))
}

/// A chain of compressed-database versions on disk, the latest
/// materialized in memory.
#[derive(Debug)]
pub struct VersionStore {
    dir: PathBuf,
    versions: usize,
    current: Option<CompressedDb>,
}

impl VersionStore {
    /// Opens (or creates) the version chain under `dir`, replaying any
    /// existing versions to materialize the latest.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir)?;
        let mut ids: Vec<usize> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok()?.file_name().to_str().and_then(parse_version_id))
            .collect();
        ids.sort_unstable();
        let mut current: Option<CompressedDb> = None;
        for (expect, &v) in ids.iter().enumerate() {
            let path = dir.join(version_file_name(v));
            if v != expect {
                return Err(bad_data(format!(
                    "{}: version chain has a gap (expected v-{expect:04})",
                    path.display()
                )));
            }
            let (kind, payload) = read_version_file(&path)?;
            let mut r = ByteReader::new(&payload);
            current = Some(match kind {
                KIND_FULL => decode_full(&mut r).map_err(|e| decode_err(&path, e))?,
                KIND_DELTA => {
                    let delta = decode_delta(&mut r).map_err(|e| decode_err(&path, e))?;
                    let prev = current.ok_or_else(|| {
                        bad_data(format!("{}: delta with no predecessor", path.display()))
                    })?;
                    apply(&prev, &delta).ok_or_else(|| {
                        bad_data(format!("{}: delta does not apply", path.display()))
                    })?
                }
                k => return Err(bad_data(format!("{}: unknown kind {k}", path.display()))),
            });
        }
        Ok(VersionStore { dir, versions: ids.len(), current })
    }

    /// Number of persisted versions.
    pub fn version_count(&self) -> usize {
        self.versions
    }

    /// The latest materialized version, if any.
    pub fn current(&self) -> Option<&CompressedDb> {
        self.current.as_ref()
    }

    /// Persists `cdb` as the next version — a verified delta against
    /// the predecessor when one exists and the delta both reproduces
    /// `cdb` exactly and is smaller than a full encoding; a full
    /// version otherwise. Returns the bytes written; delta bytes also
    /// accumulate into the `storage.delta_bytes` counter.
    pub fn push(&mut self, cdb: &CompressedDb) -> io::Result<u64> {
        let full = encode_full(cdb);
        let path = self.dir.join(version_file_name(self.versions));
        let written = match &self.current {
            Some(prev) => {
                let delta = diff(prev, cdb);
                let payload = encode_delta(&delta);
                let reproduces = apply(prev, &delta).is_some_and(|got| got == *cdb);
                if reproduces && payload.len() < full.len() {
                    let bytes = write_version_file(&path, KIND_DELTA, &payload)?;
                    metrics::add("storage.delta_bytes", bytes);
                    bytes
                } else {
                    write_version_file(&path, KIND_FULL, &full)?
                }
            }
            None => write_version_file(&path, KIND_FULL, &full)?,
        };
        self.versions += 1;
        self.current = Some(cdb.clone());
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_core::{Compressor, Strategy};
    use gogreen_data::{MinSupport, TransactionDb};
    use gogreen_miners::{Family, Miner};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gogreen-version-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    fn paper_cdb(minsup: u64) -> CompressedDb {
        let db = TransactionDb::paper_example();
        let fp = Family::Hm.mine(&db, MinSupport::Absolute(minsup));
        Compressor::new(Strategy::Mcp).compress(&db, &fp)
    }

    #[test]
    fn full_round_trip_through_reopen() {
        let dir = temp_dir("full");
        let cdb = paper_cdb(3);
        let mut store = VersionStore::open(&dir).unwrap();
        assert_eq!(store.version_count(), 0);
        assert!(store.current().is_none());
        store.push(&cdb).unwrap();
        let reopened = VersionStore::open(&dir).unwrap();
        assert_eq!(reopened.version_count(), 1);
        assert_eq!(reopened.current(), Some(&cdb));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_of_versions_replays_to_the_latest() {
        let dir = temp_dir("chain");
        let mut store = VersionStore::open(&dir).unwrap();
        let v0 = paper_cdb(4);
        let v1 = paper_cdb(3);
        let v2 = paper_cdb(2);
        store.push(&v0).unwrap();
        store.push(&v1).unwrap();
        store.push(&v2).unwrap();
        assert_eq!(store.current(), Some(&v2));
        let reopened = VersionStore::open(&dir).unwrap();
        assert_eq!(reopened.version_count(), 3);
        assert_eq!(reopened.current(), Some(&v2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn near_identical_versions_store_small_deltas() {
        let dir = temp_dir("delta");
        let rows: Vec<Vec<u32>> = (0..200u32).map(|k| vec![k % 5, 5 + k % 3, 10 + k]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&refs);
        let fp = Family::Hm.mine(&db, MinSupport::Absolute(30));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        let mut store = VersionStore::open(&dir).unwrap();
        let full_bytes = store.push(&cdb).unwrap();
        // Same CDB again: the delta is a header plus one Copy op.
        let delta_bytes = store.push(&cdb).unwrap();
        assert!(
            delta_bytes * 4 < full_bytes,
            "delta {delta_bytes} B not small vs full {full_bytes} B"
        );
        let reopened = VersionStore::open(&dir).unwrap();
        assert_eq!(reopened.current(), Some(&cdb));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A count of `u32::MAX` over a few bytes of input must fail on the
    /// missing records, without reserving room for four billion.
    #[test]
    fn hostile_counts_fail_without_preallocating() {
        let u32s = |ws: &[u32]| -> Vec<u8> { ws.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let mut full = 7u64.to_le_bytes().to_vec();
        full.extend(u32s(&[u32::MAX, 0, 0]));
        assert!(decode_full(&mut ByteReader::new(&full)).is_err());
        for counts in [&[u32::MAX][..], &[0, u32::MAX], &[0, 0, u32::MAX]] {
            let mut delta = 7u64.to_le_bytes().to_vec();
            delta.extend(u32s(counts));
            delta.extend([1, 0, 0, 0, 0]);
            assert!(decode_delta(&mut ByteReader::new(&delta)).is_err(), "{counts:?}");
        }
    }

    #[test]
    fn corrupt_version_payload_is_rejected() {
        let dir = temp_dir("corrupt");
        let mut store = VersionStore::open(&dir).unwrap();
        store.push(&paper_cdb(3)).unwrap();
        let path = dir.join(version_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = VersionStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
