//! The persisted compressed database: one crash-safe state file.
//!
//! An incremental workflow needs no carried state for correctness
//! (paper §2, incremental case (1)), so a store keeps exactly one
//! compressed database on disk — the newest — rather than a history.
//! [`save`] writes a [`CompressedDb`] to one file; [`load`] reads it
//! back bit for bit.
//!
//! The file is a 28-byte header followed by [`crate::codec`] records in
//! item space (the id space every round shares; rank encodings change
//! with the F-list):
//!
//! ```text
//! 0..4    magic "GGDV"
//! 4..8    format version (2)
//! 8..16   original_items (u64)
//! 16..20  group records (u32)
//! 20..24  plain records (u32)
//! 24..28  CRC-32 of bytes 0..24
//! 28..    one Group record per group, in utility order,
//!         then one Plain record per residue row
//! ```
//!
//! Each record carries its own CRC-32, and the header's counts make a
//! file cut at a record boundary as detectable as one cut mid-record.
//! Saving writes `<file>.tmp` and renames it over `<file>`, so a crash
//! leaves the previous state or the new one, never a torn file; a stale
//! `.tmp` is simply overwritten by the next save.
//!
//! Loading trusts nothing it reads: a bad header, checksum, count or
//! trailing byte, a record of the wrong kind for its place, and a record
//! that breaks a layout invariant ([`check_view`]: an empty or unsorted
//! pattern; an empty, unsorted or pattern-overlapping outlier row; a bare
//! count beyond `u32`; an unsorted plain row) is `InvalidData` — never a
//! panic, never a silently invalid database. Records decode through the
//! same [`for_each_view`] as spilled partitions, straight into the
//! database's sections.

use crate::codec::{check_view, for_each_view, put_group, put_plain, ByteReader};
use crate::crc::crc32;
use gogreen_data::{CompressedDb, Item};
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"GGDV";
const FORMAT_VERSION: u32 = 2;
const HEADER_BYTES: usize = 28;

fn invalid(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

fn put_header(buf: &mut Vec<u8>, original_items: u64, groups: usize, plain: usize) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&original_items.to_le_bytes());
    buf.extend_from_slice(&(groups as u32).to_le_bytes());
    buf.extend_from_slice(&(plain as u32).to_le_bytes());
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// The exact length of `cdb`'s file: the header, then per record its
/// kind byte, its CRC and its lists, each a length word plus one word
/// per item; a Group record also holds its bare count and row count.
fn encoded_len(cdb: &CompressedDb) -> usize {
    const WORD: usize = 4;
    let group_fixed = 1 + WORD + 8 + WORD + WORD;
    let plain_fixed = 1 + WORD + WORD;
    let lists = cdb.pattern_items() + cdb.group_outlier_rows() + cdb.group_outlier_items();
    HEADER_BYTES
        + cdb.num_groups() * group_fixed
        + cdb.plain().len() * plain_fixed
        + WORD * (lists + cdb.plain().total_elems())
}

/// Writes `cdb` to `path` through `<path>.tmp` and a rename, replacing
/// any previous state atomically. Returns the bytes written. The file is
/// encoded into one buffer sized up front from the database's section
/// lengths.
pub fn save(path: &Path, cdb: &CompressedDb) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(encoded_len(cdb));
    put_header(&mut buf, cdb.stats().original_size as u64, cdb.num_groups(), cdb.plain().len());
    for g in cdb.groups() {
        put_group(&mut buf, g);
    }
    for row in cdb.plain().iter() {
        put_plain(&mut buf, row);
    }
    debug_assert_eq!(buf.len(), encoded_len(cdb), "encoded_len disagrees with the encoder");
    let tmp = tmp_path(path);
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, path)?;
    Ok(buf.len() as u64)
}

/// Reads the state saved at `path`; `Ok(None)` when nothing was ever
/// saved there.
pub fn load(path: &Path) -> io::Result<Option<CompressedDb>> {
    let bytes = match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        read => read?,
    };
    decode(&bytes).map(Some).map_err(|e| invalid(format!("{}: {e}", path.display())))
}

fn decode(bytes: &[u8]) -> io::Result<CompressedDb> {
    let header = bytes
        .get(..HEADER_BYTES)
        .filter(|h| h[..4] == MAGIC)
        .ok_or_else(|| invalid("not a compressed-state file"))?;
    let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().unwrap());
    if word(4) != FORMAT_VERSION {
        return Err(invalid(format!("unsupported state-file format {}", word(4))));
    }
    let (stored, computed) = (word(24), crc32(&header[..24]));
    if stored != computed {
        return Err(invalid(format!(
            "header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let original_items = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let (n_groups, n_plain) = (word(16) as usize, word(20) as usize);

    // Groups come first, then plain rows; a Plain record decodes as a
    // view with an empty pattern, and a Group record never does.
    let mut cdb = CompressedDb::empty(original_items as usize);
    let mut seen = 0;
    for_each_view(&mut ByteReader { data: bytes, pos: HEADER_BYTES }, |g| {
        check_view::<Item>(&g, None)?;
        if seen == n_groups + n_plain || g.pattern.is_empty() != (seen >= n_groups) {
            return Err(invalid(format!("expected {n_groups} group then {n_plain} plain records")));
        }
        seen += 1;
        cdb.push_view(g);
        Ok(())
    })?;
    if seen < n_groups + n_plain {
        return Err(invalid(format!("expected {} records, found {seen}", n_groups + n_plain)));
    }
    Ok(cdb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_core::{Compressor, Strategy};
    use gogreen_data::{CsrTuples, GroupView, MinSupport, TransactionDb};
    use gogreen_miners::{Family, Miner};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gogreen-version-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn paper_cdb(minsup: u64) -> CompressedDb {
        let db = TransactionDb::paper_example();
        let fp = Family::Hm.mine(&db, MinSupport::Absolute(minsup));
        Compressor::new(Strategy::Mcp).compress(&db, &fp)
    }

    /// One group with a bare member and two outlier rows, plus two
    /// plain rows: every part of the format in a few hundred bytes.
    fn small_cdb() -> CompressedDb {
        let db = TransactionDb::from_rows(&[&[1, 2, 3], &[1, 2, 4], &[1, 2], &[5, 6], &[7]]);
        let fp = Family::Hm.mine(&db, MinSupport::Absolute(3));
        Compressor::new(Strategy::Mcp).compress(&db, &fp)
    }

    fn file_count(dir: &Path) -> usize {
        std::fs::read_dir(dir).unwrap().count()
    }

    #[test]
    fn full_round_trip_through_reopen() {
        let dir = temp_dir("full");
        let path = dir.join("state.ggd");
        assert!(load(&path).unwrap().is_none(), "nothing saved yet");
        let cdb = small_cdb();
        assert_eq!((cdb.num_groups(), cdb.group(0).bare, cdb.plain().len()), (1, 1, 2));
        let written = save(&path, &cdb).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(load(&path).unwrap(), Some(cdb));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Last save wins on reopen: each save replaces the state whole,
    /// and the directory never holds more than the one file.
    #[test]
    fn chain_of_versions_replays_to_the_latest() {
        let dir = temp_dir("chain");
        let path = dir.join("state.ggd");
        for minsup in [4, 3, 2] {
            save(&path, &paper_cdb(minsup)).unwrap();
            assert_eq!(file_count(&dir), 1);
        }
        assert_eq!(load(&path).unwrap(), Some(paper_cdb(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-saving leaves one file no larger than one encoding.
    #[test]
    fn near_identical_versions_store_small_deltas() {
        let dir = temp_dir("delta");
        let path = dir.join("state.ggd");
        let rows: Vec<Vec<u32>> = (0..200u32).map(|k| vec![k % 5, 5 + k % 3, 10 + k]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&refs);
        let fp = Family::Hm.mine(&db, MinSupport::Absolute(30));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        let first = save(&path, &cdb).unwrap();
        let second = save(&path, &cdb).unwrap();
        assert_eq!(first, second);
        assert_eq!(file_count(&dir), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first);
        assert_eq!(load(&path).unwrap(), Some(cdb));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A group record's fields: pattern, bare count, outlier rows.
    type ForgedGroup<'a> = (&'a [u32], u64, &'a [&'a [u32]]);

    /// Header plus hand-built records, for payloads `save` never writes.
    fn forged(groups: &[ForgedGroup<'_>], plain: &[&[u32]]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_header(&mut buf, 7, groups.len(), plain.len());
        for &(pattern, bare, outliers) in groups {
            let outliers: CsrTuples<u32> = outliers.iter().map(|o| o.to_vec()).collect();
            put_group(&mut buf, GroupView { pattern, outliers: outliers.as_slices(), bare });
        }
        for row in plain {
            put_plain(&mut buf, row);
        }
        buf
    }

    fn assert_rejected(bytes: &[u8], why: &str) {
        let err = decode(bytes).expect_err(why);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
    }

    /// CRC-valid records that break a group or row invariant are
    /// `InvalidData`, one case per invariant; the same bytes must not
    /// reach `CompressedDb::push_view`, whose checks are debug-only.
    #[test]
    fn invariant_violations_are_invalid_data() {
        let ok = forged(&[(&[1, 4], u64::from(u32::MAX), &[&[0, 9], &[5]])], &[&[], &[2, 3]]);
        let cdb = decode(&ok).unwrap();
        assert_eq!((cdb.group(0).count(), cdb.plain().len()), (u64::from(u32::MAX) + 2, 2));
        let over = u64::from(u32::MAX) + 1;
        for (why, bytes) in [
            ("empty pattern", forged(&[(&[], 1, &[])], &[])),
            ("descending pattern", forged(&[(&[4, 1], 1, &[])], &[])),
            ("repeated pattern item", forged(&[(&[1, 1], 1, &[])], &[])),
            ("empty outlier row", forged(&[(&[1], 0, &[&[2], &[]])], &[])),
            ("descending outlier row", forged(&[(&[1], 0, &[&[5, 2]])], &[])),
            ("outlier item in the pattern", forged(&[(&[1, 3], 0, &[&[2, 3]])], &[])),
            ("repeated plain item", forged(&[], &[&[1, 2], &[3, 3]])),
            ("descending plain row", forged(&[], &[&[9, 2]])),
            ("bare count beyond u32", forged(&[(&[1], over, &[])], &[])),
        ] {
            assert_rejected(&bytes, why);
        }
    }

    #[test]
    fn records_out_of_order_or_trailing_are_rejected() {
        let mut plain_first = Vec::new();
        put_header(&mut plain_first, 7, 1, 0);
        put_plain(&mut plain_first, &[1u32]);
        assert_rejected(&plain_first, "plain record where a group belongs");
        let mut trailing = forged(&[], &[&[1]]);
        trailing.push(0);
        assert_rejected(&trailing, "trailing byte");
    }

    /// A count of `u32::MAX` over a few bytes of input must fail on the
    /// missing records, without reserving room for four billion.
    #[test]
    fn hostile_counts_fail_without_preallocating() {
        for (groups, plain) in [(u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            let mut bytes = Vec::new();
            put_header(&mut bytes, 7, groups as usize, plain as usize);
            bytes.extend([1, 0, 0, 0, 0]);
            assert_rejected(&bytes, &format!("counts {groups}/{plain}"));
        }
        // A list length of u32::MAX inside an otherwise plausible record.
        let mut bytes = Vec::new();
        put_header(&mut bytes, 7, 0, 1);
        bytes.push(0);
        bytes.extend(u32::MAX.to_le_bytes());
        bytes.extend([0; 8]);
        assert_rejected(&bytes, "list length u32::MAX");
    }

    #[test]
    fn corrupt_version_payload_is_rejected() {
        let dir = temp_dir("corrupt");
        let path = dir.join("state.ggd");
        save(&path, &paper_cdb(3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        // A format-1 file is refused by version, not misread.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).unwrap_err().to_string().contains("format 1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every single-bit flip and every truncation of a saved state makes
    /// `load` fail — never panic, never return a different database.
    #[test]
    fn every_bit_flip_and_truncation_fails_to_load() {
        let dir = temp_dir("sweep");
        let path = dir.join("state.ggd");
        let cdb = small_cdb();
        save(&path, &cdb).unwrap();
        let good = std::fs::read(&path).unwrap();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bytes = good.clone();
                bytes[byte] ^= 1 << bit;
                std::fs::write(&path, &bytes).unwrap();
                assert!(load(&path).is_err(), "byte {byte} bit {bit} loaded");
            }
        }
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(load(&path).is_err(), "truncation to {cut} bytes loaded");
        }
        std::fs::write(&path, &good).unwrap();
        assert_eq!(load(&path).unwrap(), Some(cdb));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash mid-save leaves garbage in `<file>.tmp` beside the good
    /// state: loading still returns the good state, and the next save
    /// replaces both.
    #[test]
    fn stale_tmp_file_neither_blocks_load_nor_save() {
        let dir = temp_dir("tmp");
        let path = dir.join("state.ggd");
        let old = paper_cdb(3);
        save(&path, &old).unwrap();
        std::fs::write(tmp_path(&path), b"GGDV torn write").unwrap();
        assert_eq!(load(&path).unwrap(), Some(old));
        let new = paper_cdb(2);
        save(&path, &new).unwrap();
        assert_eq!(load(&path).unwrap(), Some(new));
        assert!(!tmp_path(&path).exists());
        assert_eq!(file_count(&dir), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// 240 rows: every fifth is exactly the pattern {0, 4} (bare members),
    /// every thirteenth holds only infrequent items (the plain residue).
    fn synthetic_cdb() -> CompressedDb {
        let rows: Vec<Vec<u32>> = (0..240u32)
            .map(|k| match k {
                _ if k % 13 == 0 => vec![100 + k, 101 + k],
                _ if k % 5 == 0 => vec![0, 4],
                _ if k % 11 == 0 => vec![k % 4, 4 + k % 3, 8 + k % 7, 400 + k],
                _ => vec![k % 4, 4 + k % 3, 8 + k % 7],
            })
            .collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&refs);
        let fp = Family::Hm.mine(&db, MinSupport::Absolute(8));
        Compressor::new(Strategy::Mcp).compress(&db, &fp)
    }

    /// The file bytes are format 2 as written before the compressed
    /// layout became one CSR layout: length and CRC-32 of the whole file
    /// for the paper example (MCP, ξ_old = 3) and for a database with
    /// bare members and a plain residue.
    #[test]
    fn saved_bytes_match_golden_length_and_crc() {
        let dir = temp_dir("golden");
        let synthetic = synthetic_cdb();
        let bare: u64 = synthetic.groups().map(|g| g.bare).sum();
        assert_eq!((synthetic.num_groups(), bare, synthetic.plain().len()), (5, 44, 19));
        for (name, cdb, len, crc) in
            [("paper", paper_cdb(3), 146, 0x334d_2615), ("synthetic", synthetic, 2608, 0xa61b_09c6)]
        {
            let path = dir.join(format!("{name}.ggd"));
            assert_eq!(save(&path, &cdb).unwrap(), len, "{name}");
            assert_eq!(crc32(&std::fs::read(&path).unwrap()), crc, "{name}");
            assert_eq!(load(&path).unwrap(), Some(cdb), "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
