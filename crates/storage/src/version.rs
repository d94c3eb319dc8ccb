//! The persisted compressed database: one crash-safe state file.
//!
//! An incremental workflow needs no carried state for correctness
//! (paper §2, incremental case (1)), so a store keeps exactly one
//! compressed database on disk — the newest — rather than a history.
//! [`save`] writes a [`CompressedDb`] to one file; [`load`] reads it
//! back bit for bit.
//!
//! The file is one [`crate::layout`] file: the header, then the
//! database's sections in item space (the id space every round shares;
//! rank encodings change with the F-list), with no sidecar. The extent
//! is the original database's item-occurrence count.
//!
//! Saving encodes the file into one buffer, writes `<file>.tmp` and
//! renames it over `<file>`, so a crash leaves the previous state or the
//! new one, never a torn file; a stale `.tmp` is simply overwritten by
//! the next save. Loading goes through the layout reader, so a bad
//! header, count, checksum or trailing byte, and sections that break a
//! layout invariant, are `InvalidData` — never a panic, never a silently
//! invalid database.

use crate::layout::{self, invalid};
use gogreen_data::{CompressedDb, CsrTuples, IdSpace};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Writes `cdb` to `path` through `<path>.tmp` and a rename, replacing
/// any previous state atomically. Returns the bytes written. The file is
/// encoded into one buffer sized up front from the database's section
/// lengths.
pub fn save(path: &Path, cdb: &CompressedDb) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(layout::encoded_len(cdb, 0));
    layout::encode(&mut buf, cdb, IdSpace::Item, &[]);
    debug_assert_eq!(buf.len(), layout::encoded_len(cdb, 0), "encoded_len disagrees");
    let tmp = tmp_path(path);
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, path)?;
    Ok(buf.len() as u64)
}

/// Reads the state saved at `path`; `Ok(None)` when nothing was ever
/// saved there.
pub fn load(path: &Path) -> io::Result<Option<CompressedDb>> {
    let (h, mut f) = match layout::open(path, IdSpace::Item) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        opened => opened?,
    };
    let mut body = vec![0u8; h.body_bytes() as usize];
    f.read_exact(&mut body)?;
    layout::decode_body(&h, &body, CsrTuples::new())
        .map(Some)
        .map_err(|e| invalid(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use gogreen_core::{Compressor, Strategy};
    use gogreen_data::{Item, MinSupport, TransactionDb};
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

    /// Item-space file bytes of `groups` (pattern, bare count, outlier
    /// rows) and `plain` rows, written verbatim whether or not they form
    /// a valid layout.
    fn forged(groups: &[layout::tests::ForgedGroup<'_>], plain: &[&[u32]]) -> Vec<u8> {
        layout::tests::forge(groups, plain, IdSpace::Item, 7)
    }

    fn assert_rejected(bytes: &[u8], why: &str) {
        let err = layout::decode::<Item>(bytes, IdSpace::Item).expect_err(why);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
    }

    /// CRC-valid sections that break a group or row invariant are
    /// `InvalidData`, one case per invariant: `try_from_raw_parts` holds
    /// every decoded layout to them in release builds too.
    #[test]
    fn invariant_violations_are_invalid_data() {
        let ok = forged(&[(&[1, 4], u64::from(u32::MAX), &[&[0, 9], &[5]])], &[&[], &[2, 3]]);
        let cdb = layout::decode::<Item>(&ok, IdSpace::Item).unwrap();
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

    /// Sections that are each well formed but do not fit together, a
    /// rank-space chunk where the state belongs, and a trailing byte are
    /// all `InvalidData`.
    #[test]
    fn misplaced_sections_and_trailing_bytes_are_rejected() {
        let mut sections = layout::tests::Forged::new(&[(&[1], 0, &[&[2], &[3]])], &[&[4]]);
        sections.1 = vec![0, 1];
        assert_rejected(&sections.bytes(IdSpace::Item, 7), "outlier_start ends early");
        let mut sections = layout::tests::Forged::new(&[], &[&[1, 2]]);
        sections.0[2].0 = vec![0, 3];
        assert_rejected(&sections.bytes(IdSpace::Item, 7), "plain offsets overrun");
        let chunk = layout::tests::forge(&[], &[&[1]], IdSpace::Rank, 7);
        assert_rejected(&chunk, "rank-space chunk as a state file");
        let mut trailing = forged(&[], &[&[1]]);
        trailing.push(0);
        assert_rejected(&trailing, "trailing byte");
    }

    /// Header counts of `u32::MAX` over a few bytes of input, under a
    /// valid header checksum, must fail on the file's length before any
    /// section is read or allocated.
    #[test]
    fn hostile_counts_fail_without_preallocating() {
        let dir = temp_dir("hostile");
        let path = dir.join("state.ggd");
        let good = forged(&[(&[1], 1, &[&[2]])], &[&[3]]);
        for count in 0..7 {
            let mut bytes = good.clone();
            layout::tests::set_count(&mut bytes, count, u32::MAX);
            assert_rejected(&bytes, &format!("count {count} = u32::MAX"));
            std::fs::write(&path, &bytes).unwrap();
            let err = load(&path).unwrap_err();
            assert!(err.to_string().contains("header counts describe"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
        assert!(err.to_string().contains("plain section checksum"), "{err}");
        // A file of another layout version is refused by version, not
        // misread.
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).unwrap_err().to_string().contains("format version 2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A state file of the retired `GGDV` v2 format (a 28-byte header,
    /// then one CRC-sealed record per group and plain row) fails to load
    /// with `InvalidData` naming that format.
    #[test]
    fn ggdv_v2_state_file_is_refused_by_name() {
        let dir = temp_dir("ggdv");
        let path = dir.join("state.ggd");
        let mut old = b"GGDV".to_vec();
        old.extend(2u32.to_le_bytes());
        old.extend(7u64.to_le_bytes());
        old.extend([0u32, 1].iter().flat_map(|w| w.to_le_bytes()));
        old.extend(crc32(&old).to_le_bytes());
        let record = [0u8, 1, 0, 0, 0, 5, 0, 0, 0];
        old.extend(record);
        old.extend(crc32(&record).to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported format GGDV v2"), "{err}");
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

    /// The file bytes are layout format 3: length and CRC-32 of the whole
    /// file for the paper example (MCP, ξ_old = 3) and for a database with
    /// bare members and a plain residue.
    #[test]
    fn saved_bytes_match_golden_length_and_crc() {
        let dir = temp_dir("golden");
        let synthetic = synthetic_cdb();
        let bare: u64 = synthetic.groups().map(|g| g.bare).sum();
        assert_eq!((synthetic.num_groups(), bare, synthetic.plain().len()), (5, 44, 19));
        for (name, cdb, len, crc) in
            [("paper", paper_cdb(3), 200, 0x7602_0408), ("synthetic", synthetic, 2552, 0x293f_3c41)]
        {
            let path = dir.join(format!("{name}.ggd"));
            assert_eq!(save(&path, &cdb).unwrap(), len, "{name}");
            assert_eq!(crc32(&std::fs::read(&path).unwrap()), crc, "{name}");
            assert_eq!(load(&path).unwrap(), Some(cdb), "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
