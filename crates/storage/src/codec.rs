//! Binary record encoding of spilled partitions and saved compressed
//! databases.
//!
//! A partition file is a sequence of records; so is the body of the
//! compressed-state file ([`crate::version`]). Two record kinds exist,
//! mirroring the two populations of a compressed database:
//!
//! * **Plain** — a rank (or item-id) list: an uncovered tuple, or a
//!   member whose residual pattern emptied out.
//! * **Group** — a non-empty residual pattern, a bare-member count, and
//!   the outlier lists of members that still have outlying items. Writing
//!   one group record per (partition, group) preserves the compression
//!   saving across the spill: the pattern is stored once.
//!
//! Encoding is little-endian `u32`s with `u32` length prefixes — dense,
//! alignment-free, and trivially seekable record by record. Every record
//! ends with the CRC-32 of its own body, so a flipped bit anywhere in a
//! file is caught at the record that carries it.
//!
//! Both directions speak [`GroupView`], the compressed database's own
//! borrowed group: [`put_group`] encodes one and [`put_plain`] one row,
//! straight from borrowed slices — ranks or [`gogreen_data::Item`]s — into
//! a plain `Vec<u8>`. [`for_each_view`] decodes a buffer and hands each
//! record to a callback as a view over scratch reused across records (a
//! Plain record is a view with an empty pattern and its row as the one
//! outlier row), so decoding allocates nothing per record. Decoding is
//! fallible: truncation, unknown tags, checksum mismatches and a Group
//! record without a pattern surface as [`DecodeError`] rather than tearing
//! down the process, and [`check_view`] holds a decoded view to the
//! layout's invariants before anything builds on it.

use crate::crc::crc32;
use gogreen_data::{CsrTuples, GroupView};
use std::io;

/// Why an encoded record buffer failed to decode.
///
/// Every variant indicates a bug or on-disk corruption — but the
/// reader surfaces it as a structured error (propagated as
/// `io::ErrorKind::InvalidData` by the spill layer and the state file)
/// instead of tearing the process down, so a caller can fail the one
/// file and report which byte went bad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-record: `needed` more bytes at `offset`.
    Truncated {
        /// Byte offset of the read that ran off the end.
        offset: usize,
        /// Bytes the read required.
        needed: usize,
    },
    /// An unknown record tag at `offset`.
    BadTag {
        /// Byte offset of the tag.
        offset: usize,
        /// The tag found (valid tags are 0 and 1).
        tag: u8,
    },
    /// The record starting at `offset` decoded structurally but its
    /// trailing CRC-32 disagreed with the recomputed body checksum —
    /// some bit inside the record flipped on disk.
    BadChecksum {
        /// Byte offset of the record whose checksum failed.
        offset: usize,
        /// The checksum stored after the record body.
        stored: u32,
        /// The checksum recomputed over the decoded body bytes.
        computed: u32,
    },
    /// A checksum-valid Group record at `offset` with an empty pattern,
    /// which no writer produces: a view with an empty pattern is plain
    /// rows.
    EmptyPattern {
        /// Byte offset of the record.
        offset: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { offset, needed } => {
                write!(f, "record truncated at byte {offset} (needed {needed} more bytes)")
            }
            DecodeError::BadTag { offset, tag } => {
                write!(f, "corrupt record tag {tag} at byte {offset}")
            }
            DecodeError::BadChecksum { offset, stored, computed } => {
                write!(
                    f,
                    "record at byte {offset} failed its checksum \
                     (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            DecodeError::EmptyPattern { offset } => {
                write!(f, "group record at byte {offset} has an empty pattern")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A forward-only cursor over an encoded byte buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `data` with the cursor at the start.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// True while bytes remain.
    pub fn has_remaining(&self) -> bool {
        self.pos < self.data.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.data.len() - self.pos < n {
            return Err(DecodeError::Truncated { offset: self.pos, needed: n });
        }
        let raw = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(raw)
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn get_u64_le(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Estimated bytes of the in-memory RP-Struct share one Plain record of
/// `len` ranks expands to (used for load-vs-respill decisions).
pub(crate) fn plain_memory(len: usize) -> usize {
    (len + 1) * 12 + 12
}

/// [`plain_memory`] for one Group record: a fixed group cost, the pattern,
/// and per member row its tail plus a group link.
pub(crate) fn group_memory(g: &GroupView<'_>) -> usize {
    60 + g.pattern.len() * 4 + g.outliers.iter().map(|o| plain_memory(o.len()) + 4).sum::<usize>()
}

/// Appends one Plain record for `row` (ranks or item ids): the record
/// body followed by the CRC-32 of the body bytes.
pub fn put_plain<T: Copy + Into<u32>>(buf: &mut Vec<u8>, row: &[T]) {
    let body_start = buf.len();
    buf.push(0);
    put_list(buf, row);
    seal_record(buf, body_start);
}

/// Appends one Group record — the pattern, the bare-member count and one
/// outlier list per member row — followed by the CRC-32 of its body.
/// Everything is borrowed, so encoding allocates nothing. The pattern
/// must be non-empty: decoding rejects a Group record without one.
pub fn put_group<T: Copy + Into<u32>>(buf: &mut Vec<u8>, g: GroupView<'_, T>) {
    let body_start = buf.len();
    buf.push(1);
    put_list(buf, g.pattern);
    buf.extend_from_slice(&g.bare.to_le_bytes());
    buf.extend_from_slice(&(g.outliers.len() as u32).to_le_bytes());
    for o in g.outliers {
        put_list(buf, o);
    }
    seal_record(buf, body_start);
}

fn seal_record(buf: &mut Vec<u8>, body_start: usize) {
    let crc = crc32(&buf[body_start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

fn put_list<T: Copy + Into<u32>>(buf: &mut Vec<u8>, items: &[T]) {
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for &x in items {
        buf.extend_from_slice(&x.into().to_le_bytes());
    }
}

/// Decodes the records of `r` up to its end, handing each to `f` as a
/// [`GroupView`] over scratch reused across records: a Group record as
/// itself, a Plain record as a view with an empty pattern and its row as
/// the one outlier row. Stops at the first decoding error or error of
/// `f`; a view is handed over only once its record's checksum holds.
pub fn for_each_view<T, E>(
    r: &mut ByteReader<'_>,
    mut f: impl FnMut(GroupView<'_, T>) -> Result<(), E>,
) -> Result<(), E>
where
    T: Copy + From<u32>,
    E: From<DecodeError>,
{
    let (mut pattern, mut rows) = (CsrTuples::new(), CsrTuples::new());
    while r.has_remaining() {
        let offset = r.pos;
        pattern.clear();
        rows.clear();
        let tag = r.get_u8()?;
        let bare = match tag {
            0 => {
                get_row(r, &mut rows)?;
                0
            }
            1 => {
                get_row(r, &mut pattern)?;
                let bare = r.get_u64_le()?;
                for _ in 0..r.get_u32_le()? {
                    get_row(r, &mut rows)?;
                }
                bare
            }
            tag => return Err(DecodeError::BadTag { offset, tag }.into()),
        };
        let body_end = r.pos;
        let stored = r.get_u32_le()?;
        let computed = crc32(&r.data[offset..body_end]);
        if stored != computed {
            return Err(DecodeError::BadChecksum { offset, stored, computed }.into());
        }
        if tag == 1 && pattern.flat().is_empty() {
            return Err(DecodeError::EmptyPattern { offset }.into());
        }
        f(GroupView { pattern: pattern.flat(), outliers: rows.as_slices(), bare })?;
    }
    Ok(())
}

/// Decodes one length-prefixed list as a new row of `rows`.
fn get_row<T: Copy + From<u32>>(
    r: &mut ByteReader<'_>,
    rows: &mut CsrTuples<T>,
) -> Result<(), DecodeError> {
    for _ in 0..r.get_u32_le()? {
        rows.push_elem(T::from(r.get_u32_le()?));
    }
    rows.commit_row();
    Ok(())
}

/// Holds a decoded view to the compressed layout's invariants, as
/// `InvalidData`: an ascending pattern; outlier rows non-empty, ascending
/// and disjoint from the pattern; a bare count within `u32`; ascending
/// plain rows. In rank space (`num_ranks` given) every id is also below
/// `num_ranks` and plain rows are non-empty, as the rank database
/// requires; item space keeps the empty rows empty transactions become.
pub fn check_view<T: Copy + Ord + Into<u32>>(
    g: &GroupView<'_, T>,
    num_ranks: Option<usize>,
) -> io::Result<()> {
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    let ascending = |row: &[T]| row.windows(2).all(|w| w[0] < w[1]);
    let grouped = !g.pattern.is_empty();
    if !ascending(g.pattern) {
        return invalid("group pattern is not strictly ascending".into());
    }
    for o in g.outliers {
        let empty = o.is_empty() && (grouped || num_ranks.is_some());
        if empty || !ascending(o) || o.iter().any(|x| g.pattern.binary_search(x).is_ok()) {
            return invalid(if grouped {
                "outlier row is empty, not strictly ascending or overlaps its pattern".into()
            } else {
                "plain row is empty or not strictly ascending".into()
            });
        }
    }
    if g.bare > u64::from(u32::MAX) {
        return invalid(format!("bare count {} exceeds u32", g.bare));
    }
    if let Some(n) = num_ranks {
        let mut ids = g.pattern.iter().chain(g.outliers.flat()).map(|&x| x.into());
        if let Some(x) = ids.find(|&x| x as usize >= n) {
            return invalid(format!("rank {x} out of range for {n} ranks"));
        }
    }
    Ok(())
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

    fn group(pattern: &[u32], bare: u64, rows: &[&[u32]]) -> Owned {
        (pattern.to_vec(), bare, rows.iter().map(|r| r.to_vec()).collect())
    }

    /// Encodes `records` through [`put_plain`] / [`put_group`].
    fn encode(records: &[Owned]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (pattern, bare, rows) in records {
            if pattern.is_empty() {
                put_plain(&mut buf, &rows[0]);
            } else {
                let rows: CsrTuples<u32> = rows.iter().cloned().collect();
                let g = GroupView { pattern, outliers: rows.as_slices(), bare: *bare };
                put_group(&mut buf, g);
            }
        }
        buf
    }

    /// Decodes `buf` through [`for_each_view`] into owned records.
    fn decode(buf: &[u8]) -> Result<Vec<Owned>, DecodeError> {
        let mut back = Vec::new();
        for_each_view(&mut ByteReader::new(buf), |g: GroupView<'_, u32>| {
            back.push((
                g.pattern.to_vec(),
                g.bare,
                g.outliers.iter().map(<[u32]>::to_vec).collect(),
            ));
            Ok::<(), DecodeError>(())
        })?;
        Ok(back)
    }

    fn round_trip(records: &[Owned]) {
        assert_eq!(decode(&encode(records)).unwrap(), records);
    }

    #[test]
    fn plain_round_trip() {
        round_trip(&[plain(&[1, 5, 9]), plain(&[0])]);
    }

    #[test]
    fn group_round_trip() {
        round_trip(&[group(&[2, 3], 7, &[&[4], &[5, 6]])]);
    }

    #[test]
    fn mixed_stream_round_trip() {
        round_trip(&[plain(&[1]), group(&[0], 0, &[&[9]]), plain(&[2, 3])]);
    }

    #[test]
    fn decode_empty_is_none() {
        assert_eq!(decode(&[]), Ok(Vec::new()));
    }

    #[test]
    fn tuple_counts() {
        // A group stands for its bare members plus one member per
        // outlier row; both survive the round trip, so a decoded
        // partition re-expands to exactly the tuples that were spilled.
        let buf = encode(&[group(&[1], 2, &[&[2], &[3, 4]])]);
        let mut counts = Vec::new();
        for_each_view(&mut ByteReader::new(&buf), |g: GroupView<'_, u32>| {
            counts.push(g.count());
            Ok::<(), DecodeError>(())
        })
        .unwrap();
        assert_eq!(counts, [4]);
    }

    #[test]
    fn corrupt_tag_is_an_error() {
        assert_eq!(decode(&[7u8, 0, 0, 0, 0]), Err(DecodeError::BadTag { offset: 0, tag: 7 }));
    }

    #[test]
    fn truncated_record_is_an_error() {
        // A Plain record whose length prefix promises more u32s than
        // the buffer holds, then a Group record cut at every interior
        // byte — exercises the CSR decode path at each list boundary.
        for buf in [encode(&[plain(&[1, 2, 3])]), encode(&[group(&[2], 1, &[&[4, 5], &[6]])])] {
            for cut in 1..buf.len() {
                let got = decode(&buf[..cut]);
                assert!(matches!(got, Err(DecodeError::Truncated { .. })), "cut={cut}: {got:?}");
            }
        }
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        // Flipping any single bit of an encoded stream must surface a
        // DecodeError — usually BadChecksum, but flips inside a length
        // prefix or tag may fail structurally first. What must never
        // happen is a silent wrong decode.
        let buf = encode(&[plain(&[1, 5, 9]), group(&[2, 3], 7, &[&[4], &[5, 6]])]);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(decode(&corrupt).is_err(), "byte {byte} bit {bit} decoded cleanly");
            }
        }
    }

    #[test]
    fn checksum_mismatch_reports_record_offset() {
        let first = encode(&[plain(&[1])]);
        let mut buf = encode(&[plain(&[1]), plain(&[2, 3])]);
        // Flip a payload bit inside the second record's item data.
        buf[first.len() + 5] ^= 0x10;
        let mut seen = 0;
        let got = for_each_view(&mut ByteReader::new(&buf), |_: GroupView<'_, u32>| {
            seen += 1;
            Ok(())
        });
        assert_eq!(seen, 1, "the first record decodes before the corrupt one");
        match got {
            Err(DecodeError::BadChecksum { offset, stored, computed }) => {
                assert_eq!(offset, first.len());
                assert_ne!(stored, computed);
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn empty_pattern_group_record_is_an_error() {
        // Checksum-valid, but a Group record without a pattern has no
        // view: tag 1, empty pattern, bare 0, no rows.
        let mut forged = vec![1u8];
        forged.extend([0u8; 4 + 8 + 4]);
        let crc = crc32(&forged);
        forged.extend(crc.to_le_bytes());
        assert_eq!(decode(&forged), Err(DecodeError::EmptyPattern { offset: 0 }));
    }

    #[test]
    fn decode_errors_render_offsets() {
        let msg = DecodeError::BadTag { offset: 9, tag: 7 }.to_string();
        assert!(msg.contains("tag 7") && msg.contains("byte 9"), "{msg}");
        let msg = DecodeError::Truncated { offset: 3, needed: 4 }.to_string();
        assert!(msg.contains("byte 3"), "{msg}");
        let msg = DecodeError::BadChecksum { offset: 4, stored: 1, computed: 2 }.to_string();
        assert!(msg.contains("byte 4") && msg.contains("checksum"), "{msg}");
        let msg = DecodeError::EmptyPattern { offset: 5 }.to_string();
        assert!(msg.contains("byte 5") && msg.contains("empty pattern"), "{msg}");
    }

    #[test]
    fn memory_estimate_grows_with_content() {
        let rows = CsrTuples::from_iter([vec![4u32, 5], vec![6]]);
        let big = GroupView { pattern: &[1u32, 2, 3], outliers: rows.as_slices(), bare: 0 };
        assert!(group_memory(&big) > plain_memory(1));
    }
}
