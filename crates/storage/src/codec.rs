//! Binary encoding of spilled records.
//!
//! A partition file is a sequence of records. Two record kinds exist,
//! mirroring the two populations of a compressed database:
//!
//! * **Plain** — a rank list (an uncovered tuple, or a member whose
//!   residual pattern emptied out).
//! * **Group** — a residual pattern, a bare-member count, and the
//!   outlier lists of members that still have outlying items. Writing
//!   one group record per (partition, group) preserves the compression
//!   saving across the spill: the pattern is stored once.
//!
//! Encoding is little-endian `u32`s with `u32` length prefixes — dense,
//! alignment-free, and trivially seekable record by record. Every record
//! ends with the CRC-32 of its own body, so a flipped bit anywhere in a
//! spill file is caught at the record that carries it. Buffers are
//! plain `Vec<u8>`; [`ByteReader`] is the matching decode cursor.
//! Decoding is fallible: truncation, unknown tags and checksum
//! mismatches surface as [`DecodeError`] rather than tearing down the
//! process.
//!
//! In memory a group's outlier lists live in one [`CsrTuples`] slab —
//! decode writes straight into it (no per-member `Vec`), and encode
//! walks its rows. The wire format is unchanged.

use crate::crc::crc32;
use gogreen_data::CsrTuples;

/// Why an encoded spill buffer failed to decode.
///
/// Spill files are private to the process, so either variant indicates
/// a bug or on-disk corruption — but the reader surfaces it as a
/// structured error (propagated as `io::ErrorKind::InvalidData` by the
/// spill layer) instead of tearing the process down, so a driver can
/// fail the one partition and report which byte went bad.
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
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { offset, needed } => {
                write!(f, "spill record truncated at byte {offset} (needed {needed} more bytes)")
            }
            DecodeError::BadTag { offset, tag } => {
                write!(f, "corrupt spill record tag {tag} at byte {offset}")
            }
            DecodeError::BadChecksum { offset, stored, computed } => {
                write!(
                    f,
                    "spill record at byte {offset} failed its checksum \
                     (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

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

    /// A `Vec` for `n` records of at least `min_bytes` each, reserving
    /// no more than the unread input could hold: a hostile count fails
    /// on the first missing record, not in the allocator.
    pub(crate) fn vec_for<T>(&self, n: usize, min_bytes: usize) -> Vec<T> {
        Vec::with_capacity(n.min((self.data.len() - self.pos) / min_bytes))
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

/// One spilled record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillRecord {
    /// An uncovered tuple (ascending ranks, non-empty).
    Plain(Vec<u32>),
    /// A (possibly partial) group.
    Group {
        /// Residual pattern ranks (ascending, non-empty).
        pattern: Vec<u32>,
        /// Members with no relevant outlying items.
        bare: u64,
        /// Outlier lists of the remaining members (each non-empty),
        /// one CSR row per member.
        outliers: CsrTuples<u32>,
    },
}

impl SpillRecord {
    /// Number of member tuples this record represents.
    pub fn tuple_count(&self) -> u64 {
        match self {
            SpillRecord::Plain(_) => 1,
            SpillRecord::Group { bare, outliers, .. } => bare + outliers.len() as u64,
        }
    }

    /// Estimated bytes of the in-memory RP-Struct share this record
    /// expands to (used for load-vs-respill decisions).
    pub fn estimated_memory(&self) -> usize {
        const PER_ENTRY: usize = 12;
        const PER_TAIL: usize = 12;
        const PER_GROUP: usize = 60;
        match self {
            SpillRecord::Plain(items) => (items.len() + 1) * PER_ENTRY + PER_TAIL,
            SpillRecord::Group { pattern, outliers, .. } => {
                PER_GROUP
                    + pattern.len() * 4
                    + outliers
                        .iter()
                        .map(|o| (o.len() + 1) * PER_ENTRY + PER_TAIL + 4)
                        .sum::<usize>()
            }
        }
    }

    /// Serializes into `buf`: the record body followed by the CRC-32 of
    /// the body bytes.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let body_start = buf.len();
        match self {
            SpillRecord::Plain(items) => {
                buf.push(0);
                put_list(buf, items);
            }
            SpillRecord::Group { pattern, bare, outliers } => {
                buf.push(1);
                put_list(buf, pattern);
                buf.extend_from_slice(&bare.to_le_bytes());
                buf.extend_from_slice(&(outliers.len() as u32).to_le_bytes());
                for o in outliers.iter() {
                    put_list(buf, o);
                }
            }
        }
        let crc = crc32(&buf[body_start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Deserializes one record from the front of `buf`; `Ok(None)` when
    /// the buffer is exhausted, [`DecodeError`] on a truncated or
    /// corrupt buffer.
    pub fn decode(buf: &mut ByteReader<'_>) -> Result<Option<SpillRecord>, DecodeError> {
        if !buf.has_remaining() {
            return Ok(None);
        }
        let tag_offset = buf.pos;
        let record = match buf.get_u8()? {
            0 => SpillRecord::Plain(get_list(buf)?),
            1 => {
                let pattern = get_list(buf)?;
                let bare = buf.get_u64_le()?;
                let n = buf.get_u32_le()? as usize;
                let mut outliers = CsrTuples::new();
                for _ in 0..n {
                    let m = buf.get_u32_le()? as usize;
                    for _ in 0..m {
                        outliers.push_elem(buf.get_u32_le()?);
                    }
                    outliers.commit_row();
                }
                SpillRecord::Group { pattern, bare, outliers }
            }
            tag => return Err(DecodeError::BadTag { offset: tag_offset, tag }),
        };
        let body_end = buf.pos;
        let stored = buf.get_u32_le()?;
        let computed = crc32(&buf.data[tag_offset..body_end]);
        if stored != computed {
            return Err(DecodeError::BadChecksum { offset: tag_offset, stored, computed });
        }
        Ok(Some(record))
    }
}

pub(crate) fn put_list(buf: &mut Vec<u8>, items: &[u32]) {
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for &x in items {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

pub(crate) fn get_list(buf: &mut ByteReader<'_>) -> Result<Vec<u32>, DecodeError> {
    let n = buf.get_u32_le()? as usize;
    (0..n).map(|_| buf.get_u32_le()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(rows: &[&[u32]]) -> CsrTuples<u32> {
        let mut c = CsrTuples::new();
        for r in rows {
            c.push_row(r);
        }
        c
    }

    fn round_trip(records: &[SpillRecord]) {
        let mut buf = Vec::new();
        for r in records {
            r.encode(&mut buf);
        }
        let mut reader = ByteReader::new(&buf);
        let mut back = Vec::new();
        while let Some(r) = SpillRecord::decode(&mut reader).unwrap() {
            back.push(r);
        }
        assert_eq!(back, records);
    }

    #[test]
    fn plain_round_trip() {
        round_trip(&[SpillRecord::Plain(vec![1, 5, 9]), SpillRecord::Plain(vec![0])]);
    }

    #[test]
    fn group_round_trip() {
        round_trip(&[SpillRecord::Group {
            pattern: vec![2, 3],
            bare: 7,
            outliers: csr(&[&[4], &[5, 6]]),
        }]);
    }

    #[test]
    fn mixed_stream_round_trip() {
        round_trip(&[
            SpillRecord::Plain(vec![1]),
            SpillRecord::Group { pattern: vec![0], bare: 0, outliers: csr(&[&[9]]) },
            SpillRecord::Plain(vec![2, 3]),
        ]);
    }

    #[test]
    fn decode_empty_is_none() {
        let mut b = ByteReader::new(&[]);
        assert_eq!(SpillRecord::decode(&mut b), Ok(None));
    }

    #[test]
    fn tuple_counts() {
        assert_eq!(SpillRecord::Plain(vec![1]).tuple_count(), 1);
        let g = SpillRecord::Group { pattern: vec![1], bare: 2, outliers: csr(&[&[2]]) };
        assert_eq!(g.tuple_count(), 3);
    }

    #[test]
    fn corrupt_tag_is_an_error() {
        let raw = [7u8, 0, 0, 0, 0];
        let mut b = ByteReader::new(&raw);
        assert_eq!(SpillRecord::decode(&mut b), Err(DecodeError::BadTag { offset: 0, tag: 7 }));
    }

    #[test]
    fn truncated_record_is_an_error() {
        // A Plain record whose length prefix promises more u32s than
        // the buffer holds.
        let mut buf = Vec::new();
        SpillRecord::Plain(vec![1, 2, 3]).encode(&mut buf);
        for cut in 1..buf.len() {
            let mut b = ByteReader::new(&buf[..cut]);
            let got = SpillRecord::decode(&mut b);
            assert!(matches!(got, Err(DecodeError::Truncated { .. })), "cut={cut}: {got:?}");
        }
        // A Group record cut at every interior byte — exercises the CSR
        // decode path at each list boundary.
        let mut gbuf = Vec::new();
        SpillRecord::Group { pattern: vec![2], bare: 1, outliers: csr(&[&[4, 5], &[6]]) }
            .encode(&mut gbuf);
        for cut in 1..gbuf.len() {
            let mut b = ByteReader::new(&gbuf[..cut]);
            let got = SpillRecord::decode(&mut b);
            assert!(matches!(got, Err(DecodeError::Truncated { .. })), "cut={cut}: {got:?}");
        }
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        // Flipping any single bit of an encoded stream must surface a
        // DecodeError — usually BadChecksum, but flips inside a length
        // prefix or tag may fail structurally first. What must never
        // happen is a silent wrong decode.
        let records = [
            SpillRecord::Plain(vec![1, 5, 9]),
            SpillRecord::Group { pattern: vec![2, 3], bare: 7, outliers: csr(&[&[4], &[5, 6]]) },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                let mut reader = ByteReader::new(&corrupt);
                let mut outcome = Ok(());
                loop {
                    match SpillRecord::decode(&mut reader) {
                        Ok(Some(_)) => continue,
                        Ok(None) => break,
                        Err(e) => {
                            outcome = Err(e);
                            break;
                        }
                    }
                }
                assert!(outcome.is_err(), "byte {byte} bit {bit} decoded cleanly");
            }
        }
    }

    #[test]
    fn checksum_mismatch_reports_record_offset() {
        let mut buf = Vec::new();
        SpillRecord::Plain(vec![1]).encode(&mut buf);
        let second_start = buf.len();
        SpillRecord::Plain(vec![2, 3]).encode(&mut buf);
        // Flip a payload bit inside the second record's item data.
        buf[second_start + 5] ^= 0x10;
        let mut reader = ByteReader::new(&buf);
        assert!(SpillRecord::decode(&mut reader).unwrap().is_some());
        match SpillRecord::decode(&mut reader) {
            Err(DecodeError::BadChecksum { offset, stored, computed }) => {
                assert_eq!(offset, second_start);
                assert_ne!(stored, computed);
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn decode_errors_render_offsets() {
        let msg = DecodeError::BadTag { offset: 9, tag: 7 }.to_string();
        assert!(msg.contains("tag 7") && msg.contains("byte 9"), "{msg}");
        let msg = DecodeError::Truncated { offset: 3, needed: 4 }.to_string();
        assert!(msg.contains("byte 3"), "{msg}");
        let msg = DecodeError::BadChecksum { offset: 4, stored: 1, computed: 2 }.to_string();
        assert!(msg.contains("byte 4") && msg.contains("checksum"), "{msg}");
    }

    #[test]
    fn memory_estimate_grows_with_content() {
        let small = SpillRecord::Plain(vec![1]);
        let big =
            SpillRecord::Group { pattern: vec![1, 2, 3], bare: 0, outliers: csr(&[&[4, 5], &[6]]) };
        assert!(big.estimated_memory() > small.estimated_memory());
    }
}
