//! The one on-disk file kind: a header, then a [`CdbLayout`]'s sections
//! written verbatim.
//!
//! Every file the storage layer writes holds a compressed layout — the
//! paper's §3.1 structure, which a plain database is with zero groups:
//!
//! * a segment ([`crate::segment`]) is an item-space layout without
//!   groups, plus its item-support sidecar;
//! * the compressed-state file ([`crate::version`]) is an item-space
//!   layout;
//! * a spill partition ([`crate::spill`]) is a run of rank-space layouts
//!   — *chunks* — one per flush.
//!
//! ## Wire format
//!
//! All integers little-endian. A 76-byte header:
//!
//! | bytes  | field |
//! |-------:|-------|
//! | 0..4   | magic `"GGCL"` |
//! | 4..8   | format version (3) |
//! | 8..12  | id space: 0 items, 1 ranks |
//! | 12..20 | extent (`u64`): item occurrences, or the rank count |
//! | 20..48 | counts `g p r o n e s`: groups, pattern ids, outlier rows, outlier ids, plain rows, plain ids, sidecar entries (`u32` each) |
//! | 48..72 | CRC-32 of each of the six sections below |
//! | 72..76 | CRC-32 of bytes 0..72 |
//!
//! followed by the sections, each CSR section as its offsets then its ids:
//!
//! | section | contents |
//! |---------|----------|
//! | patterns | `u32[g+1]` offsets, `u32[p]` ids |
//! | outliers | `u32[r+1]` offsets, `u32[o]` ids |
//! | outlier_start | `u32[g+1]` |
//! | bare | `u64[g]` |
//! | plain | `u32[n+1]` offsets, `u32[e]` ids |
//! | sidecar | `s` pairs `(item: u32, count: u32)` |
//!
//! A file is encoded into one buffer ([`encode`]) and written with one
//! `write_all`. Reading trusts nothing: the header is checked first —
//! magic, version, its own CRC and the id space — and its counts must
//! describe exactly the bytes present (the file, or the rest of a
//! partition file) before anything is allocated from them. Then each
//! section's CRC is checked, and [`CdbLayout::try_from_raw_parts`], the
//! one validator, holds the sections to the layout's invariants. The
//! retired formats — `GGSG` v1 segments and `GGDV` v2 state files — are
//! refused by name, never misread.

use crate::crc::crc32;
use gogreen_data::{CdbLayout, CsrTuples, IdSpace};
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

const MAGIC: [u8; 4] = *b"GGCL";
const FORMAT_VERSION: u32 = 3;
/// Header size in bytes.
pub(crate) const HEADER_BYTES: usize = 76;
/// Section names, in file order, for error messages.
const SECTIONS: [&str; 6] = ["patterns", "outliers", "outlier_start", "bare", "plain", "sidecar"];
/// Byte offset of the section CRCs in the header.
const CRCS_AT: usize = 48;

pub(crate) fn invalid(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A checked header: the id space, extent and section sizes of one
/// layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    space: IdSpace,
    extent: u64,
    /// `g p r o n e s`, as in the module docs.
    counts: [u32; 7],
    crcs: [u32; 6],
}

impl Header {
    /// Plain rows: a segment's row count.
    pub(crate) fn plain_rows(&self) -> usize {
        self.counts[4] as usize
    }

    /// Plain ids: a segment's element count.
    pub(crate) fn plain_ids(&self) -> usize {
        self.counts[5] as usize
    }

    /// Byte length of each section, in file order.
    fn section_bytes(&self) -> [u64; 6] {
        let [g, p, r, o, n, e, s] = self.counts.map(u64::from);
        [4 * (g + 1 + p), 4 * (r + 1 + o), 4 * (g + 1), 8 * g, 4 * (n + 1 + e), 8 * s]
    }

    /// Bytes of all sections: what follows the header.
    pub(crate) fn body_bytes(&self) -> u64 {
        self.section_bytes().iter().sum()
    }

    /// Bytes of the five layout sections, which the sidecar follows.
    pub(crate) fn layout_bytes(&self) -> u64 {
        self.section_bytes()[..5].iter().sum()
    }

    /// Bytes of the sidecar section.
    pub(crate) fn sidecar_bytes(&self) -> usize {
        self.section_bytes()[5] as usize
    }

    /// `bytes`, section `k`, once its CRC matches the header's.
    fn checked<'b>(&self, k: usize, bytes: &'b [u8]) -> io::Result<&'b [u8]> {
        let (stored, computed) = (self.crcs[k], crc32(bytes));
        if stored != computed {
            return Err(invalid(format!(
                "{} section checksum mismatch (stored {stored:#010x}, computed {computed:#010x})",
                SECTIONS[k]
            )));
        }
        Ok(bytes)
    }

    /// Parses the first bytes of a file (`raw`, at most [`HEADER_BYTES`]):
    /// its magic, version, header CRC and id space, and that its sections
    /// fit in the `available` bytes that follow the header.
    fn parse(raw: &[u8], space: IdSpace, available: u64) -> io::Result<Header> {
        let word = |i: usize| raw.get(i..i + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
        match raw.get(..4) {
            Some(m) if m == MAGIC => {}
            // The retired segment and state-file formats.
            Some(old @ (b"GGSG" | b"GGDV")) => {
                let (magic, v) = (String::from_utf8_lossy(old), word(4).unwrap_or(0));
                return Err(invalid(format!(
                    "unsupported format {magic} v{v}, from before layout files"
                )));
            }
            _ => return Err(invalid("not a gogreen layout file (bad magic)")),
        }
        if raw.len() < HEADER_BYTES {
            return Err(invalid(format!(
                "truncated header ({} of {HEADER_BYTES} bytes)",
                raw.len()
            )));
        }
        let word = |i: usize| word(i).expect("a full header");
        if word(4) != FORMAT_VERSION {
            return Err(invalid(format!("unsupported layout format version {}", word(4))));
        }
        let (stored, computed) = (word(72), crc32(&raw[..72]));
        if stored != computed {
            return Err(invalid(format!(
                "header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        let stored_space = match word(8) {
            0 => IdSpace::Item,
            1 => IdSpace::Rank,
            s => return Err(invalid(format!("unknown id space {s}"))),
        };
        if stored_space != space {
            return Err(invalid(format!(
                "a {stored_space:?}-space layout where {space:?} belongs"
            )));
        }
        let h = Header {
            space,
            extent: u64::from_le_bytes(raw[12..20].try_into().unwrap()),
            counts: std::array::from_fn(|k| word(20 + 4 * k)),
            crcs: std::array::from_fn(|k| word(CRCS_AT + 4 * k)),
        };
        if h.body_bytes() > available {
            return Err(invalid(format!(
                "header counts describe {} bytes of sections, {available} are present",
                h.body_bytes()
            )));
        }
        Ok(h)
    }
}

/// Reads and checks the header at `r`'s position, after which at most
/// `available` bytes remain in the file: header and sections must fit.
pub(crate) fn read_header(r: &mut impl Read, space: IdSpace, available: u64) -> io::Result<Header> {
    let mut raw = [0u8; HEADER_BYTES];
    let n = available.min(HEADER_BYTES as u64) as usize;
    r.read_exact(&mut raw[..n])?;
    Header::parse(&raw[..n], space, available - n as u64)
}

/// Opens the one-layout file at `path`, whose header counts must describe
/// exactly the file, and returns the header with the file positioned at
/// the sections. Errors name the path.
pub(crate) fn open(path: &Path, space: IdSpace) -> io::Result<(Header, File)> {
    let mut f = File::open(path)?;
    let with_path = |e: io::Error| invalid(format!("{}: {e}", path.display()));
    let len = f.metadata()?.len();
    let h = read_header(&mut f, space, len).map_err(with_path)?;
    if HEADER_BYTES as u64 + h.body_bytes() != len {
        return Err(with_path(invalid(format!(
            "header counts describe {} bytes of sections, the file has {}",
            h.body_bytes(),
            len.saturating_sub(HEADER_BYTES as u64)
        ))));
    }
    Ok((h, f))
}

/// The exact encoded length of `layout` with `sidecar_entries` sidecar
/// entries.
pub(crate) fn encoded_len<T: Copy + Ord>(layout: &CdbLayout<T>, sidecar_entries: usize) -> usize {
    let (g, n) = (layout.num_groups(), layout.plain().len());
    let words = (g + 1 + layout.pattern_items())
        + (layout.group_outlier_rows() + 1 + layout.group_outlier_items())
        + (g + 1)
        + (n + 1 + layout.plain().total_elems());
    HEADER_BYTES + 4 * words + 8 * g + 8 * sidecar_entries
}

/// Appends `layout`'s file to `buf`: the header, then the sections, with
/// a sidecar of the non-zero entries of `supports` (item-indexed counts;
/// empty for no sidecar).
pub fn encode<T: Copy + Ord + Into<u32>>(
    buf: &mut Vec<u8>,
    layout: &CdbLayout<T>,
    space: IdSpace,
    supports: &[u32],
) {
    let csr =
        [layout.patterns(), layout.outliers(), layout.plain()].map(|s| (s.offsets(), s.flat()));
    let (starts, bare) = (layout.outlier_start(), layout.bare_counts());
    put_file(buf, (space, layout.extent() as u64), csr, starts, bare, supports);
}

/// [`encode`] over borrowed sections — the CSR ones (patterns, outliers,
/// plain) as offsets and ids — which need not form a valid layout (tests
/// forge files with it).
fn put_file<T: Copy + Into<u32>>(
    buf: &mut Vec<u8>,
    (space, extent): (IdSpace, u64),
    csr: [(&[u32], &[T]); 3],
    outlier_start: &[u32],
    bare: &[u64],
    supports: &[u32],
) {
    fn put<X: Copy>(buf: &mut Vec<u8>, xs: &[X], word: impl Fn(X) -> u32) {
        buf.reserve(4 * xs.len());
        xs.iter().for_each(|&x| buf.extend_from_slice(&word(x).to_le_bytes()));
    }
    let start = buf.len();
    buf.resize(start + HEADER_BYTES, 0);
    let [patterns, outliers, plain] = csr;
    let mut ends = [0usize; 6];
    for (k, (offsets, ids)) in [(0, patterns), (1, outliers)] {
        put(buf, offsets, |x| x);
        put(buf, ids, T::into);
        ends[k] = buf.len();
    }
    put(buf, outlier_start, |x| x);
    ends[2] = buf.len();
    bare.iter().for_each(|b| buf.extend_from_slice(&b.to_le_bytes()));
    ends[3] = buf.len();
    put(buf, plain.0, |x| x);
    put(buf, plain.1, T::into);
    ends[4] = buf.len();
    let mut entries = 0;
    for (item, &count) in supports.iter().enumerate().filter(|&(_, &c)| c > 0) {
        put(buf, &[item as u32, count], |x| x);
        entries += 1;
    }
    ends[5] = buf.len();
    let mut from = start + HEADER_BYTES;
    let crcs = ends.map(|end| crc32(&buf[std::mem::replace(&mut from, end)..end]));

    // A forged CSR section may have no offsets at all.
    let counts = csr.into_iter().flat_map(|(offs, ids)| [offs.len().saturating_sub(1), ids.len()]);
    let words = counts.chain([entries]).map(|c| c as u32).chain(crcs);
    let header = &mut buf[start..start + HEADER_BYTES];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&u32::from(space == IdSpace::Rank).to_le_bytes());
    header[12..20].copy_from_slice(&extent.to_le_bytes());
    for (k, w) in words.enumerate() {
        header[20 + 4 * k..24 + 4 * k].copy_from_slice(&w.to_le_bytes());
    }
    let crc = crc32(&header[..72]);
    header[72..].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes `body` — the five layout sections that follow `h`, and
/// optionally the sidecar after them — into a layout: checks each
/// section's CRC, then adopts the sections through the one validator.
/// `reuse` lends its vectors to the plain section.
pub(crate) fn decode_body<T: Copy + Ord + From<u32> + Into<u32>>(
    h: &Header,
    body: &[u8],
    reuse: CsrTuples<T>,
) -> io::Result<CdbLayout<T>> {
    fn words(b: &[u8]) -> impl Iterator<Item = u32> + '_ {
        b.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap()))
    }
    debug_assert!([h.layout_bytes(), h.body_bytes()].contains(&(body.len() as u64)));
    let mut sections: [&[u8]; 6] = [&[]; 6];
    let mut at = 0;
    for (k, len) in h.section_bytes().into_iter().enumerate() {
        if k == 5 && at == body.len() {
            break;
        }
        sections[k] = h.checked(k, &body[at..at + len as usize])?;
        at += len as usize;
    }
    let [g, _, r, _, n, ..] = h.counts.map(|c| c as usize);
    let csr = |k: usize, rows: usize, (mut ids, mut offsets): (Vec<T>, Vec<u32>)| {
        let (offset_bytes, id_bytes) = sections[k].split_at(4 * (rows + 1));
        ids.clear();
        ids.extend(words(id_bytes).map(T::from));
        offsets.clear();
        offsets.extend(words(offset_bytes));
        CsrTuples::try_from_raw_parts(ids, offsets).ok_or_else(|| {
            invalid(format!("{} offsets do not run from 0 up to the id count", SECTIONS[k]))
        })
    };
    let bare = sections[3].chunks_exact(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()));
    let extent = usize::try_from(h.extent).map_err(invalid)?;
    let (patterns, outliers) = (csr(0, g, Default::default())?, csr(1, r, Default::default())?);
    let plain = csr(4, n, reuse.into_raw_parts())?;
    let (starts, bare) = (words(sections[2]).collect(), bare.collect());
    CdbLayout::try_from_raw_parts(patterns, outliers, starts, bare, plain, extent, h.space)
        .map_err(invalid)
}

/// Decodes a whole file held in memory: its header must describe exactly
/// `bytes`.
pub fn decode<T: Copy + Ord + From<u32> + Into<u32>>(
    bytes: &[u8],
    space: IdSpace,
) -> io::Result<CdbLayout<T>> {
    let h = read_header(&mut &bytes[..], space, bytes.len() as u64)?;
    let trailing = bytes.len() as u64 - HEADER_BYTES as u64 - h.body_bytes();
    if trailing > 0 {
        return Err(invalid(format!("{trailing} bytes after the sections")));
    }
    decode_body(&h, &bytes[HEADER_BYTES..], CsrTuples::new())
}

/// Adds the sidecar `bytes` (the sidecar section `h` describes, read
/// from its file) to `supports`, after checking its CRC.
pub(crate) fn add_sidecar(h: &Header, bytes: &[u8], supports: &mut Vec<u64>) -> io::Result<()> {
    for pair in h.checked(5, bytes)?.chunks_exact(8) {
        let item = u32::from_le_bytes(pair[0..4].try_into().unwrap()) as usize;
        let count = u32::from_le_bytes(pair[4..8].try_into().unwrap()) as u64;
        if item >= supports.len() {
            supports.resize(item + 1, 0);
        }
        supports[item] += count;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::segment::{SegmentWriter, SegmentedDb};
    use crate::spill::SpillManager;
    use crate::version;
    use gogreen_data::{CompressedRankDb, GroupView, Item};
    use gogreen_util::rng::{Rng, SmallRng};
    use std::path::PathBuf;

    /// A forged group: pattern, bare count, outlier rows.
    pub(crate) type ForgedGroup<'a> = (&'a [u32], u64, &'a [&'a [u32]]);

    /// A file's sections as given, valid or not: the CSR ones (patterns,
    /// outliers, plain) as offsets and ids, then `outlier_start`, `bare`.
    pub(crate) struct Forged(pub [(Vec<u32>, Vec<u32>); 3], pub Vec<u32>, pub Vec<u64>);

    impl Forged {
        pub(crate) fn new(groups: &[ForgedGroup<'_>], plain: &[&[u32]]) -> Forged {
            fn push_row((offsets, ids): &mut (Vec<u32>, Vec<u32>), row: &[u32]) {
                ids.extend_from_slice(row);
                offsets.push(ids.len() as u32);
            }
            let mut f = Forged(std::array::from_fn(|_| (vec![0], Vec::new())), vec![0], Vec::new());
            for &(pattern, bare, rows) in groups {
                push_row(&mut f.0[0], pattern);
                rows.iter().for_each(|r| push_row(&mut f.0[1], r));
                f.1.push(f.0[1].0.len() as u32 - 1);
                f.2.push(bare);
            }
            plain.iter().for_each(|r| push_row(&mut f.0[2], r));
            f
        }

        /// The file bytes, written verbatim.
        pub(crate) fn bytes(&self, space: IdSpace, extent: u64) -> Vec<u8> {
            let csr = self.0.each_ref().map(|(offsets, ids)| (&offsets[..], &ids[..]));
            let mut buf = Vec::new();
            put_file(&mut buf, (space, extent), csr, &self.1, &self.2, &[]);
            buf
        }
    }

    /// The file bytes of `groups` and `plain` rows, valid or not.
    pub(crate) fn forge(
        groups: &[ForgedGroup<'_>],
        plain: &[&[u32]],
        space: IdSpace,
        extent: u64,
    ) -> Vec<u8> {
        Forged::new(groups, plain).bytes(space, extent)
    }

    /// Sets count `k` (of `g p r o n e s`) in the header at the start of
    /// `bytes` to `value`, and re-seals the header's checksum.
    pub(crate) fn set_count(bytes: &mut [u8], k: usize, value: u32) {
        bytes[20 + 4 * k..24 + 4 * k].copy_from_slice(&value.to_le_bytes());
        let crc = crc32(&bytes[..72]);
        bytes[72..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    }

    /// Byte offsets of the chunks of a well-formed partition file.
    pub(crate) fn chunk_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let rest = (bytes.len() - at) as u64;
            let h = read_header(&mut &bytes[at..], IdSpace::Rank, rest).expect("a chunk header");
            starts.push(at);
            at += HEADER_BYTES + h.body_bytes() as usize;
        }
        starts
    }

    /// A rank-space layout holding every part of the format: a group with
    /// bare members and outlier rows, a bare-only group, plain rows.
    pub(crate) fn mixed() -> CompressedRankDb {
        let mut rdb = CompressedRankDb::empty(10);
        rdb.push_group(&[2, 3], [&[4u32][..], &[5, 6]], 7);
        rdb.push_plain(&[1, 5, 9]);
        rdb.push_group(&[0], std::iter::empty(), 2);
        rdb.push_plain(&[0]);
        rdb
    }

    /// `rdb`'s rank-space file bytes, checked against [`encoded_len`].
    pub(crate) fn encoded(rdb: &CompressedRankDb) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(&mut buf, rdb, IdSpace::Rank, &[]);
        assert_eq!(buf.len(), encoded_len(rdb, 0));
        buf
    }

    #[test]
    fn empty_layout_round_trips() {
        let empty = CompressedRankDb::empty(0);
        let buf = encoded(&empty);
        assert_eq!(buf.len(), HEADER_BYTES + 16);
        assert_eq!(decode::<u32>(&buf, IdSpace::Rank).unwrap(), empty);
    }

    /// A wrong magic, an unknown id space, the other id space and another
    /// format version are refused from the header.
    #[test]
    fn bad_magic_space_or_version_is_an_error() {
        let good = encoded(&mixed());
        let err = |bytes: &[u8]| decode::<u32>(bytes, IdSpace::Rank).unwrap_err().to_string();
        let mut bytes = good.clone();
        bytes[0] = b'X';
        assert!(err(&bytes).contains("bad magic"), "{}", err(&bytes));
        let mut bytes = good.clone();
        bytes[4] = 9;
        assert!(err(&bytes).contains("version 9"), "{}", err(&bytes));
        let mut bytes = good.clone();
        bytes[8] = 2;
        let crc = crc32(&bytes[..72]);
        bytes[72..76].copy_from_slice(&crc.to_le_bytes());
        assert!(err(&bytes).contains("unknown id space 2"), "{}", err(&bytes));
        let e = decode::<u32>(&good, IdSpace::Item).unwrap_err().to_string();
        assert!(e.contains("Rank-space layout where Item belongs"), "{e}");
    }

    /// A flipped bit inside a section names that section and both
    /// checksums.
    #[test]
    fn checksum_mismatch_names_the_section() {
        let rdb = mixed();
        let buf = encoded(&rdb);
        let h = read_header(&mut &buf[..], IdSpace::Rank, buf.len() as u64).unwrap();
        let mut at = HEADER_BYTES;
        for (k, len) in h.section_bytes().into_iter().enumerate().filter(|&(_, len)| len > 0) {
            let mut corrupt = buf.clone();
            corrupt[at] ^= 0x10;
            let msg = decode::<u32>(&corrupt, IdSpace::Rank).unwrap_err().to_string();
            let stored = format!("stored {:#010x}", h.crcs[k]);
            assert!(msg.contains(&format!("{} section checksum", SECTIONS[k])), "{msg}");
            assert!(msg.contains(&stored) && msg.contains("computed"), "{msg}");
            at += len as usize;
        }
    }

    /// One file of each kind on disk — a segment, a state file and a
    /// partition of at least three chunks — each with its loader.
    pub(crate) struct Files {
        dir: PathBuf,
        pub(crate) mgr: SpillManager,
    }

    impl Files {
        pub(crate) fn new(tag: &str) -> Files {
            let dir =
                std::env::temp_dir().join(format!("gogreen-layout-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut w = SegmentWriter::create(dir.join("segments"), 1 << 20).unwrap();
            (0..12u32).try_for_each(|k| w.push_row(&[k % 3, 3 + k % 5, 9 + k])).unwrap();
            w.finish().unwrap();
            let mut cdb = gogreen_data::CompressedDb::empty(30);
            cdb.push_group(&[Item(1), Item(4)], [&[Item(2)][..], &[Item(5), Item(9)]], 3);
            (0..6u32).for_each(|k| cdb.push_plain(&[Item(k), Item(k + 30)]));
            version::save(&dir.join("cdb.ggd"), &cdb).unwrap();
            let mut mgr = SpillManager::new(50).unwrap().with_flush_bytes(150);
            for k in 0..6u32 {
                let rows = gogreen_data::CsrTuples::from_iter([vec![k % 9 + 10], vec![40, 41]]);
                let g = GroupView {
                    pattern: &[k % 7, 20 + k % 3],
                    outliers: rows.as_slices(),
                    bare: 1,
                };
                mgr.append(0, g).unwrap();
                mgr.append_plain(0, &[k, k + 1]).unwrap();
            }
            mgr.finish().unwrap();
            Files { dir, mgr }
        }

        /// Each file's path, the offsets of its headers, and its loader.
        #[allow(clippy::type_complexity)]
        fn each(&self) -> [(PathBuf, Vec<usize>, Box<dyn Fn() -> io::Result<()> + '_>); 3] {
            let segments = self.dir.join("segments");
            let partition = self.mgr.partition_path(0);
            let chunks = chunk_starts(&std::fs::read(&partition).unwrap());
            assert!(chunks.len() >= 3, "{} chunks", chunks.len());
            let state = self.dir.join("cdb.ggd");
            [
                (
                    segments.join("seg-000000.ggs"),
                    vec![0],
                    Box::new(move || SegmentedDb::open(&segments)?.load(0).map(drop)),
                ),
                (state.clone(), vec![0], Box::new(move || version::load(&state).map(drop))),
                (partition, chunks, Box::new(|| self.mgr.for_each_record(0, |_| Ok(())))),
            ]
        }

        /// Loads every file as `mutations` rewrites it: each rewrite must
        /// fail with `InvalidData`, and the restored file must load.
        pub(crate) fn assert_each_fails(
            &self,
            mut mutations: impl FnMut(&[u8], &[usize]) -> Vec<Vec<u8>>,
        ) {
            for (path, starts, load) in self.each() {
                let good = std::fs::read(&path).unwrap();
                load().unwrap();
                for (m, bytes) in mutations(&good, &starts).into_iter().enumerate() {
                    std::fs::write(&path, &bytes).unwrap();
                    let err =
                        load().expect_err(&format!("{}: mutation {m} loaded", path.display()));
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "mutation {m}: {err}");
                }
                std::fs::write(&path, &good).unwrap();
                load().unwrap();
            }
            std::fs::remove_dir_all(&self.dir).unwrap();
        }
    }

    /// One seeded mutation of `good`, whose headers start at `starts`: a
    /// bit flip, a byte overwrite, a truncation, or a header count raised
    /// under a re-sealed header checksum.
    fn mutate(rng: &mut SmallRng, good: &[u8], starts: &[usize]) -> Vec<u8> {
        let mut bytes = good.to_vec();
        let at = rng.gen_index(bytes.len());
        match rng.gen_index(4) {
            0 => bytes[at] ^= 1 << rng.gen_index(8),
            1 => bytes[at] = bytes[at].wrapping_add(1 + rng.gen_index(255) as u8),
            2 => bytes.truncate(at),
            _ => {
                let start = starts[rng.gen_index(starts.len())];
                let k = rng.gen_index(7);
                let word = &bytes[start + 20 + 4 * k..start + 24 + 4 * k];
                let count = u32::from_le_bytes(word.try_into().unwrap());
                let magnitude = 1u64 << rng.gen_index(33);
                let bump = rng.gen_below(magnitude) as u32;
                set_count(&mut bytes[start..], k, count.saturating_add(1).saturating_add(bump));
            }
        }
        bytes
    }

    /// A fixed number of seeded mutations of each file kind: every one
    /// fails to load, none panics.
    #[test]
    fn seeded_mutations_of_every_file_kind_fail_to_load() {
        let mut rng = SmallRng::seed_from_u64(0x6767_636c);
        Files::new("mutations").assert_each_fails(|good, starts| {
            (0..300).map(|_| mutate(&mut rng, good, starts)).collect()
        });
    }
}
