//! Round-trip and corruption tests of the layout codec: single layouts
//! through [`crate::layout::encode`] and [`crate::layout::decode`], and
//! the loaders of every file kind over damaged files.

mod tests {
    use crate::layout::tests::{chunk_starts, encoded, forge, mixed, Files};
    use crate::layout::{decode, HEADER_BYTES};
    use gogreen_data::{CompressedDb, CompressedRankDb, IdSpace, Item};
    use std::io;

    /// Decodes `rdb`'s file bytes and checks they give `rdb` back.
    fn round_trip(rdb: &CompressedRankDb) -> CompressedRankDb {
        let back = decode::<u32>(&encoded(rdb), IdSpace::Rank).unwrap();
        assert_eq!(&back, rdb);
        back
    }

    fn rows<'a>(rows: impl IntoIterator<Item = &'a [u32]>) -> Vec<Vec<u32>> {
        rows.into_iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn plain_round_trip() {
        let mut rdb = CompressedRankDb::empty(10);
        rdb.push_plain(&[1, 5, 9]);
        rdb.push_plain(&[0]);
        let back = round_trip(&rdb);
        assert_eq!(back.num_groups(), 0);
        assert_eq!(rows(back.plain()), [vec![1, 5, 9], vec![0]]);
    }

    #[test]
    fn group_round_trip() {
        let mut rdb = CompressedRankDb::empty(10);
        rdb.push_group(&[2, 3], [&[4u32][..], &[5, 6]], 7);
        let back = round_trip(&rdb);
        assert!(back.plain().is_empty());
        let g = back.group(0);
        assert_eq!((g.pattern, g.bare), (&[2, 3][..], 7));
        assert_eq!(rows(g.outliers), [vec![4], vec![5, 6]]);
    }

    /// Groups and plain rows together, in rank and in item space.
    #[test]
    fn mixed_stream_round_trip() {
        round_trip(&mixed());
        let mut cdb = CompressedDb::empty(23);
        cdb.push_group(&[Item(2)], [&[Item(1)][..]], 1);
        cdb.push_plain(&[]);
        let mut buf = Vec::new();
        crate::layout::encode(&mut buf, &cdb, IdSpace::Item, &[]);
        assert_eq!(decode::<Item>(&buf, IdSpace::Item).unwrap(), cdb);
    }

    #[test]
    fn tuple_counts() {
        // A group stands for its bare members plus one member per
        // outlier row; both survive, so a decoded layout re-expands to
        // exactly the tuples that were written.
        let back = round_trip(&mixed());
        let counts: Vec<u64> = back.groups().map(|g| g.count()).collect();
        assert_eq!(counts, [9, 2]);
        assert_eq!(back.num_tuples(), 9 + 2 + 2);
    }

    /// Every cut of an encoded layout, and every truncation of a segment,
    /// a state file and a multi-chunk partition, fails as `InvalidData`.
    #[test]
    fn truncated_record_is_an_error() {
        let buf = encoded(&mixed());
        for cut in 0..buf.len() {
            let err = decode::<u32>(&buf[..cut], IdSpace::Rank).expect_err("a cut layout");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut={cut}: {err}");
        }
        Files::new("truncate")
            .assert_each_fails(|good, _| (0..good.len()).map(|cut| good[..cut].to_vec()).collect());
    }

    /// Every single-bit flip of a segment, a state file and a multi-chunk
    /// partition fails to load — never a panic, never other content.
    #[test]
    fn bit_flip_anywhere_is_detected() {
        Files::new("flips").assert_each_fails(|good, _| {
            (0..good.len() * 8)
                .map(|b| {
                    let mut bytes = good.to_vec();
                    bytes[b / 8] ^= 1 << (b % 8);
                    bytes
                })
                .collect()
        });
    }

    /// A section flipped in a partition's second chunk: the first chunk's
    /// records are delivered, then the error names the chunk's byte
    /// offset, the section and both checksums.
    #[test]
    fn checksum_mismatch_reports_record_offset() {
        let files = Files::new("chunk-crc");
        let path = files.mgr.partition_path(0);
        let good = std::fs::read(&path).unwrap();
        let second = chunk_starts(&good)[1];
        let first = decode::<u32>(&good[..second], IdSpace::Rank).unwrap();
        let first_records = first.num_groups() + usize::from(!first.plain().is_empty());
        let mut bytes = good.clone();
        bytes[second + HEADER_BYTES] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut seen = 0;
        let err = files.mgr.for_each_record(0, |_| {
            seen += 1;
            Ok(())
        });
        let msg = err.unwrap_err().to_string();
        assert_eq!(seen, first_records, "the first chunk decodes before the corrupt one");
        assert!(msg.contains(&format!("chunk at {second}:")), "{msg}");
        assert!(msg.contains("patterns section checksum mismatch"), "{msg}");
        assert!(msg.contains("stored 0x") && msg.contains("computed 0x"), "{msg}");
        // The restored files load, and are then removed.
        std::fs::write(&path, &good).unwrap();
        files.assert_each_fails(|_, _| Vec::new());
    }

    /// A checksum-valid group without a pattern has no view: the one
    /// validator refuses it and names the group.
    #[test]
    fn empty_pattern_group_record_is_an_error() {
        let bytes = forge(&[(&[1], 0, &[]), (&[], 1, &[&[2]])], &[], IdSpace::Rank, 7);
        let err = decode::<u32>(&bytes, IdSpace::Rank).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("group 1: pattern empty"), "{err}");
    }

    /// Errors render where they happened: how much of a header or of the
    /// sections is present, and which chunk of a partition failed.
    #[test]
    fn decode_errors_render_offsets() {
        let buf = encoded(&mixed());
        let err = |bytes: &[u8]| decode::<u32>(bytes, IdSpace::Rank).unwrap_err().to_string();
        let msg = err(&buf[..40]);
        assert!(msg.contains(&format!("truncated header (40 of {HEADER_BYTES} bytes)")), "{msg}");
        let body = buf.len() - HEADER_BYTES;
        let msg = err(&buf[..buf.len() - 3]);
        assert!(msg.contains(&format!("describe {body} bytes of sections, {} are", body - 3)));
        let mut trailing = buf.clone();
        trailing.extend([0; 5]);
        assert!(err(&trailing).contains("5 bytes after the sections"), "{}", err(&trailing));

        let files = Files::new("render");
        let path = files.mgr.partition_path(0);
        let good = std::fs::read(&path).unwrap();
        let third = chunk_starts(&good)[2];
        let mut bytes = good.clone();
        bytes[third + 30] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let msg = files.mgr.for_each_record(0, |_| Ok(())).unwrap_err().to_string();
        assert!(msg.contains(&format!("partition 0, chunk at {third}: header checksum")), "{msg}");
        // The restored files load, and are then removed.
        std::fs::write(&path, &good).unwrap();
        files.assert_each_fails(|_, _| Vec::new());
    }
}
