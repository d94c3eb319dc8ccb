//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every header and section of the one on-disk file kind
//! (segments, the compressed-state file, spill chunks).
//!
//! Hand-rolled slicing-by-8 implementation: the workspace takes no
//! external dependencies, and the checksum is on a hot path — every
//! segment load verifies its whole payload, and an out-of-core mining
//! round loads every segment of the store. Eight bytes per step through
//! eight 256-entry tables replace the byte-at-a-time chain of dependent
//! lookups; the tables are built in `const`s so they cost nothing at
//! runtime.

/// The reflected CRC-32 lookup table, one entry per byte value.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `TABLES[k][b]` is the CRC register after
/// feeding byte `b` followed by `k` zero bytes, so `TABLES[0]` is
/// [`TABLE`].
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data` (IEEE, as produced by zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values from the zlib crc32 implementation.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time definition the sliced loop must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_offset() {
        // Lengths 0..=67 cover no, one and several 8-byte steps with
        // every remainder; offsets 0..8 cover every alignment.
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for start in 0..8 {
            for len in 0..=67 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_every_bit() {
        let base = b"gogreen segment payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
