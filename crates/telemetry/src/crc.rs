//! CRC-32 (IEEE 802.3), the stack's one error-detecting checksum.
//!
//! `dla-net` stamps it on every envelope payload and `dla-logstore` on
//! every journal entry; this crate is the one both depend on, so the
//! routine lives here rather than once in each.

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic one-byte
/// table; `CRC_TABLES[k][b]` is the CRC state after byte `b` followed
/// by `k` zero bytes, which is what lets eight input bytes be folded
/// with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) over `data`.
///
/// Table-driven (slicing-by-8): every envelope payload is checksummed
/// three to five times between send and delivery and every journal
/// byte once on append and once on restore, so the per-byte cost is on
/// every message's and every deposit's path.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition of the checksum — the differential
    /// oracle for the table-driven [`crc32`].
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // Single-bit flips change the checksum.
        assert_ne!(crc32(b"payload"), crc32(b"pa\x78load"));
    }

    #[test]
    fn table_driven_crc32_equals_the_bitwise_definition() {
        // Any fixed, patternless bytes do: a 64-bit LCG's top byte.
        let mut state = 32u64;
        let data: Vec<u8> = (0..4096 + 7)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        // Every length around the 8-byte stride, at every alignment of
        // the slice start, then a spread of longer ones.
        for start in 0..8 {
            for len in 0..=40 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
        for len in [63, 64, 65, 600, 1023, 4096, 4103] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&[0u8; 64]), crc32_bitwise(&[0u8; 64]));
        assert_eq!(crc32(&[0xFFu8; 64]), crc32_bitwise(&[0xFFu8; 64]));
    }
}
