//! CRC-32 (IEEE 802.3 polynomial) for stored column runs.
//!
//! Every run appended to the column store is checksummed at write time; the
//! checksum travels in the run's commit record and is re-verified on every
//! cache-miss read and during crash recovery (DESIGN.md §10). Since every
//! stored byte passes through here on store, database read and recovery,
//! the kernel must outrun the device: it is table-driven slicing-by-16,
//! folding 16 input bytes per step through 16 precomputed 256-entry tables.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes, so one step can
/// fold 16 bytes at once with independent lookups.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (reflected, polynomial 0xEDB88320, init/xorout all-ones
/// — the common `cksum`/zlib variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ crc;
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        crc = t[15][(w0 & 0xff) as usize]
            ^ t[14][((w0 >> 8) & 0xff) as usize]
            ^ t[13][((w0 >> 16) & 0xff) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xff) as usize]
            ^ t[10][((w1 >> 8) & 0xff) as usize]
            ^ t[9][((w1 >> 16) & 0xff) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xff) as usize]
            ^ t[6][((w2 >> 8) & 0xff) as usize]
            ^ t[5][((w2 >> 16) & 0xff) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xff) as usize]
            ^ t[2][((w3 >> 8) & 0xff) as usize]
            ^ t[1][((w3 >> 16) & 0xff) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Bit-at-a-time CRC-32: the definition the table kernel must match.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    fn random_bytes(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for the zlib/IEEE CRC-32.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_a686);
    }

    #[test]
    fn table_kernel_matches_reference_on_every_short_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x00c0_ffee);
        for len in 0..=300 {
            let data = random_bytes(&mut rng, len);
            assert_eq!(crc32(&data), reference_crc32(&data), "length {len}");
        }
    }

    #[test]
    fn table_kernel_matches_reference_at_every_alignment() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4096);
        let data = random_bytes(&mut rng, 4096);
        for start in 0..16 {
            let slice = &data[start..];
            assert_eq!(crc32(slice), reference_crc32(slice), "offset {start}");
        }
    }

    #[test]
    fn table_kernel_matches_reference_on_one_mib() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1 << 20);
        let data = random_bytes(&mut rng, 1 << 20);
        assert_eq!(crc32(&data), reference_crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = vec![0u8; 64];
        let reference = crc32(&base);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn truncation_changes_crc() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_ne!(crc32(&data), crc32(&data[..255]));
    }
}
