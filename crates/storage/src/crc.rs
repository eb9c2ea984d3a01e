//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the checksum guarding
//! every frame of the log and of a checkpoint. Implemented in-tree so
//! the storage crate stays dependency-free. Every byte a recovery reads
//! passes through it (a checkpoint load checksums each frame before it
//! decodes a field of it), so it is table-driven *slicing-by-8*:
//! eight table lookups fold eight input bytes per step instead of one
//! lookup per byte, with the same polynomial and therefore the same
//! values.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so the
/// eight bytes of one step are looked up independently and XORed.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32; // exact: `i < 256`
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE, reflected, init and final XOR `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook byte-at-a-time loop over the same table: the
    /// reference slicing-by-8 must reproduce exactly.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"adaptive clustering".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn every_short_length_and_misalignment_matches_the_bytewise_loop() {
        let buffer: Vec<u8> = (0..64u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..8 {
            for len in 0..=buffer.len() - start {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest! {
        /// Slicing-by-8 equals the bytewise loop on random inputs of 0–4 KiB,
        /// read from every start misalignment of the buffer, so every
        /// tail of 0–7 bytes behind the eight-byte steps occurs.
        #[test]
        fn slicing_by_8_equals_the_bytewise_loop(
            bytes in prop::collection::vec(0u8..=255, 0..4096 + 8),
            start in 0usize..8,
            trim in 0usize..8,
        ) {
            let start = start.min(bytes.len());
            let end = bytes.len().saturating_sub(trim).max(start);
            let slice = &bytes[start..end];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
