//! CRC32 (IEEE 802.3, the zlib polynomial) — the one checksum behind
//! every framed byte this workspace writes: column payloads, manifests,
//! sidecars, WAL frames and slowlog lines. It lives here because `obs`
//! depends on nothing; `graphbi_columnstore` re-exports it.
//!
//! Slicing-by-8: eight `const`-built tables let one step fold eight input
//! bytes with eight independent lookups instead of eight dependent ones.
//! The value for every input is the bytewise algorithm's, so checksums
//! already on disk keep verifying.

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // t[k][b] is the CRC state after byte b followed by k zero bytes.
    let mut k = 1;
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = tables();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC32 straight from the polynomial: no table to get
    /// wrong, so it is the reference the sliced version must equal.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xffff_ffff
    }

    fn seeded_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn crc32_matches_reference_at_every_length_and_offset() {
        let data = seeded_bytes(64 + 8, 0x5eed);
        for off in 0..8 {
            for len in 0..=64 {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), reference(s), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_reference_on_a_mebibyte() {
        let data = seeded_bytes(1 << 20, 42);
        assert_eq!(crc32(&data), reference(&data));
        // An odd-length, odd-offset window of the same buffer.
        let s = &data[3..(1 << 20) - 2];
        assert_eq!(crc32(s), reference(s));
    }
}
