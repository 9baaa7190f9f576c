//! Streaming CRC-32 (IEEE 802.3 polynomial) used by the `.tpg` v3 container.
//!
//! The build environment has no cargo registry, so the checksum is implemented here
//! rather than pulled from `crc32fast`. The kernel is slicing-by-16: sixteen 256-entry
//! tables (built at compile time) fold one 16-byte little-endian word per step with 16
//! independent lookups, and the classic one-lookup-per-byte loop handles only the
//! tail of fewer than 16 bytes. Verification sits on the page-fault path of the paged
//! store, where every installed byte is checksummed first, so it has to run near
//! memory speed rather than merely next to a disk read: a page-cache hit on the OS
//! side makes the `pread` itself a memcpy.

/// Reflected CRC-32 polynomial (IEEE 802.3 / zlib / PNG).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the sliced kernel (one table per byte position).
const SLICE: usize = 16;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the crc contribution of
/// byte `b` followed by `k` zero bytes, so the 16 lookups of one step XOR together.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut k = 1;
        while k < SLICE {
            crc = (crc >> 8) ^ tables[0][(crc & 0xff) as usize];
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// Incremental CRC-32 state. Feed bytes with [`update`](Crc32::update) in any
/// chunking; the digest depends only on the byte sequence.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Absorbs `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut state = self.state;
        let mut words = bytes.chunks_exact(SLICE);
        for w in &mut words {
            let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            state = t[15][(lo & 0xff) as usize]
                ^ t[14][((lo >> 8) & 0xff) as usize]
                ^ t[13][((lo >> 16) & 0xff) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][usize::from(w[4])]
                ^ t[10][usize::from(w[5])]
                ^ t[9][usize::from(w[6])]
                ^ t[8][usize::from(w[7])]
                ^ t[7][usize::from(w[8])]
                ^ t[6][usize::from(w[9])]
                ^ t[5][usize::from(w[10])]
                ^ t[4][usize::from(w[11])]
                ^ t[3][usize::from(w[12])]
                ^ t[2][usize::from(w[13])]
                ^ t[1][usize::from(w[14])]
                ^ t[0][usize::from(w[15])];
        }
        for &b in words.remainder() {
            state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = state;
    }

    /// The digest of all bytes absorbed so far (does not consume the state).
    pub fn finalize(&self) -> u32 {
        !self.state
    }

    /// Returns the digest and resets the state for the next block.
    pub fn take(&mut self) -> u32 {
        let digest = self.finalize();
        self.state = !0;
        digest
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte-at-a-time kernel, built bit by bit at run time: the
    /// reference the sliced kernel must reproduce exactly.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in bytes {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ POLY
                } else {
                    state >> 1
                };
            }
        }
        !state
    }

    /// Deterministic pseudo-random bytes (splitmix64), so failures reproduce.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_kernel_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = noise(1100 + SLICE, 7);
        for align in 0..SLICE {
            for len in 0..=1100 {
                let bytes = &buf[align..align + len];
                assert_eq!(
                    crc32(bytes),
                    reference_crc32(bytes),
                    "len {} at alignment {}",
                    len,
                    align
                );
            }
        }
    }

    #[test]
    fn known_test_vectors() {
        // Reference digests of the IEEE polynomial (zlib's crc32).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let data = noise(4096 + 37, 11);
        let whole = reference_crc32(&data);
        for chunk in [1usize, 2, 3, 7, 15, 16, 17, 64, 255, 1000] {
            let mut c = Crc32::new();
            for part in data.chunks(chunk) {
                c.update(part);
            }
            assert_eq!(c.finalize(), whole, "chunk size {}", chunk);
        }
        // Random split points, mostly straddling the kernel's 16-byte words.
        let mut rng = noise(64 * 7, 13).into_iter();
        for _ in 0..64 {
            let mut c = Crc32::new();
            let mut pos = 0usize;
            for _ in 0..7 {
                let step = usize::from(rng.next().unwrap()) * 3 + 1;
                let end = (pos + step).min(data.len());
                c.update(&data[pos..end]);
                pos = end;
            }
            c.update(&data[pos..]);
            assert_eq!(c.finalize(), whole);
        }
    }

    #[test]
    fn take_resets_for_the_next_block() {
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.take(), 0xCBF4_3926);
        c.update(b"123456789");
        assert_eq!(c.take(), 0xCBF4_3926);
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let data: Vec<u8> = (0..257u32).map(|i| (i % 256) as u8).collect();
        let reference = crc32(&data);
        let mut flipped = data.clone();
        for (i, bit) in [(0usize, 0u8), (13, 3), (256, 7)] {
            flipped[i] ^= 1 << bit;
            assert_ne!(crc32(&flipped), reference);
            flipped[i] ^= 1 << bit;
        }
    }
}
