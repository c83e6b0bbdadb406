//! Table-driven CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), std-only.
//!
//! The `jsn serve` wire protocol checksums every frame with this CRC so
//! that byte corruption on the wire — a flipped bit in a record payload,
//! a duplicated or sheared write from a broken middlebox — is *detected*
//! rather than silently mis-decoded into plausible-looking trace
//! records. The tables live here, next to the record codec, because the
//! trace encoding is the unit the checksum protects: a `Records` frame
//! is this crate's fixed-width records behind a checksummed header.
//!
//! The implementation is slicing-by-8 (Kounavis & Berry, "A Systematic
//! Approach to Building High Performance Software-Based CRC
//! Generators", ISCC 2005): eight 256-entry tables, built at compile
//! time, fold eight input bytes per step, and the classic reflected
//! byte-at-a-time loop handles the tail of fewer than eight bytes. It
//! computes the same CRC as that loop alone, bit for bit, so the frame
//! bytes on the wire do not depend on which one produced them.

/// Slicing tables for polynomial `0xEDB88320`. `TABLES[0]` is the
/// classic reflected byte table; `TABLES[k]` carries each entry of
/// `TABLES[0]` through `k` further zero bytes, so one step folds byte
/// `j` of an 8-byte word through `TABLES[7 - j]`.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
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

/// An incremental CRC-32 over a byte stream.
///
/// Use [`crc32`] for one-shot slices; use this when a frame is hashed
/// in pieces (header bytes, then payload) without concatenating.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum (state `0xFFFFFFFF`).
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[w[4] as usize]
                ^ t2[w[5] as usize]
                ^ t1[w[6] as usize]
                ^ t0[w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The finalized (bit-inverted) CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors for the IEEE CRC-32 — the same values every
    /// zlib/PNG/Ethernet implementation produces.
    #[test]
    fn known_answer_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0x00]), 0xD202_EF8D);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    /// The classic byte-at-a-time loop over `TABLES[0]`: the reference
    /// the sliced [`Crc32::update`] must reproduce.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic test bytes (splitmix64 output, little-endian).
    fn test_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut stream = crate::hash::SplitMix64::new(seed);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&stream.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn sliced_matches_reference_for_short_lengths_at_every_offset() {
        let data = test_bytes(64 + 8, 1);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), reference_crc32(slice), "len {len} at offset {offset}");
            }
        }
    }

    #[test]
    fn sliced_matches_reference_for_long_random_lengths() {
        let data = test_bytes(64 * 1024, 2);
        let lengths = test_bytes(64 * 4, 3);
        for (i, pair) in lengths.chunks_exact(4).enumerate() {
            let len = u32::from_le_bytes(pair.try_into().unwrap()) as usize % (data.len() + 1);
            let slice = &data[..len];
            assert_eq!(crc32(slice), reference_crc32(slice), "case {i}: len {len}");
        }
        assert_eq!(crc32(&data), reference_crc32(&data), "full 64 KiB");
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let whole = crc32(&data);
        assert_eq!(whole, reference_crc32(&data));
        // Every split point puts each half at every phase mod 8.
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
        // Three pieces, the first ending at each phase mod 8.
        for first in 0..8 {
            for second in 0..16 {
                let mut c = Crc32::new();
                c.update(&data[..first]);
                c.update(&data[first..first + second]);
                c.update(&data[first + second..]);
                assert_eq!(c.finish(), whole, "splits at {first} and {}", first + second);
            }
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = [0x5Au8; 64];
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data;
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at {byte}:{bit} went undetected");
            }
        }
    }
}
