//! The workspace's one seed-derivation toolkit: the SplitMix64 finalizer
//! and stream (Steele, Lea & Flood, OOPSLA 2014) and 64-bit FNV-1a.
//!
//! Every seed-driven sweep — `jsn check` scenario seeds, `JSN_FAULT`
//! selections, `jsn chaos` cell schedules, slam session traces, the
//! sharded-trace remap, parking tokens and the test generators — derives
//! its values here, so a recorded seed means the same thing everywhere.
//! The outputs are part of those reproducibility contracts; the
//! known-answer tests below pin them.
//!
//! The Bloom filter's index hash (`mnm_core`'s `bloom::mix`) is a
//! different function on purpose: it models the hardware's hash and
//! stays with the filter it describes.

/// The SplitMix64 golden-ratio increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One well-mixed value per input: the SplitMix64 output for state `z`
/// (the increment is applied first, so `splitmix64(0)` is the first
/// output of a stream seeded with 0).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: fast, seed-reproducible draws for seeding and
/// test input generation (not for workload synthesis — see `Prng`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from state `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }
}

/// 64-bit FNV-1a over the bytes of `s`.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        let mut s = SplitMix64::new(0);
        let first = [s.next_u64(), s.next_u64(), s.next_u64()];
        assert_eq!(first, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
        assert_eq!(splitmix64(0), first[0]);
    }

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
