//! Identity hashing: the one FNV-style hasher and the one splitmix64
//! finalizer behind every fingerprint, digest and checksum of the stack
//! (plan-cache and plan-log keys, plan digests, log frame checksums,
//! history digests, rendezvous rankings, retry jitter).  What a caller
//! feeds them is a data format: a changed stream or constant changes
//! persisted or pinned bits, and must never happen silently.  Every
//! function is `#[inline]`, so the hot callers in other crates compile to
//! the loop a local copy would.

/// FNV 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The multiplier of every identity hash but the frame checksum:
/// `2^44 + 0x1b3`, one hex digit longer than FNV's prime.  The first
/// fingerprint used it, every later one copied it, and persisted keys and
/// pinned digests depend on it, so it stays.
const IDENTITY_PRIME: u64 = 0x1000_0000_01b3;
/// FNV's 64-bit prime, `2^40 + 0x1b3`, of the frame checksum.
const FNV1A_PRIME: u64 = 0x100_0000_01b3;

/// A 64-bit FNV-style hasher; [`Fnv::new`] is the identity hash.
/// [`Fnv::write`] and [`Fnv::write_u64`] take one step per byte, so
/// pieces hash like their concatenation; [`Fnv::word`] takes one step per
/// whole `u64` (the cost-table and calibrator fingerprints).
#[derive(Clone, Copy, Debug)]
pub struct Fnv<const PRIME: u64 = IDENTITY_PRIME>(u64);

impl Fnv {
    /// The identity hasher at the offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(OFFSET)
    }
}

impl Default for Fnv {
    #[inline]
    fn default() -> Self {
        Fnv::new()
    }
}

impl<const PRIME: u64> Fnv<PRIME> {
    /// Folds `bytes` in, one step per byte.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds `x` in as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Folds `x` in as one whole word: one xor, one multiply.
    #[inline]
    pub fn word(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of `bytes`: the plan log's frame checksum.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::<FNV1A_PRIME>(OFFSET);
    h.write(bytes);
    h.finish()
}

/// The splitmix64 output finalizer (Steele, Lea and Flood): a bijection
/// of `u64` that spreads every input bit over the word.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn the_identity_hash_is_not_fnv1a() {
        assert_eq!(identity(b""), fnv1a(b""));
        assert_eq!(identity(b"a"), (OFFSET ^ 0x61).wrapping_mul(IDENTITY_PRIME));
        assert_ne!(identity(b"a"), fnv1a(b"a"));
    }

    #[test]
    fn pieces_hash_like_their_concatenation() {
        let mut h = Fnv::new();
        h.write(b"foo");
        h.write(b"");
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), identity(b"foo\x08\x07\x06\x05\x04\x03\x02\x01"));
    }

    #[test]
    fn a_word_is_one_step() {
        let mut h = Fnv::new();
        h.word(0x1234_5678_9abc_def0);
        assert_eq!(
            h.finish(),
            (OFFSET ^ 0x1234_5678_9abc_def0).wrapping_mul(IDENTITY_PRIME)
        );
    }

    #[test]
    fn splitmix64_matches_the_reference_generator() {
        // SplitMix64 seeded with 0: the first output.
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
    }
}
