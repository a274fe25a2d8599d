//! # supersym-rng
//!
//! The workspace's one deterministic RNG.
//!
//! SplitMix64 (Steele, Lea & Flood): one `u64` of state, full-period,
//! excellent diffusion, and — the property every consumer actually needs —
//! bit-identical streams from the same seed on every platform and every
//! run, with no dependency footprint. Three subsystems share it so their
//! seeds mean the same thing everywhere:
//!
//! * the torture harness's mutation campaigns (`supersym-torture`
//!   re-exports this type, so recorded campaign seeds stay valid),
//! * the workspace property tests (random program generation),
//! * rewrite-rule synthesis (`supersym-rules`), whose candidate
//!   fingerprint vectors must be reproducible for the checked-in rule
//!   table to regenerate byte-identically.
//!
//! The stream is pinned by a reference-value test below; changing the
//! algorithm is a breaking change to every recorded seed in the repo.
//!
//! The crate also holds the workspace's two fixed hash functions:
//! [`fnv1a_64`], the stable content hash behind every persisted
//! fingerprint, and [`FxHasher`], the fast in-memory hasher behind the
//! compiler's [`HashMap`] and [`HashSet`] aliases.

#![deny(missing_docs)]

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64: deterministic, seedable, dependency-free.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A small signed integer biased toward interesting magnitudes:
    /// mostly near zero, occasionally at the extremes.
    pub fn interesting_i64(&mut self) -> i64 {
        match self.below(8) {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => i64::from(self.next_u64() as i8),
            4 => i64::MAX,
            5 => i64::MIN,
            6 => self.next_u64() as i64 >> 32,
            _ => self.next_u64() as i64,
        }
    }

    /// Uniform value in the inclusive range `lo..=hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// A fresh generator seeded from this one's stream; lets each consumer
    /// own an independent, replayable substream keyed by `(seed, index)`.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// FNV-1a over a byte string: the workspace's one stable content hash.
///
/// Used wherever a fingerprint must be identical across platforms, runs
/// and process restarts — sweep checkpoint headers, per-record checksums,
/// and the `(program hash, machine hash)` result-cache key. `std`'s
/// `DefaultHasher` is explicitly *not* stable across releases, so it can
/// never appear in a file format; FNV-1a is pinned here by a
/// reference-value test exactly like the SplitMix64 stream.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FxHash's multiplier: an odd constant whose product spreads a word's
/// bits into the high half, where the hash table reads its bucket tags.
const FX_MULTIPLIER: u64 = 0x517C_C1B7_2722_0A95;

/// FxHash (the hasher of the Rust and Firefox compilers): one rotate, xor
/// and multiply per machine word of input, with no seed and no state
/// beyond one `u64`.
///
/// It keys in-memory maps only. It is not collision-resistant, so it never
/// hashes untrusted keys where a flood of collisions would matter, and it
/// is not pinned like [`fnv1a_64`], so it never reaches a file: anything
/// persisted stays FNV-1a.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0_u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`std::collections::HashMap`] hashed by [`FxHasher`]: build one with
/// `HashMap::default()` (`new` exists only for std's seeded hasher).
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`std::collections::HashSet`] hashed by [`FxHasher`]: build one with
/// `HashSet::default()`.
pub type HashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    fn range_i64_inclusive() {
        let mut rng = SplitMix64::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let v = rng.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn reference_values() {
        // Pin the stream so a silent algorithm change cannot invalidate
        // recorded campaign seeds or the checked-in rule table.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn fnv1a_reference_values() {
        // Canonical FNV-1a vectors; a silent change here would invalidate
        // every recorded sweep checkpoint and result cache.
        assert_eq!(fnv1a_64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fnv1a_is_order_sensitive() {
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }

    fn fx(bytes: &[u8]) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write(bytes);
        hasher.finish()
    }

    #[test]
    fn fx_reference_values() {
        // One word is one step from zero: the word times the multiplier.
        let mut hasher = FxHasher::default();
        hasher.write_u64(1);
        assert_eq!(hasher.finish(), FX_MULTIPLIER);
        // A short slice is one zero-padded little-endian word.
        assert_eq!(fx(b"a"), 0x61_u64.wrapping_mul(FX_MULTIPLIER));
        let word = u64::from_le_bytes(*b"abcdefgh");
        let first = word.wrapping_mul(FX_MULTIPLIER);
        let second = (first.rotate_left(5) ^ 0x69).wrapping_mul(FX_MULTIPLIER);
        assert_eq!(fx(b"abcdefghi"), second);
    }

    #[test]
    fn fx_has_no_seed() {
        // Two hasher factories hash alike, in one process and across processes.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(build.hash_one("liveness"), build.hash_one("liveness"));
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
    }

    #[test]
    fn aliases_behave_as_maps() {
        let mut map: HashMap<&str, u32> = HashMap::default();
        *map.entry("x").or_default() += 2;
        let set: HashSet<u32> = (0..100).chain(0..100).collect();
        assert_eq!((map["x"], set.len()), (2, 100));
    }
}
