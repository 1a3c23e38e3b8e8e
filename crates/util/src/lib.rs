//! Shared seeded-randomness and fingerprint primitives.
//!
//! Three hand-rolled helpers used to live in three different places —
//! the bus fault injector's SplitMix64 mixer, the ISS fuzz suite's
//! xorshift stream, and the nn crate's FNV-1a fingerprint hasher. They
//! are deliberately tiny (this crate has zero dependencies, so the
//! lowest layers can use it), but three private copies meant generators
//! and fingerprints could drift apart one constant at a time. This
//! crate is the single home: [`mix64`] for stateless index-keyed draws,
//! [`SplitMix64`] for sequential streams, [`Fnv`] for content identity.
//! `rvnv_bus::fault` and `rvnv_nn::hash` re-export their old names so
//! existing imports keep working.

/// SplitMix64 mix function (Steele, Lea, Flood 2014) — the same core
/// the vendored `rand` stub uses. Stateless: callers key it by an
/// access index or request number to get random-access draws from a
/// seed, which is what lets the bus fault injector's `reset` preserve
/// its fault stream by contract.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sequential SplitMix64 stream: the golden-weight constant stepping
/// of [`mix64`] turned into an iterator-style RNG. Deterministic per
/// seed, `Copy`-cheap state, and — unlike the vendored `rand` stub —
/// usable from crates that must stay dependency-free.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the stream. Equal seeds give equal streams, forever.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next draw truncated to 32 bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw in `0..bound`. A modulo draw is biased by at most
    /// `bound / 2^64`, invisible at the bounds fuzzing uses (< 2^32);
    /// `bound == 0` is treated as 1 so callers can pass raw lengths.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform draw in the inclusive range `lo..=hi` (requires
    /// `lo <= hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// A coin that lands true `num` times out of `den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Pick a reference out of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// An incremental FNV-1a 64-bit hasher over word-sized chunks.
///
/// One hash implementation feeds every content-identity check in the
/// workspace — `rvnv_nn`'s network fingerprint and the compiler's
/// weight-image fingerprint — so the fold can never silently diverge
/// between them. Weight slices fold two `f32`s (or eight bytes) per
/// step: fingerprinting even a ~100 MB model costs tens of
/// milliseconds, far below the compilations and simulated inferences
/// the fingerprints gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// Start from the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word.
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Fold a byte slice (length-prefixed; tail zero-padded to a word).
    pub fn bytes(&mut self, data: &[u8]) {
        self.mix(data.len() as u64);
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rem = words.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    /// Fold a string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Fold an `f32` slice by bit pattern, two values per step.
    pub fn floats(&mut self, data: &[f32]) {
        self.mix(data.len() as u64);
        let mut pairs = data.chunks_exact(2);
        for p in &mut pairs {
            self.mix(u64::from(p[0].to_bits()) | u64::from(p[1].to_bits()) << 32);
        }
        if let [last] = pairs.remainder() {
            self.mix(u64::from(last.to_bits()));
        }
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_deterministic_and_sensitive() {
        let hash = |f: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(
            hash(&|h| h.bytes(b"abcdefghij")),
            hash(&|h| h.bytes(b"abcdefghij"))
        );
        assert_ne!(
            hash(&|h| h.bytes(b"abcdefghij")),
            hash(&|h| h.bytes(b"abcdefghiK"))
        );
        // Length prefix distinguishes a short slice from its padding.
        assert_ne!(hash(&|h| h.bytes(b"ab")), hash(&|h| h.bytes(b"ab\0\0")));
        assert_ne!(
            hash(&|h| h.floats(&[1.0, 2.0])),
            hash(&|h| h.floats(&[2.0, 1.0]))
        );
        // -0.0 and 0.0 are different bit patterns, hence different.
        assert_ne!(hash(&|h| h.floats(&[0.0])), hash(&|h| h.floats(&[-0.0])));
    }

    #[test]
    fn splitmix_stream_is_the_mixer_unrolled() {
        // The stream and the stateless mixer must agree: draw n of the
        // stream == mix64 keyed by seed + n*GOLDEN. This is the
        // anti-drift contract the unification exists for.
        let seed = 0xDEAD_BEEF_u64;
        let mut rng = SplitMix64::new(seed);
        for n in 1..=64u64 {
            let keyed = mix64(seed.wrapping_add((n - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            assert_eq!(rng.next_u64(), keyed, "draw {n}");
        }
    }

    #[test]
    fn splitmix_bounds_hold() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.range(3, 17);
            assert!((3..=17).contains(&v));
            assert!(rng.below(5) < 5);
        }
        assert_eq!(rng.below(0), 0);
        // Replay: same seed, same stream.
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }
}
