//! Hash substrate for the MPCBF workspace.
//!
//! Every filter in the paper ("A Multi-Partitioning Approach to Building Fast
//! and Accurate Counting Bloom Filters", IPDPS 2013) is parameterised by a
//! family of hash functions, and two of the paper's three performance metrics
//! depend on how hashing is performed:
//!
//! * **processing overhead** counts memory accesses, which depends on how an
//!   element is mapped to words and to positions inside a word;
//! * **access bandwidth** counts the number of *hash bits* consumed per
//!   operation (e.g. `log2(l) + k*log2(b1)` bits for an MPCBF-1 query).
//!
//! This crate provides, implemented from scratch:
//!
//! * [`murmur3::murmur3_x64_128`] — the default 128-bit digest function;
//! * [`xxhash::xxh64`] — a fast 64-bit alternative;
//! * [`fnv::fnv1a64`] — a simple baseline hash;
//! * [`mix`] — `splitmix64`, multiply–shift, and fast range reduction;
//! * [`double::DoubleHasher`] — Kirsch–Mitzenmacher double hashing, which
//!   derives the flat filters' `k` indices from one 128-bit digest (the
//!   trick the paper's reference \[22\] proves loses nothing in
//!   false-positive rate; the partitioned filters cut theirs from the
//!   digest's bit fields instead, in `mpcbf-core`'s `plan` module);
//! * [`budget::BitBudget`] — the hash-bit accounting used to report the
//!   paper's access-bandwidth numbers (Tables I–III, Fig. 11b);
//! * [`key::Key`] — zero-allocation conversion of common key types
//!   (strings, integers, flow 2-tuples) into hashable bytes.
//!
//! The [`Hasher128`] trait is the seam between filters and hash functions;
//! all filters default to [`Murmur3`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod double;
pub mod fnv;
pub mod key;
pub mod mix;
pub mod murmur3;
pub mod siphash;
pub mod xxhash;

pub use budget::BitBudget;
pub use double::DoubleHasher;
pub use key::{Key, KeyBytes};

/// A 128-bit keyed hash function: the digest source for all filters.
///
/// Implementations must be deterministic functions of `(seed, data)` and
/// should behave like a random oracle for the purposes of Bloom-filter
/// analysis. The two 64-bit halves of the digest are treated as independent
/// hash values by [`DoubleHasher`], and as independent bit fields by the
/// partitioned filters' planner.
pub trait Hasher128: Clone + Send + Sync + 'static {
    /// Hashes `data` under `seed`, returning a 128-bit digest.
    fn hash128(seed: u64, data: &[u8]) -> u128;

    /// Hashes `data` under `seed`, returning the low 64 bits of the digest.
    #[inline]
    fn hash64(seed: u64, data: &[u8]) -> u64 {
        Self::hash128(seed, data) as u64
    }
}

/// MurmurHash3 x64 128-bit ([`murmur3`]); the workspace default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Murmur3;

impl Hasher128 for Murmur3 {
    #[inline]
    fn hash128(seed: u64, data: &[u8]) -> u128 {
        // Murmur3's reference implementation takes a 32-bit seed; fold the
        // 64-bit seed so both halves contribute.
        let folded = (seed ^ (seed >> 32)) as u32;
        murmur3::murmur3_x64_128(data, folded)
    }
}

/// xxHash64 expanded to 128 bits by hashing under two derived seeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XxHash;

impl Hasher128 for XxHash {
    #[inline]
    fn hash128(seed: u64, data: &[u8]) -> u128 {
        let lo = xxhash::xxh64(data, seed);
        let hi = xxhash::xxh64(data, seed ^ mix::splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15));
        ((hi as u128) << 64) | lo as u128
    }

    #[inline]
    fn hash64(seed: u64, data: &[u8]) -> u64 {
        xxhash::xxh64(data, seed)
    }
}

/// SipHash-2-4 expanded to 128 bits by hashing under two derived keys.
///
/// The keyed, HashDoS-resistant family: use when filter keys may be
/// adversarial (the seed acts as the secret key).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SipHash;

impl Hasher128 for SipHash {
    #[inline]
    fn hash128(seed: u64, data: &[u8]) -> u128 {
        let k1 = mix::splitmix64(seed);
        let lo = siphash::siphash24(seed, k1, data);
        let hi = siphash::siphash24(seed ^ 0x5349_5048_4153_4821, k1, data);
        ((hi as u128) << 64) | lo as u128
    }

    #[inline]
    fn hash64(seed: u64, data: &[u8]) -> u64 {
        siphash::siphash24(seed, mix::splitmix64(seed), data)
    }
}

/// FNV-1a expanded to 128 bits via splitmix finalisation.
///
/// Weakest of the three families; provided as a baseline to show (in the
/// ablation benches) that MPCBF's accuracy claims do not hinge on a
/// particularly strong hash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fnv;

impl Hasher128 for Fnv {
    #[inline]
    fn hash128(seed: u64, data: &[u8]) -> u128 {
        let h = fnv::fnv1a64_seeded(data, seed);
        let lo = mix::splitmix64(h);
        let hi = mix::splitmix64(h ^ 0xa076_1d64_78bd_642f);
        ((hi as u128) << 64) | lo as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashers_are_deterministic() {
        let data = b"mpcbf determinism";
        assert_eq!(Murmur3::hash128(7, data), Murmur3::hash128(7, data));
        assert_eq!(XxHash::hash128(7, data), XxHash::hash128(7, data));
        assert_eq!(Fnv::hash128(7, data), Fnv::hash128(7, data));
    }

    #[test]
    fn hashers_depend_on_seed() {
        let data = b"mpcbf seed sensitivity";
        assert_ne!(Murmur3::hash128(1, data), Murmur3::hash128(2, data));
        assert_ne!(XxHash::hash128(1, data), XxHash::hash128(2, data));
        assert_ne!(Fnv::hash128(1, data), Fnv::hash128(2, data));
    }

    #[test]
    fn hashers_depend_on_data() {
        assert_ne!(Murmur3::hash128(0, b"a"), Murmur3::hash128(0, b"b"));
        assert_ne!(XxHash::hash128(0, b"a"), XxHash::hash128(0, b"b"));
        assert_ne!(Fnv::hash128(0, b"a"), Fnv::hash128(0, b"b"));
    }

    #[test]
    fn hash64_is_low_half_for_murmur() {
        let d = Murmur3::hash128(3, b"halves");
        assert_eq!(Murmur3::hash64(3, b"halves"), d as u64);
    }
}
