//! Kirsch–Mitzenmacher double hashing.
//!
//! The paper's reference \[22\] ("Less hashing, same performance") shows that
//! deriving the `k` Bloom indices as `g_i(x) = h1(x) + i·h2(x) (mod range)`
//! from two independent hash values preserves the asymptotic false-positive
//! rate. The flat filters (Bloom, CBF) and the variant filters use this
//! scheme: one 128-bit digest per element yields `h1` and `h2`, and
//! [`DoubleHasher`] streams out as many indices as requested.
//!
//! The partitioned filters (BF-g, PCBF-g, MPCBF-g) do not: their words
//! and in-word positions are cut straight from disjoint bit fields of the
//! same digest by `mpcbf-core`'s bit-field planner (its `plan` module),
//! which spends the digest's bits instead of re-mixing them per index.
//!
//! Either way each filter computes *one* hash per operation, so MPCBF-1's
//! "one memory access" claim is not hiding `k` hash computations (§IV.B
//! observes the software bottleneck is hash computation).

use crate::mix::{fast_range, splitmix64};

/// Streams an unbounded sequence of indices in `[0, range)` derived from a
/// single 128-bit digest by double hashing.
#[derive(Debug, Clone)]
pub struct DoubleHasher {
    h1: u64,
    h2: u64,
    i: u64,
    range: u64,
}

impl DoubleHasher {
    /// Creates an index stream over `[0, range)` from a digest.
    ///
    /// `h2` is forced odd so that for power-of-two ranges the stride is
    /// coprime with the range and the probe sequence does not degenerate.
    ///
    /// # Panics
    /// Panics if `range == 0`.
    #[inline]
    pub fn new(digest: u128, range: u64) -> Self {
        assert!(range > 0, "index range must be non-empty");
        DoubleHasher {
            h1: digest as u64,
            h2: ((digest >> 64) as u64) | 1,
            i: 0,
            range,
        }
    }

    /// Creates a stream whose `h1`/`h2` are remixed with `salt`, yielding an
    /// index sequence independent of the unsalted one. Used when a filter
    /// needs several independent *groups* of indices from one digest (e.g.
    /// the two-choice filter's per-candidate streams).
    #[inline]
    pub fn with_salt(digest: u128, salt: u64, range: u64) -> Self {
        let h1 = splitmix64((digest as u64) ^ salt);
        let h2 = splitmix64(
            ((digest >> 64) as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        Self::new(((h2 as u128) << 64) | h1 as u128, range)
    }

    /// The range this stream draws indices from.
    #[inline]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Returns the next index in `[0, range)`.
    #[inline]
    pub fn next_index(&mut self) -> usize {
        let v = self.h1.wrapping_add(self.i.wrapping_mul(self.h2));
        self.i += 1;
        // Remix before range reduction so that consecutive probe values are
        // spread over the whole 64-bit space even for tiny strides.
        fast_range(splitmix64(v), self.range) as usize
    }

    /// Fills `out` with the next `out.len()` indices.
    #[inline]
    pub fn fill(&mut self, out: &mut [usize]) {
        for slot in out.iter_mut() {
            *slot = self.next_index();
        }
    }
}

impl Iterator for DoubleHasher {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        Some(self.next_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hasher128, Murmur3};

    fn digest(s: &[u8]) -> u128 {
        Murmur3::hash128(0, s)
    }

    #[test]
    fn indices_in_range() {
        for range in [1u64, 2, 3, 64, 61, 1024, 1_000_003] {
            let mut dh = DoubleHasher::new(digest(b"range test"), range);
            for _ in 0..200 {
                assert!((dh.next_index() as u64) < range);
            }
        }
    }

    #[test]
    fn deterministic_for_same_digest() {
        let a: Vec<usize> = DoubleHasher::new(digest(b"k"), 977).take(16).collect();
        let b: Vec<usize> = DoubleHasher::new(digest(b"k"), 977).take(16).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn salt_decorrelates_streams() {
        let a: Vec<usize> = DoubleHasher::with_salt(digest(b"k"), 1, 1 << 20)
            .take(8)
            .collect();
        let b: Vec<usize> = DoubleHasher::with_salt(digest(b"k"), 2, 1 << 20)
            .take(8)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn fill_matches_iteration() {
        let mut dh1 = DoubleHasher::new(digest(b"fill"), 4096);
        let mut buf = [0usize; 10];
        dh1.fill(&mut buf);
        let seq: Vec<usize> = DoubleHasher::new(digest(b"fill"), 4096).take(10).collect();
        assert_eq!(buf.to_vec(), seq);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        // 10k keys × 3 indices into 64 buckets.
        let mut counts = [0u32; 64];
        for key in 0..10_000u64 {
            let mut dh = DoubleHasher::new(digest(&key.to_le_bytes()), 64);
            for _ in 0..3 {
                counts[dh.next_index()] += 1;
            }
        }
        let mean = (10_000 * 3 / 64) as f64;
        for &c in &counts {
            assert!(
                (c as f64 - mean).abs() / mean < 0.25,
                "count {c} vs mean {mean}"
            );
        }
    }

    #[test]
    fn degenerate_range_one_always_zero() {
        let mut dh = DoubleHasher::new(digest(b"one"), 1);
        for _ in 0..10 {
            assert_eq!(dh.next_index(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_range_panics() {
        let _ = DoubleHasher::new(0, 0);
    }
}
