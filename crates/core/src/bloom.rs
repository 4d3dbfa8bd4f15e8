//! The standard Bloom filter (§II.A, reference \[1\]).
//!
//! An `m`-bit vector with `k` hashed positions per element. Included as the
//! insert-only baseline underlying every counting variant; the BF-1/BF-g
//! one-access generalisation lives in [`crate::bf1`].

use crate::metrics::{OpCost, WordTouches};
use crate::plan::{PlanBuffer, SMALL_BATCH};
use crate::traits::{contains_batch_scalar, insert_batch_scalar, Filter};
use crate::{ConfigError, FilterError};
use mpcbf_bitvec::BitVec;
use mpcbf_hash::mix::bits_for;
use mpcbf_hash::{DoubleHasher, Hasher128, Murmur3};
use std::marker::PhantomData;

/// A standard Bloom filter over an `m`-bit vector.
///
/// ```
/// use mpcbf_core::{BloomFilter, Filter};
/// use mpcbf_hash::Murmur3;
///
/// let mut bf = BloomFilter::<Murmur3>::new(10_000, 3, 7);
/// bf.insert(&1234u64).unwrap();
/// assert!(bf.contains(&1234u64));
/// // Insert-only: no `remove` — that's what the counting variants add.
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter<H: Hasher128 = Murmur3> {
    bits: BitVec,
    k: u32,
    seed: u64,
    /// Machine-word granularity used for access metering.
    word_bits: u32,
    items: u64,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> BloomFilter<H> {
    /// Creates a Bloom filter with `m` bits and `k` hash functions.
    ///
    /// # Panics
    /// Panics if `m == 0` or `k` is outside `1..=64`; use
    /// [`BloomFilter::try_new`] to handle untrusted shapes as errors.
    pub fn new(m: usize, k: u32, seed: u64) -> Self {
        match Self::try_new(m, k, seed) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`BloomFilter::new`]: validates the shape
    /// and returns a [`ConfigError`] instead of panicking, for callers
    /// (CLIs, config loaders) handling untrusted parameters.
    pub fn try_new(m: usize, k: u32, seed: u64) -> Result<Self, ConfigError> {
        if m == 0 {
            return Err(ConfigError::InsufficientMemory {
                detail: "bit vector needs at least one bit".into(),
            });
        }
        if !(1..=64).contains(&k) {
            return Err(ConfigError::BadHashCount { k });
        }
        Ok(BloomFilter {
            bits: BitVec::new(m),
            k,
            seed,
            word_bits: 64,
            items: 0,
            _hasher: PhantomData,
        })
    }

    /// Sets the machine-word width used when counting memory accesses.
    pub fn with_word_bits(mut self, word_bits: u32) -> Self {
        assert!(word_bits.is_power_of_two() && (8..=512).contains(&word_bits));
        self.word_bits = word_bits;
        self
    }

    /// Number of bits in the vector.
    pub fn len_bits(&self) -> usize {
        self.bits.len()
    }

    /// Number of (net) insertions performed.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Fraction of bits currently set.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    #[inline]
    fn hasher(&self, key: &[u8]) -> DoubleHasher {
        DoubleHasher::new(H::hash128(self.seed, key), self.bits.len() as u64)
    }

    #[inline]
    fn word_of(&self, bit: usize) -> usize {
        bit / self.word_bits as usize
    }

    /// Stage 1 of the batch pipeline: hash every key into the caller's
    /// [`PlanBuffer`] as flat plans (no group bookkeeping).
    fn plan_into(&self, keys: &[&[u8]], plans: &mut PlanBuffer) {
        plans.plan_flat(
            keys.iter().map(|key| H::hash128(self.seed, key)),
            self.k,
            self.bits.len() as u64,
        );
    }

    /// Distinct machine words among `probes` — same dedup semantics as a
    /// per-key [`WordTouches`] tracker (k ≤ 64 never saturates), without
    /// the per-key state.
    #[inline]
    fn distinct_probe_words(&self, probes: &[u32]) -> u32 {
        let mut n = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            let w = self.word_of(p as usize);
            if !probes[..i].iter().any(|&q| self.word_of(q as usize) == w) {
                n += 1;
            }
        }
        n
    }
}

impl<H: Hasher128> Filter for BloomFilter<H> {
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let mut dh = self.hasher(key);
        let mut touches = WordTouches::new();
        let addr_bits = bits_for(self.bits.len() as u64);
        let mut evaluated = 0u32;
        let mut member = true;
        for _ in 0..self.k {
            let p = dh.next_index();
            touches.touch(self.word_of(p));
            evaluated += 1;
            if !self.bits.get(p) {
                member = false;
                break; // short-circuit on first zero
            }
        }
        (
            member,
            OpCost {
                word_accesses: touches.count(),
                hash_bits: evaluated * addr_bits,
            },
        )
    }

    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let mut dh = self.hasher(key);
        let mut touches = WordTouches::new();
        let addr_bits = bits_for(self.bits.len() as u64);
        for _ in 0..self.k {
            let p = dh.next_index();
            touches.touch(self.word_of(p));
            self.bits.set(p);
        }
        self.items += 1;
        Ok(OpCost {
            word_accesses: touches.count(),
            hash_bits: self.k * addr_bits,
        })
    }

    fn memory_bits(&self) -> u64 {
        self.bits.len() as u64
    }

    fn num_hashes(&self) -> u32 {
        self.k
    }

    /// Fused flat batch query: probe each planned key in scalar order
    /// (including the short-circuit on the first zero bit), straight off
    /// the buffer's index runs. Batches below [`SMALL_BATCH`] degrade to
    /// the scalar loop.
    fn contains_batch_with(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        if keys.len() < SMALL_BATCH {
            return contains_batch_scalar(self, keys);
        }
        self.plan_into(keys, plans);
        let addr_bits = bits_for(self.bits.len() as u64);
        let mut hits = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let probes = plans.slots_of(i);
            let mut evaluated = 0u32;
            let mut member = true;
            for &p in probes {
                evaluated += 1;
                if !self.bits.get(p as usize) {
                    member = false;
                    break;
                }
            }
            hits.push(member);
            total = total.add(OpCost {
                word_accesses: self.distinct_probe_words(&probes[..evaluated as usize]),
                hash_bits: evaluated * addr_bits,
            });
        }
        (hits, total)
    }

    /// Fused flat batch insert: sets bits strictly in key order off the
    /// buffer's index runs (never fails for a plain Bloom filter).
    /// Batches below [`SMALL_BATCH`] degrade to the scalar loop.
    fn insert_batch_with(
        &mut self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        if keys.len() < SMALL_BATCH {
            return insert_batch_scalar(self, keys);
        }
        self.plan_into(keys, plans);
        let addr_bits = bits_for(self.bits.len() as u64);
        let mut results = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let probes = plans.slots_of(i);
            for &p in probes {
                self.bits.set(p as usize);
            }
            self.items += 1;
            total = total.add(OpCost {
                word_accesses: self.distinct_probe_words(probes),
                hash_bits: self.k * addr_bits,
            });
            results.push(Ok(()));
        }
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Bf = BloomFilter<Murmur3>;

    #[test]
    fn no_false_negatives() {
        let mut f = Bf::new(10_000, 3, 1);
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..500u64 {
            assert!(f.contains(&i), "false negative for {i}");
        }
        assert_eq!(f.items(), 500);
    }

    #[test]
    fn fpr_in_expected_ballpark() {
        // m/n = 10, k = 3 ⇒ analytic FPR ≈ 2.4%; allow generous slack.
        let mut f = Bf::new(100_000, 3, 2);
        for i in 0..10_000u64 {
            f.insert(&i).unwrap();
        }
        let fp = (10_000..60_000u64).filter(|i| f.contains(i)).count();
        let rate = fp as f64 / 50_000.0;
        let analytic = mpcbf_analysis::cbf::fpr(10_000, 100_000, 3);
        assert!(
            (rate - analytic).abs() < analytic,
            "measured {rate} vs analytic {analytic}"
        );
    }

    #[test]
    fn query_cost_short_circuits() {
        let f = Bf::new(1 << 16, 4, 3);
        // Empty filter: first probe misses, one word touched, one address.
        let (hit, cost) = f.contains_bytes_cost(b"nope");
        assert!(!hit);
        assert_eq!(cost.word_accesses, 1);
        assert_eq!(cost.hash_bits, 16);
    }

    #[test]
    fn member_query_costs_full_k() {
        let mut f = Bf::new(1 << 16, 4, 3);
        f.insert(&"present").unwrap();
        let (hit, cost) = f.contains_bytes_cost(b"present");
        assert!(hit);
        assert_eq!(cost.hash_bits, 4 * 16);
        assert!(cost.word_accesses >= 1 && cost.word_accesses <= 4);
    }

    #[test]
    fn insert_cost_counts_distinct_words() {
        let mut f = Bf::new(128, 8, 7).with_word_bits(64);
        // Only 2 machine words exist, so accesses ≤ 2 despite k = 8.
        let cost = f.insert_bytes_cost(b"x").unwrap();
        assert!(cost.word_accesses <= 2);
    }

    #[test]
    fn fill_ratio_grows() {
        let mut f = Bf::new(1000, 3, 0);
        assert_eq!(f.fill_ratio(), 0.0);
        for i in 0..100u64 {
            f.insert(&i).unwrap();
        }
        assert!(f.fill_ratio() > 0.1);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_k_panics() {
        let _ = Bf::new(100, 0, 0);
    }

    #[test]
    fn try_new_reports_bad_shapes() {
        use crate::ConfigError;
        assert!(matches!(
            Bf::try_new(0, 3, 0),
            Err(ConfigError::InsufficientMemory { .. })
        ));
        assert_eq!(
            Bf::try_new(100, 0, 0).err(),
            Some(ConfigError::BadHashCount { k: 0 })
        );
        assert_eq!(
            Bf::try_new(100, 65, 0).err(),
            Some(ConfigError::BadHashCount { k: 65 })
        );
        assert!(Bf::try_new(100, 3, 0).is_ok());
    }

    #[test]
    fn batch_matches_scalar_loop() {
        let mut batch = Bf::new(50_000, 3, 11);
        let mut scalar = Bf::new(50_000, 3, 11);
        let keys: Vec<Vec<u8>> = (0..300u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

        let (_, batch_cost) = batch.insert_batch_cost(&views);
        let mut scalar_cost = OpCost::zero();
        for k in &views {
            scalar_cost = scalar_cost.add(scalar.insert_bytes_cost(k).unwrap());
        }
        assert_eq!(batch_cost, scalar_cost);
        assert_eq!(batch.bits.raw_limbs(), scalar.bits.raw_limbs());

        let probes: Vec<Vec<u8>> = (200..600u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let probe_views: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        let (batch_hits, batch_qcost) = batch.contains_batch_cost(&probe_views);
        let mut scalar_qcost = OpCost::zero();
        for (i, k) in probe_views.iter().enumerate() {
            let (hit, cost) = scalar.contains_bytes_cost(k);
            assert_eq!(hit, batch_hits[i]);
            scalar_qcost = scalar_qcost.add(cost);
        }
        assert_eq!(batch_qcost, scalar_qcost);
    }
}
