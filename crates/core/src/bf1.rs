//! BF-1 / BF-g: the one-memory-access Bloom filter (Qiao, Li & Chen,
//! INFOCOM 2011 — the paper's reference \[11\] and its direct inspiration).
//!
//! The bit vector is partitioned into `l` words of `w` bits; an element is
//! hashed to `g` words and to `k/g` bits inside each, so a query costs `g`
//! memory accesses instead of `k`. The penalty is a higher false-positive
//! rate — exactly the penalty MPCBF's hierarchical counters remove in the
//! counting setting.

use crate::metrics::{OpCost, WordTouches};
use crate::plan::{distinct_words, PlanBuffer, Planner, SMALL_BATCH};
use crate::traits::{contains_batch_scalar, insert_batch_scalar, Filter};
use crate::{ConfigError, FilterError};
use mpcbf_bitvec::BitVec;
use mpcbf_hash::{Hasher128, Murmur3};
use std::marker::PhantomData;

/// A word-partitioned Bloom filter with `g` memory accesses per operation.
///
/// ```
/// use mpcbf_core::{BfG, Filter};
/// use mpcbf_hash::Murmur3;
///
/// let mut bf1 = BfG::<Murmur3>::bf1(1024, 64, 3, 7);
/// bf1.insert(&"pkt").unwrap();
/// let (hit, cost) = bf1.contains_bytes_cost(b"pkt");
/// assert!(hit && cost.word_accesses == 1);
/// ```
#[derive(Debug, Clone)]
pub struct BfG<H: Hasher128 = Murmur3> {
    bits: BitVec,
    w: u32,
    /// Placement of `k` bits over `g` of the `l` words.
    planner: Planner,
    seed: u64,
    items: u64,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> BfG<H> {
    /// Creates a BF-g over `l` words of `w` bits with `k` hashes spread
    /// over `g` words.
    ///
    /// # Panics
    /// Panics unless `2 ≤ l ≤ 2^32`, `w ∈ 8..=512`, `1 ≤ g ≤ k ≤ 64`, `g ≤ 8`;
    /// use [`BfG::try_new`] to handle untrusted shapes as errors.
    pub fn new(l: usize, w: u32, k: u32, g: u32, seed: u64) -> Self {
        match Self::try_new(l, w, k, g, seed) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`BfG::new`]: validates the shape and
    /// returns a [`ConfigError`] instead of panicking.
    pub fn try_new(l: usize, w: u32, k: u32, g: u32, seed: u64) -> Result<Self, ConfigError> {
        if l < 2 {
            return Err(ConfigError::InsufficientMemory {
                detail: "need at least two words".into(),
            });
        }
        if l as u64 > 1 << 32 {
            return Err(ConfigError::BadGeometry {
                detail: format!("{l} words exceed the planner's 2^32"),
            });
        }
        if !(8..=512).contains(&w) {
            return Err(ConfigError::BadGeometry {
                detail: format!("word size {w} out of 8..=512"),
            });
        }
        if !(1..=64).contains(&k) {
            return Err(ConfigError::BadHashCount { k });
        }
        if g < 1 || g > k || g > 8 {
            return Err(ConfigError::BadAccessCount { g });
        }
        Ok(BfG {
            bits: BitVec::new(l * w as usize),
            w,
            planner: Planner::new(l as u64, k, g, u64::from(w)),
            seed,
            items: 0,
            _hasher: PhantomData,
        })
    }

    /// Convenience: BF-1 (single memory access).
    pub fn bf1(l: usize, w: u32, k: u32, seed: u64) -> Self {
        Self::new(l, w, k, 1, seed)
    }

    /// Number of words.
    pub fn words(&self) -> usize {
        self.planner.l() as usize
    }

    /// Word size in bits.
    pub fn word_bits(&self) -> u32 {
        self.w
    }

    /// Memory accesses per operation.
    pub fn accesses(&self) -> u32 {
        self.planner.g()
    }

    /// Net insertions performed.
    pub fn items(&self) -> u64 {
        self.items
    }

    #[inline]
    fn for_each_position(
        &self,
        key: &[u8],
        mut visit: impl FnMut(usize, usize, u32) -> bool,
    ) -> (u32, u32) {
        // Returns (words evaluated, in-word positions evaluated); `visit`
        // gets (word index, global bit index, group) and returns `false`
        // to stop early (query short-circuit).
        self.planner
            .walk(H::hash128(self.seed, key), |t, word, off| {
                let word = word as usize;
                visit(word, word * self.w as usize + off as usize, t)
            })
    }

    /// Address bits of a walk that evaluated `words` words and `positions`
    /// in-word positions.
    #[inline]
    fn hash_bits(&self, words: u32, positions: u32) -> u32 {
        words * self.planner.word_bits() + positions * self.planner.slot_bits()
    }

    /// Stage 1 of the batch pipeline: hash every key into the caller's
    /// [`PlanBuffer`] (the placement [`BfG::for_each_position`] walks),
    /// with zero allocation once the buffer is warm.
    fn plan_into(&self, keys: &[&[u8]], plans: &mut PlanBuffer) {
        plans.plan_partitioned(
            keys.iter().map(|key| H::hash128(self.seed, key)),
            self.planner.l(),
            self.planner.k(),
            self.planner.g(),
            self.planner.inner_range(),
        );
    }
}

impl<H: Hasher128> Filter for BfG<H> {
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let mut touches = WordTouches::new();
        let mut member = true;
        let (words_eval, pos_eval) = self.for_each_position(key, |word, bit, _| {
            touches.touch(word);
            if self.bits.get(bit) {
                true
            } else {
                member = false;
                false
            }
        });
        (
            member,
            OpCost {
                word_accesses: touches.count(),
                hash_bits: self.hash_bits(words_eval, pos_eval),
            },
        )
    }

    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let mut touches = WordTouches::new();
        let mut sets = [0usize; 64];
        let mut n_sets = 0usize;
        let (words_eval, pos_eval) = self.for_each_position(key, |word, bit, _| {
            touches.touch(word);
            sets[n_sets] = bit;
            n_sets += 1;
            true
        });
        for &bit in &sets[..n_sets] {
            self.bits.set(bit);
        }
        self.items += 1;
        Ok(OpCost {
            word_accesses: touches.count(),
            hash_bits: self.hash_bits(words_eval, pos_eval),
        })
    }

    fn memory_bits(&self) -> u64 {
        self.planner.l() * u64::from(self.w)
    }

    fn num_hashes(&self) -> u32 {
        self.planner.k()
    }

    /// Fused batch query: probe group by group in scalar order off the
    /// buffer's plans (short-circuiting on the first zero bit with the
    /// same words/positions accounting). Batches below [`SMALL_BATCH`]
    /// degrade to the scalar loop.
    fn contains_batch_with(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        if keys.len() < SMALL_BATCH {
            return contains_batch_scalar(self, keys);
        }
        self.plan_into(keys, plans);
        let mut hits = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let mut words_eval = 0u32;
            let mut pos_eval = 0u32;
            let mut member = true;
            'groups: for (word, probes) in plans.groups_of(i) {
                words_eval += 1;
                for &off in probes {
                    pos_eval += 1;
                    if !self.bits.get(word * self.w as usize + off as usize) {
                        member = false;
                        break 'groups;
                    }
                }
            }
            hits.push(member);
            total = total.add(OpCost {
                word_accesses: distinct_words(&plans.words_of(i)[..words_eval as usize]),
                hash_bits: self.hash_bits(words_eval, pos_eval),
            });
        }
        (hits, total)
    }

    /// Fused batch insert: bits are set strictly in key order off the
    /// buffer's plans. Batches below [`SMALL_BATCH`] degrade to the
    /// scalar loop.
    fn insert_batch_with(
        &mut self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        if keys.len() < SMALL_BATCH {
            return insert_batch_scalar(self, keys);
        }
        self.plan_into(keys, plans);
        let mut results = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            for (word, probes) in plans.groups_of(i) {
                for &off in probes {
                    self.bits.set(word * self.w as usize + off as usize);
                }
            }
            self.items += 1;
            total = total.add(OpCost {
                word_accesses: distinct_words(plans.words_of(i)),
                hash_bits: self.hash_bits(self.planner.g(), self.planner.k()),
            });
            results.push(Ok(()));
        }
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_bf1_and_bf2() {
        for g in [1u32, 2] {
            let mut f = BfG::<Murmur3>::new(4096, 64, 3.max(g), g, 11);
            for i in 0..2000u64 {
                f.insert(&i).unwrap();
            }
            for i in 0..2000u64 {
                assert!(f.contains(&i), "g={g}: false negative {i}");
            }
        }
    }

    #[test]
    fn bf1_query_touches_one_word() {
        let mut f = BfG::<Murmur3>::bf1(4096, 64, 3, 5);
        f.insert(&"hit").unwrap();
        let (_, cost) = f.contains_bytes_cost(b"hit");
        assert_eq!(cost.word_accesses, 1);
        let (_, cost_miss) = f.contains_bytes_cost(b"definitely-missing-key");
        assert_eq!(cost_miss.word_accesses, 1);
    }

    #[test]
    fn bf2_member_query_touches_at_most_two_words() {
        let mut f = BfG::<Murmur3>::new(4096, 64, 4, 2, 5);
        f.insert(&"hit").unwrap();
        let (hit, cost) = f.contains_bytes_cost(b"hit");
        assert!(hit);
        assert!(cost.word_accesses <= 2);
    }

    #[test]
    fn bf1_has_higher_fpr_than_standard_bloom() {
        // The paper's premise (§II.B): BF-1 pays accuracy for speed.
        use crate::bloom::BloomFilter;
        let m = 1 << 18;
        let n = 30_000u64;
        let mut std_bf = BloomFilter::<Murmur3>::new(m, 3, 7);
        let mut bf1 = BfG::<Murmur3>::bf1(m / 64, 64, 3, 7);
        for i in 0..n {
            std_bf.insert(&i).unwrap();
            bf1.insert(&i).unwrap();
        }
        let trials = 200_000u64;
        let fp_std = (n..n + trials).filter(|i| std_bf.contains(i)).count();
        let fp_bf1 = (n..n + trials).filter(|i| bf1.contains(i)).count();
        assert!(
            fp_bf1 > fp_std,
            "BF-1 {fp_bf1} should out-err standard BF {fp_std}"
        );
    }

    #[test]
    fn query_bandwidth_matches_paper_formula() {
        // BF-1 worst case: log2(l) + k·log2(w) bits.
        let mut f = BfG::<Murmur3>::bf1(4096, 64, 3, 5);
        f.insert(&"k").unwrap();
        let (hit, cost) = f.contains_bytes_cost(b"k");
        assert!(hit);
        assert_eq!(cost.hash_bits, 12 + 3 * 6);
    }

    #[test]
    fn memory_bits_is_l_times_w() {
        let f = BfG::<Murmur3>::bf1(100, 64, 3, 0);
        assert_eq!(f.memory_bits(), 6400);
    }

    #[test]
    #[should_panic(expected = "must satisfy")]
    fn g_greater_than_k_panics() {
        let _ = BfG::<Murmur3>::new(16, 64, 2, 3, 0);
    }

    #[test]
    fn try_new_reports_bad_shapes() {
        use crate::ConfigError;
        assert!(matches!(
            BfG::<Murmur3>::try_new(1, 64, 3, 1, 0),
            Err(ConfigError::InsufficientMemory { .. })
        ));
        assert!(matches!(
            BfG::<Murmur3>::try_new(16, 7, 3, 1, 0),
            Err(ConfigError::BadGeometry { .. })
        ));
        assert_eq!(
            BfG::<Murmur3>::try_new(16, 64, 0, 1, 0).err(),
            Some(ConfigError::BadHashCount { k: 0 })
        );
        assert_eq!(
            BfG::<Murmur3>::try_new(16, 64, 2, 3, 0).err(),
            Some(ConfigError::BadAccessCount { g: 3 })
        );
        assert!(BfG::<Murmur3>::try_new(16, 64, 3, 2, 0).is_ok());
    }

    #[test]
    fn batch_matches_scalar_loop() {
        for g in [1u32, 2] {
            let mut batch = BfG::<Murmur3>::new(4096, 64, 3, g, 13);
            let mut scalar = BfG::<Murmur3>::new(4096, 64, 3, g, 13);
            let keys: Vec<Vec<u8>> = (0..400u64).map(|i| i.to_le_bytes().to_vec()).collect();
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

            let (_, bi) = batch.insert_batch_cost(&views);
            let mut si = OpCost::zero();
            for k in &views {
                si = si.add(scalar.insert_bytes_cost(k).unwrap());
            }
            assert_eq!(bi, si, "g={g}");

            let probes: Vec<Vec<u8>> = (300..700u64).map(|i| i.to_le_bytes().to_vec()).collect();
            let probe_views: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let (batch_hits, bq) = batch.contains_batch_cost(&probe_views);
            let mut sq = OpCost::zero();
            for (i, k) in probe_views.iter().enumerate() {
                let (hit, cost) = scalar.contains_bytes_cost(k);
                assert_eq!(hit, batch_hits[i], "g={g} key {i}");
                sq = sq.add(cost);
            }
            assert_eq!(bq, sq, "g={g}");
        }
    }
}
