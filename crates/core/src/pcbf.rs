//! PCBF-1 / PCBF-g: the naïve partitioned CBF (§III.A).
//!
//! The counter vector is split into `l` words of `w` bits (`w/4` four-bit
//! counters each). An element hashes to `g` words and to `k/g` counters
//! inside each, so updates cost `g` memory accesses — but, with flat
//! counters, the effective membership range per word is only `w/4`
//! positions, which is why PCBF's FPR *trails* the standard CBF (Fig. 2).
//! MPCBF (same partitioning, hierarchical counters) removes exactly this
//! penalty.

use crate::metrics::{OpCost, WordTouches};
use crate::plan::{distinct_words, PlanBuffer, Planner, SMALL_BATCH};
use crate::traits::{
    contains_batch_scalar, insert_batch_scalar, remove_batch_scalar, CountingFilter, Filter,
};
use crate::{ConfigError, FilterError};
use mpcbf_bitvec::CounterVec;
use mpcbf_hash::{Hasher128, Murmur3};
use std::marker::PhantomData;

/// A partitioned CBF with `g` memory accesses per operation.
///
/// ```
/// use mpcbf_core::{CountingFilter, Filter, Pcbf};
/// use mpcbf_hash::Murmur3;
///
/// let mut pcbf = Pcbf::<Murmur3>::pcbf1(1024, 64, 3, 7);
/// pcbf.insert(&"flow").unwrap();
/// let (hit, cost) = pcbf.contains_bytes_cost(b"flow");
/// assert!(hit);
/// assert_eq!(cost.word_accesses, 1); // the whole point of PCBF-1
/// pcbf.remove(&"flow").unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Pcbf<H: Hasher128 = Murmur3> {
    /// All words' counters, concatenated: word `i` owns counters
    /// `[i·(w/4), (i+1)·(w/4))`.
    counters: CounterVec,
    w: u32,
    counters_per_word: u32,
    /// Placement of `k` counters over `g` of the `l` words.
    planner: Planner,
    seed: u64,
    items: u64,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> Pcbf<H> {
    /// Creates a PCBF-g over `l` words of `w` bits.
    ///
    /// # Panics
    /// Panics unless `2 ≤ l ≤ 2^32`, `w` is a multiple of 4 in `16..=512`,
    /// `1 ≤ g ≤ k ≤ 64` and `g ≤ 8`; use [`Pcbf::try_new`] to handle
    /// untrusted shapes as errors.
    pub fn new(l: usize, w: u32, k: u32, g: u32, seed: u64) -> Self {
        match Self::try_new(l, w, k, g, seed) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Pcbf::new`]: validates the shape and
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
        if !(16..=512).contains(&w) || !w.is_multiple_of(4) {
            return Err(ConfigError::BadGeometry {
                detail: format!("word size {w} must be a multiple of 4 in 16..=512"),
            });
        }
        if !(1..=64).contains(&k) {
            return Err(ConfigError::BadHashCount { k });
        }
        if g < 1 || g > k || g > 8 {
            return Err(ConfigError::BadAccessCount { g });
        }
        let cpw = w / 4;
        Ok(Pcbf {
            counters: CounterVec::new(l * cpw as usize, 4),
            w,
            counters_per_word: cpw,
            planner: Planner::new(l as u64, k, g, u64::from(cpw)),
            seed,
            items: 0,
            _hasher: PhantomData,
        })
    }

    /// Creates a PCBF-g sized to a memory budget (`l = memory_bits / w`).
    pub fn with_memory(memory_bits: u64, w: u32, k: u32, g: u32, seed: u64) -> Self {
        Self::new((memory_bits / u64::from(w)) as usize, w, k, g, seed)
    }

    /// Fallible counterpart of [`Pcbf::with_memory`].
    pub fn try_with_memory(
        memory_bits: u64,
        w: u32,
        k: u32,
        g: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if w == 0 {
            return Err(ConfigError::BadGeometry {
                detail: "word size must be nonzero".into(),
            });
        }
        Self::try_new((memory_bits / u64::from(w)) as usize, w, k, g, seed)
    }

    /// Convenience: PCBF-1.
    pub fn pcbf1(l: usize, w: u32, k: u32, seed: u64) -> Self {
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

    /// Memory accesses per update.
    pub fn accesses(&self) -> u32 {
        self.planner.g()
    }

    /// Net insertions currently stored.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Value of counter `slot` within `word` (tests/diagnostics).
    pub fn counter(&self, word: usize, slot: u32) -> u64 {
        self.counters
            .get(word * self.counters_per_word as usize + slot as usize)
    }

    /// Visits each hashed (word, counter-index) pair; `visit` returns
    /// `false` to short-circuit. Returns (words evaluated, slots evaluated).
    #[inline]
    fn for_each_slot(&self, key: &[u8], mut visit: impl FnMut(usize, usize) -> bool) -> (u32, u32) {
        self.planner
            .walk(H::hash128(self.seed, key), |_, word, slot| {
                visit(word as usize, self.slot_index(word as usize, slot))
            })
    }

    #[inline]
    fn cost(&self, words_eval: u32, slots_eval: u32, touches: &WordTouches) -> OpCost {
        OpCost {
            word_accesses: touches.count(),
            hash_bits: self.hash_bits(words_eval, slots_eval),
        }
    }

    /// Address bits of a walk that evaluated `words` words and `slots`
    /// counters.
    #[inline]
    fn hash_bits(&self, words: u32, slots: u32) -> u32 {
        words * self.planner.word_bits() + slots * self.planner.slot_bits()
    }

    /// Stage 1 of the batch pipeline: hash every key into the caller's
    /// [`PlanBuffer`] (words over `l`, slots over `w/4` counters — the
    /// placement [`Pcbf::for_each_slot`] walks), with zero allocation once
    /// the buffer is warm.
    fn plan_into(&self, keys: &[&[u8]], plans: &mut PlanBuffer) {
        plans.plan_partitioned(
            keys.iter().map(|key| H::hash128(self.seed, key)),
            self.planner.l(),
            self.planner.k(),
            self.planner.g(),
            self.planner.inner_range(),
        );
    }

    /// The fused batch paths' cost for a replayed plan prefix: distinct
    /// evaluated words plus the evaluated address bits.
    #[inline]
    fn planned_cost(
        &self,
        plans: &PlanBuffer,
        i: usize,
        words_eval: u32,
        slots_eval: u32,
    ) -> OpCost {
        OpCost {
            word_accesses: distinct_words(&plans.words_of(i)[..words_eval as usize]),
            hash_bits: self.hash_bits(words_eval, slots_eval),
        }
    }

    /// Global counter index of `slot` within `word`.
    #[inline]
    fn slot_index(&self, word: usize, slot: u32) -> usize {
        word * self.counters_per_word as usize + slot as usize
    }
}

impl<H: Hasher128> Filter for Pcbf<H> {
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let mut touches = WordTouches::new();
        let mut member = true;
        let (we, se) = self.for_each_slot(key, |word, idx| {
            touches.touch(word);
            if self.counters.is_set(idx) {
                true
            } else {
                member = false;
                false
            }
        });
        (member, self.cost(we, se, &touches))
    }

    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let mut touches = WordTouches::new();
        let mut slots = [0usize; 64];
        let mut n = 0usize;
        let (we, se) = self.for_each_slot(key, |word, idx| {
            touches.touch(word);
            slots[n] = idx;
            n += 1;
            true
        });
        for &idx in &slots[..n] {
            self.counters.increment(idx);
        }
        self.items += 1;
        Ok(self.cost(we, se, &touches))
    }

    fn memory_bits(&self) -> u64 {
        self.planner.l() * u64::from(self.w)
    }

    fn num_hashes(&self) -> u32 {
        self.planner.k()
    }

    /// Fused batch query: probe in scalar order off the buffer's plans
    /// with identical short-circuit accounting. Batches below
    /// [`SMALL_BATCH`] degrade to the scalar loop.
    fn contains_batch_with(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        if keys.len() < SMALL_BATCH {
            return contains_batch_scalar(self, keys);
        }
        self.plan_into(keys, plans);
        let mut hits = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let mut words_eval = 0u32;
            let mut slots_eval = 0u32;
            let mut member = true;
            'groups: for (word, probes) in plans.groups_of(i) {
                words_eval += 1;
                for &slot in probes {
                    slots_eval += 1;
                    if !self.counters.is_set(self.slot_index(word, slot)) {
                        member = false;
                        break 'groups;
                    }
                }
            }
            hits.push(member);
            total = total.add(self.planned_cost(plans, i, words_eval, slots_eval));
        }
        (hits, total)
    }

    /// Fused batch insert: increments applied strictly in key order off
    /// the buffer's plans. Batches below [`SMALL_BATCH`] degrade to the
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
                for &slot in probes {
                    self.counters.increment(self.slot_index(word, slot));
                }
            }
            self.items += 1;
            total = total.add(self.planned_cost(plans, i, self.planner.g(), self.planner.k()));
            results.push(Ok(()));
        }
        (results, total)
    }
}

impl<H: Hasher128> CountingFilter for Pcbf<H> {
    fn remove_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        // Presence check first: refuse deletes of absent elements.
        let mut present = true;
        self.for_each_slot(key, |_, idx| {
            if self.counters.is_set(idx) {
                true
            } else {
                present = false;
                false
            }
        });
        if !present {
            return Err(FilterError::NotPresent);
        }
        let mut touches = WordTouches::new();
        let mut slots = [0usize; 64];
        let mut n = 0usize;
        let (we, se) = self.for_each_slot(key, |word, idx| {
            touches.touch(word);
            slots[n] = idx;
            n += 1;
            true
        });
        for &idx in &slots[..n] {
            self.counters.decrement(idx);
        }
        self.items = self.items.saturating_sub(1);
        Ok(self.cost(we, se, &touches))
    }

    /// Fused batch remove: per key, the same unmetered presence pass as
    /// the scalar path, then metered decrements in key order off the
    /// buffer's plans. Batches below [`SMALL_BATCH`] degrade to the
    /// scalar loop.
    fn remove_batch_with(
        &mut self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        if keys.len() < SMALL_BATCH {
            return remove_batch_scalar(self, keys);
        }
        self.plan_into(keys, plans);
        let mut results = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let present = plans.groups_of(i).all(|(word, probes)| {
                probes
                    .iter()
                    .all(|&slot| self.counters.is_set(self.slot_index(word, slot)))
            });
            if !present {
                results.push(Err(FilterError::NotPresent));
                continue;
            }
            for (word, probes) in plans.groups_of(i) {
                for &slot in probes {
                    self.counters.decrement(self.slot_index(word, slot));
                }
            }
            self.items = self.items.saturating_sub(1);
            total = total.add(self.planned_cost(plans, i, self.planner.g(), self.planner.k()));
            results.push(Ok(()));
        }
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pcbf1_and_pcbf2() {
        for g in [1u32, 2] {
            let mut f = Pcbf::<Murmur3>::new(4096, 64, 3, g, 1);
            for i in 0..1000u64 {
                f.insert(&i).unwrap();
            }
            for i in 0..1000u64 {
                assert!(f.contains(&i), "g={g}: false negative {i}");
            }
            for i in 0..500u64 {
                f.remove(&i).unwrap();
            }
            for i in 500..1000u64 {
                assert!(f.contains(&i), "g={g}: lost {i} after churn");
            }
        }
    }

    #[test]
    fn pcbf1_update_is_one_access() {
        let mut f = Pcbf::<Murmur3>::pcbf1(4096, 64, 3, 2);
        let cost = f.insert_bytes_cost(b"a").unwrap();
        assert_eq!(cost.word_accesses, 1);
        // Fig. 1 layout bandwidth: log2(l) + k·log2(w/4).
        assert_eq!(cost.hash_bits, 12 + 3 * 4);
    }

    #[test]
    fn pcbf2_update_is_two_accesses() {
        let mut f = Pcbf::<Murmur3>::new(4096, 64, 3, 2, 2);
        let cost = f.insert_bytes_cost(b"a").unwrap();
        assert!(cost.word_accesses <= 2);
        // Hash split: first word gets 2 hashes, second 1.
        assert_eq!(cost.hash_bits, 2 * 12 + 3 * 4);
    }

    #[test]
    fn delete_absent_is_rejected() {
        let mut f = Pcbf::<Murmur3>::pcbf1(1024, 64, 3, 3);
        assert_eq!(f.remove(&"ghost"), Err(FilterError::NotPresent));
    }

    #[test]
    fn fpr_worse_than_cbf_as_paper_shows() {
        // Fig. 2's empirical counterpart at small scale.
        use crate::cbf::Cbf;
        let big_m = 1_000_000u64;
        let n = 20_000u64;
        let mut cbf = Cbf::<Murmur3>::with_memory(big_m, 3, 9);
        let mut pcbf = Pcbf::<Murmur3>::with_memory(big_m, 64, 3, 1, 9);
        for i in 0..n {
            cbf.insert(&i).unwrap();
            pcbf.insert(&i).unwrap();
        }
        let trials = 200_000u64;
        let fp_cbf = (n..n + trials).filter(|i| cbf.contains(i)).count();
        let fp_pcbf = (n..n + trials).filter(|i| pcbf.contains(i)).count();
        assert!(
            fp_pcbf > fp_cbf,
            "PCBF-1 {fp_pcbf} should out-err CBF {fp_cbf}"
        );
    }

    #[test]
    fn memory_is_l_times_w() {
        let f = Pcbf::<Murmur3>::pcbf1(1000, 64, 3, 0);
        assert_eq!(f.memory_bits(), 64_000);
    }

    #[test]
    fn batch_matches_scalar_loop_including_removes() {
        for g in [1u32, 2] {
            let mut batch = Pcbf::<Murmur3>::new(4096, 64, 3, g, 17);
            let mut scalar = Pcbf::<Murmur3>::new(4096, 64, 3, g, 17);
            let keys: Vec<Vec<u8>> = (0..300u64).map(|i| i.to_le_bytes().to_vec()).collect();
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

            let (_, bi) = batch.insert_batch_cost(&views);
            let mut si = OpCost::zero();
            for k in &views {
                si = si.add(scalar.insert_bytes_cost(k).unwrap());
            }
            assert_eq!(bi, si, "g={g}");

            let mixed: Vec<Vec<u8>> = (150..450u64).map(|i| i.to_le_bytes().to_vec()).collect();
            let mixed_views: Vec<&[u8]> = mixed.iter().map(|k| k.as_slice()).collect();
            let (batch_res, br) = batch.remove_batch_cost(&mixed_views);
            let mut sr = OpCost::zero();
            for (i, k) in mixed_views.iter().enumerate() {
                match scalar.remove_bytes_cost(k) {
                    Ok(c) => {
                        sr = sr.add(c);
                        assert_eq!(batch_res[i], Ok(()), "g={g} key {i}");
                    }
                    Err(e) => assert_eq!(batch_res[i], Err(e), "g={g} key {i}"),
                }
            }
            assert_eq!(br, sr, "g={g}");
            assert_eq!(batch.items(), scalar.items(), "g={g}");
        }
    }

    #[test]
    fn try_new_reports_bad_shapes() {
        use crate::ConfigError;
        assert!(matches!(
            Pcbf::<Murmur3>::try_new(1, 64, 3, 1, 0),
            Err(ConfigError::InsufficientMemory { .. })
        ));
        assert!(matches!(
            Pcbf::<Murmur3>::try_new(16, 30, 3, 1, 0),
            Err(ConfigError::BadGeometry { .. })
        ));
        assert_eq!(
            Pcbf::<Murmur3>::try_new(16, 64, 65, 1, 0).err(),
            Some(ConfigError::BadHashCount { k: 65 })
        );
        assert_eq!(
            Pcbf::<Murmur3>::try_new(16, 64, 3, 9, 0).err(),
            Some(ConfigError::BadAccessCount { g: 9 })
        );
        assert!(matches!(
            Pcbf::<Murmur3>::try_with_memory(1000, 0, 3, 1, 0),
            Err(ConfigError::BadGeometry { .. })
        ));
        assert!(Pcbf::<Murmur3>::try_new(16, 64, 3, 2, 0).is_ok());
    }

    #[test]
    fn counter_accessor_sees_increments() {
        let mut f = Pcbf::<Murmur3>::pcbf1(16, 64, 3, 4);
        f.insert(&"z").unwrap();
        let total: u64 = (0..16)
            .flat_map(|w| (0..16).map(move |s| (w, s)))
            .map(|(w, s)| f.counter(w, s))
            .sum();
        assert_eq!(total, 3); // k increments landed somewhere
    }
}
