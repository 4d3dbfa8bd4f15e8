//! Lock-free MPCBF over 64-bit words.
//!
//! Every word is an `AtomicU64`; an update is a classic CAS loop: load the
//! word, run the [`HcbfWord`] codec on the local copy, compare-and-swap.
//! This works because an HCBF word is a pure value — the whole counter
//! structure for that word fits in the one atomic cell, so word-level
//! linearisability comes for free and contention only arises when two
//! threads hash to the *same* word simultaneously (probability ≈ 1/l).
//!
//! Placement is planned only through [`ProbePlan`] (one key) and
//! [`PlanBuffer`] (a batch) — the sequential filter's hashing, bit for
//! bit — and scalar and batch operations share one walk per operation
//! kind: one `Acquire` snapshot per group for queries, one CAS per group
//! for updates, with cross-group rollback.

use mpcbf_analysis::heuristic::MpcbfShape;
use mpcbf_bitvec::{AlignedVec, Kernel, KernelOps};
use mpcbf_core::config::MpcbfConfig;
use mpcbf_core::hcbf::{HcbfWord, WordError};
use mpcbf_core::scrub::{segment_of, FilterSeal, ScrubReport};
use mpcbf_core::{FilterError, PlanBuffer, ProbePlan};
use mpcbf_hash::{Hasher128, Murmur3};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free MPCBF (64-bit words only).
pub struct AtomicMpcbf<H: Hasher128 = Murmur3> {
    words: AlignedVec<AtomicU64>,
    shape: MpcbfShape,
    seed: u64,
    overflows: AtomicU64,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> AtomicMpcbf<H> {
    /// Creates a lock-free filter from a validated configuration.
    ///
    /// # Panics
    /// Panics unless the configuration uses 64-bit words.
    pub fn new(config: MpcbfConfig) -> Self {
        let shape = config.shape();
        assert_eq!(shape.w, 64, "AtomicMpcbf requires 64-bit words");
        let words = AlignedVec::from_fn(shape.l as usize, |_| AtomicU64::new(0));
        AtomicMpcbf {
            words,
            shape,
            seed: config.seed(),
            overflows: AtomicU64::new(0),
            _hasher: PhantomData,
        }
    }

    /// The derived structural parameters.
    pub fn shape(&self) -> MpcbfShape {
        self.shape
    }

    /// Insertions refused because a word overflowed.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Total increments currently stored.
    pub fn total_load(&self) -> u64 {
        self.words
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// CAS loop applying `op` to one word. Returns `Err` if `op` reports
    /// an error on the *current* value (no retry — the error is a property
    /// of the state, e.g. overflow).
    #[inline]
    fn update_word(
        &self,
        word: usize,
        mut op: impl FnMut(&mut HcbfWord<u64>) -> Result<(), WordError>,
    ) -> Result<(), WordError> {
        let cell = &self.words[word];
        let mut current = cell.load(Ordering::Acquire);
        loop {
            let mut local = HcbfWord::from_raw(current);
            op(&mut local)?;
            match cell.compare_exchange_weak(
                current,
                *local.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Plans one key's probes — the sequential filter's placement.
    #[inline]
    fn plan(&self, key: &[u8]) -> ProbePlan {
        ProbePlan::partitioned(
            H::hash128(self.seed, key),
            self.shape.l,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        )
    }

    /// Plans a whole batch into the caller's [`PlanBuffer`] — the same
    /// digest streams as [`ProbePlan`], zero allocation once the buffer
    /// is warm.
    fn plan_into(&self, keys: &[&[u8]], plans: &mut PlanBuffer) {
        plans.plan_partitioned(
            keys.iter().map(|key| H::hash128(self.seed, key)),
            self.shape.l,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        );
    }

    /// Queries one key: one `Acquire` snapshot per group's word,
    /// short-circuiting at the first zero. `group(t)` is the key's group
    /// `t` as `(word, in-word probes)` for `t < g` — from a [`ProbePlan`]
    /// (scalar) or a [`PlanBuffer`] entry (batch).
    #[inline]
    fn query_walk<'p>(&self, g: usize, group: impl Fn(usize) -> (usize, &'p [u32])) -> bool {
        (0..g).all(|t| {
            let (word, probes) = group(t);
            let snapshot = HcbfWord::from_raw(self.words[word].load(Ordering::Acquire));
            snapshot.query_all(probes).0
        })
    }

    /// Inserts one key: one CAS per *group* (the whole group's increments
    /// land word-atomically) through the update kernel `ops`, with
    /// cross-group rollback on overflow.
    ///
    /// Unlike the locked variants, a rollback step here *can* fail under
    /// contention: another thread removing this key mid-rollback drains
    /// the counter first. The state is then indeterminate for this key,
    /// reported as [`FilterError::CorruptionDetected`] (a scrub resolves
    /// it) — never a panic a remote caller could trigger.
    fn insert_walk<'p>(
        &self,
        g: usize,
        group: impl Fn(usize) -> (usize, &'p [u32]),
        ops: &KernelOps,
    ) -> Result<(), FilterError> {
        let b1 = self.shape.b1;
        for t in 0..g {
            let (word, probes) = group(t);
            if self
                .update_word(word, |w| {
                    w.increment_all_routed(probes, b1, ops).map(|_| ())
                })
                .is_err()
            {
                for u in (0..t).rev() {
                    let (rw, rp) = group(u);
                    if self
                        .update_word(rw, |w| w.decrement_all_routed(rp, b1, ops).map(|_| ()))
                        .is_err()
                    {
                        return Err(FilterError::CorruptionDetected {
                            segment: segment_of(rw),
                        });
                    }
                }
                self.overflows.fetch_add(1, Ordering::Relaxed);
                return Err(FilterError::WordOverflow { word });
            }
        }
        Ok(())
    }

    /// Mirror of [`Self::insert_walk`] for removal: rolls back if the
    /// element turns out absent; rollback failure reports
    /// `CorruptionDetected`.
    fn remove_walk<'p>(
        &self,
        g: usize,
        group: impl Fn(usize) -> (usize, &'p [u32]),
        ops: &KernelOps,
    ) -> Result<(), FilterError> {
        let b1 = self.shape.b1;
        for t in 0..g {
            let (word, probes) = group(t);
            if self
                .update_word(word, |w| {
                    w.decrement_all_routed(probes, b1, ops).map(|_| ())
                })
                .is_err()
            {
                for u in (0..t).rev() {
                    let (rw, rp) = group(u);
                    if self
                        .update_word(rw, |w| w.increment_all_routed(rp, b1, ops).map(|_| ()))
                        .is_err()
                    {
                        return Err(FilterError::CorruptionDetected {
                            segment: segment_of(rw),
                        });
                    }
                }
                return Err(FilterError::NotPresent);
            }
        }
        Ok(())
    }

    /// Membership check.
    pub fn contains<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> bool {
        self.contains_bytes(key.key_bytes().as_slice())
    }

    /// Membership check on raw bytes.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        let plan = self.plan(key);
        self.query_walk(plan.group_count(), |t| plan.group(t))
    }

    /// Inserts a key.
    pub fn insert<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.insert_bytes(key.key_bytes().as_slice())
    }

    /// Inserts raw bytes, rolling back on overflow. A rollback can fail
    /// if another thread removes this key mid-rollback; that outcome is
    /// reported as [`FilterError::CorruptionDetected`], never a panic.
    pub fn insert_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        let plan = self.plan(key);
        let ops = KernelOps::accelerated();
        self.insert_walk(plan.group_count(), |t| plan.group(t), &ops)
    }

    /// Removes a key.
    pub fn remove<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.remove_bytes(key.key_bytes().as_slice())
    }

    /// Removes raw bytes, rolling back if the element is absent.
    pub fn remove_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        let plan = self.plan(key);
        let ops = KernelOps::accelerated();
        self.remove_walk(plan.group_count(), |t| plan.group(t), &ops)
    }

    /// Batched membership check (hash all → probe all, in key order).
    /// Each word is read as one atomic snapshot.
    pub fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        self.contains_batch_bytes_with(keys, &mut PlanBuffer::new())
    }

    /// [`Self::contains_batch_bytes`] against a caller-held [`PlanBuffer`]:
    /// reusing the buffer across batches allocates nothing after warm-up
    /// and yields bit-identical results to a fresh buffer.
    pub fn contains_batch_bytes_with(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> Vec<bool> {
        self.plan_into(keys, plans);
        let g = plans.group_count();
        (0..keys.len())
            .map(|i| self.query_walk(g, |t| plans.group(i, t)))
            .collect()
    }

    /// Batched insertion (hash all → update all, in key order). Per-key
    /// results are in input order.
    pub fn insert_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.insert_batch_bytes_with(keys, &mut PlanBuffer::new())
    }

    /// [`Self::insert_batch_bytes`] against a caller-held [`PlanBuffer`].
    /// The update kernel bundle is resolved once here and drives every CAS
    /// walk in the batch, rollbacks included.
    pub fn insert_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> Vec<Result<(), FilterError>> {
        self.plan_into(keys, plans);
        let g = plans.group_count();
        let ops = Kernel::batch().update;
        (0..keys.len())
            .map(|i| self.insert_walk(g, |t| plans.group(i, t), &ops))
            .collect()
    }

    /// Batched removal (hash all → update all, in key order). Per-key
    /// results are in input order.
    pub fn remove_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.remove_batch_bytes_with(keys, &mut PlanBuffer::new())
    }

    /// [`Self::remove_batch_bytes`] against a caller-held [`PlanBuffer`].
    pub fn remove_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> Vec<Result<(), FilterError>> {
        self.plan_into(keys, plans);
        let g = plans.group_count();
        let ops = Kernel::batch().update;
        (0..keys.len())
            .map(|i| self.remove_walk(g, |t| plans.group(i, t), &ops))
            .collect()
    }

    /// Batched membership for any [`mpcbf_hash::Key`] type.
    pub fn contains_batch<K: mpcbf_hash::Key>(&self, keys: &[K]) -> Vec<bool> {
        let owned: Vec<_> = keys.iter().map(mpcbf_hash::Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.contains_batch_bytes(&views)
    }

    /// Batched insertion for any [`mpcbf_hash::Key`] type.
    pub fn insert_batch<K: mpcbf_hash::Key>(&self, keys: &[K]) -> Vec<Result<(), FilterError>> {
        let owned: Vec<_> = keys.iter().map(mpcbf_hash::Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.insert_batch_bytes(&views)
    }

    /// Batched removal for any [`mpcbf_hash::Key`] type.
    pub fn remove_batch<K: mpcbf_hash::Key>(&self, keys: &[K]) -> Vec<Result<(), FilterError>> {
        let owned: Vec<_> = keys.iter().map(mpcbf_hash::Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.remove_batch_bytes(&views)
    }

    /// One `Acquire` load per word into a plain vector. Each word is
    /// internally consistent (a word is one atomic cell); the vector as a
    /// whole is a *point-in-time-per-word* snapshot, so seal/scrub pairs
    /// are only meaningful when the filter is quiescent — concurrent
    /// updates legitimately change CRCs.
    pub fn raw_snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect()
    }

    /// Checksums the current word array (see [`Self::raw_snapshot`] for
    /// the quiescence caveat).
    pub fn seal(&self) -> FilterSeal {
        FilterSeal::compute(&self.raw_snapshot())
    }

    /// Structural self-check: re-walks every word's hierarchy invariants
    /// against a fresh snapshot. Unlike seal/scrub this is sound even
    /// under concurrency — every legitimate CAS publishes an
    /// invariant-respecting word, so any violation is genuine damage.
    pub fn verify(&self) -> Result<(), FilterError> {
        let b1 = self.shape.b1;
        for (i, w) in self.words.iter().enumerate() {
            let word = HcbfWord::from_raw(w.load(Ordering::Acquire));
            if word.check_invariants(b1).is_err() {
                return Err(FilterError::CorruptionDetected {
                    segment: segment_of(i),
                });
            }
        }
        Ok(())
    }

    /// Compares a fresh snapshot against `seal` segment by segment and
    /// re-walks the word invariants; returns every damaged segment.
    ///
    /// # Panics
    /// Panics if `seal` was computed over a different word count.
    pub fn scrub(&self, seal: &FilterSeal) -> ScrubReport {
        let snapshot = self.raw_snapshot();
        let mut corrupt = seal.diff(&snapshot);
        let b1 = self.shape.b1;
        for (i, &raw) in snapshot.iter().enumerate() {
            if HcbfWord::from_raw(raw).check_invariants(b1).is_err() {
                corrupt.push(segment_of(i));
            }
        }
        ScrubReport::new(seal.segments(), corrupt)
    }

    /// Fault-injection hook: atomically XORs `mask` into word `word`,
    /// simulating an in-memory bit flip for scrub drills. Never part of
    /// normal operation.
    pub fn corrupt_word_xor(&self, word: usize, mask: u64) {
        self.words[word].fetch_xor(mask, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::MpcbfConfig;

    fn filter() -> AtomicMpcbf<Murmur3> {
        let c = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .seed(33)
            .build()
            .unwrap();
        AtomicMpcbf::new(c)
    }

    #[test]
    fn word_storage_is_cache_line_aligned() {
        let f = filter();
        let addr = f.words.as_slice().as_ptr() as usize;
        assert_eq!(addr % mpcbf_bitvec::CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn sequential_roundtrip() {
        let f = filter();
        for i in 0..3_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..3_000u64 {
            assert!(f.contains(&i));
        }
        for i in 0..3_000u64 {
            f.remove(&i).unwrap();
        }
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn agrees_with_sequential_filter() {
        // Same config/seed ⇒ identical hashing ⇒ identical membership.
        use mpcbf_core::{CountingFilter, Filter, Mpcbf};
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .hashes(3)
            .seed(44)
            .build()
            .unwrap();
        let atomic: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
        let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(c);
        for i in 0..2_000u64 {
            atomic.insert(&i).unwrap();
            seq.insert(&i).unwrap();
        }
        for i in 0..1_000u64 {
            atomic.remove(&i).unwrap();
            seq.remove(&i).unwrap();
        }
        for probe in 0..50_000u64 {
            assert_eq!(
                atomic.contains(&probe),
                seq.contains(&probe),
                "divergence at {probe}"
            );
        }
    }

    #[test]
    fn batch_matches_scalar_and_sequential() {
        use mpcbf_core::{CountingFilter, Filter, Mpcbf};
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .hashes(3)
            .seed(44)
            .build()
            .unwrap();
        let atomic: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
        let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(c);
        let keys: Vec<u64> = (0..2_000).collect();
        for r in atomic.insert_batch(&keys) {
            r.unwrap();
        }
        for k in &keys {
            seq.insert(k).unwrap();
        }
        let removals: Vec<u64> = (1_000..3_000).collect();
        let atomic_r = atomic.remove_batch(&removals);
        let seq_r: Vec<_> = removals.iter().map(|k| seq.remove(k)).collect();
        assert_eq!(atomic_r, seq_r);
        let probes: Vec<u64> = (0..20_000).collect();
        let batched = atomic.contains_batch(&probes);
        for (k, hit) in probes.iter().zip(&batched) {
            assert_eq!(seq.contains(k), *hit, "divergence at {k}");
            assert_eq!(atomic.contains(k), *hit, "scalar/batch divergence at {k}");
        }
    }

    #[test]
    fn parallel_inserts_all_visible() {
        let f = filter();
        let threads = 8u64;
        let per = 1_000u64;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let f = &f;
                s.spawn(move |_| {
                    for i in t * per..(t + 1) * per {
                        f.insert(&i).unwrap();
                    }
                });
            }
        })
        .unwrap();
        for i in 0..threads * per {
            assert!(f.contains(&i), "lost {i}");
        }
    }

    #[test]
    fn contended_single_word_stays_consistent() {
        // Force every thread onto the same few words by inserting the same
        // keys, then drain completely.
        let f = filter();
        let reps = 4u32; // capacity-safe: k·reps ≤ word capacity
        crossbeam::scope(|s| {
            for _ in 0..reps {
                let f = &f;
                s.spawn(move |_| {
                    f.insert(&"hot-key").unwrap();
                });
            }
        })
        .unwrap();
        assert!(f.contains(&"hot-key"));
        for _ in 0..reps {
            f.remove(&"hot-key").unwrap();
        }
        assert!(!f.contains(&"hot-key"));
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn scrub_localises_injected_damage() {
        use mpcbf_core::scrub::SEGMENT_WORDS;
        let f = filter();
        for i in 0..3_000u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.verify(), Ok(()));
        let seal = f.seal();
        assert!(f.scrub(&seal).is_clean());

        // One bit flip in word 200: exactly segment 200/64 = 3 is dirty.
        f.corrupt_word_xor(200, 1 << 11);
        let report = f.scrub(&seal);
        assert_eq!(report.corrupt_segments, vec![200 / SEGMENT_WORDS]);
        assert_eq!(report.segments_checked, seal.segments());

        // Undo restores a clean scrub.
        f.corrupt_word_xor(200, 1 << 11);
        assert!(f.scrub(&seal).is_clean());
    }

    #[test]
    fn verify_detects_invariant_breaking_flip() {
        use mpcbf_core::scrub::segment_of;
        let f = filter();
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        // A high bit with no supporting hierarchy below it breaks the
        // level-walk invariant — detectable without any seal.
        f.corrupt_word_xor(321, 1 << 63);
        assert_eq!(
            f.verify(),
            Err(FilterError::CorruptionDetected {
                segment: segment_of(321)
            })
        );
    }

    #[test]
    fn racing_overflow_rollbacks_never_panic() {
        // Hammer one key with concurrent insert/remove pairs on a filter
        // tiny enough to overflow: an insert's rollback can race a remove
        // that drains the counter first. That must surface as a
        // CorruptionDetected error, never the old rollback panic.
        let c = MpcbfConfig::builder()
            .memory_bits(320)
            .expected_items(4)
            .hashes(2)
            .seed(7)
            .build()
            .unwrap();
        let f: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let f = &f;
                s.spawn(move |_| {
                    for _ in 0..2_000 {
                        let _ = f.insert(&"hot");
                        let _ = f.remove(&"hot");
                    }
                });
            }
        })
        .unwrap();
        // However the race resolved, the filter still serves requests.
        let _ = f.contains(&"hot");
        while f.remove(&"hot").is_ok() {}
    }

    #[test]
    fn parallel_churn_drains_to_zero() {
        let f = filter();
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let f = &f;
                s.spawn(move |_| {
                    for i in 0..500u64 {
                        let k = t * 10_000 + i;
                        f.insert(&k).unwrap();
                        assert!(f.contains(&k));
                        f.remove(&k).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.total_load(), 0);
        assert_eq!(f.overflows(), 0);
    }
}
