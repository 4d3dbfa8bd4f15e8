//! A rank-indexed, fingerprint-bucketed CBF in the style of RCBF
//! (Hua, Zhao, Lin & Xu, ICNP 2008 — the paper's reference \[18\]).
//!
//! RCBF replaces wide counter arrays with *fingerprints*: an element
//! hashes to one of `m` buckets plus an `r`-bit fingerprint; each bucket
//! chains its fingerprints, each with a small counter, and the chains are
//! located without pointers via **rank-indexed hashing** — a bucket
//! occupancy bitmap whose prefix popcounts give every bucket's offset
//! into one packed entry array.
//!
//! This implementation keeps the structure's *behaviour* exact (hashing,
//! membership rule, counter semantics, per-operation bucket accesses) and
//! its memory accounting faithful to the rank-indexed layout:
//! `index_bits = m + m/64·6` (occupancy bitmap plus per-block rank
//! samples) `+ entries·(r + c)` for the packed entries. The entry store
//! itself uses per-bucket vectors rather than one packed array so that
//! updates stay O(bucket) — the measured FPR, access counts and reported
//! memory are unaffected, only the (unmeasured) insertion memmove cost
//! differs. The related-work bench sizes it by this accounting.
//!
//! The interesting lineage: RCBF's popcount-indexed hierarchy is exactly
//! the mechanism MPCBF's HCBF applies *inside a word* — the paper's §II.B
//! credits it directly ("the proposed approach in this paper also takes
//! advantage of a hierarchical structure that is borrowed from RCBF and
//! ML-CCBF"). A filter-global hierarchy pays global shifts on update;
//! confining it to one machine word is MPCBF's contribution.

use mpcbf_core::metrics::{OpCost, WordTouches};
use mpcbf_core::{CountingFilter, Filter, FilterError, PlanBuffer};
use mpcbf_hash::mix::bits_for;
use mpcbf_hash::{Hasher128, Murmur3};
use std::marker::PhantomData;

/// One chained entry: fingerprint + small saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    fingerprint: u32,
    count: u8,
}

/// A rank-indexed fingerprint CBF.
#[derive(Debug, Clone)]
pub struct Rcbf<H: Hasher128 = Murmur3> {
    buckets: Vec<Vec<Entry>>,
    /// Fingerprint bits.
    r: u32,
    /// Counter bits (entries saturate at `2^c − 1`).
    c: u32,
    seed: u64,
    items: u64,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> Rcbf<H> {
    /// Creates an RCBF with `m` buckets, `r`-bit fingerprints and `c`-bit
    /// per-entry counters (the original uses r ≈ 9–12, c = 2).
    ///
    /// # Panics
    /// Panics unless `m ≥ 2`, `r ∈ 4..=32`, `c ∈ 1..=8`.
    pub fn new(m: usize, r: u32, c: u32, seed: u64) -> Self {
        assert!(m >= 2, "need at least two buckets");
        assert!((4..=32).contains(&r), "fingerprint bits {r} out of 4..=32");
        assert!((1..=8).contains(&c), "counter bits {c} out of 1..=8");
        Rcbf {
            buckets: vec![Vec::new(); m],
            r,
            c,
            seed,
            items: 0,
            _hasher: PhantomData,
        }
    }

    /// Sizes an RCBF for an expected `n` elements within `memory_bits`:
    /// buckets ≈ n (load factor 1), fingerprint bits from the leftover
    /// budget after index and counters.
    pub fn with_memory(memory_bits: u64, n: u64, seed: u64) -> Self {
        let m = n.max(2) as usize;
        let index_bits = Self::index_bits_for(m);
        let per_entry_budget = memory_bits.saturating_sub(index_bits) / n.max(1);
        let c = 2u32;
        let r = (per_entry_budget.saturating_sub(u64::from(c)) as u32).clamp(4, 32);
        Rcbf::new(m, r, c, seed)
    }

    fn index_bits_for(m: usize) -> u64 {
        // Occupancy bitmap + one 6-bit rank sample per 64-bit block.
        m as u64 + (m as u64).div_ceil(64) * 6
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Net insertions stored.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Entries currently chained (distinct (bucket, fingerprint) pairs).
    pub fn entries(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    #[inline]
    fn slot(&self, key: &[u8]) -> (usize, u32) {
        let h = H::hash128(self.seed, key);
        let bucket = mpcbf_hash::mix::fast_range(h as u64, self.buckets.len() as u64) as usize;
        let fingerprint = ((h >> 64) as u64 & ((1u64 << self.r) - 1)) as u32;
        (bucket, fingerprint)
    }

    #[inline]
    fn cost(&self) -> OpCost {
        // One bucket lookup: bucket address bits + fingerprint bits; the
        // rank-indexed chain walk stays within the bucket's (cached) line,
        // so the structure is a 1–2-access design like dlCBF's subtables.
        let mut touches = WordTouches::new();
        touches.touch(0); // index block
        touches.touch(1); // entry segment
        OpCost {
            word_accesses: touches.count(),
            hash_bits: bits_for(self.buckets.len() as u64) + self.r,
        }
    }
}

impl<H: Hasher128> Filter for Rcbf<H> {
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let (bucket, f) = self.slot(key);
        let hit = self.buckets[bucket].iter().any(|e| e.fingerprint == f);
        (hit, self.cost())
    }

    fn contains_batch_with(&self, keys: &[&[u8]], _plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        // RCBF probes exactly one bucket per key, so the batch pipeline is
        // simply: hash every key up front, then probe the bucket chains in
        // one tight loop (the hardware prefetcher overlaps the chains).
        let slots: Vec<(usize, u32)> = keys.iter().map(|k| self.slot(k)).collect();
        let hits = slots
            .iter()
            .map(|&(bucket, f)| self.buckets[bucket].iter().any(|e| e.fingerprint == f))
            .collect();
        (hits, OpCost::accumulate(keys.iter().map(|_| self.cost())))
    }

    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let (bucket, f) = self.slot(key);
        let max = (1u16 << self.c) - 1;
        match self.buckets[bucket].iter_mut().find(|e| e.fingerprint == f) {
            Some(e) => {
                if u16::from(e.count) < max {
                    e.count += 1;
                }
            }
            None => self.buckets[bucket].push(Entry {
                fingerprint: f,
                count: 1,
            }),
        }
        self.items += 1;
        Ok(self.cost())
    }

    fn memory_bits(&self) -> u64 {
        Self::index_bits_for(self.buckets.len())
            + self.entries() as u64 * u64::from(self.r + self.c)
    }

    fn num_hashes(&self) -> u32 {
        1
    }
}

impl<H: Hasher128> CountingFilter for Rcbf<H> {
    fn remove_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let (bucket, f) = self.slot(key);
        let chain = &mut self.buckets[bucket];
        let Some(idx) = chain.iter().position(|e| e.fingerprint == f) else {
            return Err(FilterError::NotPresent);
        };
        let max = (1u16 << self.c) - 1;
        if u16::from(chain[idx].count) >= max {
            // Saturated: sticks, like a CBF counter.
        } else if chain[idx].count > 1 {
            chain[idx].count -= 1;
        } else {
            chain.swap_remove(idx);
        }
        self.items = self.items.saturating_sub(1);
        Ok(self.cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Rcbf<Murmur3> {
        Rcbf::new(10_000, 12, 2, 7)
    }

    #[test]
    fn roundtrip() {
        let mut f = small();
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..5_000u64 {
            assert!(f.contains(&i), "false negative {i}");
        }
        for i in 0..2_500u64 {
            f.remove(&i).unwrap();
        }
        for i in 2_500..5_000u64 {
            assert!(f.contains(&i), "lost {i}");
        }
    }

    #[test]
    fn duplicate_keys_share_an_entry() {
        let mut f = small();
        f.insert(&"dup").unwrap();
        let entries = f.entries();
        f.insert(&"dup").unwrap();
        assert_eq!(f.entries(), entries, "duplicate should bump the counter");
        f.remove(&"dup").unwrap();
        assert!(f.contains(&"dup"));
        f.remove(&"dup").unwrap();
        assert!(!f.contains(&"dup"));
        assert_eq!(f.entries(), entries - 1);
    }

    #[test]
    fn batch_contains_matches_scalar_loop() {
        use mpcbf_hash::Key;
        let mut f = small();
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        let keys: Vec<u64> = (2_500..7_500).collect();
        let (hits, cost) = {
            let owned: Vec<_> = keys.iter().map(mpcbf_hash::Key::key_bytes).collect();
            let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
            f.contains_batch_cost(&views)
        };
        let mut scalar_cost = OpCost::zero();
        for (k, hit) in keys.iter().zip(&hits) {
            let (h, c) = f.contains_bytes_cost(k.key_bytes().as_slice());
            assert_eq!(h, *hit, "divergence at {k}");
            scalar_cost = scalar_cost.add(c);
        }
        assert_eq!(cost, scalar_cost);
    }

    #[test]
    fn remove_absent_errors() {
        let mut f = small();
        assert_eq!(f.remove(&"ghost"), Err(FilterError::NotPresent));
    }

    #[test]
    fn fpr_tracks_fingerprint_width() {
        // FPR ≈ load · 2^−r per probe: r = 12 at load 1 ⇒ ~2.4e-4.
        let mut f = Rcbf::<Murmur3>::new(20_000, 12, 2, 3);
        for i in 0..20_000u64 {
            f.insert(&i).unwrap();
        }
        let trials = 400_000u64;
        let fp = (1_000_000..1_000_000 + trials)
            .filter(|i: &u64| f.contains(i))
            .count() as f64;
        let rate = fp / trials as f64;
        assert!(rate < 2e-3, "rate {rate}");
        assert!(rate > 1e-5, "rate suspiciously low: {rate}");
    }

    #[test]
    fn memory_accounting_is_load_dependent() {
        let mut f = small();
        let empty = f.memory_bits();
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        let loaded = f.memory_bits();
        assert!(loaded > empty);
        // ~(r + c) bits per new entry.
        let per_entry = (loaded - empty) as f64 / f.entries() as f64;
        assert!((13.0..=15.0).contains(&per_entry), "{per_entry}");
    }

    #[test]
    fn with_memory_respects_budget_shape() {
        let f = Rcbf::<Murmur3>::with_memory(1_000_000, 50_000, 1);
        assert_eq!(f.buckets(), 50_000);
        assert!(f.memory_bits() < 1_000_000, "empty filter under budget");
    }

    #[test]
    fn paper_lineage_memory_claim() {
        // RCBF's pitch: ~3× less memory than CBF at 1% FPR. At r = 7
        // (2^-7 ≈ 0.8%), storing n elements costs ≈ n·(7+2) + index vs
        // CBF's ≈ 10n·4 bits for the same rate.
        let n = 20_000u64;
        let mut f = Rcbf::<Murmur3>::new(n as usize, 7, 2, 5);
        for i in 0..n {
            f.insert(&i).unwrap();
        }
        let cbf_bits = {
            // CBF at ~1%: m/n = 10, k = 5 ⇒ 4·10·n bits.
            40 * n
        };
        assert!(
            f.memory_bits() * 2 < cbf_bits,
            "RCBF {} vs CBF {cbf_bits}",
            f.memory_bits()
        );
    }
}
