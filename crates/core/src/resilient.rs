//! Saturation-safe MPCBF: overflow spillover into a bounded side
//! structure.
//!
//! The paper sizes HCBF words with the Eq.-(11) heuristic so that word
//! overflow "never" happens *on the expected workload*. Production
//! traffic is skewed: a hot key or an adversarial burst can saturate a
//! word, and a bare [`Mpcbf`] then refuses the insert. That is the
//! honest answer for a data structure, but the wrong one for a system —
//! callers at a packet-processing fast path rarely have a recovery
//! story for "the filter is full right here".
//!
//! [`ResilientMpcbf`] keeps the paper's filter as the fast path and adds
//! a two-part **spill** for the overflow tail:
//!
//! * a small plain [`Cbf`] (the *gate*) sized at a fraction of the main
//!   filter, giving metered, constant-time negative checks for spilled
//!   keys, and
//! * an exact key→multiplicity map holding the spilled copies, so
//!   spilled membership is *exact* (no false positives from the spill
//!   beyond the gate's short-circuit, and never a false negative).
//!
//! Inserts that overflow the main filter are absorbed by the spill, so
//! insertion becomes lossless under saturation; removes drain spilled
//! copies first (the spill holds the *latest* copies of a hot key);
//! queries consult main-then-spill. The overflow tail is by construction
//! small — the heuristic makes overflow rare — so the exact map stays
//! bounded in practice; [`ResilientMpcbf::health`] reports its size so
//! operators can see when a workload has outgrown the shape.
//!
//! Cost accounting: main-filter and gate accesses are metered exactly
//! like every other filter; the exact-map lookup is *not* metered (it is
//! a host-side hash map, not part of the paper's word-access model) and
//! its memory is likewise excluded from [`Filter::memory_bits`].

use crate::cbf::Cbf;
use crate::config::MpcbfConfig;
use crate::metrics::{HealthReport, OpCost};
use crate::mpcbf::Mpcbf;
use crate::plan::PlanBuffer;
use crate::scrub::{FilterSeal, ScrubReport};
use crate::traits::{CountingFilter, Filter};
use crate::FilterError;
use mpcbf_hash::{Hasher128, Murmur3};
use std::collections::HashMap;

/// Salt mixed into the spill gate's seed so its hash streams are
/// independent of the main filter's.
const SPILL_SALT: u64 = 0x5350_494c_4c5f_4342; // "SPILL_CB"

/// Spill gate size as a divisor of the main filter's memory.
const SPILL_FRACTION: u64 = 16;

/// Minimum spill gate size in bits, so tiny test shapes still get a
/// functional gate.
const MIN_SPILL_BITS: u64 = 4096;

/// Borrowed decomposition for the codec: main filter, spill gate,
/// exact spill map, and the lifetime spilled-insert counter.
pub(crate) type SpillParts<'a, H> = (
    &'a Mpcbf<u64, H>,
    &'a Cbf<H>,
    &'a HashMap<Vec<u8>, u32>,
    u64,
);

/// An [`Mpcbf`] that absorbs word overflows into a bounded spill
/// structure instead of refusing inserts.
///
/// ```
/// use mpcbf_core::{CountingFilter, Filter, MpcbfConfig, ResilientMpcbf};
///
/// // A deliberately tiny shape that a plain MPCBF would saturate.
/// let config = MpcbfConfig::builder()
///     .memory_bits(256)
///     .expected_items(1000)
///     .hashes(3)
///     .n_max(1)
///     .seed(5)
///     .build()
///     .unwrap();
/// let mut filter: ResilientMpcbf = ResilientMpcbf::new(config);
/// for i in 0..200u64 {
///     filter.insert(&i).unwrap(); // never refuses
/// }
/// assert!((0..200u64).all(|i| filter.contains(&i)));
/// assert!(filter.health().is_spilling());
/// ```
#[derive(Debug, Clone)]
pub struct ResilientMpcbf<H: Hasher128 = Murmur3> {
    main: Mpcbf<u64, H>,
    /// Fast negative checks for spilled keys (metered like any filter).
    gate: Cbf<H>,
    /// Authoritative multiplicities of the spilled copies.
    exact: HashMap<Vec<u8>, u32>,
    /// Sum of all multiplicities in `exact`.
    spill_occupancy: u64,
    /// Lifetime count of inserts routed to the spill.
    spilled_inserts: u64,
}

impl<H: Hasher128> ResilientMpcbf<H> {
    /// Creates a resilient filter from a validated configuration: the
    /// main [`Mpcbf`] uses the configuration as-is, the spill gate gets
    /// `1/16` of the main memory (at least 4096 bits) and an independent
    /// seed.
    pub fn new(config: MpcbfConfig) -> Self {
        let main: Mpcbf<u64, H> = Mpcbf::new(config);
        let shape = main.shape();
        let spill_bits = (shape.l * u64::from(shape.w) / SPILL_FRACTION).max(MIN_SPILL_BITS);
        let gate = Cbf::with_memory(spill_bits, shape.k, main.seed() ^ SPILL_SALT);
        ResilientMpcbf {
            main,
            gate,
            exact: HashMap::new(),
            spill_occupancy: 0,
            spilled_inserts: 0,
        }
    }

    /// The wrapped main filter (read-only).
    pub fn main(&self) -> &Mpcbf<u64, H> {
        &self.main
    }

    /// Distinct keys currently living in the spill.
    pub fn spill_keys(&self) -> u64 {
        self.exact.len() as u64
    }

    /// Total multiplicity currently stored in the spill.
    pub fn spill_occupancy(&self) -> u64 {
        self.spill_occupancy
    }

    /// Lifetime count of inserts absorbed by the spill.
    pub fn spilled_inserts(&self) -> u64 {
        self.spilled_inserts
    }

    /// Net elements stored across main filter and spill.
    pub fn items(&self) -> u64 {
        self.main.items() + self.spill_occupancy
    }

    /// Analytic false-positive envelope at the current occupancy.
    ///
    /// This is Eq. (8)/(9) evaluated for the main filter's shape at its
    /// *current* item count. The spill contributes no term: spilled
    /// membership is decided by the exact map (the gate only
    /// short-circuits negatives), so the spill can never produce a false
    /// positive. The envelope therefore rises with occupancy but stays
    /// finite even when the shape is saturated — exactly the quantity an
    /// elastic wrapper sums across generations to bound its stacked FPR.
    pub fn fpr_envelope(&self) -> f64 {
        let shape = self.main.shape();
        mpcbf_analysis::mpcbf::fpr_mpcbf_g_b1(
            self.main.items(),
            shape.l,
            shape.k,
            shape.g,
            shape.b1,
        )
    }

    /// Saturation snapshot of the whole structure: the main filter's
    /// fill/overflow figures plus the spill's occupancy.
    pub fn health(&self) -> HealthReport {
        let mut h = self.main.health();
        h.spill_keys = self.spill_keys();
        h.spill_occupancy = self.spill_occupancy;
        h.spilled_inserts = self.spilled_inserts;
        h
    }

    /// Structural self-check over both storages. Spill-gate damage is
    /// reported with its segment index offset by the main filter's
    /// segment count (segments `0..main` are the main word array,
    /// `main..` the gate), matching [`ResilientMpcbf::scrub`].
    pub fn verify(&self) -> Result<(), FilterError> {
        self.main.verify()?;
        self.gate.verify().map_err(|e| match e {
            FilterError::CorruptionDetected { segment } => FilterError::CorruptionDetected {
                segment: self.main.seal().segments() + segment,
            },
            other => other,
        })
    }

    /// Checksums both storages for later [`ResilientMpcbf::scrub`] passes.
    pub fn seal(&self) -> ResilientSeal {
        ResilientSeal {
            main: self.main.seal(),
            gate: self.gate.seal(),
        }
    }

    /// Scrubs both storages against `seal`, returning one merged report.
    /// Segments `0..main_segments` cover the main word array; gate
    /// segments follow, offset by `main_segments`.
    ///
    /// # Panics
    /// Panics if `seal` was taken from a differently-shaped filter.
    pub fn scrub(&self, seal: &ResilientSeal) -> ScrubReport {
        let main_segments = seal.main.segments();
        let mut report = self.main.scrub(&seal.main);
        let gate_report = self.gate.scrub(&seal.gate);
        report.segments_checked = main_segments + gate_report.segments_checked;
        report.merge(ScrubReport::new(
            report.segments_checked,
            gate_report
                .corrupt_segments
                .iter()
                .map(|s| main_segments + s)
                .collect(),
        ));
        report
    }

    /// Fault-injection hook: flips bits in the main filter's word `word`.
    pub fn corrupt_main_word_xor(&mut self, word: usize, mask: u64) {
        self.main.corrupt_word_xor(word, mask);
    }

    /// Fault-injection hook: flips bits in the spill gate's limb `limb`.
    pub fn corrupt_gate_limb_xor(&mut self, limb: usize, mask: u64) {
        self.gate.corrupt_limb_xor(limb, mask);
    }

    /// Routes one key into the spill (gate + exact map), metering the
    /// gate insert.
    fn spill_insert(&mut self, key: &[u8]) -> OpCost {
        let cost = self
            .gate
            .insert_bytes_cost(key)
            .expect("CBF insert cannot fail");
        *self.exact.entry(key.to_vec()).or_insert(0) += 1;
        self.spill_occupancy += 1;
        self.spilled_inserts += 1;
        cost
    }

    /// Drains one spilled copy of `key`; the caller has already checked
    /// the exact map holds at least one.
    fn spill_remove(&mut self, key: &[u8]) -> OpCost {
        let cost = self
            .gate
            .remove_bytes_cost(key)
            .expect("spill gate tracks the exact map");
        match self.exact.get_mut(key) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                self.exact.remove(key);
            }
            None => unreachable!("spill_remove called without a spilled copy"),
        }
        self.spill_occupancy -= 1;
        cost
    }

    /// Decomposes the filter for the codec: main filter, spill gate,
    /// exact spill map, and the lifetime spilled-insert counter.
    pub(crate) fn spill_parts(&self) -> SpillParts<'_, H> {
        (&self.main, &self.gate, &self.exact, self.spilled_inserts)
    }

    /// Spills a key the bulk builder's main-shape admission refused
    /// (the `bulk::ResilientBulkBuilder` push path). Spill structures
    /// commute per key, so spilling at push time reproduces the scalar
    /// insert's spill state exactly.
    pub(crate) fn bulk_spill_insert(&mut self, key: &[u8]) {
        let _ = self.spill_insert(key);
    }

    /// Installs the bulk-built main filter (the builder's admission
    /// decisions match the scalar insert, so the pair stays coherent).
    pub(crate) fn bulk_replace_main(&mut self, main: Mpcbf<u64, H>) {
        self.main = main;
    }

    /// Rebuilds a filter from codec-validated parts; `spill_occupancy`
    /// is recomputed from the map so it can never disagree with it.
    pub(crate) fn from_spill_parts(
        main: Mpcbf<u64, H>,
        gate: Cbf<H>,
        exact: HashMap<Vec<u8>, u32>,
        spilled_inserts: u64,
    ) -> Self {
        let spill_occupancy = exact.values().map(|&c| u64::from(c)).sum();
        ResilientMpcbf {
            main,
            gate,
            exact,
            spill_occupancy,
            spilled_inserts,
        }
    }

    /// True if the spill currently holds a copy of `key`, with the gate
    /// consulted first for a metered short-circuit.
    fn spill_contains_cost(&self, key: &[u8]) -> (bool, OpCost) {
        if self.spill_occupancy == 0 {
            return (false, OpCost::zero());
        }
        let (gate_hit, cost) = self.gate.contains_bytes_cost(key);
        let hit = gate_hit && self.exact.contains_key(key);
        (hit, cost)
    }
}

impl<H: Hasher128> Filter for ResilientMpcbf<H> {
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let (hit, cost) = self.main.contains_bytes_cost(key);
        if hit {
            return (true, cost);
        }
        let (spill_hit, spill_cost) = self.spill_contains_cost(key);
        (spill_hit, cost.add(spill_cost))
    }

    /// Lossless insert: the main filter first; a word overflow routes the
    /// key into the spill instead of surfacing an error. The reported
    /// cost is the successful path's (the gate insert, for spilled keys —
    /// a refused main insert rolls back and meters nothing, exactly like
    /// a bare [`Mpcbf`]).
    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        match self.main.insert_bytes_cost(key) {
            Ok(cost) => Ok(cost),
            Err(FilterError::WordOverflow { .. }) => Ok(self.spill_insert(key)),
            Err(e) => Err(e),
        }
    }

    fn memory_bits(&self) -> u64 {
        self.main.memory_bits() + self.gate.memory_bits()
    }

    fn num_hashes(&self) -> u32 {
        self.main.num_hashes()
    }

    /// Pipelined batch query: the main filter's batch pass runs first
    /// (with the caller's scratch), then every miss consults the spill —
    /// observationally identical to the scalar loop.
    fn contains_batch_with(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        let (mut hits, mut total) = self.main.contains_batch_with(keys, plans);
        for (hit, key) in hits.iter_mut().zip(keys) {
            if !*hit {
                let (spill_hit, spill_cost) = self.spill_contains_cost(key);
                *hit = spill_hit;
                total = total.add(spill_cost);
            }
        }
        (hits, total)
    }

    /// Pipelined batch insert: the main filter applies the whole batch
    /// with its per-key rollback, then each refused key is routed to the
    /// spill in key order — the exact state a scalar loop produces.
    fn insert_batch_with(
        &mut self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        let (mut results, mut total) = self.main.insert_batch_with(keys, plans);
        for (result, key) in results.iter_mut().zip(keys) {
            if matches!(result, Err(FilterError::WordOverflow { .. })) {
                total = total.add(self.spill_insert(key));
                *result = Ok(());
            }
        }
        (results, total)
    }
}

impl<H: Hasher128> CountingFilter for ResilientMpcbf<H> {
    /// Removes one copy of `key`, draining spilled copies first (the
    /// spill holds the latest copies of a hot key); only when the spill
    /// has none does the main filter see the remove.
    fn remove_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        if self.exact.contains_key(key) {
            return Ok(self.spill_remove(key));
        }
        self.main.remove_bytes_cost(key)
    }

    /// Pipelined batch remove: keys are partitioned in order between
    /// spill-routed and main-routed (respecting in-batch duplicates
    /// draining the spill), the spill removes apply directly, and the
    /// main subset goes through the main filter's pipelined batch pass.
    /// The final state and per-key results match the scalar loop exactly.
    fn remove_batch_with(
        &mut self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        // Partition in key order, simulating the spill drain so in-batch
        // duplicates of a spilled key route correctly: the first `count`
        // copies go to the spill, the rest to the main filter.
        let mut pending: HashMap<&[u8], u32> = HashMap::new();
        let mut main_keys: Vec<&[u8]> = Vec::new();
        let mut route_to_spill = vec![false; keys.len()];
        for (i, key) in keys.iter().enumerate() {
            let available = self.exact.get(*key).copied().unwrap_or(0);
            let drained = pending.entry(*key).or_insert(0);
            if *drained < available {
                *drained += 1;
                route_to_spill[i] = true;
            } else {
                main_keys.push(*key);
            }
        }

        let mut total = OpCost::zero();
        let mut spill_results: Vec<OpCost> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if route_to_spill[i] {
                let cost = self.spill_remove(key);
                total = total.add(cost);
                spill_results.push(cost);
            }
        }
        let (main_results, main_total) = if main_keys.is_empty() {
            (Vec::new(), OpCost::zero())
        } else {
            self.main.remove_batch_with(&main_keys, plans)
        };
        total = total.add(main_total);

        // Splice per-key results back into input order.
        let mut main_iter = main_results.into_iter();
        let results = route_to_spill
            .iter()
            .map(|&spilled| {
                if spilled {
                    Ok(())
                } else {
                    main_iter.next().expect("one main result per main key")
                }
            })
            .collect();
        (results, total)
    }
}

/// Paired checksums of a [`ResilientMpcbf`]'s two storages, taken by
/// [`ResilientMpcbf::seal`] and consumed by [`ResilientMpcbf::scrub`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientSeal {
    /// Seal over the main filter's word array.
    pub main: FilterSeal,
    /// Seal over the spill gate's counter limbs.
    pub gate: FilterSeal,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> MpcbfConfig {
        // 4 words of capacity 3 increments each: overflows guaranteed.
        MpcbfConfig::builder()
            .memory_bits(256)
            .expected_items(1000)
            .hashes(3)
            .n_max(1)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn roomy_config(seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn absorbs_forced_overflows_with_zero_false_negatives() {
        let mut f: ResilientMpcbf = ResilientMpcbf::new(tiny_config(5));
        for i in 0..200u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..200u64 {
            assert!(f.contains(&i), "false negative for {i} under saturation");
        }
        let h = f.health();
        assert!(h.is_spilling(), "tiny shape must have spilled");
        assert!(h.overflows > 0);
        assert_eq!(h.spilled_inserts, f.spilled_inserts());
        assert_eq!(f.items(), 200);

        // Drain everything: spill and main both empty out.
        for i in 0..200u64 {
            f.remove(&i).unwrap();
        }
        assert_eq!(f.items(), 0);
        assert_eq!(f.spill_occupancy(), 0);
        assert_eq!(f.spill_keys(), 0);
        assert!(f.main().word_loads().iter().all(|&c| c == 0));
    }

    #[test]
    fn hot_key_copies_drain_in_reverse() {
        let mut f: ResilientMpcbf = ResilientMpcbf::new(tiny_config(7));
        // Hammer one key until copies spill.
        for _ in 0..50 {
            f.insert(&"hot").unwrap();
        }
        assert!(f.spill_occupancy() > 0, "50 copies must overflow one word");
        let spilled = f.spill_occupancy();
        // Removes drain the spilled copies first...
        for _ in 0..spilled {
            f.remove(&"hot").unwrap();
        }
        assert_eq!(f.spill_occupancy(), 0);
        assert!(f.contains(&"hot"), "main-filter copies remain");
        // ...then the main filter's.
        for _ in 0..(50 - spilled) {
            f.remove(&"hot").unwrap();
        }
        assert!(!f.contains(&"hot"));
        assert_eq!(f.remove(&"hot"), Err(FilterError::NotPresent));
    }

    #[test]
    fn never_spills_on_a_healthy_shape() {
        let mut f: ResilientMpcbf = ResilientMpcbf::new(roomy_config(1));
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        let h = f.health();
        assert!(!h.is_spilling());
        assert_eq!(h.overflows, 0);
        assert_eq!(h.spilled_inserts, 0);
    }

    #[test]
    fn batch_matches_scalar_loop_under_saturation() {
        let mut batch: ResilientMpcbf = ResilientMpcbf::new(tiny_config(11));
        let mut scalar: ResilientMpcbf = ResilientMpcbf::new(tiny_config(11));
        // Duplicates included so in-batch spill drains are exercised.
        let keys: Vec<Vec<u8>> = (0..120u64)
            .map(|i| (i % 40).to_le_bytes().to_vec())
            .collect();
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

        let (batch_res, bi) = batch.insert_batch_cost(&views);
        let mut si = OpCost::zero();
        for k in &views {
            si = si.add(scalar.insert_bytes_cost(k).unwrap());
        }
        assert!(batch_res.iter().all(|r| r.is_ok()), "inserts are lossless");
        assert_eq!(bi, si);
        assert_eq!(batch.main().raw_words(), scalar.main().raw_words());
        assert_eq!(batch.spill_occupancy(), scalar.spill_occupancy());

        let probes: Vec<Vec<u8>> = (0..80u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let probe_views: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        let (batch_hits, bq) = batch.contains_batch_cost(&probe_views);
        let mut sq = OpCost::zero();
        for (i, k) in probe_views.iter().enumerate() {
            let (hit, cost) = scalar.contains_bytes_cost(k);
            assert_eq!(hit, batch_hits[i], "key {i}");
            sq = sq.add(cost);
        }
        assert_eq!(bq, sq);

        // Mixed removes: present keys (some spilled, with duplicates) and
        // absent ones.
        let mixed: Vec<Vec<u8>> = (20..60u64)
            .flat_map(|i| [i.to_le_bytes().to_vec(), i.to_le_bytes().to_vec()])
            .collect();
        let mixed_views: Vec<&[u8]> = mixed.iter().map(|k| k.as_slice()).collect();
        let (batch_rres, br) = batch.remove_batch_cost(&mixed_views);
        let mut sr = OpCost::zero();
        for (i, k) in mixed_views.iter().enumerate() {
            match scalar.remove_bytes_cost(k) {
                Ok(c) => {
                    sr = sr.add(c);
                    assert_eq!(batch_rres[i], Ok(()), "key {i}");
                }
                Err(e) => assert_eq!(batch_rres[i], Err(e), "key {i}"),
            }
        }
        assert_eq!(br, sr);
        assert_eq!(batch.main().raw_words(), scalar.main().raw_words());
        assert_eq!(batch.spill_occupancy(), scalar.spill_occupancy());
        assert_eq!(batch.items(), scalar.items());
    }

    #[test]
    fn scrub_localises_damage_in_either_storage() {
        let mut f: ResilientMpcbf = ResilientMpcbf::new(tiny_config(13));
        for i in 0..100u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.verify(), Ok(()));
        let seal = f.seal();
        assert!(f.scrub(&seal).is_clean());

        // Damage the main word array: segment 0 (4 words).
        f.corrupt_main_word_xor(2, 1 << 33);
        let report = f.scrub(&seal);
        assert_eq!(report.corrupt_segments, vec![0]);
        f.corrupt_main_word_xor(2, 1 << 33);

        // Damage the spill gate: reported past the main segment range.
        f.corrupt_gate_limb_xor(10, 1 << 7);
        let report = f.scrub(&seal);
        assert_eq!(report.corrupt_segments, vec![seal.main.segments()]);
        f.corrupt_gate_limb_xor(10, 1 << 7);
        assert!(f.scrub(&seal).is_clean());
    }

    #[test]
    fn memory_includes_gate_but_not_exact_map() {
        let f: ResilientMpcbf = ResilientMpcbf::new(roomy_config(3));
        assert_eq!(
            f.memory_bits(),
            f.main().memory_bits() + (f.main().memory_bits() / 16).max(4096)
        );
    }
}
