//! HCBF: the Hierarchical Counting Bloom Filter word codec (§III.B).
//!
//! One machine word stores a complete counting structure:
//!
//! * bits `[0, b1)` are the **first-level sub-vector** `v1` — the membership
//!   plane a query consults;
//! * the rest of the word holds the **hierarchy**: level `j+1` contains one
//!   bit (a *child slot*) for every set bit of level `j`, and levels are
//!   laid out contiguously.
//!
//! The counter value of position `p` is the length of the chain of ones
//! starting at `v1[p]`: the insert walk descends via ranked popcounts
//! ("the value returned by popcount(i) is used as an index to the bit in
//! the next level"), flips the first zero it meets, and splices a fresh
//! zero child slot into the next level, shifting the tail of the word
//! right by one (§III.B.1, Algorithm 1). Deletion is the exact mirror.
//!
//! Two consequences the paper builds on:
//!
//! 1. **Self-describing layout** — level sizes are derived purely from
//!    popcounts (`|v_{j+1}| = popcount(v_j)`), so no bits are spent on
//!    metadata and the total bits in use are simply
//!    `b1 + count_ones(word)`;
//! 2. **Pay-per-increment storage** — a counter of value `c` consumes
//!    exactly `c` hierarchy bits, so idle positions are free and the
//!    improved HCBF (§III.B.3) can maximise `b1 = w − k·n_max`.
//!
//! Each operation has one walk: [`HcbfWord::increment_routed`],
//! [`HcbfWord::decrement_routed`] and their all-or-nothing loops take the
//! [`KernelOps`] bundle their primitives route to; the plain `increment`
//! family wraps them with [`KernelOps::accelerated`]. The `*_reference`
//! walks are the naive oracle the differential tests hold them to. One
//! level up, [`query_walk`], [`insert_walk`] and [`remove_walk`] run one
//! key's planned groups over a word array — the filter operations of
//! [`crate::Mpcbf`] and the sharded concurrent filter.

use crate::scrub::segment_of;
use crate::FilterError;
use mpcbf_bitvec::{KernelOps, Word};
use mpcbf_hash::mix::bits_for;

/// Errors a single-word HCBF operation can report.
///
/// A word does not know its own index inside the enclosing filter, so its
/// errors are *word-local*; callers attach the real word index via
/// [`WordError::at`] at the point where the index is known. This makes a
/// fabricated index (the old `WordOverflow { word: 0 }` placeholder)
/// unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordError {
    /// The word has no spare hierarchy bit for another increment.
    Overflow,
    /// A decrement targeted a counter that is already zero.
    ZeroCounter,
}

impl WordError {
    /// Converts a word-local error into the filter-level error for the
    /// word at index `word`.
    #[inline]
    pub fn at(self, word: usize) -> FilterError {
        match self {
            WordError::Overflow => FilterError::WordOverflow { word },
            WordError::ZeroCounter => FilterError::NotPresent,
        }
    }
}

impl std::fmt::Display for WordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WordError::Overflow => write!(f, "word overflow: no hierarchy space left"),
            WordError::ZeroCounter => write!(f, "counter already zero"),
        }
    }
}

impl std::error::Error for WordError {}

/// Report returned by a successful increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementReport {
    /// The counter's new value (= the hierarchy depth reached).
    pub new_count: u32,
    /// Address bits consumed by the traversal below level 1
    /// (`Σ log2 |v_j|` over descended levels), for bandwidth metering.
    pub traversal_bits: u32,
}

/// Report returned by a successful decrement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecrementReport {
    /// The counter's new value.
    pub new_count: u32,
    /// Address bits consumed by the traversal below level 1.
    pub traversal_bits: u32,
}

/// One HCBF word.
///
/// The first-level size `b1` is a property of the enclosing filter (all
/// words share it, §III.B.2) and is passed to each operation rather than
/// stored per word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HcbfWord<W: Word> {
    bits: W,
}

impl<W: Word> HcbfWord<W> {
    /// An empty word (all counters zero).
    #[inline]
    pub fn new() -> Self {
        HcbfWord { bits: W::zero() }
    }

    /// The raw bit pattern.
    #[inline]
    pub fn raw(&self) -> &W {
        &self.bits
    }

    /// Reconstructs a word from a raw bit pattern (e.g. one read back from
    /// an atomic cell in the lock-free concurrent filter). The caller must
    /// only pass patterns previously produced by HCBF operations.
    #[inline]
    pub fn from_raw(bits: W) -> Self {
        HcbfWord { bits }
    }

    /// Membership test: is first-level bit `p` set? (The only part of the
    /// word a query reads — Eq. (4)'s central observation.)
    #[inline]
    pub fn query(&self, p: u32) -> bool {
        self.bits.bit(p)
    }

    /// Bits currently in use: `b1 + count_ones` (see module docs).
    #[inline]
    pub fn used_bits(&self, b1: u32) -> u32 {
        b1 + self.bits.count_ones()
    }

    /// Remaining hierarchy capacity in increments.
    #[inline]
    pub fn remaining_capacity(&self, b1: u32) -> u32 {
        W::BITS - self.used_bits(b1)
    }

    /// Sum of all counters in this word (= total increments stored).
    #[inline]
    pub fn total_count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// True if no element occupies this word.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == W::zero()
    }

    /// Reads the counter value at first-level position `p`.
    ///
    /// Carried-rank walk: `rank(level_start)` is remembered from the
    /// previous iteration, so each level needs two masked popcounts
    /// instead of the four the naive `rank_range` pair would spend.
    pub fn counter(&self, p: u32, b1: u32) -> u32 {
        debug_assert!(p < b1);
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut count = 0u32;
        let mut r_start = 0u32; // rank(level_start), carried across levels
        loop {
            let gp = level_start + pos;
            if !self.bits.bit(gp) {
                return count;
            }
            count += 1;
            let child = self.bits.rank(gp) - r_start;
            let next_start = level_start + level_size;
            let r_next = self.bits.rank(next_start);
            level_start = next_start;
            level_size = r_next - r_start;
            r_start = r_next;
            pos = child;
        }
    }

    /// Increments the counter at first-level position `p` through the
    /// best available kernel; see [`HcbfWord::increment_routed`].
    #[inline]
    pub fn increment(&mut self, p: u32, b1: u32) -> Result<IncrementReport, WordError> {
        self.increment_routed(p, b1, &KernelOps::accelerated())
    }

    /// Decrements the counter at first-level position `p` through the
    /// best available kernel; see [`HcbfWord::decrement_routed`].
    #[inline]
    pub fn decrement(&mut self, p: u32, b1: u32) -> Result<DecrementReport, WordError> {
        self.decrement_routed(p, b1, &KernelOps::accelerated())
    }

    /// Portable baseline for [`HcbfWord::increment_routed`]: the naive
    /// `rank_range`-per-level walk with no kernel dispatch. Kept verbatim
    /// for differential tests pinning the routed walk bit-identical under
    /// both kernels.
    pub fn increment_reference(&mut self, p: u32, b1: u32) -> Result<IncrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        if self.used_bits(b1) >= W::BITS {
            return Err(WordError::Overflow);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank_range(level_start, gp);
            let next_start = level_start + level_size;
            if !self.bits.bit(gp) {
                self.bits.set_bit(gp);
                self.bits.insert_zero(next_start + child);
                return Ok(IncrementReport {
                    new_count: depth,
                    traversal_bits,
                });
            }
            let next_size = self.bits.rank_range(level_start, next_start);
            level_start = next_start;
            level_size = next_size;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Increments the counter at first-level position `p`, with every
    /// primitive routed through `ops` (the one increment walk).
    ///
    /// Walks the chain of ones to its first zero, flips it, and splices a
    /// zero child slot into the next level. Carried-rank walk: like
    /// [`HcbfWord::counter`], each level costs two masked popcounts. Fails
    /// with [`WordError::Overflow`] when the word has no spare bit,
    /// leaving the word unchanged; the caller maps it to the filter-level
    /// error via [`WordError::at`] with the real word index.
    ///
    /// Under [`KernelOps::portable`] the tag branch folds away at compile
    /// time: the bulk sweep runs this walk that way, millions of staged
    /// increments back to back.
    #[inline(always)]
    pub fn increment_routed(
        &mut self,
        p: u32,
        b1: u32,
        ops: &KernelOps,
    ) -> Result<IncrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        if self.used_bits(b1) >= W::BITS {
            return Err(WordError::Overflow);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        let mut r_start = 0u32; // rank(level_start), carried across levels
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank_routed(gp, ops) - r_start;
            let next_start = level_start + level_size;
            if !self.bits.bit(gp) {
                // First zero on the chain: flip it, give it a child slot.
                self.bits.set_bit(gp);
                self.bits.insert_zero_routed(next_start + child, ops);
                return Ok(IncrementReport {
                    new_count: depth,
                    traversal_bits,
                });
            }
            let r_next = self.bits.rank_routed(next_start, ops);
            let next_size = r_next - r_start;
            level_start = next_start;
            level_size = next_size;
            r_start = r_next;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Decrements the counter at first-level position `p`, with every
    /// primitive routed through `ops` (the one decrement walk).
    ///
    /// Walks to the deepest one on the chain, removes its (zero) child
    /// slot and clears the bit — the mirror of
    /// [`HcbfWord::increment_routed`]. Fails with
    /// [`WordError::ZeroCounter`] if the counter is zero, leaving the word
    /// unchanged.
    #[inline(always)]
    pub fn decrement_routed(
        &mut self,
        p: u32,
        b1: u32,
        ops: &KernelOps,
    ) -> Result<DecrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        if !self.bits.bit(p) {
            return Err(WordError::ZeroCounter);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        let mut r_start = 0u32; // rank(level_start), carried across levels
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank_routed(gp, ops) - r_start;
            let next_start = level_start + level_size;
            let child_gp = next_start + child;
            if !self.bits.bit(child_gp) {
                // `gp` is the deepest one: drop its child slot, clear it.
                self.bits.remove_bit_routed(child_gp, ops);
                self.bits.clear_bit(gp);
                return Ok(DecrementReport {
                    new_count: depth - 1,
                    traversal_bits,
                });
            }
            let r_next = self.bits.rank_routed(next_start, ops);
            let next_size = r_next - r_start;
            level_start = next_start;
            level_size = next_size;
            r_start = r_next;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Portable baseline for [`HcbfWord::decrement_routed`]; see
    /// [`HcbfWord::increment_reference`].
    pub fn decrement_reference(&mut self, p: u32, b1: u32) -> Result<DecrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        if !self.bits.bit(p) {
            return Err(WordError::ZeroCounter);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank_range(level_start, gp);
            let next_start = level_start + level_size;
            let child_gp = next_start + child;
            if !self.bits.bit(child_gp) {
                self.bits.remove_bit(child_gp);
                self.bits.clear_bit(gp);
                return Ok(DecrementReport {
                    new_count: depth - 1,
                    traversal_bits,
                });
            }
            let next_size = self.bits.rank_range(level_start, next_start);
            level_start = next_start;
            level_size = next_size;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Batched membership for one word: checks the first-level positions
    /// in `probes` in order, stopping at the first zero (the scalar query
    /// short-circuit). Returns the verdict and how many positions were
    /// evaluated, for bandwidth metering.
    ///
    /// This is deliberately the plain portable short-circuit loop — the
    /// same walk the scalar path runs. An earlier gather-all-bits-then-
    /// `trailing_zeros` variant measured *slower* (it always evaluates the
    /// whole chunk while real workloads short-circuit early), and the BMI2
    /// kernels never help here: a query touches no rank/insert/remove
    /// primitive at all. Per-op kernel routing therefore pins query walks
    /// to portable; batching wins come from the plan/interleave layers
    /// above, not from this loop.
    #[inline]
    pub fn query_all(&self, probes: &[u32]) -> (bool, u32) {
        let mut evaluated = 0u32;
        for &p in probes {
            evaluated += 1;
            if !self.bits.bit(p) {
                return (false, evaluated);
            }
        }
        (true, evaluated)
    }

    /// Portable baseline for [`HcbfWord::query_all`]: the short-circuiting
    /// scalar loop, kept for differential tests of the metering contract.
    #[inline]
    pub fn query_all_reference(&self, probes: &[u32]) -> (bool, u32) {
        let mut evaluated = 0u32;
        for &p in probes {
            evaluated += 1;
            if !self.query(p) {
                return (false, evaluated);
            }
        }
        (true, evaluated)
    }

    /// [`HcbfWord::increment_all_routed`] through the best available
    /// kernel.
    #[inline]
    pub fn increment_all(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        self.increment_all_routed(probes, b1, &KernelOps::accelerated())
    }

    /// [`HcbfWord::decrement_all_routed`] through the best available
    /// kernel.
    #[inline]
    pub fn decrement_all(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        self.decrement_all_routed(probes, b1, &KernelOps::accelerated())
    }

    /// Applies [`HcbfWord::increment_routed`] to every position in order,
    /// all-or-nothing: on the first overflow the word is rolled back to
    /// its state before this call and the error returned. On success,
    /// returns the summed traversal bits of all increments. Every walk,
    /// rollback included, is routed via `ops`.
    ///
    /// The four routed walks are `#[inline(always)]`: once the sharded
    /// filter's scalar and batch calls shared one walk, codegen left them
    /// out of line in the batch loop, and the DRAM-resident sharded
    /// workload ran about 20% fewer updates per second.
    #[inline(always)]
    pub fn increment_all_routed(
        &mut self,
        probes: &[u32],
        b1: u32,
        ops: &KernelOps,
    ) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.increment_routed(p, b1, ops) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.decrement_routed(q, b1, ops)
                            .expect("rollback of a fresh increment cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// Applies [`HcbfWord::decrement_routed`] to every position in order,
    /// all-or-nothing: on the first zero counter the word is rolled back
    /// and [`WordError::ZeroCounter`] returned. On success, returns the
    /// summed traversal bits of all decrements; see
    /// [`HcbfWord::increment_all_routed`].
    #[inline(always)]
    pub fn decrement_all_routed(
        &mut self,
        probes: &[u32],
        b1: u32,
        ops: &KernelOps,
    ) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.decrement_routed(p, b1, ops) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.increment_routed(q, b1, ops)
                            .expect("rollback of a fresh decrement cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// Portable baseline for [`HcbfWord::increment_all_routed`]: the same
    /// all-or-nothing contract driven entirely by the reference walks.
    pub fn increment_all_reference(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.increment_reference(p, b1) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.decrement_reference(q, b1)
                            .expect("rollback of a fresh increment cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// Portable baseline for [`HcbfWord::decrement_all_routed`]; see
    /// [`HcbfWord::increment_all_reference`].
    pub fn decrement_all_reference(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.decrement_reference(p, b1) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.increment_reference(q, b1)
                            .expect("rollback of a fresh decrement cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// The sizes of all non-empty levels, starting with `b1`.
    pub fn level_sizes(&self, b1: u32) -> Vec<u32> {
        let mut sizes = vec![b1];
        let mut level_start = 0u32;
        let mut level_size = b1;
        loop {
            let next = self.bits.rank_range(level_start, level_start + level_size);
            if next == 0 {
                break;
            }
            sizes.push(next);
            level_start += level_size;
            level_size = next;
        }
        sizes
    }

    /// Structural invariant check, used by property tests:
    ///
    /// 1. levels fit in the word: `b1 + count_ones ≤ W::BITS`;
    /// 2. all bits beyond the used region are zero;
    /// 3. level sizes satisfy `|v_{j+1}| = popcount(v_j)` by construction
    ///    (verified by re-walking the layout).
    pub fn check_invariants(&self, b1: u32) -> Result<(), String> {
        let used = self.used_bits(b1);
        if used > W::BITS {
            return Err(format!("used bits {used} exceed word width {}", W::BITS));
        }
        if !self.bits.is_zero_from(used) {
            return Err(format!("dirty bits beyond used region (used = {used})"));
        }
        // Walking the level layout must consume exactly `used` bits: every
        // level beyond v1 is counted by count_ones, so the walk's total
        // must equal b1 + count_ones.
        let walked: u32 = self.level_sizes(b1).iter().sum();
        if walked != used {
            return Err(format!(
                "level walk covered {walked} bits but used_bits says {used}"
            ));
        }
        Ok(())
    }
}

/// Queries one key against its planned words: groups in plan order,
/// probes in stream order, stopping at the first zero bit (the one query
/// walk of [`crate::Mpcbf`] and the sharded filter). `group(t)` is the
/// key's group `t` as `(word, in-word probes)` for `t < g` — from a
/// [`crate::ProbePlan`] (scalar) or a [`crate::PlanBuffer`] entry (batch).
///
/// Returns `(member, groups evaluated, probes evaluated)`: the scalar
/// short-circuit accounting the paper's metering charges.
#[inline(always)]
pub fn query_walk<'p, W: Word>(
    words: &[HcbfWord<W>],
    g: usize,
    group: impl Fn(usize) -> (usize, &'p [u32]),
) -> (bool, u32, u32) {
    let mut probes_eval = 0u32;
    for t in 0..g {
        let (word, probes) = group(t);
        let (all_set, evaluated) = words[word].query_all(probes);
        probes_eval += evaluated;
        if !all_set {
            return (false, t as u32 + 1, probes_eval);
        }
    }
    (true, g as u32, probes_eval)
}

/// Inserts one key into its planned words, group by group through `ops`,
/// returning the summed traversal bits. On overflow every applied group
/// is rolled back by re-reading it through `group` (no allocation), and
/// [`FilterError::WordOverflow`] names the word (an index into `words`).
///
/// A rollback step that itself fails means the word no longer holds what
/// this call just wrote — damage, not overflow — and is reported as
/// [`FilterError::CorruptionDetected`] with the word's segment in
/// `words`, never a panic (which, under a lock, would poison it).
#[inline(always)]
pub fn insert_walk<'p, W: Word>(
    words: &mut [HcbfWord<W>],
    g: usize,
    group: impl Fn(usize) -> (usize, &'p [u32]),
    b1: u32,
    ops: &KernelOps,
) -> Result<u32, FilterError> {
    let mut traversal_bits = 0u32;
    for t in 0..g {
        let (word, probes) = group(t);
        match words[word].increment_all_routed(probes, b1, ops) {
            Ok(bits) => traversal_bits += bits,
            Err(_) => {
                for u in (0..t).rev() {
                    let (rw, rp) = group(u);
                    if words[rw].decrement_all_routed(rp, b1, ops).is_err() {
                        return Err(FilterError::CorruptionDetected {
                            segment: segment_of(rw),
                        });
                    }
                }
                return Err(FilterError::WordOverflow { word });
            }
        }
    }
    Ok(traversal_bits)
}

/// Removes one key from its planned words — the mirror of
/// [`insert_walk`]: if the element turns out absent every applied group
/// is rolled back and [`FilterError::NotPresent`] returned; a failed
/// rollback reports [`FilterError::CorruptionDetected`].
#[inline(always)]
pub fn remove_walk<'p, W: Word>(
    words: &mut [HcbfWord<W>],
    g: usize,
    group: impl Fn(usize) -> (usize, &'p [u32]),
    b1: u32,
    ops: &KernelOps,
) -> Result<u32, FilterError> {
    let mut traversal_bits = 0u32;
    for t in 0..g {
        let (word, probes) = group(t);
        match words[word].decrement_all_routed(probes, b1, ops) {
            Ok(bits) => traversal_bits += bits,
            Err(_) => {
                for u in (0..t).rev() {
                    let (rw, rp) = group(u);
                    if words[rw].increment_all_routed(rp, b1, ops).is_err() {
                        return Err(FilterError::CorruptionDetected {
                            segment: segment_of(rw),
                        });
                    }
                }
                return Err(FilterError::NotPresent);
            }
        }
    }
    Ok(traversal_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    type H64 = HcbfWord<u64>;
    type H16 = HcbfWord<u16>;

    #[test]
    fn empty_word_counters_are_zero() {
        let w = H64::new();
        for p in 0..40 {
            assert_eq!(w.counter(p, 40), 0);
            assert!(!w.query(p));
        }
        assert_eq!(w.used_bits(40), 40);
        assert!(w.check_invariants(40).is_ok());
    }

    #[test]
    fn single_increment_sets_membership() {
        let mut w = H64::new();
        let r = w.increment(5, 40).unwrap();
        assert_eq!(r.new_count, 1);
        assert!(w.query(5));
        assert_eq!(w.counter(5, 40), 1);
        assert_eq!(w.used_bits(40), 41);
        assert!(w.check_invariants(40).is_ok());
    }

    #[test]
    fn repeated_increments_deepen_the_chain() {
        let mut w = H64::new();
        for expect in 1..=6u32 {
            let r = w.increment(3, 40).unwrap();
            assert_eq!(r.new_count, expect);
            assert_eq!(w.counter(3, 40), expect);
            assert!(w.check_invariants(40).is_ok());
        }
        assert_eq!(w.total_count(), 6);
        assert_eq!(w.used_bits(40), 46);
    }

    #[test]
    fn decrement_mirrors_increment_exactly() {
        let mut w = H64::new();
        let positions = [0u32, 3, 3, 17, 39, 3, 17, 0, 0];
        let mut snapshots = vec![*w.raw()];
        for &p in &positions {
            w.increment(p, 40).unwrap();
            snapshots.push(*w.raw());
        }
        for &p in positions.iter().rev() {
            snapshots.pop();
            w.decrement(p, 40).unwrap();
            assert_eq!(
                w.raw(),
                snapshots.last().unwrap(),
                "mismatch after removing {p}"
            );
            assert!(w.check_invariants(40).is_ok());
        }
        assert!(w.is_empty());
    }

    #[test]
    fn counters_match_an_oracle_multiset() {
        let mut w = H64::new();
        let mut oracle = [0u32; 40];
        // Deterministic xorshift to mix increments and decrements.
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2000 {
            let p = (rand() % 40) as u32;
            if rand() % 3 == 0 && oracle[p as usize] > 0 {
                w.decrement(p, 40).unwrap();
                oracle[p as usize] -= 1;
            } else if w.remaining_capacity(40) > 0 {
                w.increment(p, 40).unwrap();
                oracle[p as usize] += 1;
            }
            // Occasionally drain to keep capacity available.
            if w.remaining_capacity(40) == 0 {
                for p in 0..40u32 {
                    while oracle[p as usize] > 0 {
                        w.decrement(p, 40).unwrap();
                        oracle[p as usize] -= 1;
                    }
                }
            }
        }
        for p in 0..40u32 {
            assert_eq!(w.counter(p, 40), oracle[p as usize], "counter {p}");
        }
        assert!(w.check_invariants(40).is_ok());
    }

    #[test]
    fn paper_fig3_example() {
        // Fig. 3(b): w = 16, k = 3, n_max = 2 ⇒ b1 = 16 − 6 = 10.
        // x0 hashes to first-level bits {0, 2, 4}; x5 to {4, 6, 8}.
        let b1 = 10;
        let mut w = H16::new();
        for p in [0u32, 2, 4] {
            w.increment(p, b1).unwrap();
        }
        for p in [4u32, 6, 8] {
            w.increment(p, b1).unwrap();
        }
        // Counters: positions 0,2,6,8 → 1; position 4 → 2.
        assert_eq!(w.counter(0, b1), 1);
        assert_eq!(w.counter(2, b1), 1);
        assert_eq!(w.counter(4, b1), 2);
        assert_eq!(w.counter(6, b1), 1);
        assert_eq!(w.counter(8, b1), 1);
        // "The improved HCBF can fill the whole word and there is no
        //  remainder": 10 + 6 increments = 16 bits used.
        assert_eq!(w.used_bits(b1), 16);
        assert_eq!(w.remaining_capacity(b1), 0);
        // Level sizes: v1 = 10, v2 = popcount(v1) = 5, v3 = 1.
        assert_eq!(w.level_sizes(b1), vec![10, 5, 1]);
        assert!(w.check_invariants(b1).is_ok());
    }

    #[test]
    fn overflow_is_detected_and_harmless() {
        let b1 = 10;
        let mut w = H16::new();
        for _ in 0..6 {
            w.increment(0, b1).unwrap();
        }
        let before = *w.raw();
        assert_eq!(w.increment(1, b1), Err(WordError::Overflow));
        assert_eq!(*w.raw(), before, "failed increment must not mutate");
        assert_eq!(w.counter(0, b1), 6);
    }

    #[test]
    fn word_errors_map_to_filter_errors_with_real_index() {
        assert_eq!(
            WordError::Overflow.at(17),
            FilterError::WordOverflow { word: 17 }
        );
        assert_eq!(WordError::ZeroCounter.at(3), FilterError::NotPresent);
    }

    #[test]
    fn decrement_of_zero_counter_errors() {
        let mut w = H64::new();
        assert_eq!(w.decrement(7, 40), Err(WordError::ZeroCounter));
        w.increment(6, 40).unwrap();
        assert_eq!(w.decrement(7, 40), Err(WordError::ZeroCounter));
        assert_eq!(w.counter(6, 40), 1);
    }

    #[test]
    fn deep_single_chain_uses_whole_hierarchy() {
        // All capacity on one counter: counter = w − b1.
        let b1 = 40u32;
        let mut w = H64::new();
        for i in 1..=24u32 {
            assert_eq!(w.increment(9, b1).unwrap().new_count, i);
        }
        assert!(w.increment(9, b1).is_err());
        assert_eq!(w.counter(9, b1), 24);
        assert_eq!(w.level_sizes(b1).len(), 25); // v1 + 24 unary levels
        assert!(w.check_invariants(b1).is_ok());
    }

    #[test]
    fn traversal_bits_grow_with_depth() {
        let mut w = H64::new();
        let r1 = w.increment(0, 40).unwrap();
        assert_eq!(r1.traversal_bits, 0); // landed at level 1
        w.increment(1, 40).unwrap();
        w.increment(2, 40).unwrap();
        let r2 = w.increment(0, 40).unwrap(); // descends into level 2 (size 3)
        assert_eq!(r2.new_count, 2);
        assert_eq!(r2.traversal_bits, 2); // log2(3) → 2 bits
    }

    #[test]
    fn interleaved_positions_keep_sibling_counters_intact() {
        let mut w = H64::new();
        for p in 0..10u32 {
            w.increment(p, 40).unwrap();
        }
        for _ in 0..5 {
            w.increment(4, 40).unwrap();
        }
        for p in 0..10u32 {
            let expect = if p == 4 { 6 } else { 1 };
            assert_eq!(w.counter(p, 40), expect, "counter {p}");
        }
        w.decrement(4, 40).unwrap();
        for p in 0..10u32 {
            let expect = if p == 4 { 5 } else { 1 };
            assert_eq!(w.counter(p, 40), expect, "counter {p} after decrement");
        }
    }

    #[test]
    fn query_all_short_circuits_like_scalar() {
        let mut w = H64::new();
        for p in [2u32, 4, 9] {
            w.increment(p, 40).unwrap();
        }
        assert_eq!(w.query_all(&[2, 4, 9]), (true, 3));
        assert_eq!(w.query_all(&[2, 5, 9]), (false, 2)); // stops at the zero
        assert_eq!(w.query_all(&[7]), (false, 1));
        assert_eq!(w.query_all(&[]), (true, 0));
    }

    #[test]
    fn routed_walks_match_reference_walks_under_both_kernels() {
        // Both bundles must yield bit-identical words and reports to the
        // reference walks, step for step.
        for ops in [KernelOps::portable(), KernelOps::accelerated()] {
            let mut reference = H64::new();
            let mut routed = H64::new();
            let mut s = 0x9e37_79b9_7f4a_7c15u64;
            let mut rand = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for _ in 0..3_000 {
                let p = (rand() % 40) as u32;
                if rand() % 3 == 0 {
                    let a = reference.decrement_reference(p, 40);
                    let b = routed.decrement_routed(p, 40, &ops);
                    assert_eq!(a, b);
                } else if reference.remaining_capacity(40) > 0 {
                    let a = reference.increment_reference(p, 40);
                    let b = routed.increment_routed(p, 40, &ops);
                    assert_eq!(a, b);
                }
                assert_eq!(reference.raw(), routed.raw());
            }
        }
    }

    #[test]
    fn portable_and_accelerated_batches_agree() {
        let probes = [3u32, 3, 17, 0, 9];
        let (portable, accelerated) = (KernelOps::portable(), KernelOps::accelerated());
        let mut plain = H64::new();
        let mut routed = H64::new();
        assert_eq!(
            plain.increment_all_routed(&probes, 40, &portable),
            routed.increment_all_routed(&probes, 40, &accelerated)
        );
        assert_eq!(plain.raw(), routed.raw());
        assert_eq!(
            plain.decrement_all_routed(&probes, 40, &portable),
            routed.decrement_all_routed(&probes, 40, &accelerated)
        );
        assert_eq!(plain.raw(), routed.raw());
        // Rollback on failure is routed too and leaves the word intact.
        let mut w = H16::new();
        for _ in 0..4 {
            w.increment(0, 10).unwrap();
        }
        let before = *w.raw();
        for ops in [portable, accelerated] {
            assert_eq!(
                w.increment_all_routed(&[1, 2, 3], 10, &ops),
                Err(WordError::Overflow)
            );
            assert_eq!(*w.raw(), before);
        }
    }

    #[test]
    fn increment_all_matches_sequential_increments() {
        let mut batch = H64::new();
        let mut scalar = H64::new();
        let probes = [3u32, 3, 17, 0];
        let mut expect_bits = 0;
        for &p in &probes {
            expect_bits += scalar.increment(p, 40).unwrap().traversal_bits;
        }
        assert_eq!(batch.increment_all(&probes, 40).unwrap(), expect_bits);
        assert_eq!(batch.raw(), scalar.raw());
    }

    #[test]
    fn increment_all_rolls_back_on_overflow() {
        let b1 = 10;
        let mut w = H16::new();
        for _ in 0..4 {
            w.increment(0, b1).unwrap();
        }
        let before = *w.raw();
        // Capacity is 6; 3 more increments cannot all fit.
        assert_eq!(w.increment_all(&[1, 2, 3], b1), Err(WordError::Overflow));
        assert_eq!(*w.raw(), before, "failed batch must not mutate");
    }

    #[test]
    fn decrement_all_mirrors_and_rolls_back() {
        let mut w = H64::new();
        for p in [5u32, 5, 8] {
            w.increment(p, 40).unwrap();
        }
        let before = *w.raw();
        // Position 9 is empty: the whole batch must be undone.
        assert_eq!(w.decrement_all(&[5, 8, 9], 40), Err(WordError::ZeroCounter));
        assert_eq!(*w.raw(), before);
        // A valid batch drains exactly the inserted multiset.
        w.decrement_all(&[5, 5, 8], 40).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn works_at_u128_width() {
        let mut w: HcbfWord<u128> = HcbfWord::new();
        let b1 = 100; // capacity: 128 − 100 = 28 increments
        for p in (0..100).step_by(10) {
            w.increment(p, b1).unwrap();
            w.increment(p, b1).unwrap();
        }
        for p in (0..100).step_by(10) {
            assert_eq!(w.counter(p, b1), 2);
        }
        assert!(w.check_invariants(b1).is_ok());
    }
}
