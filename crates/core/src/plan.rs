//! Probe planning: the hash stage of the batch pipeline.
//!
//! Scalar filter operations interleave hashing and probing per key. The
//! batch pipeline splits them: the hash stage materialises every target
//! word and every in-word position up front, so the probe stage can stream
//! through independent memory accesses without a hash computation stalling
//! between them.
//!
//! Two shapes cover every filter in the workspace:
//!
//! * **partitioned** — the §III layout shared by BF-g, PCBF-g and MPCBF-g:
//!   `g` words out of `l`, and `k` in-word positions spread over those
//!   words by `group_split`, all cut from disjoint fields of the key's
//!   digest by the one bit-field planner below.
//! * **flat** — the classic unpartitioned layout of Bloom/CBF: one
//!   unsalted double-hashing stream over the whole array.
//!
//! # The bit-field planner
//!
//! A partitioned plan needs `g·⌈log2 l⌉ + k·⌈log2 b1⌉` address bits, the
//! access bandwidth of §IV (about 33 bits per metered MPCBF-1 operation
//! at the paper's Table II shape). The 128-bit digest holds that several
//! times over, so the planner cuts the plan straight out of the digest
//! instead of re-mixing it:
//!
//! ```text
//!  bit 127      112 111                      64 63                           0
//!     ┌──────────┬──────────────────────────┬──────────────────────────────┐
//!     │ not read │ slot field (48 bits)     │ word field (64 bits)         │
//!     └──────────┴──────────────────────────┴──────────────────────────────┘
//!       shard      s_1 s_2 … s_k               w_1 w_2 … w_g
//!       selector   base-b1 digits, high first  base-l digits, high first
//! ```
//!
//! Each field is a uniform fraction read one digit at a time by
//! multiply-shift, the way `fast_range` reduces one value: with the field
//! `f` of width `n`, `p = f·range`, the digit is `p >> n` and `f` becomes
//! `p mod 2^n`. So the first word is exactly `fast_range(bits 0..64, l)`
//! and each further word reuses the low half of the product; the slots
//! are the successive base-`b1` digits of bits `64..112` read as a 48-bit
//! fraction. A digit spends `⌈log2 range⌉` of its field's bits. Only a
//! shape that needs more bits than a field holds draws more: the field
//! refills with 64 fresh bits from one `splitmix64` of the 112 readable
//! bits, each field from its own extension stream. Shapes with up to
//! three words of up to `2^21` and eight slots of `b1 ≤ 64` never
//! extend.
//!
//! Disjoint fields keep the groups' hash functions independent, which is
//! what keeps a partitioned filter at the standard false-positive rate
//! (Almeida, *A Case for Partitioned Bloom Filters*, arXiv 2009.11789).
//!
//! **The planner never reads digest bits ≥ [`PLAN_DIGEST_BITS`] (112).**
//! `ShardedMpcbf` routes keys to shards on those bits and masks them to
//! zero, so the shard choice and the placement inside the shard stay
//! independent.
//!
//! # Containers
//!
//! * [`ProbePlan`] — one key's plan, for the single-key planned paths
//!   (`Mpcbf`'s and the concurrent filters' scalar operations). It holds
//!   up to 16 entries inline, so a scalar operation initialises 64 bytes
//!   of plan, not a worst-case `k = 64` array.
//! * [`PlanBuffer`] — a whole batch's plans in compact structure-of-arrays
//!   storage that callers hold across batches. Per key it stores exactly
//!   `g` word indices and `k` slots (the group layout is uniform across
//!   keys, so it is stored once), and a reused buffer performs **zero
//!   allocations** after warm-up.
//!
//! Plans cost pure hashing; the paper's access-bandwidth metering charges
//! only *evaluated* address bits, so planning eagerly does not change any
//! reported [`OpCost`](crate::OpCost) — the probe stage replays the plan
//! in exactly the scalar order, including query short-circuiting.

use mpcbf_hash::mix::{bits_for, splitmix64};
use mpcbf_hash::DoubleHasher;

/// Upper bound on probe groups per plan (`g ≤ k ≤ 64`).
pub const MAX_GROUPS: usize = 64;

/// Upper bound on total probes per plan (`k ≤ 64`).
pub const MAX_PROBES: usize = 64;

/// Digest bits the partitioned planner may read: bits `0..112`. The bits
/// above are left to shard routing (see the module docs).
pub const PLAN_DIGEST_BITS: u32 = 112;

/// Width of the slot field, digest bits `64..PLAN_DIGEST_BITS`.
const SLOT_FIELD_BITS: u32 = PLAN_DIGEST_BITS - 64;

/// Odd increment between extension draws (the SplitMix64 gamma). The word
/// field draws at even multiples of it and the slot field at odd ones, so
/// the two extension streams never share a state.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bits per slot in a packed one-group plan ([`Planner::packed`]): 64-bit
/// HCBF words have `b1 ≤ 63` slots.
pub(crate) const PACKED_SLOT_BITS: u32 = 6;

/// Batches smaller than this degrade to the scalar path.
///
/// Planning a batch costs a pass over the keys before any probing starts;
/// for one- or two-key "batches" that staging overhead is pure loss (the
/// measured batch-1 query ran at 0.51x scalar before this threshold
/// existed). Four keys is where the pipelined pass starts winning on the
/// bench harness; below it, every filter's `_with` override falls back to
/// the scalar loop the traits' defaults run — which is observationally
/// identical by the batch contract.
pub const SMALL_BATCH: usize = 4;

/// The bit-field planner for one partitioned shape: `g` words out of `l`
/// and `k` slots out of `inner_range` per key (see the module docs).
///
/// Every partitioned placement in the crate comes from
/// [`Planner::digits`]: [`ProbePlan`], [`PlanBuffer`] and the bulk
/// builder's packed entries through [`Planner::fill`], the scalar walks of
/// `BfG` and `Pcbf` and the bulk builder's admitted staging through
/// [`Planner::walk`]. Filters and stages build their planner once, with
/// their shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planner {
    l: u64,
    inner_range: u64,
    k: u32,
    g: u32,
    word_bits: u32,
    slot_bits: u32,
}

impl Planner {
    /// The planner for one shape.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64`, `g == 0`, `g > k`, or either range is
    /// empty or above `2^32` (plan entries are `u32`).
    #[inline]
    pub(crate) fn new(l: u64, k: u32, g: u32, inner_range: u64) -> Self {
        assert!(k >= 1 && k <= MAX_PROBES as u32, "k = {k} out of 1..=64");
        assert!(g >= 1 && g <= k, "g = {g} out of 1..=k");
        assert!((1..=1 << 32).contains(&l), "word count {l} out of 1..=2^32");
        assert!(
            (1..=1 << 32).contains(&inner_range),
            "inner range {inner_range} out of 1..=2^32"
        );
        Planner {
            l,
            inner_range,
            k,
            g,
            word_bits: bits_for(l),
            slot_bits: bits_for(inner_range),
        }
    }

    /// Words in the array (`l`).
    #[inline]
    pub(crate) fn l(&self) -> u64 {
        self.l
    }

    /// Probes per key (`k`).
    #[inline]
    pub(crate) fn k(&self) -> u32 {
        self.k
    }

    /// Words per key (`g`).
    #[inline]
    pub(crate) fn g(&self) -> u32 {
        self.g
    }

    /// Slots per word.
    #[inline]
    pub(crate) fn inner_range(&self) -> u64 {
        self.inner_range
    }

    /// Address bits one word index spends (`⌈log2 l⌉`), as metered.
    #[inline]
    pub(crate) fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Address bits one slot spends (`⌈log2 inner_range⌉`), as metered.
    #[inline]
    pub(crate) fn slot_bits(&self) -> u32 {
        self.slot_bits
    }

    /// Cuts a digest into its two digit streams: the `g` word indices and
    /// the `k` slots, in scalar evaluation order (group `t` owns the next
    /// [`group_split`] slots). Reads only digest bits below
    /// [`PLAN_DIGEST_BITS`].
    #[inline(always)]
    fn digits(&self, digest: u128) -> (Digits, Digits) {
        let words = digest as u64;
        let slots = (digest >> 64) as u64 & ((1 << SLOT_FIELD_BITS) - 1);
        let ext = words ^ (slots << (64 - SLOT_FIELD_BITS));
        (
            Digits {
                frac: words,
                bits: 64,
                need: self.word_bits,
                range: self.l,
                ext,
            },
            Digits {
                frac: slots << (64 - SLOT_FIELD_BITS),
                bits: SLOT_FIELD_BITS,
                need: self.slot_bits,
                range: self.inner_range,
                ext: ext.wrapping_add(GAMMA),
            },
        )
    }

    /// Plans a digest into `words` (`g` entries) and `slots` (`k`).
    #[inline(always)]
    pub(crate) fn fill(&self, digest: u128, words: &mut [u32], slots: &mut [u32]) {
        debug_assert!(words.len() == self.g as usize && slots.len() == self.k as usize);
        let (mut word_digits, mut slot_digits) = self.digits(digest);
        words.iter_mut().for_each(|w| *w = word_digits.next_digit());
        slots.iter_mut().for_each(|s| *s = slot_digits.next_digit());
    }

    /// Walks a digest's plan in scalar evaluation order, calling
    /// `visit(group, word, slot)` for each probe until it returns `false`
    /// (a query's short-circuit). Returns the words and slots evaluated,
    /// which the scalar walks meter.
    #[inline(always)]
    pub(crate) fn walk(
        &self,
        digest: u128,
        mut visit: impl FnMut(u32, u32, u32) -> bool,
    ) -> (u32, u32) {
        let (mut word_digits, mut slot_digits) = self.digits(digest);
        let (base, rem) = group_split(self.k, self.g);
        let (mut words_eval, mut slots_eval) = (0, 0);
        for t in 0..self.g {
            let word = word_digits.next_digit();
            words_eval += 1;
            for _ in 0..base + u32::from(t < rem) {
                slots_eval += 1;
                if !visit(t, word, slot_digits.next_digit()) {
                    return (words_eval, slots_eval);
                }
            }
        }
        (words_eval, slots_eval)
    }

    /// A one-group plan packed into one `u64`: the word index above `k`
    /// slots of [`PACKED_SLOT_BITS`] each, slot `j` at bits `6j..6j + 6`
    /// — the bulk builder's staging entry. The caller checks that the
    /// shape fits (`g == 1`, `inner_range ≤ 64`, `6k + ⌈log2 l⌉ ≤ 64`,
    /// hence `k ≤ 10`).
    #[inline(always)]
    pub(crate) fn packed(&self, digest: u128) -> u64 {
        debug_assert!(self.g == 1 && self.k <= 10);
        debug_assert!(self.inner_range <= 1 << PACKED_SLOT_BITS);
        let (mut word, mut slots) = ([0u32; 1], [0u32; 10]);
        let slots = &mut slots[..self.k as usize];
        self.fill(digest, &mut word, slots);
        let mut entry = u64::from(word[0]) << (PACKED_SLOT_BITS * self.k);
        for (j, &slot) in slots.iter().enumerate() {
            entry |= u64::from(slot) << (PACKED_SLOT_BITS * j as u32);
        }
        entry
    }
}

/// One field's digit stream: successive base-`range` digits of a uniform
/// fraction, most significant first, refilled from the field's extension
/// stream when its bits run out.
#[derive(Debug, Clone, Copy)]
struct Digits {
    /// The unread fraction, aligned to bit 63.
    frac: u64,
    /// Bits of `frac` not yet spent on digits.
    bits: u32,
    /// Bits one digit spends: `⌈log2 range⌉`.
    need: u32,
    range: u64,
    /// Extension stream state: the next refill is `splitmix64(ext)`.
    ext: u64,
}

impl Digits {
    /// The next digit, in `[0, range)`: one multiply, the high half is
    /// the digit and the low half the rest of the field.
    #[inline(always)]
    fn next_digit(&mut self) -> u32 {
        if self.bits < self.need {
            self.frac = splitmix64(self.ext);
            self.ext = self.ext.wrapping_add(GAMMA.wrapping_mul(2));
            self.bits = 64;
        }
        self.bits -= self.need;
        let p = u128::from(self.frac) * u128::from(self.range);
        self.frac = p as u64;
        (p >> 64) as u32
    }
}

/// How `k` probes spread over `g` groups: every group takes `base`
/// probes and the first `rem` groups one more, so the first `k mod g`
/// groups get `ceil(k/g)` and the rest `floor(k/g)` (§III.C: "as k might
/// be not divisible by g, we might assign less value to the last word" —
/// e.g. k = 3, g = 2 ⇒ [2, 1]). One group, the common shape, skips the
/// division.
#[inline]
pub(crate) fn group_split(k: u32, g: u32) -> (u32, u32) {
    if g == 1 {
        (k, 0)
    } else {
        (k / g, k % g)
    }
}

/// Plan entries a [`ProbePlan`] holds inline (`g` words then `k` slots):
/// every shape with `g + k ≤ 16`, which covers `k ≤ 8` at any `g`.
const INLINE_ENTRIES: usize = 16;

/// The precomputed probe targets of one key: the hash stage of the batch
/// pipeline, separated from the probe stage.
///
/// Batch paths do **not** build one per key — they fill a [`PlanBuffer`]
/// — but the single-key planned paths (`Mpcbf`'s and the sharded
/// filter's scalar operations, the lock-free filter's scalar CAS loops)
/// use it. Plans of up to 16 entries live inline; larger shapes keep
/// theirs on the heap.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// The `g` target words, then the `k` in-word positions in scalar
    /// evaluation order (shapes with `g + k ≤ INLINE_ENTRIES`).
    inline: [u32; INLINE_ENTRIES],
    /// The same entries for larger shapes; empty otherwise.
    spill: Vec<u32>,
    g: u8,
    k: u8,
    /// The group layout (`group_split`): every group takes `base` probes,
    /// the first `rem` groups one more.
    base: u8,
    rem: u8,
}

/// Distinct values in `words` — the fused batch paths' replacement for a
/// per-key `WordTouches` tracker: same dedup semantics (a plan has at
/// most 64 groups, so the scalar tracker never saturates either), but
/// computed by an O(g²) scan over the plan's word slice instead of
/// maintaining a 520-byte zero-initialised tracker per key.
#[inline]
pub(crate) fn distinct_words(words: &[u32]) -> u32 {
    let mut n = 0u32;
    for (i, &w) in words.iter().enumerate() {
        if !words[..i].contains(&w) {
            n += 1;
        }
    }
    n
}

impl ProbePlan {
    /// Plans a key for the partitioned layout: `g` words in `[0, l)` and
    /// `k` in-word positions in `[0, inner_range)`, cut from the digest by
    /// the bit-field planner (see the module docs), group `t` taking
    /// `group_split` positions.
    ///
    /// This is bit-for-bit the placement of the scalar walks in `BfG` and
    /// `Pcbf` and of [`PlanBuffer::plan_partitioned`]; `Mpcbf` and the
    /// concurrent filters plan every scalar operation through it.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64`, `g == 0`, `g > k`, or either range is
    /// empty or above `2^32`.
    #[inline]
    pub fn partitioned(digest: u128, l: u64, k: u32, g: u32, inner_range: u64) -> Self {
        let planner = Planner::new(l, k, g, inner_range);
        let (base, rem) = group_split(k, g);
        let mut plan = ProbePlan {
            inline: [0; INLINE_ENTRIES],
            spill: Vec::new(),
            g: g as u8,
            k: k as u8,
            base: base as u8,
            rem: rem as u8,
        };
        let n = (g + k) as usize;
        let entries = if n <= INLINE_ENTRIES {
            &mut plan.inline[..n]
        } else {
            plan.spill.resize(n, 0);
            &mut plan.spill[..]
        };
        let (words, slots) = entries.split_at_mut(g as usize);
        planner.fill(digest, words, slots);
        plan
    }

    /// The plan's `g` words followed by its `k` slots.
    #[inline]
    fn entries(&self) -> &[u32] {
        let n = self.g as usize + self.k as usize;
        if n <= INLINE_ENTRIES {
            &self.inline[..n]
        } else {
            &self.spill
        }
    }

    /// Number of probe groups (`g`).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.g as usize
    }

    /// Total probe count (`k`).
    #[inline]
    pub fn probe_count(&self) -> u32 {
        u32::from(self.k)
    }

    /// All planned in-word positions in scalar evaluation order,
    /// concatenated group by group.
    #[inline]
    pub fn probes(&self) -> &[u32] {
        &self.entries()[self.g as usize..]
    }

    /// The target words, one per group.
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.entries()[..self.g as usize]
    }

    /// Group `t` as `(word, in-word probes)` — the indexed twin of
    /// [`PlanBuffer::group`], for walks that revisit earlier groups on
    /// rollback.
    #[inline]
    pub fn group(&self, t: usize) -> (usize, &[u32]) {
        debug_assert!(t < self.g as usize);
        let (base, rem) = (self.base as usize, self.rem as usize);
        let start = self.g as usize + t * base + t.min(rem);
        let len = base + usize::from(t < rem);
        let entries = self.entries();
        (entries[t] as usize, &entries[start..start + len])
    }

    /// Iterates the plan's groups as `(word, in-word probes)`, in scalar
    /// evaluation order.
    #[inline]
    pub fn groups(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.g as usize).map(move |t| self.group(t))
    }
}

/// Reusable, allocation-free storage for a whole batch's probe plans.
///
/// Structure-of-arrays layout: one `u32` per planned word and one per
/// planned slot, contiguous across keys. Because every key of a batch
/// shares the same `(k, g)` shape, the group layout (`group_split`
/// lengths and their prefix offsets) is stored once, not per key.
///
/// Callers hold a `PlanBuffer` across batches — each `plan_*` call clears
/// and refills it, so after the first batch at a given size the fill does
/// no allocation at all. The `_with` batch methods on
/// [`Filter`](crate::Filter) / [`CountingFilter`](crate::CountingFilter)
/// take the buffer explicitly; the plain `_batch_cost` entry points are
/// `_with` over a fresh buffer (an empty buffer allocates nothing until
/// its first fused batch).
#[derive(Debug, Clone)]
pub struct PlanBuffer {
    /// `g` target words per key, contiguous (empty for flat plans).
    words: Vec<u32>,
    /// `k` slots per key, contiguous, in scalar evaluation order.
    slots: Vec<u32>,
    /// Probe count per group (uniform across keys).
    group_len: [u8; MAX_GROUPS],
    /// Prefix offsets of each group inside a key's slot run.
    group_off: [u8; MAX_GROUPS],
    g: u32,
    k: u32,
    keys: usize,
}

impl PlanBuffer {
    /// An empty buffer; the first `plan_*` call sizes it.
    pub fn new() -> Self {
        PlanBuffer {
            words: Vec::new(),
            slots: Vec::new(),
            group_len: [0; MAX_GROUPS],
            group_off: [0; MAX_GROUPS],
            g: 0,
            k: 0,
            keys: 0,
        }
    }

    /// Number of keys planned by the last `plan_*` call.
    #[inline]
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// True when the buffer holds flat (ungrouped) plans.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.g == 0
    }

    /// Groups per key (`g`; 0 for flat plans).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.g as usize
    }

    /// Probes per key (`k`).
    #[inline]
    pub fn probe_count(&self) -> u32 {
        self.k
    }

    /// Drops all planned keys, keeping the storage.
    pub fn clear(&mut self) {
        self.words.clear();
        self.slots.clear();
        self.keys = 0;
    }

    /// Plans a batch for the partitioned layout — the placement of
    /// [`ProbePlan::partitioned`], one entry per digest, reusing storage.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64`, `g == 0`, `g > k`, or either range is
    /// empty or above `2^32`.
    pub fn plan_partitioned(
        &mut self,
        digests: impl Iterator<Item = u128>,
        l: u64,
        k: u32,
        g: u32,
        inner_range: u64,
    ) {
        let planner = Planner::new(l, k, g, inner_range);
        self.clear();
        self.g = g;
        self.k = k;
        let (base, rem) = group_split(k, g);
        let mut off = 0u8;
        for t in 0..g {
            let k_t = (base + u32::from(t < rem)) as u8;
            self.group_len[t as usize] = k_t;
            self.group_off[t as usize] = off;
            off += k_t;
        }
        let (g, k) = (g as usize, k as usize);
        let promised = digests.size_hint().0;
        self.words.reserve(promised * g);
        self.slots.reserve(promised * k);
        for digest in digests {
            // Exact-size extends: one capacity check per key, no zero fill.
            let (mut word_digits, mut slot_digits) = planner.digits(digest);
            self.words.extend((0..g).map(|_| word_digits.next_digit()));
            self.slots.extend((0..k).map(|_| slot_digits.next_digit()));
            self.keys += 1;
        }
    }

    /// Plans a batch for the flat layout: `k` positions in `[0, range)`
    /// per digest from the unsalted [`DoubleHasher`] stream — the hashing
    /// of `BloomFilter` and `Cbf` — reusing storage. Flat plans carry no
    /// group bookkeeping at all: consumers walk
    /// [`PlanBuffer::slots_of`] directly.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64` or `range > u32::MAX + 1`.
    pub fn plan_flat(&mut self, digests: impl Iterator<Item = u128>, k: u32, range: u64) {
        assert!(k >= 1 && k <= MAX_PROBES as u32, "k = {k} out of 1..=64");
        assert!(
            range <= 1 << 32,
            "flat plan range {range} exceeds u32 positions"
        );
        self.clear();
        self.g = 0;
        self.k = k;
        if let (_, Some(upper)) = digests.size_hint() {
            self.slots.reserve(upper * k as usize);
        }
        for digest in digests {
            let mut stream = DoubleHasher::new(digest, range);
            for _ in 0..k {
                self.slots.push(stream.next_index() as u32);
            }
            self.keys += 1;
        }
    }

    /// Key `i`'s `k` slots in scalar evaluation order.
    #[inline]
    pub fn slots_of(&self, i: usize) -> &[u32] {
        let k = self.k as usize;
        &self.slots[i * k..(i + 1) * k]
    }

    /// Key `i`'s `g` target words (empty for flat plans).
    #[inline]
    pub fn words_of(&self, i: usize) -> &[u32] {
        let g = self.g as usize;
        &self.words[i * g..(i + 1) * g]
    }

    /// Key `i`'s group `t` as `(word, in-word probes)`.
    #[inline]
    pub fn group(&self, i: usize, t: usize) -> (usize, &[u32]) {
        debug_assert!(t < self.g as usize);
        let word = self.words[i * self.g as usize + t] as usize;
        let base = i * self.k as usize + self.group_off[t] as usize;
        (word, &self.slots[base..base + self.group_len[t] as usize])
    }

    /// Iterates key `i`'s groups as `(word, in-word probes)`, in scalar
    /// evaluation order.
    #[inline]
    pub fn groups_of(&self, i: usize) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.g as usize).map(move |t| self.group(i, t))
    }
}

impl Default for PlanBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_hash::mix::fast_range;
    use mpcbf_hash::{Hasher128, Murmur3};

    fn digest(key: u64) -> u128 {
        Murmur3::hash128(7, &key.to_le_bytes())
    }

    /// Pearson's chi-square statistic of `counts` against a uniform
    /// expectation.
    fn chi_square(counts: &[u64]) -> f64 {
        let n: u64 = counts.iter().sum();
        let expect = n as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expect).powi(2) / expect)
            .sum()
    }

    /// A fixed bound six standard deviations above the statistic's mean
    /// (`df`, variance `2·df`): a uniform digit stream stays under it.
    fn chi_square_bound(buckets: usize) -> f64 {
        let df = (buckets - 1) as f64;
        df + 6.0 * (2.0 * df).sqrt()
    }

    #[test]
    fn layout_is_the_documented_bit_fields() {
        // First word: fast_range of bits 0..64. Power-of-two slots: the
        // successive 5-bit fields of bits 64..112, high field first.
        let (l, k, g, b1) = (1000u64, 3u32, 1u32, 32u64);
        for key in 0..200u64 {
            let d = digest(key);
            let plan = ProbePlan::partitioned(d, l, k, g, b1);
            assert_eq!(u64::from(plan.words()[0]), fast_range(d as u64, l));
            let field = (d >> 64) as u64 & ((1 << 48) - 1);
            for (j, &slot) in plan.probes().iter().enumerate() {
                assert_eq!(u64::from(slot), (field >> (43 - 5 * j)) & 31, "slot {j}");
            }
        }
    }

    #[test]
    fn digest_bits_above_the_plan_field_never_move_a_plan() {
        // Compact shapes and shapes on the extension path alike: the
        // shard-selector bits 112..128 must not influence placement.
        let shapes = [
            (1u64 << 17, 3u32, 1u32, 37u64),
            (4096, 7, 3, 40),
            (1_000_003, 64, 1, 63),
            (12_345, 64, 64, 1 << 20),
        ];
        for (l, k, g, b1) in shapes {
            for key in 0..50u64 {
                let d = digest(key);
                let base = ProbePlan::partitioned(d, l, k, g, b1);
                for bit in PLAN_DIGEST_BITS..128 {
                    let flipped = ProbePlan::partitioned(d ^ (1u128 << bit), l, k, g, b1);
                    assert_eq!(base.words(), flipped.words(), "bit {bit}");
                    assert_eq!(base.probes(), flipped.probes(), "bit {bit}");
                }
            }
        }
    }

    #[test]
    fn every_digit_position_is_uniform() {
        // Per digit position (each of the g words, each of the k slots),
        // a histogram over 40k keys stays within the chi-square bound —
        // for power-of-two and other ranges, with g > 1 so later words
        // come from the reused low half of the product.
        const KEYS: u64 = 40_000;
        for (l, k, g, b1) in [(1024u64, 6u32, 3u32, 32u64), (1000, 7, 3, 37)] {
            let mut words = vec![vec![0u64; l as usize]; g as usize];
            let mut slots = vec![vec![0u64; b1 as usize]; k as usize];
            for key in 0..KEYS {
                let plan = ProbePlan::partitioned(digest(key), l, k, g, b1);
                for (t, &w) in plan.words().iter().enumerate() {
                    words[t][w as usize] += 1;
                }
                for (j, &s) in plan.probes().iter().enumerate() {
                    slots[j][s as usize] += 1;
                }
            }
            for (t, hist) in words.iter().enumerate() {
                let chi = chi_square(hist);
                assert!(
                    chi < chi_square_bound(hist.len()),
                    "l={l} word {t}: χ² {chi:.0}"
                );
            }
            for (j, hist) in slots.iter().enumerate() {
                let chi = chi_square(hist);
                assert!(
                    chi < chi_square_bound(hist.len()),
                    "b1={b1} slot {j}: χ² {chi:.0}"
                );
            }
        }
    }

    #[test]
    fn wide_shapes_extend_and_stay_in_range() {
        // k = 64 slots of 20 bits need 1280 bits, far beyond the 48-bit
        // slot field; 64 words of 24 bits exceed the 64-bit word field.
        // Every index stays in range and the extension digits are as
        // uniform as the field's own (a broken refill would pile them up).
        let (l, k, g, b1) = (12_345_678u64, 64u32, 64u32, 1u64 << 20);
        let planner = Planner::new(l, k, g, b1);
        assert!(k * planner.slot_bits > SLOT_FIELD_BITS);
        assert!(g * planner.word_bits > 64);
        let mut late_slots = [0u64; 64];
        let mut late_words = [0u64; 64];
        for key in 0..4_000u64 {
            let plan = ProbePlan::partitioned(digest(key), l, k, g, b1);
            assert!(plan.words().iter().all(|&w| u64::from(w) < l));
            assert!(plan.probes().iter().all(|&s| u64::from(s) < b1));
            for &s in &plan.probes()[3..] {
                late_slots[(s >> 14) as usize] += 1;
            }
            for &w in &plan.words()[3..] {
                late_words[(u64::from(w) * 64 / l) as usize] += 1;
            }
        }
        assert!(chi_square(&late_slots) < chi_square_bound(64));
        assert!(chi_square(&late_words) < chi_square_bound(64));
    }

    #[test]
    fn packed_entry_is_the_one_group_plan() {
        let (l, k, b1) = (1u64 << 20, 5u32, 43u64);
        let planner = Planner::new(l, k, 1, b1);
        for key in 0..200u64 {
            let plan = ProbePlan::partitioned(digest(key), l, k, 1, b1);
            let entry = planner.packed(digest(key));
            assert_eq!(entry >> (PACKED_SLOT_BITS * k), u64::from(plan.words()[0]));
            for (j, &slot) in plan.probes().iter().enumerate() {
                assert_eq!(
                    (entry >> (PACKED_SLOT_BITS * j as u32)) & 63,
                    u64::from(slot)
                );
            }
        }
    }

    /// Probes of group `t` under `group_split(k, g)`.
    fn group_len(k: u32, g: u32, t: u32) -> u32 {
        let (base, rem) = group_split(k, g);
        base + u32::from(t < rem)
    }

    #[test]
    fn group_split_partitions_k() {
        for k in 1..=12u32 {
            for g in 1..=k.min(8) {
                let total: u32 = (0..g).map(|t| group_len(k, g, t)).sum();
                assert_eq!(total, k, "k={k} g={g}");
                // Non-increasing across groups.
                for t in 1..g {
                    assert!(group_len(k, g, t - 1) >= group_len(k, g, t));
                }
            }
        }
    }

    #[test]
    fn group_split_paper_example() {
        // "in MPCBF-2 with k=3, we allocate two hash functions to the
        //  first word, and one to the second word."
        assert_eq!(group_len(3, 2, 0), 2);
        assert_eq!(group_len(3, 2, 1), 1);
    }

    #[test]
    fn groups_cover_all_probes_in_order() {
        let plan = ProbePlan::partitioned(digest(9), 1 << 16, 7, 3, 61);
        let via_groups: Vec<u32> = plan
            .groups()
            .flat_map(|(_, probes)| probes.iter().copied())
            .collect();
        assert_eq!(via_groups.as_slice(), plan.probes());
        // group_split(7, 3) = (2, 1): [3, 2, 2].
        let lens: Vec<usize> = plan.groups().map(|(_, p)| p.len()).collect();
        assert_eq!(lens, vec![3, 2, 2]);
    }

    #[test]
    fn plans_are_deterministic() {
        let a = ProbePlan::partitioned(digest(3), 500, 4, 2, 33);
        let b = ProbePlan::partitioned(digest(3), 500, 4, 2, 33);
        assert_eq!(a.words(), b.words());
        assert_eq!(a.probes(), b.probes());
    }

    #[test]
    fn buffer_matches_per_key_plans_partitioned() {
        // Inline plans (g + k ≤ 16) and heap plans alike.
        for (l, k, g, b1) in [(4096u64, 7u32, 3u32, 40u64), (977, 20, 6, 61)] {
            let mut buf = PlanBuffer::new();
            buf.plan_partitioned((0..100u64).map(digest), l, k, g, b1);
            assert_eq!(buf.keys(), 100);
            assert_eq!(buf.group_count(), g as usize);
            assert!(!buf.is_flat());
            for i in 0..100usize {
                let plan = ProbePlan::partitioned(digest(i as u64), l, k, g, b1);
                assert_eq!(buf.words_of(i), plan.words(), "key {i}");
                assert_eq!(buf.slots_of(i), plan.probes(), "key {i}");
                let from_buf: Vec<_> = buf.groups_of(i).collect();
                let from_plan: Vec<_> = plan.groups().collect();
                assert_eq!(from_buf, from_plan, "key {i}");
                for (t, expect) in plan.groups().enumerate() {
                    assert_eq!(buf.group(i, t), expect, "key {i} group {t}");
                    assert_eq!(plan.group(t), expect, "key {i} group {t}");
                }
            }
        }
    }

    #[test]
    fn buffer_plans_iterators_that_promise_fewer_keys() {
        // `filter` promises no keys (size_hint lower bound 0), so the
        // buffer grows key by key; the plans must not differ.
        let (l, k, g, b1) = (1000u64, 5u32, 2u32, 37u64);
        let mut exact = PlanBuffer::new();
        exact.plan_partitioned((0..50u64).map(digest), l, k, g, b1);
        let mut appended = PlanBuffer::new();
        appended.plan_partitioned((0..50u64).map(digest).filter(|_| true), l, k, g, b1);
        assert_eq!(appended.keys(), 50);
        for i in 0..50 {
            assert_eq!(appended.words_of(i), exact.words_of(i));
            assert_eq!(appended.slots_of(i), exact.slots_of(i));
        }
    }

    #[test]
    fn buffer_flat_plans_replay_double_hashing() {
        let (k, m) = (5u32, 1u64 << 20);
        let mut buf = PlanBuffer::new();
        buf.plan_flat((0..50u64).map(digest), k, m);
        assert_eq!(buf.keys(), 50);
        assert!(buf.is_flat());
        assert_eq!(buf.group_count(), 0);
        for i in 0..50usize {
            let mut stream = DoubleHasher::new(digest(i as u64), m);
            for &p in buf.slots_of(i) {
                assert_eq!(p as usize, stream.next_index(), "key {i}");
            }
        }
    }

    #[test]
    fn buffer_reuse_is_bit_identical_across_shapes() {
        // Refilling a used buffer — same shape, different shape, different
        // batch size — must behave exactly like a fresh buffer.
        let mut reused = PlanBuffer::new();
        reused.plan_partitioned((0..64u64).map(digest), 1 << 16, 3, 2, 61);
        reused.plan_flat((0..10u64).map(digest), 4, 1 << 20);
        reused.plan_partitioned((5..37u64).map(digest), 4096, 7, 3, 40);

        let mut fresh = PlanBuffer::new();
        fresh.plan_partitioned((5..37u64).map(digest), 4096, 7, 3, 40);
        assert_eq!(reused.keys(), fresh.keys());
        for i in 0..fresh.keys() {
            assert_eq!(reused.words_of(i), fresh.words_of(i));
            assert_eq!(reused.slots_of(i), fresh.slots_of(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=k")]
    fn partitioned_rejects_g_above_k() {
        let _ = ProbePlan::partitioned(1, 64, 2, 3, 8);
    }

    #[test]
    #[should_panic(expected = "out of 1..=k")]
    fn buffer_rejects_g_above_k() {
        PlanBuffer::new().plan_partitioned(std::iter::once(1), 64, 2, 3, 8);
    }
}
