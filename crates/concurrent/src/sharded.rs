//! Sharded-lock concurrent MPCBF with a batch-first query pipeline.
//!
//! # Layout: one shard = one independent sub-filter
//!
//! Unlike a word-interleaved scheme (where the `g` words of one element can
//! land in `g` different shards and an operation must take several locks),
//! this design partitions the *key space*: each shard owns a private array
//! of `HcbfWord`s and every element lives entirely inside one shard. A
//! scalar operation therefore takes **exactly one lock**, and a batch
//! operation takes each lock **at most once** (see the bit-split below for
//! how keys are routed).
//!
//! # Bit-split: shard bits are disjoint from probe bits
//!
//! The 128-bit digest of a key is split into non-overlapping fields:
//!
//! ```text
//!  bit 127      112 111                      64 63                           0
//!     ┌──────────┬──────────────────────────┬──────────────────────────────┐
//!     │ shard    │ slot field (48 bits)     │ word field (64 bits)         │
//!     └──────────┴──────────────────────────┴──────────────────────────────┘
//!       selector   k in-word slots            g words inside the shard
//!       (16 bits)  └──────────── probe digest (112 bits) ───────────────┘
//! ```
//!
//! * the **top [`SHARD_BITS`] bits** select the shard (masked down to the
//!   power-of-two shard count);
//! * the **low `128 − SHARD_BITS` bits**, with the shard bits masked to
//!   zero, feed [`ProbePlan::partitioned`]: the bit-field planner cuts the
//!   `g` words from bits `0..64` and the `k` slots from bits `64..112`,
//!   exactly as the sequential filter does (see [`mpcbf_core::plan`]).
//!
//! The planner never reads bits at or above
//! [`PLAN_DIGEST_BITS`](mpcbf_core::plan::PLAN_DIGEST_BITS) and the
//! selector reads nothing below them, so shard routing is statistically
//! independent of in-shard placement: conditioning on "key landed in
//! shard s" reveals nothing about which words it probes there.
//!
//! # Batch pipeline
//!
//! [`ShardedMpcbf::contains_batch_bytes_with`] and friends run the fused
//! pipeline against a caller-held [`ShardBatch`] scratch: (1) hash every
//! key into the scratch's [`PlanBuffer`] (zero allocation once warm),
//! (2) group keys by shard — a stable sort, so keys within one shard are
//! processed in their original batch order, which keeps duplicate keys in
//! a batch behaving exactly like a scalar loop, (3) prefetch every key's
//! `g` planned words, in walk order, before any lock is taken, (4) per
//! shard take the lock once for its whole contiguous run and
//! probe/update, with update runs driving one update kernel
//! ([`KernelOps::accelerated`]) resolved per batch.
//!
//! Stage 3 exists because a DRAM-resident filter's time goes into the
//! word loads. The sequential filter overlaps its misses by interleaving
//! several keys' word loads, but here consecutive keys can sit behind
//! different shard locks, and a walk cannot run ahead across a lock it
//! has not taken yet: a batch of 64 over 16 shards leaves runs of about 4
//! keys, so at most one run's loads would be in flight at once.
//! Prefetching the whole batch first lets every miss overlap, and the
//! shard-run walks then find their words in cache. The prefetch
//! addresses come from `bases`, each shard's word-array address published
//! outside its lock (a stale address only wastes a hint; see
//! [`mpcbf_bitvec::prefetch()`]). Answers and words are unchanged: a
//! prefetch never alters program state.
//!
//! Scalar and batch operations share one group walk per operation kind
//! with the sequential filter ([`query_walk`], [`insert_walk`],
//! [`remove_walk`] in `mpcbf-core`): a walk reads the key's groups
//! through an index accessor, fed by a [`ProbePlan`] for one key or by
//! the batch's [`PlanBuffer`], over the locked shard's words.
//!
//! # Lock counters
//!
//! Every shard counts its lock acquisitions and how many of them found
//! the lock held (`try_lock` failed, the caller blocked). The counters are
//! plain integers inside the mutex-guarded shard state, bumped once per
//! lock taken by a filter operation, so they cost no atomic and no extra
//! cache line; read them with [`ShardedMpcbf::lock_stats`] and
//! [`ShardedMpcbf::shard_lock_stats`].

use mpcbf_analysis::heuristic::MpcbfShape;
use mpcbf_bitvec::{prefetch, AlignedVec, KernelOps, Word};
use mpcbf_core::codec;
use mpcbf_core::config::MpcbfConfig;
use mpcbf_core::hcbf::{insert_walk, query_walk, remove_walk, HcbfWord};
use mpcbf_core::scrub::{FilterSeal, ScrubReport, SEGMENT_WORDS};
use mpcbf_core::{FilterError, PlanBuffer, ProbePlan};
use mpcbf_hash::{Hasher128, Murmur3};
use parking_lot::{Mutex, MutexGuard};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Reusable scratch for the sharded batch pipeline: the batch's probe
/// plans plus the shard routing and run ordering derived from them.
///
/// Hold one per worker thread and pass it to the `*_batch_bytes_with`
/// entry points; after the first batch at a given size, planning and
/// shard grouping allocate nothing. The plain `*_batch_bytes` entry
/// points build a fresh scratch per call.
#[derive(Debug, Default)]
pub struct ShardBatch {
    plans: PlanBuffer,
    /// Home shard per key (parallel to the plan buffer's keys).
    shards: Vec<u32>,
    /// Key indices stably sorted by shard: each shard's keys form one
    /// contiguous run in original batch order.
    order: Vec<u32>,
}

impl ShardBatch {
    /// An empty scratch; the first batch sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Digest bits reserved for shard selection (the top bits of the 128-bit
/// digest). The probe planner only ever sees the remaining low bits, so the
/// two fields share no entropy. Caps the shard count at `2^SHARD_BITS`.
pub const SHARD_BITS: u32 = 16;

// The selector must sit entirely above the bits the planner reads.
const _: () = assert!(128 - SHARD_BITS >= mpcbf_core::plan::PLAN_DIGEST_BITS);

/// A point-in-time view of one shard's (or the whole pool's) lock use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Times a filter operation took the lock.
    pub acquisitions: u64,
    /// Acquisitions that found the lock already held (`try_lock` failed
    /// and the caller had to block).
    pub contended: u64,
}

impl LockStats {
    /// Merges another view (e.g. another shard's) into this one.
    pub fn merge(&mut self, other: &LockStats) {
        self.acquisitions += other.acquisitions;
        self.contended += other.contended;
    }
}

/// One shard's mutex-guarded state: its sub-filter's words and its lock
/// counters (bumped by [`ShardedMpcbf::lock_shard`] while holding the lock).
struct Shard<W: Word> {
    words: AlignedVec<HcbfWord<W>>,
    locks: LockStats,
}

/// A thread-safe MPCBF: a power-of-two pool of independent sub-filters,
/// each guarded by one [`parking_lot::Mutex`], with keys routed by a digest
/// field disjoint from the probe bits.
pub struct ShardedMpcbf<W: Word = u64, H: Hasher128 = Murmur3> {
    shards: Vec<Mutex<Shard<W>>>,
    /// Each shard's word-array address, readable without its lock: the
    /// batch prefetch stage aims at `base + word · size`. Set by `new`,
    /// updated under the lock by `bulk_install`, the only place that
    /// swaps a shard's array. `Relaxed` is enough: nothing is ever read
    /// through the address, it only aims prefetch hints.
    bases: Vec<AtomicUsize>,
    shard_mask: u64,
    words_per_shard: u64,
    shape: MpcbfShape,
    seed: u64,
    overflows: AtomicU64,
    _hasher: PhantomData<H>,
}

impl<W: Word, H: Hasher128> ShardedMpcbf<W, H> {
    /// Creates a sharded filter from a validated configuration with the
    /// given shard count (rounded up to a power of two, capped at
    /// `2^SHARD_BITS` and at the word count).
    ///
    /// The configuration's `l` words are distributed evenly across the
    /// shards; each shard is an independent `ceil(l / shards)`-word
    /// sub-filter, so total capacity never falls below the `l` the
    /// validated configuration was sized for. The shard-count cap rounds
    /// *down* to a power of two (`word_cap`): rounding up would mint more
    /// shards than words, leaving shards whose sub-filter the probe
    /// planner can never fill.
    ///
    /// # Panics
    /// Panics if the configuration's word size differs from `W::BITS`.
    pub fn new(config: MpcbfConfig, shards: usize) -> Self {
        let shape = config.shape();
        assert_eq!(shape.w, W::BITS, "config word size mismatch");
        let l = shape.l as usize;
        let word_cap = if l.is_power_of_two() {
            l
        } else {
            (l.next_power_of_two() >> 1).max(1)
        };
        let shard_count = shards
            .next_power_of_two()
            .clamp(1, word_cap)
            .min(1 << SHARD_BITS);
        let words_per_shard = l.div_ceil(shard_count).max(1);
        let shards: Vec<_> = (0..shard_count)
            .map(|_| {
                Mutex::new(Shard {
                    words: AlignedVec::filled(words_per_shard, HcbfWord::new()),
                    locks: LockStats::default(),
                })
            })
            .collect();
        let bases = shards
            .iter()
            .map(|s| AtomicUsize::new(s.lock().words.as_ptr() as usize))
            .collect();
        ShardedMpcbf {
            shards,
            bases,
            shard_mask: shard_count as u64 - 1,
            words_per_shard: words_per_shard as u64,
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

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Words owned by each shard (`ceil(l / shard_count)`).
    pub fn words_per_shard(&self) -> u64 {
        self.words_per_shard
    }

    /// Insertions refused due to word overflow.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Sum of all word loads (total increments stored).
    pub fn total_load(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .words
                    .iter()
                    .map(|w| u64::from(w.total_count()))
                    .sum::<u64>()
            })
            .sum()
    }

    /// One shard's lock use so far. Covers filter operations only;
    /// maintenance passes (seal/scrub/verify/encode/total_load and this
    /// read itself) are not tallied.
    pub fn shard_lock_stats(&self, shard: usize) -> LockStats {
        self.shards[shard].lock().locks
    }

    /// Lock use summed over every shard.
    pub fn lock_stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for s in 0..self.shards.len() {
            total.merge(&self.shard_lock_stats(s));
        }
        total
    }

    /// Takes one shard's lock for a filter operation: `try_lock` first,
    /// blocking only if that fails, and tallies the acquisition (and
    /// whether it had to block) in the shard's counters.
    #[inline]
    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, Shard<W>> {
        let (mut guard, contended) = match self.shards[shard].try_lock() {
            Some(guard) => (guard, false),
            None => (self.shards[shard].lock(), true),
        };
        guard.locks.acquisitions += 1;
        guard.locks.contended += u64::from(contended);
        guard
    }

    /// Checksummed segments per shard (each shard is sealed and scrubbed
    /// independently; global segment index = `shard · this + local`).
    fn segments_per_shard(&self) -> usize {
        (self.words_per_shard as usize).div_ceil(SEGMENT_WORDS)
    }

    /// Lifts a shard-local error to the filter-global frame: a
    /// [`FilterError::CorruptionDetected`] raised inside shard `shard` (a
    /// rollback step that itself failed — word state the lock should have
    /// made impossible) carries a shard-local segment index; re-index it
    /// as `shard · segments_per_shard + local` so it lines up with the
    /// [`Self::verify`]/[`ShardedMpcbf::scrub`] reporting convention.
    /// Every other error passes through untouched.
    #[inline]
    fn globalize_err(&self, shard: usize, err: FilterError) -> FilterError {
        match err {
            FilterError::CorruptionDetected { segment } => FilterError::CorruptionDetected {
                segment: shard * self.segments_per_shard() + segment,
            },
            other => other,
        }
    }

    /// Epoch-based structural self-check: takes each shard lock exactly
    /// once (like the batch pipeline's shard runs) and re-walks every
    /// word's hierarchy invariants. Concurrent operations on other shards
    /// proceed untouched while one shard is being checked.
    ///
    /// Damage is reported as a global segment index: shard `s`, local
    /// word `i` lands in segment `s · segments_per_shard + i / SEGMENT_WORDS`.
    pub fn verify(&self) -> Result<(), FilterError> {
        let b1 = self.shape.b1;
        let per = self.segments_per_shard();
        for (s, shard) in self.shards.iter().enumerate() {
            let guard = shard.lock();
            for (i, w) in guard.words.iter().enumerate() {
                if w.check_invariants(b1).is_err() {
                    return Err(FilterError::CorruptionDetected {
                        segment: s * per + i / SEGMENT_WORDS,
                    });
                }
            }
        }
        Ok(())
    }

    /// Splits a digest into (shard index, probe digest) along the
    /// documented bit boundary.
    #[inline]
    fn split_digest(&self, digest: u128) -> (usize, u128) {
        let shard = ((digest >> (128 - SHARD_BITS)) as u64 & self.shard_mask) as usize;
        let probe_digest = digest & ((1u128 << (128 - SHARD_BITS)) - 1);
        (shard, probe_digest)
    }

    /// Hashes `key` and plans its probes inside its home shard.
    #[inline]
    fn plan(&self, key: &[u8]) -> (usize, ProbePlan) {
        let (shard, probe_digest) = self.split_digest(H::hash128(self.seed, key));
        let plan = ProbePlan::partitioned(
            probe_digest,
            self.words_per_shard,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        );
        (shard, plan)
    }

    /// Membership check.
    pub fn contains<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> bool {
        self.contains_bytes(key.key_bytes().as_slice())
    }

    /// Membership check on raw bytes: one lock, `g` word reads.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        let (shard, plan) = self.plan(key);
        let guard = self.lock_shard(shard);
        query_walk(&guard.words, plan.group_count(), |t| plan.group(t)).0
    }

    /// Inserts a key.
    pub fn insert<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.insert_bytes(key.key_bytes().as_slice())
    }

    /// Inserts raw bytes under a single lock, rolling back on overflow.
    pub fn insert_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        let (shard, plan) = self.plan(key);
        let ops = KernelOps::accelerated();
        let mut guard = self.lock_shard(shard);
        let result = insert_walk(
            &mut guard.words,
            plan.group_count(),
            |t| plan.group(t),
            self.shape.b1,
            &ops,
        )
        .map(|_| ());
        drop(guard);
        if matches!(result, Err(FilterError::WordOverflow { .. })) {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
        result.map_err(|e| self.globalize_err(shard, e))
    }

    /// Removes a key.
    pub fn remove<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.remove_bytes(key.key_bytes().as_slice())
    }

    /// Removes raw bytes under a single lock, rolling back if absent.
    pub fn remove_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        let (shard, plan) = self.plan(key);
        let ops = KernelOps::accelerated();
        let mut guard = self.lock_shard(shard);
        remove_walk(
            &mut guard.words,
            plan.group_count(),
            |t| plan.group(t),
            self.shape.b1,
            &ops,
        )
        .map(|_| ())
        .map_err(|e| self.globalize_err(shard, e))
    }

    /// Plans a whole batch into the caller's scratch: probe plans in the
    /// [`PlanBuffer`], home shards in a side vector, and key indices
    /// stably sorted by shard so each shard's keys form one contiguous
    /// run in original order. Zero allocation once the scratch is warm.
    fn plan_batch_into(&self, keys: &[&[u8]], scratch: &mut ShardBatch) {
        let ShardBatch {
            plans,
            shards,
            order,
        } = scratch;
        shards.clear();
        shards.reserve(keys.len());
        plans.plan_partitioned(
            keys.iter().map(|key| {
                let (shard, probe_digest) = self.split_digest(H::hash128(self.seed, key));
                shards.push(shard as u32);
                probe_digest
            }),
            self.words_per_shard,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        );
        order.clear();
        order.extend(0..keys.len() as u32);
        order.sort_by_key(|&i| shards[i as usize]);
    }

    /// Issues a read prefetch for every planned word of the batch, in the
    /// order the shard runs will walk them, so the whole batch's misses
    /// are in flight before the first lock is taken.
    fn prefetch_batch(&self, scratch: &ShardBatch) {
        let size = std::mem::size_of::<HcbfWord<W>>();
        for &idx in &scratch.order {
            let i = idx as usize;
            let base = self.bases[scratch.shards[i] as usize].load(Ordering::Relaxed);
            for &word in scratch.plans.words_of(i) {
                prefetch(base.wrapping_add(word as usize * size));
            }
        }
    }

    /// Prefetches the batch's words, then runs `body` once per shard that
    /// has keys in the batch, holding that shard's lock exactly once for
    /// its whole contiguous run of keys.
    fn for_each_shard_run(
        &self,
        scratch: &ShardBatch,
        mut body: impl FnMut(&mut [HcbfWord<W>], &[u32], usize),
    ) {
        self.prefetch_batch(scratch);
        let order = &scratch.order;
        let mut i = 0;
        while i < order.len() {
            let shard = scratch.shards[order[i] as usize] as usize;
            let start = i;
            while i < order.len() && scratch.shards[order[i] as usize] as usize == shard {
                i += 1;
            }
            body(&mut self.lock_shard(shard).words, &order[start..i], shard);
        }
    }

    /// Batched membership check: hashes all keys, then visits each shard
    /// once (lock → probe run). Results are in input order.
    pub fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        self.contains_batch_bytes_with(keys, &mut ShardBatch::new())
    }

    /// [`Self::contains_batch_bytes`] against a caller-held scratch:
    /// reusing `scratch` across batches allocates nothing after warm-up
    /// and yields bit-identical results to a fresh scratch.
    pub fn contains_batch_bytes_with(&self, keys: &[&[u8]], scratch: &mut ShardBatch) -> Vec<bool> {
        self.plan_batch_into(keys, scratch);
        let plans = &scratch.plans;
        let g = plans.group_count();
        let mut out = vec![false; keys.len()];
        self.for_each_shard_run(scratch, |words, run, _| {
            for &idx in run {
                let i = idx as usize;
                out[i] = query_walk(words, g, |t| plans.group(i, t)).0;
            }
        });
        out
    }

    /// Batched insertion: each shard lock is taken once; keys within a
    /// shard are applied in batch order, so duplicates behave exactly as a
    /// scalar loop would. Per-key results are in input order.
    pub fn insert_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.insert_batch_bytes_with(keys, &mut ShardBatch::new())
    }

    /// [`Self::insert_batch_bytes`] against a caller-held scratch. The
    /// update kernel bundle is resolved once here and drives every word
    /// walk in the batch, rollbacks included.
    pub fn insert_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
    ) -> Vec<Result<(), FilterError>> {
        self.plan_batch_into(keys, scratch);
        let plans = &scratch.plans;
        let g = plans.group_count();
        let ops = KernelOps::accelerated();
        let b1 = self.shape.b1;
        let mut out = vec![Ok(()); keys.len()];
        let mut failed = 0u64;
        self.for_each_shard_run(scratch, |words, run, shard| {
            for &idx in run {
                let i = idx as usize;
                let r = insert_walk(words, g, |t| plans.group(i, t), b1, &ops).map(|_| ());
                if matches!(r, Err(FilterError::WordOverflow { .. })) {
                    failed += 1;
                }
                out[i] = r.map_err(|e| self.globalize_err(shard, e));
            }
        });
        self.overflows.fetch_add(failed, Ordering::Relaxed);
        out
    }

    /// Batched removal: mirror of [`Self::insert_batch_bytes`].
    pub fn remove_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.remove_batch_bytes_with(keys, &mut ShardBatch::new())
    }

    /// [`Self::remove_batch_bytes`] against a caller-held scratch.
    pub fn remove_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
    ) -> Vec<Result<(), FilterError>> {
        self.plan_batch_into(keys, scratch);
        let plans = &scratch.plans;
        let g = plans.group_count();
        let ops = KernelOps::accelerated();
        let b1 = self.shape.b1;
        let mut out = vec![Ok(()); keys.len()];
        self.for_each_shard_run(scratch, |words, run, shard| {
            for &idx in run {
                let i = idx as usize;
                out[i] = remove_walk(words, g, |t| plans.group(i, t), b1, &ops)
                    .map(|_| ())
                    .map_err(|e| self.globalize_err(shard, e));
            }
        });
        out
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
}

impl<H: Hasher128> ShardedMpcbf<u64, H> {
    /// The raw word array of one shard (diagnostics and fault drills).
    pub fn shard_raw_words(&self, shard: usize) -> Vec<u64> {
        self.shards[shard]
            .lock()
            .words
            .iter()
            .map(|w| *w.raw())
            .collect()
    }

    /// Installs a bulk-built word array into one shard (the
    /// `bulk::ShardedBulkBuilder` finish path — builders stage into
    /// their own arrays and swap them in here).
    ///
    /// # Panics
    /// Panics if `words` is not exactly one shard's length.
    pub(crate) fn bulk_install(&self, shard: usize, words: AlignedVec<HcbfWord<u64>>) {
        assert_eq!(words.len() as u64, self.words_per_shard);
        let mut guard = self.shards[shard].lock();
        guard.words = words;
        self.bases[shard].store(guard.words.as_ptr() as usize, Ordering::Relaxed);
    }

    /// Adds bulk-build refusals to the overflow tally.
    pub(crate) fn bulk_add_overflows(&self, n: u64) {
        self.overflows.fetch_add(n, Ordering::Relaxed);
    }

    /// The digest split the insert path uses (shard, probe digest), for
    /// the bulk builder's router.
    #[inline]
    pub(crate) fn bulk_split_digest(&self, digest: u128) -> (usize, u128) {
        self.split_digest(digest)
    }

    /// The hash seed, for the bulk builder's digest computation.
    pub(crate) fn bulk_seed(&self) -> u64 {
        self.seed
    }

    /// Epoch-based seal: checksums every shard's word array, taking each
    /// shard lock exactly once. Returns one [`FilterSeal`] per shard.
    ///
    /// Like the sequential seal, any legitimate update after sealing
    /// flips its segment's CRC, so seal/scrub pairs are meaningful on
    /// quiescent (or per-shard-quiesced) filters — re-seal after updates.
    pub fn seal(&self) -> Vec<FilterSeal> {
        self.shards
            .iter()
            .map(|shard| {
                let raw: Vec<u64> = shard.lock().words.iter().map(|w| *w.raw()).collect();
                FilterSeal::compute(&raw)
            })
            .collect()
    }

    /// Epoch-based scrub: per shard, takes the lock once, recomputes the
    /// segment CRCs against that shard's seal and re-walks the word
    /// invariants. Damage is reported with global segment indices (see
    /// [`ShardedMpcbf::verify`]).
    ///
    /// # Panics
    /// Panics if `seals` was not produced by [`ShardedMpcbf::seal`] on an
    /// identically-shaped filter.
    pub fn scrub(&self, seals: &[FilterSeal]) -> ScrubReport {
        assert_eq!(
            seals.len(),
            self.shards.len(),
            "seal covers {} shards, filter has {}",
            seals.len(),
            self.shards.len()
        );
        let b1 = self.shape.b1;
        let per = self.segments_per_shard();
        let mut corrupt = Vec::new();
        let mut checked = 0usize;
        for (s, (shard, seal)) in self.shards.iter().zip(seals).enumerate() {
            let guard = shard.lock();
            let raw: Vec<u64> = guard.words.iter().map(|w| *w.raw()).collect();
            corrupt.extend(seal.diff(&raw).into_iter().map(|seg| s * per + seg));
            for (i, w) in guard.words.iter().enumerate() {
                if w.check_invariants(b1).is_err() {
                    corrupt.push(s * per + i / SEGMENT_WORDS);
                }
            }
            checked += seal.segments();
        }
        ScrubReport::new(checked, corrupt)
    }

    /// Fault-injection hook: XORs `mask` into word `word` of shard
    /// `shard`, simulating an in-memory bit flip for scrub drills. Never
    /// part of normal operation.
    pub fn corrupt_word_xor(&self, shard: usize, word: usize, mask: u64) {
        let mut guard = self.shards[shard].lock();
        let damaged = guard.words[word].raw() ^ mask;
        guard.words[word] = HcbfWord::from_raw(damaged);
    }

    /// The shard this key routes to (the top [`SHARD_BITS`] of its
    /// digest, masked to the shard count). The durability layer uses
    /// this to append each operation to its home shard's WAL.
    pub fn home_shard(&self, key: &[u8]) -> usize {
        self.split_digest(H::hash128(self.seed, key)).0
    }

    /// Encodes the whole sharded filter into the portable wire format
    /// (kind [`codec::KIND_SHARDED64`]): shape header, shard geometry,
    /// then each shard's word array in shard order.
    ///
    /// Takes each shard lock once, in order; concurrent updates to
    /// not-yet-visited shards can land in the image, so snapshot callers
    /// should quiesce writers first (the durability layer does).
    pub fn encode(&self) -> Vec<u8> {
        let shape = self.shape;
        let mut w = codec::Writer::new(codec::KIND_SHARDED64);
        w.u64(shape.l);
        w.u32(shape.k);
        w.u32(shape.g);
        w.u32(shape.n_max);
        w.u64(self.seed);
        w.u32(self.shards.len() as u32);
        w.u64(self.words_per_shard);
        w.u64(self.overflows());
        for shard in &self.shards {
            let guard = shard.lock();
            let raw: Vec<u64> = guard.words.iter().map(|word| *word.raw()).collect();
            w.limbs(&raw);
        }
        w.finish()
    }

    /// Decodes a filter previously produced by [`ShardedMpcbf::encode`],
    /// revalidating the shard geometry and every word's hierarchy
    /// invariant — malformed images error, never panic.
    pub fn decode(buf: &[u8]) -> Result<Self, codec::CodecError> {
        use codec::CodecError;
        let mut r = codec::Reader::open(buf, codec::KIND_SHARDED64)?;
        let l = r.u64()?;
        let k = r.u32()?;
        let g = r.u32()?;
        let n_max = r.u32()?;
        let seed = r.u64()?;
        let shard_count = r.u32()? as usize;
        let words_per_shard = r.u64()?;
        let overflows = r.u64()?;
        if !(2..=(1u64 << 40)).contains(&l) {
            return Err(CodecError::BadHeader("word count"));
        }
        if shard_count == 0 || !shard_count.is_power_of_two() {
            return Err(CodecError::BadHeader("shard count"));
        }
        let config = MpcbfConfig::builder()
            .memory_bits(l * 64)
            .expected_items(1)
            .hashes(k)
            .accesses(g)
            .n_max(n_max)
            .seed(seed)
            .build()
            .map_err(|_| CodecError::BadHeader("shape"))?;
        let filter: Self = ShardedMpcbf::new(config, shard_count);
        // `new` re-derives the geometry from (l, shard_count); a stored
        // geometry it disagrees with means the header is inconsistent.
        if filter.shard_count() != shard_count || filter.words_per_shard != words_per_shard {
            return Err(CodecError::BadHeader("shard geometry"));
        }
        let b1 = filter.shape.b1;
        for shard in &filter.shards {
            let limbs = r.limbs(words_per_shard as usize)?;
            let mut guard = shard.lock();
            for (i, &raw) in limbs.iter().enumerate() {
                let word = HcbfWord::<u64>::from_raw(raw);
                if word.check_invariants(b1).is_err() {
                    return Err(CodecError::BadHeader("word invariant"));
                }
                guard.words[i] = word;
            }
        }
        r.expect_end()?;
        filter.overflows.store(overflows, Ordering::Relaxed);
        Ok(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::MpcbfConfig;

    fn filter() -> ShardedMpcbf<u64> {
        let c = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .seed(21)
            .build()
            .unwrap();
        ShardedMpcbf::new(c, 64)
    }

    #[test]
    fn every_shard_storage_is_cache_line_aligned() {
        let f = filter();
        for shard in &f.shards {
            let guard = shard.lock();
            let addr = guard.words.as_slice().as_ptr() as usize;
            assert_eq!(addr % mpcbf_bitvec::CACHE_LINE_BYTES, 0);
        }
    }

    /// The address each shard publishes for the batch prefetch stage.
    fn published_bases(f: &ShardedMpcbf<u64>) -> Vec<(usize, usize)> {
        f.shards
            .iter()
            .zip(&f.bases)
            .map(|(shard, base)| {
                let words = shard.lock().words.as_ptr() as usize;
                (base.load(Ordering::Relaxed), words)
            })
            .collect()
    }

    #[test]
    fn published_bases_track_every_shards_word_array() {
        use crate::bulk::ShardedBulkBuilder;
        for (published, words) in published_bases(&filter()) {
            assert_eq!(published, words, "new() must publish each shard's array");
        }
        // The bulk finish swaps in freshly built arrays; each shard's
        // published address must follow the swap.
        let c = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .seed(21)
            .build()
            .unwrap();
        let mut builder: ShardedBulkBuilder = ShardedBulkBuilder::new(c, 8);
        for i in 0..2_000u64 {
            builder.push(&i.to_le_bytes());
        }
        let built = builder.finish();
        assert_eq!(built.shard_count(), 8);
        for (s, (published, words)) in published_bases(&built).into_iter().enumerate() {
            assert_eq!(published, words, "shard {s}: stale address after finish");
        }
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
    fn shard_routing_uses_disjoint_bits() {
        // Two digests that differ only in the shard field must produce
        // identical probe plans; two that differ only in the probe field
        // must land in the same shard.
        let f = filter();
        let base: u128 = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
        // Flip the lowest shard-field bit (bit 112) so it survives the
        // power-of-two shard mask.
        let shard_flip = base ^ (1u128 << (128 - SHARD_BITS));
        let probe_flip = base ^ 1u128;
        let (s0, p0) = f.split_digest(base);
        let (s1, p1) = f.split_digest(shard_flip);
        let (s2, p2) = f.split_digest(probe_flip);
        assert_ne!(s0, s1, "flipping a shard bit must change the shard");
        assert_eq!(p0, p1, "shard bits must not leak into the probe digest");
        assert_eq!(s0, s2, "probe bits must not leak into the shard index");
        assert_ne!(p0, p2);
    }

    #[test]
    fn batch_matches_scalar_loop() {
        let scalar = filter();
        let batch = filter();
        let keys: Vec<u64> = (0..2_000).collect();
        for k in &keys {
            scalar.insert(k).unwrap();
        }
        let results = batch.insert_batch(&keys);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(scalar.total_load(), batch.total_load());

        let probes: Vec<u64> = (1_000..5_000).collect();
        let batched = batch.contains_batch(&probes);
        for (k, hit) in probes.iter().zip(&batched) {
            assert_eq!(scalar.contains(k), *hit, "divergence at {k}");
        }

        let removals: Vec<u64> = (500..2_500).collect();
        let scalar_r: Vec<_> = removals.iter().map(|k| scalar.remove(k)).collect();
        let batch_r = batch.remove_batch(&removals);
        assert_eq!(scalar_r, batch_r);
        assert_eq!(scalar.total_load(), batch.total_load());
    }

    #[test]
    fn duplicate_keys_in_one_batch_behave_like_scalar() {
        let scalar = filter();
        let batch = filter();
        let keys: Vec<u64> = vec![7, 7, 7, 42, 7, 42];
        for k in &keys {
            scalar.insert(k).unwrap();
        }
        batch.insert_batch(&keys);
        assert_eq!(scalar.total_load(), batch.total_load());
        // Remove one more 7 than was inserted: the extra must fail in both.
        let removals: Vec<u64> = vec![7, 7, 7, 7, 7];
        let scalar_r: Vec<_> = removals.iter().map(|k| scalar.remove(k)).collect();
        let batch_r = batch.remove_batch(&removals);
        assert_eq!(scalar_r, batch_r);
        assert_eq!(batch_r[4], Err(FilterError::NotPresent));
    }

    #[test]
    fn parallel_inserts_are_all_visible() {
        let f = filter();
        let threads = 8u64;
        let per = 1_000u64;
        // Word overflow at 80% of design load is improbable but possible
        // (Fig. 6); a refused insert rolls back whole, so every
        // acknowledged key must be visible and every refusal counted. With
        // g = 1 a word holds a fixed number of keys, so the count does not
        // depend on thread interleaving: this seed sends one key to a full
        // word.
        let acked: Vec<Vec<u64>> = crossbeam::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let f = &f;
                    s.spawn(move |_| {
                        (t * per..(t + 1) * per)
                            .filter(|i| f.insert(i).is_ok())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let acked: Vec<u64> = acked.into_iter().flatten().collect();
        for i in &acked {
            assert!(f.contains(i), "lost {i}");
        }
        assert_eq!(f.overflows(), threads * per - acked.len() as u64);
        assert_eq!(f.overflows(), 1);
    }

    #[test]
    fn parallel_batch_inserts_are_all_visible() {
        let f = filter();
        let threads = 4u64;
        let per = 1_000u64;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let f = &f;
                s.spawn(move |_| {
                    let keys: Vec<u64> = (t * per..(t + 1) * per).collect();
                    for r in f.insert_batch(&keys) {
                        r.unwrap();
                    }
                });
            }
        })
        .unwrap();
        let keys: Vec<u64> = (0..threads * per).collect();
        for (k, hit) in keys.iter().zip(f.contains_batch(&keys)) {
            assert!(hit, "lost {k}");
        }
    }

    #[test]
    fn parallel_insert_then_parallel_remove_drains() {
        let f = filter();
        let all: Vec<u64> = (0..8_000).collect();
        // Only acknowledged inserts are removed: a refused insert (word
        // overflow, improbable at 80% load; this seed has one, whatever the
        // interleaving, as in `parallel_inserts_are_all_visible`) leaves no
        // trace to drain.
        let acked: Vec<Vec<u64>> = crossbeam::scope(|s| {
            let handles: Vec<_> = all
                .chunks(1_000)
                .map(|chunk| {
                    let f = &f;
                    s.spawn(move |_| {
                        chunk
                            .iter()
                            .copied()
                            .filter(|k| f.insert(k).is_ok())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let keys: Vec<u64> = acked.into_iter().flatten().collect();
        assert_eq!(f.overflows(), all.len() as u64 - keys.len() as u64);
        assert_eq!(f.overflows(), 1);
        crossbeam::scope(|s| {
            for chunk in keys.chunks(1_000) {
                let f = &f;
                s.spawn(move |_| {
                    for k in chunk {
                        f.remove(k).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn mixed_readers_and_writers_dont_lose_elements() {
        let f = filter();
        let stable: Vec<u64> = (0..2_000).collect();
        for k in &stable {
            f.insert(k).unwrap();
        }
        crossbeam::scope(|s| {
            // Writers churn a disjoint key range, in batches.
            for t in 0..4u64 {
                let f = &f;
                s.spawn(move |_| {
                    for i in 0..50u64 {
                        let keys: Vec<u64> = (0..10)
                            .map(|j| 1_000_000 + t * 1_000 + i * 10 + j)
                            .collect();
                        for r in f.insert_batch(&keys) {
                            r.unwrap();
                        }
                        for r in f.remove_batch(&keys) {
                            r.unwrap();
                        }
                    }
                });
            }
            // Readers continuously verify the stable set.
            for _ in 0..4 {
                let f = &f;
                let stable = &stable;
                s.spawn(move |_| {
                    for _ in 0..5 {
                        for hit in f.contains_batch(stable) {
                            assert!(hit, "stable key lost");
                        }
                    }
                });
            }
        })
        .unwrap();
    }

    #[test]
    fn epoch_scrub_localises_injected_damage() {
        let f = filter();
        for i in 0..3_000u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.verify(), Ok(()));
        let seals = f.seal();
        assert_eq!(seals.len(), f.shard_count());
        assert!(f.scrub(&seals).is_clean());

        // Flip one bit in shard 5, word 3: exactly one global segment dirty.
        f.corrupt_word_xor(5, 3, 1 << 20);
        let report = f.scrub(&seals);
        let per = seals[0].segments();
        assert_eq!(report.corrupt_segments, vec![5 * per]);
        assert_eq!(report.segments_checked, per * f.shard_count());

        // Undo: clean again; damage in two shards reports both segments.
        f.corrupt_word_xor(5, 3, 1 << 20);
        assert!(f.scrub(&seals).is_clean());
        f.corrupt_word_xor(0, 0, 1);
        f.corrupt_word_xor(9, 1, 1 << 40);
        let report = f.scrub(&seals);
        assert_eq!(report.corrupt_segments, vec![0, 9 * per]);
    }

    #[test]
    fn verify_detects_invariant_breaking_flip() {
        let f = filter();
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        // Setting a high bit with no supporting hierarchy below it breaks
        // the level-walk invariant in shard 2's word 0.
        f.corrupt_word_xor(2, 0, 1 << 63);
        let per = (f.shard_raw_words(0).len()).div_ceil(SEGMENT_WORDS);
        assert_eq!(
            f.verify(),
            Err(FilterError::CorruptionDetected { segment: 2 * per })
        );
    }

    #[test]
    fn shard_cap_never_mints_more_shards_than_words() {
        // Regression: with l = 5 words, a request for 8 shards used to
        // round the word-count cap *up* (next_power_of_two(5) = 8) and
        // mint 8 shards for 5 words. The cap must round down, so the
        // shard count never exceeds the configured word count — while
        // each shard still gets `ceil(l / shards)` words, keeping total
        // capacity at or above the validated `l`.
        let c = MpcbfConfig::builder()
            .memory_bits(320) // l = 5 words of 64 bits
            .expected_items(4)
            .hashes(2)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(c.shape().l, 5, "test premise: non-power-of-two l");
        let f: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 8);
        assert!(
            f.shard_count() as u64 <= 5,
            "{} shards minted for 5 words",
            f.shard_count()
        );
        assert!(
            f.shard_count() as u64 * f.words_per_shard() >= 5,
            "{} shards × {} words falls below the configured 5",
            f.shard_count(),
            f.words_per_shard()
        );
        // Still a working filter at this degenerate size.
        f.insert(&"x").unwrap();
        assert!(f.contains(&"x"));
        f.remove(&"x").unwrap();
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn lock_counters_tally_one_acquisition_per_lock_taken() {
        use mpcbf_hash::Key;
        use std::collections::HashSet;
        let f = filter();
        // A batch takes each home shard's lock once: one run per shard.
        let runs = |batch: &[u64]| -> u64 {
            let shards: HashSet<usize> = batch
                .iter()
                .map(|k| f.home_shard(k.key_bytes().as_slice()))
                .collect();
            shards.len() as u64
        };
        let keys: Vec<u64> = (0..1_000).collect();
        for r in f.insert_batch(&keys) {
            r.unwrap();
        }
        let probes: Vec<u64> = (500..520).collect();
        f.contains_batch(&probes);
        for k in 0..500u64 {
            assert!(f.contains(&k));
        }
        f.remove(&0u64).unwrap();
        assert_eq!(f.remove(&0u64), Err(FilterError::NotPresent));
        let scalar_ops = 502;
        let locks = f.lock_stats();
        assert_eq!(locks.acquisitions, scalar_ops + runs(&keys) + runs(&probes));
        assert_eq!(locks.contended, 0, "single-threaded: nothing contends");

        let mut summed = LockStats::default();
        for s in 0..f.shard_count() {
            summed.merge(&f.shard_lock_stats(s));
        }
        assert_eq!(summed, locks);

        // Maintenance passes and the counter reads themselves are not
        // tallied.
        f.verify().unwrap();
        f.seal();
        f.total_load();
        f.encode();
        assert_eq!(f.lock_stats(), locks);
    }

    #[test]
    fn corruption_errors_carry_global_segment_indices() {
        // A failed rollback surfaces as CorruptionDetected with a
        // shard-local segment; the entry points must re-index it into the
        // verify()/scrub() global frame, and leave other errors alone.
        let f = filter();
        let per = f.segments_per_shard();
        assert_eq!(
            f.globalize_err(5, FilterError::CorruptionDetected { segment: 2 }),
            FilterError::CorruptionDetected {
                segment: 5 * per + 2
            }
        );
        assert_eq!(
            f.globalize_err(5, FilterError::WordOverflow { word: 7 }),
            FilterError::WordOverflow { word: 7 }
        );
        assert_eq!(
            f.globalize_err(5, FilterError::NotPresent),
            FilterError::NotPresent
        );
    }

    #[test]
    fn saturating_batches_refuse_without_bricking_the_shard() {
        // Drive a tiny filter far past capacity with duplicate-heavy
        // batches: every refusal must be a WordOverflow error (and only
        // those may bump the overflow counter), the rollbacks must never
        // poison a shard lock, and the filter must keep serving.
        let c = MpcbfConfig::builder()
            .memory_bits(320)
            .expected_items(4)
            .hashes(2)
            .seed(7)
            .build()
            .unwrap();
        let f: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 4);
        let keys: Vec<u64> = (0..64).map(|i| i % 4).collect();
        let mut refused = 0u64;
        for _ in 0..8 {
            for r in f.insert_batch(&keys) {
                if let Err(e) = r {
                    assert!(matches!(e, FilterError::WordOverflow { .. }), "{e:?}");
                    refused += 1;
                }
            }
        }
        assert!(refused > 0, "test premise: the filter must saturate");
        assert_eq!(f.overflows(), refused);
        assert!(f.contains(&0u64));
        while f.remove(&0u64).is_ok() {}
        assert_eq!(f.verify(), Ok(()));
    }

    #[test]
    fn remove_absent_is_clean_under_contention() {
        let f = filter();
        f.insert(&"present").unwrap();
        assert_eq!(f.remove(&"absent"), Err(FilterError::NotPresent));
        assert!(f.contains(&"present"));
    }

    #[test]
    fn codec_roundtrip_is_bit_exact() {
        let f = filter();
        let keys: Vec<Vec<u8>> = (0..3_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for k in &keys {
            f.insert_bytes(k).unwrap();
        }
        let image = f.encode();
        assert_eq!(image, f.encode(), "encode must be deterministic");
        let d = ShardedMpcbf::<u64>::decode(&image).unwrap();
        assert_eq!(d.shard_count(), f.shard_count());
        assert_eq!(d.words_per_shard(), f.words_per_shard());
        assert_eq!(d.overflows(), f.overflows());
        for s in 0..f.shard_count() {
            assert_eq!(d.shard_raw_words(s), f.shard_raw_words(s), "shard {s}");
        }
        for k in &keys {
            assert!(d.contains_bytes(k));
        }
        assert_eq!(d.verify(), Ok(()));
        // The decoded filter keeps routing identically.
        assert_eq!(d.home_shard(b"some key"), f.home_shard(b"some key"));
        d.remove_bytes(&keys[0]).unwrap();
    }

    #[test]
    fn codec_rejects_corrupt_images() {
        let f = filter();
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        let image = f.encode();
        for pos in [0usize, 4, 5, 30, image.len() / 2, image.len() - 1] {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x08;
            assert!(
                ShardedMpcbf::<u64>::decode(&corrupt).is_err(),
                "bitflip at {pos} went undetected"
            );
        }
        for cut in [0usize, 7, image.len() / 4, image.len() - 2] {
            assert!(ShardedMpcbf::<u64>::decode(&image[..cut]).is_err());
        }
    }
}
