//! The filter traits: approximate membership ([`Filter`]) and dynamic-set
//! support ([`CountingFilter`]).

use crate::error::FilterError;
use crate::metrics::{OpCost, OpKind, OpSink};
use crate::plan::PlanBuffer;
use mpcbf_hash::Key;
use std::time::Instant;

/// An approximate-membership filter.
///
/// Semantics are the usual Bloom guarantees: `contains` may return false
/// positives, never false negatives (for elements currently inserted and
/// not removed).
///
/// Every primitive operation has a `_cost` variant that also reports the
/// paper's processing-overhead metrics (memory accesses and hash bits);
/// the plain variants are thin wrappers.
pub trait Filter {
    /// Membership check with metering.
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost);

    /// Insertion with metering.
    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError>;

    /// Total memory footprint of the membership structure, in bits
    /// (the paper's "memory consumption" axis).
    fn memory_bits(&self) -> u64;

    /// The number of hash functions `k`.
    fn num_hashes(&self) -> u32;

    /// Membership check on raw bytes.
    #[inline]
    fn contains_bytes(&self, key: &[u8]) -> bool {
        self.contains_bytes_cost(key).0
    }

    /// Insertion of raw bytes.
    #[inline]
    fn insert_bytes(&mut self, key: &[u8]) -> Result<(), FilterError> {
        self.insert_bytes_cost(key).map(|_| ())
    }

    /// Membership check for any [`Key`] type.
    #[inline]
    fn contains<K: Key + ?Sized>(&self, key: &K) -> bool {
        self.contains_bytes(key.key_bytes().as_slice())
    }

    /// Insertion of any [`Key`] type.
    #[inline]
    fn insert<K: Key + ?Sized>(&mut self, key: &K) -> Result<(), FilterError> {
        self.insert_bytes(key.key_bytes().as_slice())
    }

    /// Batched membership check with metering: one verdict per key, in key
    /// order, plus the summed cost of the whole batch.
    ///
    /// The default runs [`Filter::contains_batch_with`] with a fresh
    /// [`PlanBuffer`]; hold a buffer and call that method directly to skip
    /// the per-call allocation.
    fn contains_batch_cost(&self, keys: &[&[u8]]) -> (Vec<bool>, OpCost) {
        self.contains_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Batched insertion with metering: one result per key, in key order,
    /// plus the summed cost of the *successful* insertions (a refused
    /// insert reports no cost, exactly as the scalar call returns none).
    ///
    /// The default runs [`Filter::insert_batch_with`] with a fresh
    /// [`PlanBuffer`].
    fn insert_batch_cost(&mut self, keys: &[&[u8]]) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.insert_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Batched membership check using a caller-held [`PlanBuffer`] —
    /// the allocation-free entry point of the fused batch pipeline.
    ///
    /// Callers that issue many batches hold one buffer and pass it to
    /// every call; after the first batch at a given size the plan stage
    /// performs no allocation. The buffer is scratch space only: its
    /// contents on return are unspecified, and reusing a buffer **must**
    /// yield bit-identical verdicts and costs to a fresh one.
    ///
    /// The default is the scalar loop over [`Filter::contains_bytes_cost`].
    /// Implementations may override with a pipelined pass (hash all keys,
    /// then probe), but an override **must** be observationally identical
    /// to that loop: same verdicts, same total cost (including per-key
    /// query short-circuiting).
    fn contains_batch_with(&self, keys: &[&[u8]], _plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        contains_batch_scalar(self, keys)
    }

    /// Batched insertion using a caller-held [`PlanBuffer`]; the buffer
    /// contract is as for [`Filter::contains_batch_with`].
    ///
    /// The default is the scalar loop over [`Filter::insert_bytes_cost`].
    /// Keys are applied strictly in order, so overrides leave the filter
    /// in the bit-identical state that loop would.
    fn insert_batch_with(
        &mut self,
        keys: &[&[u8]],
        _plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        insert_batch_scalar(self, keys)
    }

    /// Batched membership check that also reports the batch to an
    /// [`OpSink`] as one `(kind, ops, cost, wall nanos)` sample — the hook
    /// the telemetry layer's histograms and ledgers hang off.
    ///
    /// Verdicts and cost are exactly those of
    /// [`Filter::contains_batch_cost`]; the sink only observes.
    fn contains_batch_metered(&self, keys: &[&[u8]], sink: &dyn OpSink) -> (Vec<bool>, OpCost) {
        let t = Instant::now();
        let (hits, cost) = self.contains_batch_cost(keys);
        sink.record_batch(
            OpKind::Query,
            keys.len() as u64,
            cost,
            t.elapsed().as_nanos() as u64,
        );
        (hits, cost)
    }

    /// Batched insertion that also reports the batch to an [`OpSink`].
    /// Results and cost are exactly those of [`Filter::insert_batch_cost`];
    /// refused inserts count toward `ops` but (as always) cost nothing.
    fn insert_batch_metered(
        &mut self,
        keys: &[&[u8]],
        sink: &dyn OpSink,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        let t = Instant::now();
        let (results, cost) = self.insert_batch_cost(keys);
        sink.record_batch(
            OpKind::Insert,
            keys.len() as u64,
            cost,
            t.elapsed().as_nanos() as u64,
        );
        (results, cost)
    }

    /// Batched membership check for any [`Key`] type (results only).
    fn contains_batch<K: Key>(&self, keys: &[K]) -> Vec<bool> {
        let owned: Vec<_> = keys.iter().map(Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.contains_batch_cost(&views).0
    }

    /// Batched insertion for any [`Key`] type (results only).
    fn insert_batch<K: Key>(&mut self, keys: &[K]) -> Vec<Result<(), FilterError>> {
        let owned: Vec<_> = keys.iter().map(Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.insert_batch_cost(&views).0
    }
}

/// A filter that also supports deletion (the "counting" in CBF).
pub trait CountingFilter: Filter {
    /// Deletion with metering.
    ///
    /// Deleting an element that is not present returns
    /// [`FilterError::NotPresent`] and leaves the filter unchanged.
    fn remove_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError>;

    /// Deletion of raw bytes.
    #[inline]
    fn remove_bytes(&mut self, key: &[u8]) -> Result<(), FilterError> {
        self.remove_bytes_cost(key).map(|_| ())
    }

    /// Deletion of any [`Key`] type.
    #[inline]
    fn remove<K: Key + ?Sized>(&mut self, key: &K) -> Result<(), FilterError> {
        self.remove_bytes(key.key_bytes().as_slice())
    }

    /// Batched deletion with metering: one result per key, in key order,
    /// plus the summed cost of the *successful* deletions (removing an
    /// absent key reports [`FilterError::NotPresent`] and no cost).
    ///
    /// The default runs [`CountingFilter::remove_batch_with`] with a fresh
    /// [`PlanBuffer`].
    fn remove_batch_cost(&mut self, keys: &[&[u8]]) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.remove_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Batched deletion using a caller-held [`PlanBuffer`]; the buffer
    /// contract is as for [`Filter::contains_batch_with`].
    ///
    /// The default is the scalar loop over
    /// [`CountingFilter::remove_bytes_cost`]. Keys are applied strictly
    /// in order; overrides must leave the filter in the bit-identical
    /// state that loop would.
    fn remove_batch_with(
        &mut self,
        keys: &[&[u8]],
        _plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        remove_batch_scalar(self, keys)
    }

    /// Batched deletion that also reports the batch to an [`OpSink`].
    /// Results and cost are exactly those of
    /// [`CountingFilter::remove_batch_cost`]; failed removals count toward
    /// `ops` but cost nothing.
    fn remove_batch_metered(
        &mut self,
        keys: &[&[u8]],
        sink: &dyn OpSink,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        let t = Instant::now();
        let (results, cost) = self.remove_batch_cost(keys);
        sink.record_batch(
            OpKind::Remove,
            keys.len() as u64,
            cost,
            t.elapsed().as_nanos() as u64,
        );
        (results, cost)
    }

    /// Batched deletion for any [`Key`] type (results only).
    fn remove_batch<K: Key>(&mut self, keys: &[K]) -> Vec<Result<(), FilterError>> {
        let owned: Vec<_> = keys.iter().map(Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.remove_batch_cost(&views).0
    }
}

/// The scalar batch query: [`Filter::contains_bytes_cost`] per key, in key
/// order, with the costs summed. The default `contains_batch_with`, and
/// what every pipelined override runs below [`crate::SMALL_BATCH`] keys.
pub(crate) fn contains_batch_scalar<F: Filter + ?Sized>(
    filter: &F,
    keys: &[&[u8]],
) -> (Vec<bool>, OpCost) {
    let mut total = OpCost::zero();
    let hits = keys
        .iter()
        .map(|key| {
            let (hit, cost) = filter.contains_bytes_cost(key);
            total = total.add(cost);
            hit
        })
        .collect();
    (hits, total)
}

/// The scalar batch insert: [`Filter::insert_bytes_cost`] per key, in key
/// order; see [`settle`].
pub(crate) fn insert_batch_scalar<F: Filter + ?Sized>(
    filter: &mut F,
    keys: &[&[u8]],
) -> (Vec<Result<(), FilterError>>, OpCost) {
    settle(keys.iter().map(|key| filter.insert_bytes_cost(key)))
}

/// The scalar batch remove: [`CountingFilter::remove_bytes_cost`] per
/// key, in key order; see [`settle`].
pub(crate) fn remove_batch_scalar<F: CountingFilter + ?Sized>(
    filter: &mut F,
    keys: &[&[u8]],
) -> (Vec<Result<(), FilterError>>, OpCost) {
    settle(keys.iter().map(|key| filter.remove_bytes_cost(key)))
}

/// Collects per-key update outcomes into the batch shape: one result per
/// key plus the summed cost of the successes (a refused update costs
/// nothing, as its scalar call reports none).
pub(crate) fn settle(
    outcomes: impl Iterator<Item = Result<OpCost, FilterError>>,
) -> (Vec<Result<(), FilterError>>, OpCost) {
    let mut total = OpCost::zero();
    let results = outcomes
        .map(|outcome| outcome.map(|cost| total = total.add(cost)))
        .collect();
    (results, total)
}
