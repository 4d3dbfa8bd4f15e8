//! [`ShardedPool`]: the one interface the durable wrapper, the server and
//! recovery replay drive, implemented by the fixed-size
//! [`ShardedMpcbf`] and the autoscaling [`ElasticShardedMpcbf`].
//!
//! Both pools route a key to one partition by its digest bits, so a
//! shard's WAL replays entirely into that shard. They differ only in
//! structure: the elastic pool grows per shard, which it logs as
//! [`WalOp::ScaleUp`] and [`WalOp::Compact`] records through
//! [`ShardedPool::scale_up`] and drains at batch granularity through
//! [`ShardedPool::step_migration`]. Both hooks are no-ops on the fixed
//! pool.

use crate::durable::DurableImage;
use crate::error::DurableError;
use crate::record::WalOp;
use crate::sharded::ShardLog;
use mpcbf_concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
use mpcbf_core::{CodecError, FilterError, ScaleSpec};
use mpcbf_hash::Hasher128;
use mpcbf_telemetry::TelemetrySnapshot;

/// A sharded filter the durability layer can log, replay and serve.
/// Object safe: the server holds an `Arc<dyn ShardedPool>`.
pub trait ShardedPool: DurableImage + Send + Sync {
    /// Number of shards (one WAL each).
    fn shard_count(&self) -> usize;
    /// The shard that owns `key`, and whose WAL logs its mutations.
    fn home_shard(&self, key: &[u8]) -> usize;
    /// Unlogged membership query.
    fn contains_bytes(&self, key: &[u8]) -> bool;
    /// Unlogged batch query, answers in input order.
    fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool>;
    /// Applies one logged op of `shard`'s WAL: per-key outcomes in the
    /// op's key order (none for structural records). The live write
    /// path and recovery replay both come through here.
    fn apply(&self, shard: usize, op: &WalOp) -> Vec<Result<(), FilterError>>;
    /// Commits a scale plan `shard` has parked: logs the exact
    /// [`ScaleSpec`] to `log`, applies it, logs a compaction marker and
    /// starts migrating. `Ok(true)` once committed. If the first append
    /// fails the plan stays parked for the next call.
    fn scale_up(&self, _shard: usize, _log: &mut ShardLog) -> Result<bool, DurableError> {
        Ok(false)
    }
    /// Moves one policy-sized batch of keys of an in-flight migration
    /// (`CapacityPolicy::compact_batch`); true while keys remain.
    fn step_migration(&self, _shard: usize) -> bool {
        false
    }
    /// Pool kind as reported by STATS `"mode"`.
    fn mode(&self) -> &'static str;
    /// Word-overflow refusals since construction.
    fn overflows(&self) -> u64 {
        0
    }
    /// Pool-specific STATS fields: a JSON fragment that starts with `,`.
    fn stats_fields(&self) -> String;
    /// Adds the pool-specific series to a `/metrics` snapshot.
    fn export_metrics(&self, snap: &mut TelemetrySnapshot);
}

fn views(keys: &[Vec<u8>]) -> Vec<&[u8]> {
    keys.iter().map(|k| k.as_slice()).collect()
}

impl<H: Hasher128> DurableImage for ShardedMpcbf<u64, H> {
    fn encode_image(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_image(buf: &[u8]) -> Result<Self, CodecError> {
        Self::decode(buf)
    }
    /// Structural verify plus an epoch seal/scrub pass.
    fn verify_integrity(&self) -> bool {
        self.verify().is_ok() && self.scrub(&self.seal()).is_clean()
    }
}

impl<H: Hasher128> ShardedPool for ShardedMpcbf<u64, H> {
    fn shard_count(&self) -> usize {
        ShardedMpcbf::shard_count(self)
    }
    fn home_shard(&self, key: &[u8]) -> usize {
        ShardedMpcbf::home_shard(self, key)
    }
    fn contains_bytes(&self, key: &[u8]) -> bool {
        ShardedMpcbf::contains_bytes(self, key)
    }
    fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        ShardedMpcbf::contains_batch_bytes(self, keys)
    }
    fn apply(&self, _shard: usize, op: &WalOp) -> Vec<Result<(), FilterError>> {
        match op {
            WalOp::Insert(key) => vec![self.insert_bytes(key)],
            WalOp::Remove(key) => vec![self.remove_bytes(key)],
            WalOp::InsertBatch(keys) => self.insert_batch_bytes(&views(keys)),
            WalOp::RemoveBatch(keys) => self.remove_batch_bytes(&views(keys)),
            // A fixed-size pool has no generations to scale or compact.
            WalOp::ScaleUp { .. } | WalOp::Compact => Vec::new(),
        }
    }
    fn mode(&self) -> &'static str {
        "fixed"
    }
    fn overflows(&self) -> u64 {
        ShardedMpcbf::overflows(self)
    }
    fn stats_fields(&self) -> String {
        let locks = self.lock_stats();
        format!(
            ",\"lock_acquisitions\":{},\"lock_contended\":{}",
            locks.acquisitions, locks.contended
        )
    }
    fn export_metrics(&self, snap: &mut TelemetrySnapshot) {
        let locks = self.lock_stats();
        snap.counters
            .insert("filter_lock_acquisitions".into(), locks.acquisitions);
        snap.counters
            .insert("filter_lock_contended".into(), locks.contended);
    }
}

impl<H: Hasher128> DurableImage for ElasticShardedMpcbf<H> {
    fn encode_image(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_image(buf: &[u8]) -> Result<Self, CodecError> {
        Self::decode(buf)
    }
    /// The elastic pool has no epoch-scrub seal; the structural verifier
    /// (roster, filter and migration cross-checks per shard) is the gate.
    fn verify_integrity(&self) -> bool {
        self.verify().is_ok()
    }
}

/// The durable elastic pool must be built by
/// [`ElasticShardedMpcbf::manual`] (or decoded from an image of one): an
/// auto-scaling pool would change shape without a WAL record, and replay
/// could not reproduce it.
impl<H: Hasher128> ShardedPool for ElasticShardedMpcbf<H> {
    fn shard_count(&self) -> usize {
        ElasticShardedMpcbf::shard_count(self)
    }
    fn home_shard(&self, key: &[u8]) -> usize {
        ElasticShardedMpcbf::home_shard(self, key)
    }
    fn contains_bytes(&self, key: &[u8]) -> bool {
        ElasticShardedMpcbf::contains_bytes(self, key)
    }
    fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        ElasticShardedMpcbf::contains_batch_bytes(self, keys)
    }
    /// Key ops re-route through the pool (deterministic, so they land
    /// back in `shard`). A [`WalOp::Compact`] begins and fully drains the
    /// migration: counter updates commute, so replay lands on the
    /// compaction's fixed point whatever the live interleaving was.
    fn apply(&self, shard: usize, op: &WalOp) -> Vec<Result<(), FilterError>> {
        match op {
            WalOp::Insert(key) => vec![self.insert_bytes(key)],
            WalOp::Remove(key) => vec![self.remove_bytes(key)],
            WalOp::InsertBatch(keys) => keys.iter().map(|k| self.insert_bytes(k)).collect(),
            WalOp::RemoveBatch(keys) => keys.iter().map(|k| self.remove_bytes(k)).collect(),
            WalOp::ScaleUp {
                memory_bits,
                expected_items,
            } => {
                let spec = ScaleSpec {
                    memory_bits: *memory_bits,
                    expected_items: *expected_items,
                };
                // A spec no shape fits fails identically live and in
                // replay, so the log and the filter cannot disagree.
                let _ = self.with_shard(shard, |f| f.apply_scale(&spec));
                Vec::new()
            }
            WalOp::Compact => {
                if self.with_shard(shard, |f| f.begin_compaction()) {
                    while self.step_migration(shard) {}
                }
                Vec::new()
            }
        }
    }
    fn scale_up(&self, shard: usize, log: &mut ShardLog) -> Result<bool, DurableError> {
        let Some(spec) = self.with_shard(shard, |f| f.scale_plan()) else {
            return Ok(false);
        };
        let record = log.append(WalOp::ScaleUp {
            memory_bits: spec.memory_bits,
            expected_items: spec.expected_items,
        })?;
        self.apply(shard, &record.op);
        log.append(WalOp::Compact)?;
        self.with_shard(shard, |f| f.begin_compaction());
        Ok(true)
    }
    fn step_migration(&self, shard: usize) -> bool {
        self.with_shard(shard, |f| {
            if f.compacting() {
                let batch = f.policy().compact_batch;
                f.step_compaction(batch);
            }
            f.compacting()
        })
    }
    fn mode(&self) -> &'static str {
        "elastic"
    }
    fn stats_fields(&self) -> String {
        let st = self.stats();
        format!(
            concat!(
                ",\"elastic\":{{\"generations\":{},\"scale_events\":{},",
                "\"compactions\":{},\"migrated_keys\":{},\"fpr_envelope\":{},",
                "\"max_shard_fpr\":{},\"compacting_shards\":{},\"max_pressure\":{}}}"
            ),
            st.generations,
            st.scale_events,
            st.compactions,
            st.migrated_keys,
            st.fpr_envelope,
            st.max_shard_fpr,
            st.compacting_shards,
            st.max_pressure,
        )
    }
    fn export_metrics(&self, snap: &mut TelemetrySnapshot) {
        let st = self.stats();
        for (name, value) in [
            ("elastic_scale_events", st.scale_events),
            ("elastic_compactions", st.compactions),
            ("elastic_migrated_keys", st.migrated_keys),
        ] {
            snap.counters.insert(name.into(), value);
        }
        for (name, value) in [
            ("elastic_generations", st.generations as f64),
            ("elastic_fpr_envelope", st.fpr_envelope),
            ("elastic_max_shard_fpr", st.max_shard_fpr),
            ("elastic_compacting_shards", st.compacting_shards as f64),
            ("elastic_max_pressure", st.max_pressure),
        ] {
            snap.gauges.insert(name.into(), value);
        }
    }
}
