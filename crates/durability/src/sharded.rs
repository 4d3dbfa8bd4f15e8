//! One durable wrapper for every sharded pool: one WAL per shard,
//! parallel recovery.
//!
//! [`DurableSharded`] runs over any [`ShardedPool`] — the fixed-size
//! [`ShardedMpcbf`] ([`DurableShardedMpcbf`]) or the autoscaling
//! [`ElasticShardedMpcbf`] ([`DurableElasticSharded`]). Each shard owns
//! an independent WAL (`wal-s{NNNN}-*.wal`, a [`ShardLog`]) with its own
//! sequence numbering, so appends on different shards never contend on
//! a shared log file, mirroring the pools' one-lock-per-shard design.
//! Keys are routed to their log with [`ShardedPool::home_shard`], the
//! same digest bits that route the probe, so a shard's WAL replays
//! entirely into that shard. Every mutation takes the one write path:
//! log → [`ShardedPool::apply`] → the pool's capacity step (a logged
//! scale-up and one migration batch on the elastic pool, nothing on the
//! fixed one).
//!
//! Snapshots are whole-pool: a small envelope records every shard's
//! sequence number at capture time, followed by the pool's codec image,
//! CRC-sealed. Recovery loads the newest valid snapshot and then scans
//! and replays every shard's WAL **in parallel** (scoped threads — pool
//! ops take `&self`), each shard skipping records at or below its
//! snapshot seq. Structural records replay into the shard whose log
//! they came from, so a recovered elastic pool has the same generation
//! stacks as the crashed one.

use crate::durable::DurabilityOptions;
use crate::error::DurableError;
use crate::pool::ShardedPool;
use crate::record::{WalOp, WalRecord};
use crate::report::RecoveryReport;
use crate::snapshot::SnapshotStore;
use crate::wal::Wal;
use mpcbf_concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
use mpcbf_core::codec::crc32;
use mpcbf_core::{CodecError, FilterError};
use mpcbf_hash::Murmur3;

const SNAP_PREFIX: &str = "snap";
const ENVELOPE_MAGIC: &[u8; 4] = b"MPSS";

fn wal_prefix(shard: usize) -> String {
    format!("wal-s{shard:04}")
}

/// Builds the snapshot envelope: magic, per-shard seqs, inner image, CRC.
///
/// Public so a server that decomposes the wrapper (see
/// [`DurableSharded::into_service_parts`]) can publish snapshots in the
/// same format recovery expects.
pub fn encode_envelope(seqs: &[u64], image: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + seqs.len() * 8 + 8 + image.len() + 4);
    out.extend_from_slice(ENVELOPE_MAGIC);
    out.extend_from_slice(&(seqs.len() as u32).to_le_bytes());
    for &s in seqs {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(image.len() as u64).to_le_bytes());
    out.extend_from_slice(image);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Total parse of the envelope; `None` on any inconsistency.
pub fn decode_envelope(buf: &[u8]) -> Option<(Vec<u64>, &[u8])> {
    if buf.len() < 4 + 4 + 8 + 4 || &buf[..4] != ENVELOPE_MAGIC {
        return None;
    }
    let body = &buf[..buf.len() - 4];
    let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let shard_count = u32::from_le_bytes(body[4..8].try_into().ok()?) as usize;
    // Every seq costs 8 bytes; the body bounds the plausible count.
    if shard_count > body.len() / 8 {
        return None;
    }
    let mut pos = 8;
    let mut seqs = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        seqs.push(u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?));
        pos += 8;
    }
    let image_len = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?) as usize;
    pos += 8;
    let image = body.get(pos..pos.checked_add(image_len)?)?;
    if pos + image_len != body.len() {
        return None;
    }
    Some((seqs, image))
}

/// One shard's write-ahead log and its last-assigned sequence number.
/// A server worker owns one (see [`DurableSharded::into_service_parts`]).
pub struct ShardLog {
    wal: Wal,
    seq: u64,
}

impl ShardLog {
    /// Opens shard `shard`'s log with `seq` already assigned, starting a
    /// fresh segment at `seq + 1`.
    fn open(opts: &DurabilityOptions, shard: usize, seq: u64) -> Result<Self, DurableError> {
        let mut wal = Wal::new(
            &opts.dir,
            &wal_prefix(shard),
            opts.fsync,
            opts.segment_bytes,
            opts.kill.clone(),
        )?;
        wal.rotate(seq + 1)?;
        Ok(ShardLog { wal, seq })
    }

    /// Appends `op` under the next sequence number and returns the
    /// logged record. On error nothing is assigned.
    pub fn append(&mut self, op: WalOp) -> Result<WalRecord, DurableError> {
        let record = WalRecord {
            seq: self.seq + 1,
            op,
        };
        self.wal.append(&record)?;
        self.seq = record.seq;
        Ok(record)
    }

    /// The last-assigned sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Forces the log to disk.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()
    }

    /// After a snapshot covering [`ShardLog::seq`]: starts a fresh
    /// segment and deletes the covered ones.
    pub fn truncate(&mut self) -> Result<(), DurableError> {
        self.wal.rotate(self.seq + 1)?;
        self.wal.purge_below(self.seq + 1).map(|_| ())
    }
}

/// Splits `keys` by home shard: each shard's keys in input order, and
/// each key's input index beside it.
pub fn group_by_shard(
    pool: &dyn ShardedPool,
    keys: impl IntoIterator<Item = Vec<u8>>,
) -> (Vec<Vec<Vec<u8>>>, Vec<Vec<usize>>) {
    let mut groups = vec![Vec::new(); pool.shard_count()];
    let mut origin = vec![Vec::new(); pool.shard_count()];
    for (i, key) in keys.into_iter().enumerate() {
        let shard = pool.home_shard(&key);
        groups[shard].push(key);
        origin[shard].push(i);
    }
    (groups, origin)
}

/// Write-ahead-logged [`ShardedPool`] with per-shard logs and parallel
/// crash recovery. Mutations take `&mut self` — the logging layer is
/// single-writer even though the pool beneath is not; a concurrent
/// durable server decomposes the wrapper with
/// [`DurableSharded::into_service_parts`] and drives each shard's log
/// from that shard's worker.
pub struct DurableSharded<P> {
    pool: P,
    logs: Vec<ShardLog>,
    snapshots: SnapshotStore,
    /// Records logged (summed over shards) when the last snapshot ran.
    logged_at_snapshot: u64,
    snapshot_every: Option<u64>,
}

/// The durable fixed-size pool.
pub type DurableShardedMpcbf<H = Murmur3> = DurableSharded<ShardedMpcbf<u64, H>>;

/// The durable elastic pool. Build its pool with
/// [`ElasticShardedMpcbf::manual`]: scale-ups must go through the log.
pub type DurableElasticSharded<H = Murmur3> = DurableSharded<ElasticShardedMpcbf<H>>;

impl<P: ShardedPool> DurableSharded<P> {
    /// Writes snapshot seq 0 of `pool` and one empty WAL segment per
    /// shard.
    fn init(
        pool: &P,
        opts: &DurabilityOptions,
    ) -> Result<(Vec<ShardLog>, SnapshotStore), DurableError> {
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let seqs = vec![0; pool.shard_count()];
        let logs = (0..seqs.len())
            .map(|shard| ShardLog::open(opts, shard, 0))
            .collect::<Result<Vec<_>, _>>()?;
        snapshots.write(0, &encode_envelope(&seqs, &pool.encode_image()))?;
        Ok((logs, snapshots))
    }

    /// Starts a fresh durable pool: initial snapshot, one WAL segment per
    /// shard.
    pub fn create(pool: P, opts: DurabilityOptions) -> Result<Self, DurableError> {
        let (logs, snapshots) = Self::init(&pool, &opts)?;
        Ok(DurableSharded {
            pool,
            logs,
            snapshots,
            logged_at_snapshot: 0,
            snapshot_every: opts.snapshot_every,
        })
    }

    /// Materialises a bulk-built pool as a durable directory without
    /// logging a single per-key WAL frame: initial snapshot of `pool` as
    /// it stands, plus one empty WAL segment per shard. A subsequent
    /// [`DurableSharded::open_or_recover`] (or `mpcbf serve`) cold-starts
    /// from the snapshot with zero records replayed.
    pub fn bootstrap(pool: &P, opts: DurabilityOptions) -> Result<(), DurableError> {
        Self::init(pool, &opts).map(|_| ())
    }

    /// Recovers from `opts.dir`: newest valid snapshot, then every
    /// shard's WAL scanned, repaired, and replayed in parallel through
    /// [`ShardedPool::apply`]. `fallback` supplies the pool for a fresh
    /// (or fully corrupt) directory; its shard count defines the log
    /// layout. A snapshot of another codec format version fails recovery
    /// with [`DurableError::IncompatibleSnapshot`].
    pub fn open_or_recover(
        opts: DurabilityOptions,
        fallback: impl FnOnce() -> P,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let mut report = RecoveryReport::default();
        let (base, corrupt) = snapshots.load_latest_with(|bytes| {
            let (seqs, image) =
                decode_envelope(bytes).ok_or(CodecError::BadHeader("snapshot envelope"))?;
            let pool = P::decode_image(image)?;
            if seqs.len() != pool.shard_count() {
                return Err(CodecError::BadHeader("snapshot shard count"));
            }
            Ok((seqs, pool))
        })?;
        report.snapshots_corrupt = corrupt;
        let (pool, snap_seqs) = match base {
            Some((snap_seq, (seqs, pool))) => {
                report.snapshot_seq = Some(snap_seq);
                (pool, seqs)
            }
            None => {
                let pool = fallback();
                let count = pool.shard_count();
                (pool, vec![0; count])
            }
        };

        // Scan + repair + replay each shard's log on its own thread.
        let shard_results: Vec<Result<RecoveryReport, DurableError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = snap_seqs
                    .iter()
                    .enumerate()
                    .map(|(shard, &base_seq)| {
                        let (dir, pool) = (&opts.dir, &pool);
                        scope.spawn(move || {
                            let (records, scan) = Wal::scan(dir, &wal_prefix(shard))?;
                            let mut shard_report = RecoveryReport {
                                records_scanned: scan.records,
                                segments_dropped: scan.segments_dropped,
                                bytes_truncated: scan.bytes_truncated,
                                torn_tails: scan.torn.into_iter().collect(),
                                last_seq: base_seq,
                                scrub_clean: true,
                                ..Default::default()
                            };
                            for record in records.iter().filter(|r| r.seq > base_seq) {
                                shard_report.records_replayed += 1;
                                shard_report.ops_replayed += record.op.op_count();
                                pool.apply(shard, &record.op);
                                shard_report.last_seq = record.seq;
                            }
                            Ok(shard_report)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard recovery panicked"))
                    .collect()
            });

        let mut logs = Vec::with_capacity(shard_results.len());
        for (shard, result) in shard_results.into_iter().enumerate() {
            let shard_report = result?;
            report.absorb_shard(&shard_report);
            logs.push(ShardLog::open(&opts, shard, shard_report.last_seq)?);
        }
        report.scrub_clean = pool.verify_integrity();
        let logged_at_snapshot = logs.iter().map(ShardLog::seq).sum();
        let durable = DurableSharded {
            pool,
            logs,
            snapshots,
            logged_at_snapshot,
            snapshot_every: opts.snapshot_every,
        };
        Ok((durable, report))
    }

    /// The wrapped pool (reads only; mutate through the logged entry
    /// points).
    pub fn inner(&self) -> &P {
        &self.pool
    }

    /// Per-shard last-assigned sequence numbers.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.logs.iter().map(ShardLog::seq).collect()
    }

    /// Records logged so far, summed over shards.
    fn logged(&self) -> u64 {
        self.logs.iter().map(ShardLog::seq).sum()
    }

    /// The one write path: logs `op` to `shard`'s WAL, applies it, then
    /// runs the pool's capacity step (logged scale-up, one migration
    /// batch).
    fn mutate(
        &mut self,
        shard: usize,
        op: WalOp,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        let record = self.logs[shard].append(op)?;
        let results = self.pool.apply(shard, &record.op);
        self.pool.scale_up(shard, &mut self.logs[shard])?;
        self.pool.step_migration(shard);
        Ok(results)
    }

    fn mutate_one(&mut self, op: WalOp, key: &[u8]) -> Result<(), DurableError> {
        let shard = self.pool.home_shard(key);
        let result = self.mutate(shard, op)?.pop().unwrap_or(Ok(()));
        self.maybe_snapshot()?;
        result.map_err(DurableError::Filter)
    }

    fn maybe_snapshot(&mut self) -> Result<(), DurableError> {
        if let Some(every) = self.snapshot_every {
            if self.logged() - self.logged_at_snapshot >= every {
                self.snapshot()?;
            }
        }
        Ok(())
    }

    /// Logs to the key's home-shard WAL, then applies.
    pub fn insert_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        self.mutate_one(WalOp::Insert(key.to_vec()), key)
    }

    /// Logs to the key's home-shard WAL, then applies.
    pub fn remove_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        self.mutate_one(WalOp::Remove(key.to_vec()), key)
    }

    /// Logs the batch as one frame **per touched shard** and applies each
    /// right after it is logged (a shard's sub-batch replays
    /// all-or-nothing into that shard, in batch order). Per-key outcomes
    /// come back in input order.
    pub fn insert_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.mutate_batch(keys, WalOp::InsertBatch)
    }

    /// Batch remove twin of [`DurableSharded::insert_batch_bytes`].
    pub fn remove_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.mutate_batch(keys, WalOp::RemoveBatch)
    }

    fn mutate_batch(
        &mut self,
        keys: &[&[u8]],
        frame: fn(Vec<Vec<u8>>) -> WalOp,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        let (groups, origin) = group_by_shard(&self.pool, keys.iter().map(|k| k.to_vec()));
        let mut results = vec![Ok(()); keys.len()];
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            for (result, &i) in self
                .mutate(shard, frame(group))?
                .into_iter()
                .zip(&origin[shard])
            {
                results[i] = result;
            }
        }
        self.maybe_snapshot()?;
        Ok(results)
    }

    /// Unlogged read.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        self.pool.contains_bytes(key)
    }

    /// Forces every shard's WAL to disk.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.logs.iter_mut().try_for_each(ShardLog::sync)
    }

    /// Shutdown flush — every acknowledged op durable before a clean
    /// stop. Alias of [`DurableSharded::sync`], named for symmetry with
    /// [`crate::DurableFilter::flush`].
    pub fn flush(&mut self) -> Result<(), DurableError> {
        self.sync()
    }

    /// Decomposes the single-writer wrapper into its parts so a server
    /// can own each shard's [`ShardLog`] on that shard's worker thread
    /// while sharing the `&self`-concurrent pool across connections. The
    /// [`SnapshotStore`] keeps writing envelopes ([`encode_envelope`])
    /// that [`DurableSharded::open_or_recover`] reads back, so service
    /// checkpoints and library recovery stay one format.
    pub fn into_service_parts(self) -> (P, Vec<ShardLog>, SnapshotStore) {
        (self.pool, self.logs, self.snapshots)
    }

    /// Whole-pool snapshot: syncs every WAL, publishes the envelope
    /// (per-shard seqs + pool image, including any in-flight migration)
    /// atomically, then rotates and purges every shard's log.
    pub fn snapshot(&mut self) -> Result<(), DurableError> {
        self.sync()?;
        let seqs = self.shard_seqs();
        let snap_seq = seqs.iter().copied().max().unwrap_or(0);
        self.snapshots
            .write(snap_seq, &encode_envelope(&seqs, &self.pool.encode_image()))?;
        self.logs.iter_mut().try_for_each(ShardLog::truncate)?;
        self.snapshots.purge_below(snap_seq)?;
        self.logged_at_snapshot = self.logged();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::policy::CapacityPolicy;
    use mpcbf_core::MpcbfConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mpcbf-dsh-{tag}-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn filter() -> ShardedMpcbf<u64> {
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .hashes(3)
            .seed(21)
            .build()
            .unwrap();
        ShardedMpcbf::new(c, 8)
    }

    #[test]
    fn envelope_roundtrip_and_rejection() {
        let seqs = vec![3, 0, 77, 12];
        let image = vec![9u8; 200];
        let env = encode_envelope(&seqs, &image);
        let (dseqs, dimage) = decode_envelope(&env).unwrap();
        assert_eq!(dseqs, seqs);
        assert_eq!(dimage, &image[..]);
        for pos in 0..env.len() {
            let mut corrupt = env.clone();
            corrupt[pos] ^= 0x20;
            assert!(decode_envelope(&corrupt).is_none(), "flip at {pos}");
        }
        for cut in 0..env.len() {
            assert!(decode_envelope(&env[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn clean_restart_recovers_bit_exact_in_parallel() {
        let dir = scratch_dir("clean");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableShardedMpcbf::<Murmur3>::create(filter(), opts.clone()).unwrap();
        let keys: Vec<Vec<u8>> = (0..2_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for (i, key) in keys.iter().enumerate() {
            if i % 3 == 0 {
                durable.insert_bytes(key).unwrap();
            }
        }
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        durable.insert_batch_bytes(&views[..500]).unwrap();
        durable.remove_batch_bytes(&views[..100]).unwrap();
        let reference: Vec<Vec<u64>> = (0..durable.inner().shard_count())
            .map(|s| durable.inner().shard_raw_words(s))
            .collect();
        drop(durable); // "crash" without snapshotting the tail

        let (recovered, report) =
            DurableShardedMpcbf::<Murmur3>::open_or_recover(opts, filter).unwrap();
        assert!(report.scrub_clean, "scrub must pass: {report}");
        assert!(report.records_replayed > 0);
        for (s, words) in reference.iter().enumerate() {
            assert_eq!(
                &recovered.inner().shard_raw_words(s),
                words,
                "shard {s} not bit-identical"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_all_shard_logs() {
        let dir = scratch_dir("snap");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableShardedMpcbf::<Murmur3>::create(filter(), opts.clone()).unwrap();
        for i in 0..1_000u64 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        durable.snapshot().unwrap();
        for i in 1_000..1_200u64 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let reference: Vec<Vec<u64>> = (0..durable.inner().shard_count())
            .map(|s| durable.inner().shard_raw_words(s))
            .collect();
        drop(durable);

        let (recovered, report) =
            DurableShardedMpcbf::<Murmur3>::open_or_recover(opts, filter).unwrap();
        assert!(report.snapshot_seq.is_some(), "snapshot must be the base");
        assert!(
            report.records_replayed <= 200,
            "snapshot must bound the replay: {}",
            report.records_replayed
        );
        for (s, words) in reference.iter().enumerate() {
            assert_eq!(&recovered.inner().shard_raw_words(s), words, "shard {s}");
        }
        for i in 0..1_200u64 {
            assert!(recovered.contains_bytes(&i.to_le_bytes()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn pool_config(seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(131_072)
            .expected_items(2_000)
            .hashes(3)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn fresh_pool(seed: u64) -> ElasticShardedMpcbf {
        ElasticShardedMpcbf::manual(pool_config(seed), 2, CapacityPolicy::default()).unwrap()
    }

    #[test]
    fn overload_scales_through_the_log_and_recovers_the_stack() {
        let dir = scratch_dir("scale");
        let opts = DurabilityOptions::new(&dir);
        let mut durable =
            DurableElasticSharded::<Murmur3>::create(fresh_pool(11), opts.clone()).unwrap();
        for i in 0..20_000u64 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let stats = durable.inner().stats();
        assert!(stats.scale_events > 0, "10x overload must log a scale-up");
        drop(durable); // crash without a snapshot of the tail

        let (recovered, report) =
            DurableElasticSharded::<Murmur3>::open_or_recover(opts, || fresh_pool(11)).unwrap();
        assert!(report.scrub_clean, "verify must pass: {report}");
        assert!(report.records_replayed > 0);
        let rstats = recovered.inner().stats();
        assert_eq!(rstats.items, 20_000);
        assert_eq!(rstats.scale_events, stats.scale_events);
        for i in 0..20_000u64 {
            assert!(
                recovered.contains_bytes(&i.to_le_bytes()),
                "false negative {i} after recovery"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_mid_migration_recovers_and_finishes_compaction() {
        let dir = scratch_dir("midmig");
        let opts = DurabilityOptions::new(&dir);
        let mut durable =
            DurableElasticSharded::<Murmur3>::create(fresh_pool(12), opts.clone()).unwrap();
        // Push far enough that some shard is mid-compaction (the write
        // path drains `compact_batch` keys per insert, so a burst right
        // after the trigger leaves a migration in flight).
        let mut i = 0u64;
        while durable.inner().stats().compacting_shards == 0 && i < 60_000 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
            i += 1;
        }
        assert!(i < 60_000, "never entered a compaction window");
        durable.snapshot().unwrap();
        for j in i..i + 500 {
            durable.insert_bytes(&j.to_le_bytes()).unwrap();
        }
        let total = i + 500;
        drop(durable);

        let (recovered, report) =
            DurableElasticSharded::<Murmur3>::open_or_recover(opts, || fresh_pool(12)).unwrap();
        assert!(report.snapshot_seq.is_some());
        assert!(report.scrub_clean, "verify must pass: {report}");
        assert_eq!(recovered.inner().items(), total);
        for k in 0..total {
            assert!(recovered.contains_bytes(&k.to_le_bytes()), "lost key {k}");
        }
        // Recovery must leave the in-flight migration resumable.
        let mut drained = 0u64;
        for shard in 0..recovered.inner().shard_count() {
            drained += recovered.inner().with_shard(shard, |f| {
                let mut moved = 0u64;
                while f.compacting() {
                    moved += f.step_compaction(1024) as u64;
                }
                moved
            });
        }
        let _ = drained;
        assert_eq!(recovered.inner().verify(), Ok(()));
        assert_eq!(recovered.inner().items(), total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_and_removals_replay_into_the_elastic_pool() {
        let dir = scratch_dir("batch");
        let opts = DurabilityOptions::new(&dir);
        let mut durable =
            DurableElasticSharded::<Murmur3>::create(fresh_pool(13), opts.clone()).unwrap();
        let keys: Vec<Vec<u8>> = (0..4_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        durable.insert_batch_bytes(&views).unwrap();
        durable.remove_batch_bytes(&views[..1_000]).unwrap();
        durable.remove_bytes(&keys[1_000]).unwrap();
        drop(durable);

        let (recovered, report) =
            DurableElasticSharded::<Murmur3>::open_or_recover(opts, || fresh_pool(13)).unwrap();
        assert!(report.scrub_clean);
        assert_eq!(recovered.inner().items(), 4_000 - 1_001);
        let mut removed_hits = 0u64;
        for (idx, key) in keys.iter().enumerate() {
            if idx > 1_000 {
                assert!(recovered.contains_bytes(key), "false negative {idx}");
            } else if recovered.contains_bytes(key) {
                removed_hits += 1; // false positive — allowed, just bounded
            }
        }
        assert!(
            removed_hits < 100,
            "removed keys should mostly query absent, {removed_hits} hit"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
