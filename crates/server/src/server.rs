//! The filter server: a thread-per-shard service over
//! [`DurableShardedMpcbf`]'s decomposed parts.
//!
//! # Architecture
//!
//! ```text
//!            accept loop (one thread)
//!                 │ one thread per connection
//!                 ▼
//!   connection threads ── queries ──► Arc<ShardedMpcbf>  (lock-striped,
//!        │                                               read in place)
//!        │ mutations, routed by home_shard(key)
//!        ▼
//!   mpsc queue per shard ──► shard worker thread
//!                              owns that shard's Wal + seq counter:
//!                              log → apply → reply(ack)
//! ```
//!
//! Queries never touch a queue: connection threads read the shared
//! filter directly. Mutations are WAL-first — a shard worker appends the
//! record (the configured [`FsyncPolicy`] decides whether that append
//! reaches the platter before the ack), applies it to the filter, and
//! only then replies. A batch fans out as one WAL frame per touched
//! shard and the connection thread reassembles per-key outcomes in
//! request order.
//!
//! Checkpoints quiesce writers with a barrier: every worker fsyncs,
//! parks at the gate, the coordinator snapshots the filter image plus
//! the per-shard sequence vector, then workers truncate their logs and
//! resume. Graceful shutdown runs a final checkpoint, drains every
//! queue, and fsyncs each WAL, so a clean stop loses nothing under any
//! fsync policy.

use crate::metrics;
use crate::protocol::{
    decode_request, key_code, write_frame, KeyOutcome, Request, MAX_FRAME, STATUS_BAD_REQUEST,
    STATUS_OK, STATUS_REFUSED, STATUS_RETRY_LATER, STATUS_SERVER_ERROR,
};
use mpcbf_concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
use mpcbf_core::metrics::{OpCost, OpKind, OpSink};
use mpcbf_core::policy::CapacityPolicy;
use mpcbf_core::MpcbfConfig;
use mpcbf_durability::{
    encode_envelope, DurabilityOptions, DurableElasticSharded, DurableError, DurableShardedMpcbf,
    RecoveryReport, SnapshotStore, Wal, WalOp, WalRecord,
};
use mpcbf_hash::Murmur3;
use mpcbf_telemetry::Telemetry;
use std::fmt;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long blocked reads and idle accept polls wait between checks of
/// the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Everything needed to start a [`Server`].
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address for the filter protocol (use port 0 to let the OS
    /// pick; read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Optional bind address for the `/metrics` HTTP endpoint.
    pub metrics_addr: Option<String>,
    /// Durability directory, fsync policy, segment size, and the
    /// auto-checkpoint threshold (`snapshot_every` logged records).
    pub durability: DurabilityOptions,
    /// Filter geometry used when the directory holds no usable state.
    pub filter: MpcbfConfig,
    /// Shard count for a fresh filter (recovery keeps the on-disk one).
    pub shards: usize,
    /// Serve an autoscaling [`ElasticShardedMpcbf`] instead of the
    /// fixed-size pool: shards grow under sustained overload (logged to
    /// the WAL first), compact in the background, and shed mutations
    /// with `RETRY_LATER` while they reorganise. A durability directory
    /// keeps its mode for life — recovery cannot read the other mode's
    /// snapshot images.
    pub elastic: bool,
}

/// Errors surfaced while starting or stopping the server.
#[derive(Debug)]
pub enum ServerError {
    /// Socket setup or teardown failed.
    Io(io::Error),
    /// Recovery or WAL initialisation failed.
    Durable(DurableError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o: {e}"),
            ServerError::Durable(e) => write!(f, "server durability: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<DurableError> for ServerError {
    fn from(e: DurableError) -> Self {
        ServerError::Durable(e)
    }
}

/// The served filter: a fixed-size sharded pool or the autoscaling
/// elastic pool. Both route keys by disjoint digest bits, expose the
/// same query surface, and snapshot through the same envelope — the
/// variants only diverge on the worker's structural duties.
#[derive(Clone)]
pub(crate) enum ServiceFilter {
    /// Fixed-geometry pool ([`DurableShardedMpcbf`] parts).
    Fixed(Arc<ShardedMpcbf<u64, Murmur3>>),
    /// Autoscaling per-shard generation stacks
    /// ([`DurableElasticSharded`] parts).
    Elastic(Arc<ElasticShardedMpcbf<Murmur3>>),
}

impl ServiceFilter {
    fn shard_count(&self) -> usize {
        match self {
            ServiceFilter::Fixed(f) => f.shard_count(),
            ServiceFilter::Elastic(f) => f.shard_count(),
        }
    }

    fn home_shard(&self, key: &[u8]) -> usize {
        match self {
            ServiceFilter::Fixed(f) => f.home_shard(key),
            ServiceFilter::Elastic(f) => f.home_shard(key),
        }
    }

    fn contains_bytes(&self, key: &[u8]) -> bool {
        match self {
            ServiceFilter::Fixed(f) => f.contains_bytes(key),
            ServiceFilter::Elastic(f) => f.contains_bytes(key),
        }
    }

    fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        match self {
            ServiceFilter::Fixed(f) => f.contains_batch_bytes(keys),
            ServiceFilter::Elastic(f) => f.contains_batch_bytes(keys),
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            ServiceFilter::Fixed(f) => f.encode(),
            ServiceFilter::Elastic(f) => f.encode(),
        }
    }

    /// Word-overflow refusals (the elastic pool absorbs overload into
    /// spill stores instead of refusing, so it reports none).
    fn overflows(&self) -> u64 {
        match self {
            ServiceFilter::Fixed(f) => f.overflows(),
            ServiceFilter::Elastic(_) => 0,
        }
    }
}

/// Work dispatched to a shard worker.
enum ShardJob {
    /// Log, apply, and acknowledge one WAL operation.
    Apply {
        op: WalOp,
        reply: Sender<ShardReply>,
    },
    /// Fsync this shard's WAL.
    Sync { reply: Sender<ShardReply> },
    /// Park at a checkpoint barrier (see [`Gate`]).
    Checkpoint(Arc<Gate>),
}

/// A worker's answer to an `Apply` or `Sync` job.
struct ShardReply {
    shard: usize,
    /// Per-key outcome codes, in the sub-batch's order. Empty for
    /// `Sync`.
    codes: Vec<u8>,
    /// A WAL failure. The op was NOT acknowledged as durable.
    error: Option<String>,
}

/// Checkpoint barrier shared by the coordinator and every worker.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    /// Each worker's sequence number at the instant it parked.
    seqs: Vec<u64>,
    arrived: usize,
    /// A worker's pre-barrier fsync failed; the snapshot must not claim
    /// its sequence.
    sync_failed: bool,
    /// Coordinator finished (snapshot written or abandoned).
    released: bool,
    /// Snapshot landed: workers may truncate their logs.
    truncate: bool,
}

impl Gate {
    fn new(shards: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                seqs: vec![0; shards],
                arrived: 0,
                sync_failed: false,
                released: false,
                truncate: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// Monotone counters surfaced on `/metrics` and `STATS`.
#[derive(Default)]
struct ServerCounters {
    connections: AtomicU64,
    frames: AtomicU64,
    bad_requests: AtomicU64,
    checkpoints: AtomicU64,
    /// Mutations refused with `RETRY_LATER` while a shard reorganised.
    shed: AtomicU64,
}

/// State shared by the acceptor, connection threads, and coordinator.
pub(crate) struct Shared {
    filter: ServiceFilter,
    /// Per-shard "reorganising" latches: raised by a shard worker from
    /// the moment it commits to a logged scale-up until the migration
    /// drains; dispatch sheds mutations for flagged shards.
    scaling: Vec<Arc<AtomicBool>>,
    /// Cleared at teardown so worker queues close once connection
    /// threads (which hold clones) have exited.
    shard_txs: Mutex<Vec<Sender<ShardJob>>>,
    snapshots: SnapshotStore,
    telemetry: Arc<Telemetry>,
    counters: ServerCounters,
    recovery: RecoveryReport,
    fsync_name: String,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Wakes [`Server::wait`] when shutdown is requested.
    stop_signal: (Mutex<bool>, Condvar),
    /// Serialises checkpoints (two concurrent gates would deadlock the
    /// workers).
    checkpoint_lock: Mutex<()>,
    records_since_checkpoint: AtomicU64,
    snapshot_every: Option<u64>,
}

impl Shared {
    /// True once shutdown has been requested (polled by the metrics
    /// thread).
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// True while `shard`'s worker is scaling or compacting.
    fn is_scaling(&self, shard: usize) -> bool {
        self.scaling
            .get(shard)
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor if it is parked in accept().
        let _ = TcpStream::connect(self.local_addr);
        let (lock, cv) = &self.stop_signal;
        *lock.lock().expect("stop signal poisoned") = true;
        cv.notify_all();
    }

    /// Blocking checkpoint: barrier → snapshot → truncate.
    fn checkpoint(&self) -> Result<(), String> {
        let guard = self
            .checkpoint_lock
            .lock()
            .expect("checkpoint lock poisoned");
        self.checkpoint_locked(guard)
    }

    /// Opportunistic checkpoint after a mutation crossed the
    /// `snapshot_every` threshold; skips if one is already running.
    fn maybe_checkpoint(&self) {
        let Some(every) = self.snapshot_every else {
            return;
        };
        if self.records_since_checkpoint.load(Ordering::Relaxed) < every {
            return;
        }
        if let Ok(guard) = self.checkpoint_lock.try_lock() {
            let _ = self.checkpoint_locked(guard);
        }
    }

    fn checkpoint_locked(&self, _guard: MutexGuard<'_, ()>) -> Result<(), String> {
        let txs = self
            .shard_txs
            .lock()
            .expect("shard queues poisoned")
            .clone();
        if txs.is_empty() {
            return Err("server is stopping".into());
        }
        let gate = Arc::new(Gate::new(txs.len()));
        let mut sent = 0;
        let mut send_failed = false;
        for tx in &txs {
            if tx.send(ShardJob::Checkpoint(gate.clone())).is_ok() {
                sent += 1;
            } else {
                send_failed = true;
            }
        }
        let mut st = gate.state.lock().expect("gate poisoned");
        while st.arrived < sent {
            st = gate.cv.wait(st).expect("gate poisoned");
        }
        // Workers are parked: no writer can race the image capture.
        let result = if send_failed {
            Err("a shard worker is gone".to_string())
        } else if st.sync_failed {
            Err("a shard fsync failed; snapshot abandoned".to_string())
        } else {
            let envelope = encode_envelope(&st.seqs, &self.filter.encode());
            let snap_seq = st.seqs.iter().copied().max().unwrap_or(0);
            self.snapshots
                .write(snap_seq, &envelope)
                .and_then(|()| self.snapshots.purge_below(snap_seq))
                .map_err(|e| e.to_string())
        };
        st.truncate = result.is_ok();
        st.released = true;
        gate.cv.notify_all();
        drop(st);
        if result.is_ok() {
            self.records_since_checkpoint.store(0, Ordering::Relaxed);
            self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn stats_json(&self) -> String {
        let snap = self.telemetry.snapshot();
        let ops: u64 = snap.kinds().iter().map(|(_, k)| k.ops).sum();
        let r = &self.recovery;
        let mode_fields = match &self.filter {
            ServiceFilter::Fixed(pool) => {
                let locks = pool.lock_stats();
                format!(
                    ",\"lock_acquisitions\":{},\"lock_contended\":{}",
                    locks.acquisitions, locks.contended
                )
            }
            ServiceFilter::Elastic(pool) => {
                let st = pool.stats();
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
        };
        format!(
            concat!(
                "{{\"shards\":{},\"mode\":\"{}\",\"fsync\":\"{}\",\"ops\":{},",
                "\"overflows\":{},\"connections\":{},\"frames\":{},\"bad_requests\":{},",
                "\"checkpoints\":{},\"shed\":{},",
                "\"recovery\":{{\"records_replayed\":{},\"ops_replayed\":{},",
                "\"torn_tails\":{},\"segments_dropped\":{},\"scrub_clean\":{}}}{}}}"
            ),
            self.filter.shard_count(),
            match &self.filter {
                ServiceFilter::Fixed(_) => "fixed",
                ServiceFilter::Elastic(_) => "elastic",
            },
            self.fsync_name,
            ops,
            self.filter.overflows(),
            self.counters.connections.load(Ordering::Relaxed),
            self.counters.frames.load(Ordering::Relaxed),
            self.counters.bad_requests.load(Ordering::Relaxed),
            self.counters.checkpoints.load(Ordering::Relaxed),
            self.counters.shed.load(Ordering::Relaxed),
            r.records_replayed,
            r.ops_replayed,
            r.torn_tails.len(),
            r.segments_dropped,
            r.scrub_clean,
            mode_fields,
        )
    }

    /// The Prometheus page: the telemetry snapshot plus server-side
    /// counters injected under the same namespace.
    pub(crate) fn metrics_page(&self) -> String {
        let mut snap = self.telemetry.snapshot();
        let c = &self.counters;
        snap.counters.insert(
            "server_connections".into(),
            c.connections.load(Ordering::Relaxed),
        );
        snap.counters
            .insert("server_frames".into(), c.frames.load(Ordering::Relaxed));
        snap.counters.insert(
            "server_bad_requests".into(),
            c.bad_requests.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            "server_checkpoints".into(),
            c.checkpoints.load(Ordering::Relaxed),
        );
        snap.counters
            .insert("server_shed".into(), c.shed.load(Ordering::Relaxed));
        snap.gauges
            .insert("server_shards".into(), self.filter.shard_count() as f64);
        snap.gauges
            .insert("filter_overflows".into(), self.filter.overflows() as f64);
        if let ServiceFilter::Fixed(pool) = &self.filter {
            let locks = pool.lock_stats();
            snap.counters
                .insert("filter_lock_acquisitions".into(), locks.acquisitions);
            snap.counters
                .insert("filter_lock_contended".into(), locks.contended);
        }
        if let ServiceFilter::Elastic(pool) = &self.filter {
            let st = pool.stats();
            snap.counters
                .insert("elastic_scale_events".into(), st.scale_events);
            snap.counters
                .insert("elastic_compactions".into(), st.compactions);
            snap.counters
                .insert("elastic_migrated_keys".into(), st.migrated_keys);
            snap.gauges
                .insert("elastic_generations".into(), st.generations as f64);
            snap.gauges
                .insert("elastic_fpr_envelope".into(), st.fpr_envelope);
            snap.gauges
                .insert("elastic_max_shard_fpr".into(), st.max_shard_fpr);
            snap.gauges.insert(
                "elastic_compacting_shards".into(),
                st.compacting_shards as f64,
            );
            snap.gauges
                .insert("elastic_max_pressure".into(), st.max_pressure);
        }
        mpcbf_telemetry::prometheus_text(&snap)
    }
}

/// One shard's single-writer loop: owns the WAL and sequence counter.
/// In elastic mode it also owns the shard's structural lifecycle: it
/// logs and applies scale-ups, and drains migrations between jobs.
struct ShardWorker {
    shard: usize,
    wal: Wal,
    seq: u64,
    filter: ServiceFilter,
    /// Shared with dispatch: raised while this shard reorganises.
    scaling: Arc<AtomicBool>,
}

impl ShardWorker {
    fn run(mut self, rx: Receiver<ShardJob>) {
        // Recovery may hand back a shard mid-migration; resume draining
        // (and shedding) instead of forgetting the in-flight work.
        if let ServiceFilter::Elastic(pool) = &self.filter {
            if pool.with_shard(self.shard, |f| f.compacting()) {
                self.scaling.store(true, Ordering::SeqCst);
            }
        }
        loop {
            let job = if self.scaling.load(Ordering::Relaxed) {
                // Interleave migration batches with queued work: a busy
                // queue still drains the migration one timeout at a
                // time, an idle one drains it at full speed.
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(job) => Some(job),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match rx.recv() {
                    Ok(job) => Some(job),
                    Err(_) => break,
                }
            };
            let Some(job) = job else {
                self.step_migration();
                continue;
            };
            match job {
                ShardJob::Apply { op, reply } => {
                    let record = WalRecord {
                        seq: self.seq + 1,
                        op,
                    };
                    match self.wal.append(&record) {
                        Ok(()) => {
                            self.seq += 1;
                            let codes = apply_codes(&self.filter, &record.op);
                            let _ = reply.send(ShardReply {
                                shard: self.shard,
                                codes,
                                error: None,
                            });
                            self.drive_capacity();
                        }
                        Err(e) => {
                            let _ = reply.send(ShardReply {
                                shard: self.shard,
                                codes: Vec::new(),
                                error: Some(e.to_string()),
                            });
                        }
                    }
                }
                ShardJob::Sync { reply } => {
                    let error = self.wal.sync().err().map(|e| e.to_string());
                    let _ = reply.send(ShardReply {
                        shard: self.shard,
                        codes: Vec::new(),
                        error,
                    });
                }
                ShardJob::Checkpoint(gate) => {
                    let synced = self.wal.sync().is_ok();
                    let truncate;
                    {
                        let mut st = gate.state.lock().expect("gate poisoned");
                        st.seqs[self.shard] = self.seq;
                        if !synced {
                            st.sync_failed = true;
                        }
                        st.arrived += 1;
                        gate.cv.notify_all();
                        while !st.released {
                            st = gate.cv.wait(st).expect("gate poisoned");
                        }
                        truncate = st.truncate;
                    }
                    if truncate {
                        let _ = self.wal.rotate(self.seq + 1);
                        let _ = self.wal.purge_below(self.seq + 1);
                    }
                }
            }
        }
        // Queue closed: graceful stop. Flush everything acknowledged
        // under a relaxed policy before the thread exits. An in-flight
        // migration is persisted by the teardown checkpoint's image and
        // resumes after recovery.
        let _ = self.wal.sync();
    }

    /// After a mutation lands: if the shard parked a scale plan, commit
    /// to it — log the exact spec, push the generation, log the
    /// compaction marker, start migrating — and raise the shed latch
    /// until the migration drains.
    fn drive_capacity(&mut self) {
        let ServiceFilter::Elastic(pool) = &self.filter else {
            return;
        };
        let Some(spec) = pool.with_shard(self.shard, |f| f.scale_plan()) else {
            return;
        };
        let scale = WalRecord {
            seq: self.seq + 1,
            op: WalOp::ScaleUp {
                memory_bits: spec.memory_bits,
                expected_items: spec.expected_items,
            },
        };
        if self.wal.append(&scale).is_err() {
            // The plan stays parked; the next mutation retries the log.
            return;
        }
        self.seq += 1;
        self.scaling.store(true, Ordering::SeqCst);
        // An unshapeable spec fails identically during replay, so the
        // log and the filter cannot disagree.
        let _ = pool.with_shard(self.shard, |f| f.apply_scale(&spec));
        let compact = WalRecord {
            seq: self.seq + 1,
            op: WalOp::Compact,
        };
        if self.wal.append(&compact).is_ok() {
            self.seq += 1;
            pool.with_shard(self.shard, |f| {
                f.begin_compaction();
            });
        }
        self.step_migration();
    }

    /// Moves one batch of keys into the active generation; drops the
    /// shed latch once the migration is drained.
    fn step_migration(&mut self) {
        let ServiceFilter::Elastic(pool) = &self.filter else {
            self.scaling.store(false, Ordering::SeqCst);
            return;
        };
        let still_going = pool.with_shard(self.shard, |f| {
            if f.compacting() {
                let batch = f.policy().compact_batch.max(64);
                f.step_compaction(batch);
            }
            f.compacting()
        });
        if !still_going {
            self.scaling.store(false, Ordering::SeqCst);
        }
    }
}

/// Applies a logged op to the filter, collecting per-key wire codes in
/// the op's own key order.
fn apply_codes(filter: &ServiceFilter, op: &WalOp) -> Vec<u8> {
    match (filter, op) {
        (ServiceFilter::Fixed(f), WalOp::Insert(key)) => vec![key_code(&f.insert_bytes(key))],
        (ServiceFilter::Fixed(f), WalOp::Remove(key)) => vec![key_code(&f.remove_bytes(key))],
        (ServiceFilter::Fixed(f), WalOp::InsertBatch(keys)) => {
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            f.insert_batch_bytes(&views).iter().map(key_code).collect()
        }
        (ServiceFilter::Fixed(f), WalOp::RemoveBatch(keys)) => {
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            f.remove_batch_bytes(&views).iter().map(key_code).collect()
        }
        (ServiceFilter::Elastic(f), WalOp::Insert(key)) => vec![key_code(&f.insert_bytes(key))],
        (ServiceFilter::Elastic(f), WalOp::Remove(key)) => vec![key_code(&f.remove_bytes(key))],
        (ServiceFilter::Elastic(f), WalOp::InsertBatch(keys)) => {
            keys.iter().map(|k| key_code(&f.insert_bytes(k))).collect()
        }
        (ServiceFilter::Elastic(f), WalOp::RemoveBatch(keys)) => {
            keys.iter().map(|k| key_code(&f.remove_bytes(k))).collect()
        }
        // Structural records are authored by the worker itself, never
        // dispatched as jobs; they only flow through recovery replay.
        (_, WalOp::ScaleUp { .. } | WalOp::Compact) => Vec::new(),
    }
}

/// A running filter server. Stop it with [`Server::shutdown`] (or send
/// the `SHUTDOWN` opcode and [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Recovers (or creates) the durable filter from
    /// `config.durability.dir`, binds the sockets, and spawns the shard
    /// workers, acceptor, and metrics threads.
    pub fn start(config: ServerConfig) -> Result<Server, ServerError> {
        let ServerConfig {
            addr,
            metrics_addr,
            durability,
            filter,
            shards,
            elastic,
        } = config;
        let fsync_name = durability.fsync.name();
        let snapshot_every = durability.snapshot_every;
        let (filter, wals, seqs, snapshots, recovery) = if elastic {
            let (durable, recovery) =
                DurableElasticSharded::<Murmur3>::open_or_recover(durability, || {
                    ElasticShardedMpcbf::manual(filter, shards, CapacityPolicy::default())
                        .expect("default capacity policy is valid")
                })?;
            let (pool, wals, seqs, snapshots) = durable.into_service_parts();
            (
                ServiceFilter::Elastic(Arc::new(pool)),
                wals,
                seqs,
                snapshots,
                recovery,
            )
        } else {
            let (durable, recovery) =
                DurableShardedMpcbf::<Murmur3>::open_or_recover(durability, || {
                    ShardedMpcbf::new(filter, shards)
                })?;
            let (pool, wals, seqs, snapshots) = durable.into_service_parts();
            (
                ServiceFilter::Fixed(Arc::new(pool)),
                wals,
                seqs,
                snapshots,
                recovery,
            )
        };
        let telemetry = Arc::new(Telemetry::new());
        recovery.record_to(&telemetry);

        let listener = TcpListener::bind(&addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let mut txs = Vec::with_capacity(wals.len());
        let mut workers = Vec::with_capacity(wals.len());
        let mut scaling = Vec::with_capacity(wals.len());
        for (shard, (wal, seq)) in wals.into_iter().zip(seqs).enumerate() {
            let (tx, rx) = channel();
            txs.push(tx);
            let flag = Arc::new(AtomicBool::new(false));
            scaling.push(flag.clone());
            let worker = ShardWorker {
                shard,
                wal,
                seq,
                filter: filter.clone(),
                scaling: flag,
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mpcbf-shard-{shard}"))
                    .spawn(move || worker.run(rx))?,
            );
        }

        let shared = Arc::new(Shared {
            filter,
            scaling,
            shard_txs: Mutex::new(txs),
            snapshots,
            telemetry,
            counters: ServerCounters::default(),
            recovery,
            fsync_name,
            local_addr,
            shutdown: AtomicBool::new(false),
            stop_signal: (Mutex::new(false), Condvar::new()),
            checkpoint_lock: Mutex::new(()),
            records_since_checkpoint: AtomicU64::new(0),
            snapshot_every,
        });

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = shared.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("mpcbf-accept".into())
                .spawn(move || accept_loop(shared, listener, conns))?
        };
        let metrics_thread = match metrics_listener {
            Some(l) => {
                let shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("mpcbf-metrics".into())
                        .spawn(move || metrics::serve(shared, l))?,
                )
            }
            None => None,
        };

        Ok(Server {
            shared,
            local_addr,
            metrics_addr,
            acceptor: Some(acceptor),
            metrics_thread,
            workers,
            conns,
        })
    }

    /// The bound filter-protocol address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// What recovery found at startup.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.shared.recovery
    }

    /// Asks the server to stop without blocking (pair with
    /// [`Server::wait`]).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (by [`Self::request_shutdown`]
    /// or a client's `SHUTDOWN` frame), then tears down: final
    /// checkpoint, drain and join every thread, fsync every WAL.
    pub fn wait(mut self) -> Result<(), ServerError> {
        self.teardown();
        Ok(())
    }

    /// Requests shutdown and waits for the full teardown.
    pub fn shutdown(mut self) -> Result<(), ServerError> {
        self.shared.request_shutdown();
        self.teardown();
        Ok(())
    }

    fn teardown(&mut self) {
        {
            let (lock, cv) = &self.shared.stop_signal;
            let mut stopped = lock.lock().expect("stop signal poisoned");
            while !*stopped {
                stopped = cv.wait(stopped).expect("stop signal poisoned");
            }
        }
        // Bound the restart's replay; workers still serve queued jobs.
        let _ = self.shared.checkpoint();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let conn_handles: Vec<_> = self
            .conns
            .lock()
            .expect("connection registry poisoned")
            .drain(..)
            .collect();
        for h in conn_handles {
            let _ = h.join();
        }
        // All producers are gone; closing the queues lets each worker
        // drain, run its final fsync, and exit.
        self.shared
            .shard_txs
            .lock()
            .expect("shard queues poisoned")
            .clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_thread.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        let sh = shared.clone();
        match std::thread::Builder::new()
            .name("mpcbf-conn".into())
            .spawn(move || handle_conn(sh, stream))
        {
            Ok(h) => conns.lock().expect("connection registry poisoned").push(h),
            Err(_) => continue,
        }
    }
}

/// How a blocking read over the shutdown-polling socket ended.
enum Fill {
    Complete,
    /// EOF at a frame boundary.
    CleanEof,
    /// EOF inside a frame — the peer vanished mid-request.
    TornEof,
    Shutdown,
}

fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(Fill::Shutdown);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::CleanEof
                } else {
                    Fill::TornEof
                })
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Complete)
}

/// Reads one frame, polling the shutdown flag between partial reads.
/// `None` means close the connection (clean EOF, torn frame, hostile
/// length prefix, shutdown, or I/O error) — in every case without
/// panicking.
fn read_frame_polling(stream: &mut TcpStream, shutdown: &AtomicBool) -> Option<Vec<u8>> {
    let mut prefix = [0u8; 4];
    match read_full(stream, &mut prefix, shutdown) {
        Ok(Fill::Complete) => {}
        _ => return None,
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        // The stream is desynchronised beyond repair; drop it.
        return None;
    }
    let mut payload = vec![0u8; len as usize];
    match read_full(stream, &mut payload, shutdown) {
        Ok(Fill::Complete) => Some(payload),
        _ => None,
    }
}

/// The suggested client backoff while a shard reorganises. Migration
/// batches drain on a millisecond cadence, so single-digit-millisecond
/// retries converge quickly without hammering the dispatch path.
const RETRY_AFTER_MS: u32 = 5;

fn shed_response() -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(STATUS_RETRY_LATER);
    out.extend_from_slice(&RETRY_AFTER_MS.to_le_bytes());
    out
}

fn error_response(status: u8, reason: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + reason.len());
    out.push(status);
    out.extend_from_slice(reason.as_bytes());
    out
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    loop {
        let Some(payload) = read_frame_polling(&mut stream, &shared.shutdown) else {
            return;
        };
        shared.counters.frames.fetch_add(1, Ordering::Relaxed);
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(reason) => {
                shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                // Framing is intact, so the connection survives a bad
                // payload.
                if write_frame(&mut stream, &error_response(STATUS_BAD_REQUEST, reason)).is_err() {
                    return;
                }
                continue;
            }
        };
        let shutdown_after = matches!(req, Request::Shutdown);
        let response = dispatch(&shared, req);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
        if shutdown_after {
            shared.request_shutdown();
            return;
        }
    }
}

fn dispatch(shared: &Shared, req: Request) -> Vec<u8> {
    match req {
        Request::Ping => vec![STATUS_OK],
        Request::Query(key) => {
            let start = Instant::now();
            let present = shared.filter.contains_bytes(&key);
            shared.telemetry.record_batch(
                OpKind::Query,
                1,
                OpCost::zero(),
                start.elapsed().as_nanos() as u64,
            );
            vec![STATUS_OK, u8::from(present)]
        }
        Request::QueryBatch(keys) => {
            let start = Instant::now();
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let hits = shared.filter.contains_batch_bytes(&views);
            shared.telemetry.record_batch(
                OpKind::Query,
                hits.len() as u64,
                OpCost::zero(),
                start.elapsed().as_nanos() as u64,
            );
            let mut out = Vec::with_capacity(5 + hits.len());
            out.push(STATUS_OK);
            out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
            out.extend(hits.into_iter().map(u8::from));
            out
        }
        Request::Insert(key) => mutate_scalar(shared, key, true),
        Request::Remove(key) => mutate_scalar(shared, key, false),
        Request::InsertBatch(keys) => mutate_batch(shared, keys, true),
        Request::RemoveBatch(keys) => mutate_batch(shared, keys, false),
        Request::Stats => {
            let mut out = vec![STATUS_OK];
            out.extend_from_slice(shared.stats_json().as_bytes());
            out
        }
        Request::Checkpoint => match shared.checkpoint() {
            Ok(()) => vec![STATUS_OK],
            Err(reason) => error_response(STATUS_SERVER_ERROR, &reason),
        },
        Request::Flush => flush_all(shared),
        Request::Shutdown => vec![STATUS_OK],
    }
}

fn flush_all(shared: &Shared) -> Vec<u8> {
    let txs = shared
        .shard_txs
        .lock()
        .expect("shard queues poisoned")
        .clone();
    let (reply_tx, reply_rx) = channel();
    let mut pending = 0;
    for tx in &txs {
        if tx
            .send(ShardJob::Sync {
                reply: reply_tx.clone(),
            })
            .is_ok()
        {
            pending += 1;
        }
    }
    drop(reply_tx);
    if pending < txs.len() || txs.is_empty() {
        return error_response(STATUS_SERVER_ERROR, "a shard worker is gone");
    }
    for _ in 0..pending {
        match reply_rx.recv() {
            Ok(reply) => {
                if let Some(msg) = reply.error {
                    return error_response(STATUS_SERVER_ERROR, &msg);
                }
            }
            Err(_) => return error_response(STATUS_SERVER_ERROR, "a shard worker died"),
        }
    }
    vec![STATUS_OK]
}

fn mutate_scalar(shared: &Shared, key: Vec<u8>, insert: bool) -> Vec<u8> {
    let start = Instant::now();
    let kind = if insert {
        OpKind::Insert
    } else {
        OpKind::Remove
    };
    let shard = shared.filter.home_shard(&key);
    if shared.is_scaling(shard) {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return shed_response();
    }
    let txs = shared
        .shard_txs
        .lock()
        .expect("shard queues poisoned")
        .clone();
    let Some(tx) = txs.get(shard) else {
        return error_response(STATUS_SERVER_ERROR, "server is stopping");
    };
    let op = if insert {
        WalOp::Insert(key)
    } else {
        WalOp::Remove(key)
    };
    let (reply_tx, reply_rx) = channel();
    if tx
        .send(ShardJob::Apply {
            op,
            reply: reply_tx,
        })
        .is_err()
    {
        return error_response(STATUS_SERVER_ERROR, "shard worker unavailable");
    }
    let response = match reply_rx.recv() {
        Ok(reply) => match reply.error {
            None => {
                let code = reply.codes.first().copied().unwrap_or(0);
                if code == KeyOutcome::Applied.code() {
                    vec![STATUS_OK]
                } else {
                    vec![STATUS_REFUSED, code]
                }
            }
            Some(msg) => error_response(STATUS_SERVER_ERROR, &msg),
        },
        Err(_) => error_response(STATUS_SERVER_ERROR, "shard worker died"),
    };
    shared
        .telemetry
        .record_batch(kind, 1, OpCost::zero(), start.elapsed().as_nanos() as u64);
    shared
        .records_since_checkpoint
        .fetch_add(1, Ordering::Relaxed);
    shared.maybe_checkpoint();
    response
}

fn mutate_batch(shared: &Shared, keys: Vec<Vec<u8>>, insert: bool) -> Vec<u8> {
    let start = Instant::now();
    let kind = if insert {
        OpKind::Insert
    } else {
        OpKind::Remove
    };
    let n = keys.len();
    let txs = shared
        .shard_txs
        .lock()
        .expect("shard queues poisoned")
        .clone();
    if txs.is_empty() {
        return error_response(STATUS_SERVER_ERROR, "server is stopping");
    }
    // Route each key to its home shard, remembering where it came from
    // so the reply codes land back in request order.
    let mut per_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); txs.len()];
    let mut origin: Vec<Vec<u32>> = vec![Vec::new(); txs.len()];
    for (i, key) in keys.into_iter().enumerate() {
        let shard = shared.filter.home_shard(&key);
        per_shard[shard].push(key);
        origin[shard].push(i as u32);
    }
    // A batch is one all-or-nothing frame per shard: if any touched
    // shard is reorganising, shed the whole batch (partial acks would
    // force the client to split the batch to retry).
    if per_shard
        .iter()
        .enumerate()
        .any(|(shard, group)| !group.is_empty() && shared.is_scaling(shard))
    {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return shed_response();
    }
    let (reply_tx, reply_rx) = channel();
    let mut pending = 0;
    for (shard, group) in per_shard.into_iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let op = if insert {
            WalOp::InsertBatch(group)
        } else {
            WalOp::RemoveBatch(group)
        };
        if txs[shard]
            .send(ShardJob::Apply {
                op,
                reply: reply_tx.clone(),
            })
            .is_err()
        {
            // Sub-batches already dispatched may still apply, but the
            // whole frame errors, so no key is acknowledged.
            return error_response(STATUS_SERVER_ERROR, "shard worker unavailable");
        }
        pending += 1;
    }
    drop(reply_tx);
    let mut codes = vec![0u8; n];
    let mut failed: Option<String> = None;
    for _ in 0..pending {
        match reply_rx.recv() {
            Ok(reply) => {
                if let Some(msg) = reply.error {
                    failed = Some(msg);
                    continue;
                }
                for (j, &ki) in origin[reply.shard].iter().enumerate() {
                    codes[ki as usize] = reply.codes.get(j).copied().unwrap_or(0);
                }
            }
            Err(_) => {
                failed = Some("shard worker died".into());
                break;
            }
        }
    }
    if let Some(msg) = failed {
        return error_response(STATUS_SERVER_ERROR, &msg);
    }
    shared.telemetry.record_batch(
        kind,
        n as u64,
        OpCost::zero(),
        start.elapsed().as_nanos() as u64,
    );
    shared
        .records_since_checkpoint
        .fetch_add(n as u64, Ordering::Relaxed);
    shared.maybe_checkpoint();
    let mut out = Vec::with_capacity(5 + n);
    out.push(STATUS_OK);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&codes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use mpcbf_durability::FsyncPolicy;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "mpcbf-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn test_config(dir: &std::path::Path) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: Some("127.0.0.1:0".into()),
            durability: DurabilityOptions::new(dir).fsync(FsyncPolicy::EveryN(64)),
            filter: MpcbfConfig::builder()
                .memory_bits(400_000)
                .expected_items(4_000)
                .hashes(3)
                .seed(77)
                .build()
                .expect("test config"),
            shards: 4,
            elastic: false,
        }
    }

    #[test]
    fn end_to_end_roundtrip_checkpoint_and_recovery() {
        let dir = scratch_dir("e2e");
        let addr;
        {
            let server = Server::start(test_config(&dir)).expect("start");
            addr = server.local_addr();
            let mut client = Client::connect(addr).expect("connect");
            client.ping().expect("ping");

            assert!(client.insert(b"alice").expect("insert").is_applied());
            assert!(client.insert(b"bob").expect("insert").is_applied());
            assert!(client.query(b"alice").expect("query"));
            assert!(!client.query(b"carol-not-here").expect("query"));

            let keys: Vec<Vec<u8>> = (0..200u32)
                .map(|i| format!("batch-key-{i}").into_bytes())
                .collect();
            let outcomes = client.insert_batch(&keys).expect("insert batch");
            assert_eq!(outcomes.len(), keys.len());
            assert!(outcomes.iter().all(|o| o.is_applied()));
            let hits = client.query_batch(&keys).expect("query batch");
            assert!(hits.iter().all(|&h| h));

            // Remove half the batch; the rest must survive.
            let gone: Vec<Vec<u8>> = keys[..100].to_vec();
            let outcomes = client.remove_batch(&gone).expect("remove batch");
            assert!(outcomes.iter().all(|o| o.is_applied()));

            assert!(!client
                .remove(b"never-inserted-key")
                .expect("remove")
                .is_applied());

            let stats = client.stats_json().expect("stats");
            assert!(stats.contains("\"shards\":4"), "{stats}");
            assert!(stats.contains("\"lock_acquisitions\""), "{stats}");

            client.flush().expect("flush");
            client.checkpoint().expect("checkpoint");

            // Metrics endpoint serves the injected counters.
            let page =
                metrics::http_get_text(server.metrics_addr().expect("metrics addr"), "/metrics")
                    .expect("metrics page");
            assert!(page.contains("mpcbf_server_frames_total"), "{page}");
            assert!(
                page.contains("mpcbf_filter_lock_acquisitions_total"),
                "{page}"
            );
            assert!(page.contains("mpcbf_server_shards"), "{page}");

            client.shutdown_server().expect("shutdown frame");
            server.wait().expect("teardown");
        }

        // Everything acknowledged must survive the restart.
        let server = Server::start(test_config(&dir)).expect("restart");
        assert!(server.recovery_report().scrub_clean);
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        assert!(client.query(b"alice").expect("query"));
        assert!(client.query(b"bob").expect("query"));
        for i in 100..200u32 {
            let key = format!("batch-key-{i}").into_bytes();
            assert!(client.query(&key).expect("query"), "lost batch-key-{i}");
        }
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn elastic_server_scales_sheds_and_recovers() {
        let dir = scratch_dir("elastic");
        let config = || ServerConfig {
            elastic: true,
            // Small geometry so a few thousand keys are a 10x overload.
            filter: MpcbfConfig::builder()
                .memory_bits(131_072)
                .expected_items(2_000)
                .hashes(3)
                .seed(91)
                .build()
                .expect("elastic test config"),
            shards: 2,
            ..test_config(&dir)
        };
        let total = 20_000u64;
        {
            let server = Server::start(config()).expect("start");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            // The client's RETRY_LATER backoff must absorb every shed:
            // all inserts eventually ack even while shards reorganise.
            for i in 0..total {
                assert!(
                    client
                        .insert(&i.to_le_bytes())
                        .expect("insert")
                        .is_applied(),
                    "insert {i} not applied"
                );
            }
            let stats = client.stats_json().expect("stats");
            assert!(stats.contains("\"mode\":\"elastic\""), "{stats}");
            assert!(stats.contains("\"scale_events\":"), "{stats}");
            let scale_events: u64 = stats
                .split("\"scale_events\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("scale_events in stats");
            assert!(scale_events > 0, "10x overload must scale: {stats}");
            let shed: u64 = stats
                .split("\"shed\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("shed counter in stats");
            assert!(
                shed > 0,
                "reorganising shards must shed at least one mutation: {stats}"
            );
            for i in 0..total {
                assert!(client.query(&i.to_le_bytes()).expect("query"), "FN {i}");
            }
            client.shutdown_server().expect("shutdown frame");
            server.wait().expect("teardown");
        }

        // Every acked key survives the restart with the scaled stacks.
        let server = Server::start(config()).expect("restart");
        assert!(server.recovery_report().scrub_clean);
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        let stats = client.stats_json().expect("stats");
        assert!(stats.contains("\"mode\":\"elastic\""), "{stats}");
        for i in 0..total {
            assert!(
                client.query(&i.to_le_bytes()).expect("query"),
                "lost key {i} across restart"
            );
        }
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_clients_see_consistent_acks() {
        let dir = scratch_dir("concurrent");
        let server = Server::start(test_config(&dir)).expect("start");
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let keys: Vec<Vec<u8>> = (0..250u32)
                        .map(|i| format!("client-{t}-key-{i}").into_bytes())
                        .collect();
                    for chunk in keys.chunks(50) {
                        let outcomes = client.insert_batch(chunk).expect("insert");
                        assert!(outcomes.iter().all(|o| o.is_applied()));
                    }
                    let hits = client.query_batch(&keys).expect("query");
                    assert!(hits.iter().all(|&h| h));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
