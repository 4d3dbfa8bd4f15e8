//! Runner for an in-process durable server on loopback, driven by
//! `nproc` closed-loop clients sending single-key requests.

use crate::keys::{KeySpace, Ring};
use crate::measure::{figures, timed, KindStats, LayerMetric, Outcome, Pass, Timings};
use crate::rungs::{hash_into, route};
use crate::stream::{Ack, Answer, Batch, Kind, Stream, Tally, BATCH};
use crate::trace::{Name, Profile, Span, Tracer, NO_PARENT, SPAN_CAP};
use crate::workloads::Spec;
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_core::PlanBuffer;
use mpcbf_durability::{
    encode_frame, DurabilityOptions, FsyncPolicy, KillSwitch, Wal, WalOp, WalRecord,
};
use mpcbf_server::{Client, ClientConfig, KeyOutcome, Server, ServerConfig};
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

/// In a traced pass, one request in this many is followed by a ping.
const PING_EVERY: u64 = 8;

/// Batches of 64 keys the hash and plan rungs run over.
const RUNG_BATCHES: usize = 256;

/// Strangers probed per resident key after the run: at the served load
/// (n/2) the stream alone yields too few false positives for a steady
/// `fpr`, and this many yield about a thousand.
const PROBE_PER_RESIDENT: u64 = 80;

/// Records the WAL rung appends and syncs.
const WAL_RECORDS: u64 = 2_000;

fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(30)),
        ..ClientConfig::default()
    };
    Client::connect_with(addr, config).map_err(|e| format!("connect to {addr}: {e}"))
}

fn ack(o: KeyOutcome) -> Ack {
    match o {
        KeyOutcome::Applied => Ack::Applied,
        KeyOutcome::Overflow => Ack::Refused,
        KeyOutcome::NotPresent => Ack::Absent,
        KeyOutcome::Corruption => Ack::Error,
    }
}

/// One single-key request.
fn request(client: &mut Client, kind: Kind, key: &[u8]) -> Answer {
    let one = |o: Result<KeyOutcome, _>| o.map_or(Answer::Failed, |o| Answer::Acks(vec![ack(o)]));
    match kind {
        Kind::Query => client
            .query(key)
            .map_or(Answer::Failed, |h| Answer::Hits(vec![h])),
        Kind::Remove => one(client.remove(key)),
        Kind::Insert => one(client.insert(key)),
    }
}

/// A whole batch as one batch request of its kind.
fn batch_request(client: &mut Client, batch: &Batch) -> Answer {
    let keys: Vec<Vec<u8>> = batch.views().into_iter().map(<[u8]>::to_vec).collect();
    match batch.kind {
        Kind::Query => client
            .query_batch(&keys)
            .map_or(Answer::Failed, Answer::Hits),
        Kind::Insert => client.insert_batch(&keys).map_or(Answer::Failed, |o| {
            Answer::Acks(o.into_iter().map(ack).collect())
        }),
        Kind::Remove => client.remove_batch(&keys).map_or(Answer::Failed, |o| {
            Answer::Acks(o.into_iter().map(ack).collect())
        }),
    }
}

/// Starts a server on a fresh directory (`scratch/server`) and preloads every window
/// through `insert_batch`.
fn setup(
    spec: &Spec,
    space: &KeySpace,
    scratch: &Path,
    seed: u64,
) -> Result<(Server, Vec<Ring>, Tally), String> {
    let dir = scratch.join("server");
    let _ = fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: None,
        durability: DurabilityOptions::new(&dir).fsync(FsyncPolicy::Always),
        filter: spec.config(),
        shards: spec.shards,
        elastic: false,
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = connect(server.local_addr())?;
    let mut tally = Tally::default();
    let mut rings_out = Vec::new();
    for ring in spec.rings() {
        let live = ring.resident();
        let mut stream = Stream::new(space, ring, seed);
        let mut batch = Batch::new();
        let mut done = 0;
        while done < live {
            let len = BATCH.min((live - done) as usize);
            stream.fill_preload(&mut batch, done, len);
            let answer = batch_request(&mut client, &batch);
            stream.settle(&batch, &answer, &mut tally);
            done += len as u64;
        }
        rings_out.push(stream.ring);
    }
    Ok((server, rings_out, tally))
}

/// Runs the workload with its server and scratch WAL under `scratch`,
/// which the caller removes afterwards.
pub fn run(
    spec: &Spec,
    seed: u64,
    window: Duration,
    traced: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let space = KeySpace::synthetic(2 * spec.live, seed);
    let setups = if traced { 1 } else { spec.setups };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups {
        if let Some((server, _, _)) = kept.take() {
            Server::shutdown(server).map_err(|e| format!("server shutdown: {e}"))?;
        }
        let (state, secs) = timed(|| setup(spec, &space, scratch, seed));
        setup_s.push(secs);
        kept = Some(state?);
    }
    let (server, rings, mut tally) = kept.expect("at least one set-up");
    let addr = server.local_addr();
    let geometry = format!(
        "{} fsync=always fixed-pool closed-loop single-key requests",
        spec.describe("Server")
    );
    let mut streams: Vec<Stream> = rings
        .into_iter()
        .enumerate()
        .map(|(t, ring)| Stream::new(&space, ring, seed ^ 0x5eed ^ (t as u64) << 32))
        .collect();
    let mut clients = (0..spec.threads)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;

    let (pass, _) = closed_loop(&mut clients, &mut streams, &mut tally, window, seed, false);
    let mut out = Outcome::new(setup_s, pass, geometry);
    if traced {
        let (traced_pass, spans) = closed_loop(
            &mut clients,
            &mut streams,
            &mut tally,
            window,
            seed ^ 0xb,
            true,
        );
        trace_metrics(&traced_pass, &spans, &mut out);
        hash_plan_rungs(spec, &mut streams[0], &mut out);
        out.layers.extend(server_layers(
            &traced_pass,
            &spans,
            &mut streams[0],
            scratch,
        )?);
        out.spans.extend(spans);
    }
    drop(clients);
    // A fresh connection must find every acknowledged surviving key.
    let mut client = connect(addr)?;
    for stream in &mut streams {
        let mut batch = Batch::new();
        let mut cursor = stream.ring.start();
        while stream.fill_scan(&mut batch, &mut cursor) {
            let answer = batch_request(&mut client, &batch);
            stream.settle(&batch, &answer, &mut tally);
        }
    }
    let probe = PROBE_PER_RESIDENT * spec.live;
    let mut done = 0;
    let mut batch = Batch::new();
    while done < probe {
        let len = BATCH.min((probe - done) as usize);
        streams[0].fill_strangers(&mut batch, len);
        let answer = batch_request(&mut client, &batch);
        streams[0].settle(&batch, &answer, &mut tally);
        done += len as u64;
    }
    drop(client);
    Server::shutdown(server).map_err(|e| format!("server shutdown: {e}"))?;
    out.tally = tally;
    Ok(out)
}

/// Each connection sends its stream's ops one request at a time until
/// the window closes. With `traced`, every request gets a root span and
/// a span around the client call, and one in [`PING_EVERY`] requests is
/// followed by a ping.
fn closed_loop(
    clients: &mut [Client],
    streams: &mut [Stream],
    tally: &mut Tally,
    window: Duration,
    seed: u64,
    traced: bool,
) -> (Pass, Vec<Vec<Span>>) {
    let start = Instant::now();
    let deadline = start + window;
    let cap = SPAN_CAP / streams.len();
    let results: Vec<(Timings, Tally, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(t, (client, stream))| {
                scope.spawn(move || {
                    let mut timings = Timings::new(seed ^ t as u64, start, window);
                    let mut tally = Tally::default();
                    let mut tr = Tracer::new(start, if traced { cap } else { 0 });
                    let mut batch = Batch::new();
                    let mut now = Instant::now();
                    let mut op = (t as u64) << 40;
                    while now < deadline && !(traced && tr.is_full(4)) {
                        op += 1;
                        let kind = stream.next_kind();
                        stream.fill(&mut batch, kind, 1);
                        let key = batch.key(0);
                        let t0 = Instant::now();
                        let answer = if traced {
                            let root = tr.open(Name::Op, NO_PARENT, op, 1);
                            let name = if kind.is_update() {
                                Name::ServerUpdate
                            } else {
                                Name::ServerQuery
                            };
                            let a = tr.span(name, root, op, 1, || request(client, kind, key));
                            tr.close(root);
                            a
                        } else {
                            request(client, kind, key)
                        };
                        now = Instant::now();
                        timings.record(kind, 1, t0, now);
                        stream.settle(&batch, &answer, &mut tally);
                        if traced && op.is_multiple_of(PING_EVERY) {
                            let root = tr.open(Name::Op, NO_PARENT, op, 0);
                            let pong = tr.span(Name::ServerPing, root, op, 0, || client.ping());
                            tr.close(root);
                            tally.errors += u64::from(pong.is_err());
                        }
                    }
                    (timings, tally, tr.spans().to_vec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut timings = Vec::new();
    let mut spans = Vec::new();
    for (t, part, s) in results {
        tally.add(&part);
        timings.push(t);
        spans.push(s);
    }
    (Pass { timings, wall }, spans)
}

/// `trace.*` of a traced closed-loop pass, against the untraced one.
fn trace_metrics(traced: &Pass, spans: &[Vec<Span>], out: &mut Outcome) {
    let mut profile = Profile::default();
    for s in spans {
        profile.add(s);
    }
    let end_to_end_ns = traced.wall.as_nanos() as f64 * spans.len() as f64;
    out.layer(
        "trace.unattributed_share",
        1.0 - profile.attributed_ns as f64 / end_to_end_ns,
        "ratio",
    );
    out.layer(
        "trace.overhead",
        traced.keys_per_s() / out.pass.keys_per_s(),
        "ratio",
    );
}

/// Hash and plan rungs over batches of the workload's keys, routed as
/// the served pool routes them.
fn hash_plan_rungs(spec: &Spec, stream: &mut Stream, out: &mut Outcome) {
    let config = spec.config();
    let pool: ShardedMpcbf = ShardedMpcbf::new(config, spec.shards);
    let shape = pool.shape();
    let mut tr = Tracer::new(Instant::now(), RUNG_BATCHES * 3);
    let mut batch = Batch::new();
    let mut digests = Vec::with_capacity(BATCH);
    let mut homes = [0u128; BATCH];
    let mut plans = PlanBuffer::new();
    for op in 0..RUNG_BATCHES as u64 {
        stream.fill_strangers(&mut batch, BATCH);
        let keys = batch.views();
        let n = keys.len() as u32;
        let root = tr.open(Name::Op, NO_PARENT, op, n);
        tr.span(Name::Hash, root, op, n, || {
            hash_into(config.seed(), &keys, &mut digests)
        });
        tr.span(Name::Plan, root, op, n, || {
            route(&mut digests, &mut homes, pool.shard_count());
            plans.plan_partitioned(
                digests.iter().copied(),
                pool.words_per_shard(),
                shape.k,
                shape.g,
                u64::from(shape.b1),
            )
        });
        tr.close(root);
    }
    let mut rung = Profile::default();
    rung.add(tr.spans());
    out.spans.push(tr.spans().to_vec());
    out.layer("hash.ns_per_key", rung.get(Name::Hash).ns_per_key(), "ns");
    out.layer("plan.ns_per_key", rung.get(Name::Plan).ns_per_key(), "ns");
}

/// `server.*` from a traced closed-loop pass (its own median latencies
/// minus the ping round trip it interleaved) and `wal.*` from
/// single-key records appended and fsynced on a scratch log.
fn server_layers(
    traced: &Pass,
    spans: &[Vec<Span>],
    stream: &mut Stream,
    scratch: &Path,
) -> Result<Vec<LayerMetric>, String> {
    let wal_dir = scratch.join("wal-rung");
    let mut wal = Wal::new(
        &wal_dir,
        "rung",
        FsyncPolicy::EveryN(u32::MAX),
        8 << 20,
        KillSwitch::new(),
    )
    .map_err(|e| format!("scratch wal: {e}"))?;
    let mut tr = Tracer::new(Instant::now(), WAL_RECORDS as usize * 3);
    let mut batch = Batch::new();
    let mut bytes = 0u64;
    for seq in 1..=WAL_RECORDS {
        stream.fill_strangers(&mut batch, 1);
        let record = WalRecord {
            seq,
            op: WalOp::Insert(batch.key(0).to_vec()),
        };
        bytes += encode_frame(&record).len() as u64;
        let root = tr.open(Name::Op, NO_PARENT, seq, 1);
        tr.span(Name::WalAppend, root, seq, 1, || wal.append(&record))
            .map_err(|e| format!("wal append: {e}"))?;
        tr.span(Name::WalSync, root, seq, 1, || wal.sync())
            .map_err(|e| format!("wal sync: {e}"))?;
        tr.close(root);
    }
    drop(wal);
    let _ = fs::remove_dir_all(&wal_dir);
    let mut walp = Profile::default();
    walp.add(tr.spans());
    let append_us = walp.median_ns(Name::WalAppend) / 1e3;
    let sync_us = walp.median_ns(Name::WalSync) / 1e3;

    let mut profile = Profile::default();
    for s in spans {
        profile.add(s);
    }
    let ping_us = profile.median_ns(Name::ServerPing) / 1e3;
    let p50_us = |pick: fn(&Timings) -> &KindStats| {
        figures(&traced.timings, pick)
            .p50
            .map_or(0.0, |f| f.value / 1e3)
    };
    let metric = |name, value, unit| LayerMetric { name, value, unit };
    Ok(vec![
        metric("wal.append_us", append_us, "us"),
        metric("wal.sync_us", sync_us, "us"),
        metric(
            "wal.bytes_per_op",
            bytes as f64 / WAL_RECORDS as f64,
            "bytes",
        ),
        metric("server.ping_us", ping_us, "us"),
        metric(
            "server.query_overhead_us",
            p50_us(|t| &t.query) - ping_us,
            "us",
        ),
        metric(
            "server.update_overhead_us",
            p50_us(|t| &t.update) - ping_us - append_us - sync_us,
            "us",
        ),
    ])
}

/// The served layers on their own, for a workload whose traced run does
/// not otherwise reach them: a preloaded server, a traced closed-loop
/// pass of `window`, and the WAL rung. Adds the metrics, the spans and
/// the tally of the ops it checked to `out`.
pub fn ladder(
    spec: &Spec,
    seed: u64,
    window: Duration,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let space = KeySpace::synthetic(2 * spec.live, seed);
    let (server, rings, mut tally) = setup(spec, &space, scratch, seed)?;
    let addr = server.local_addr();
    let mut streams: Vec<Stream> = rings
        .into_iter()
        .enumerate()
        .map(|(t, ring)| Stream::new(&space, ring, seed ^ 0x5eed ^ (t as u64) << 32))
        .collect();
    let mut clients = (0..spec.threads)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let (pass, spans) = closed_loop(&mut clients, &mut streams, &mut tally, window, seed, true);
    drop(clients);
    Server::shutdown(server).map_err(|e| format!("server shutdown: {e}"))?;
    out.layers
        .extend(server_layers(&pass, &spans, &mut streams[0], scratch)?);
    out.spans.extend(spans);
    out.tally.add(&tally);
    Ok(())
}
