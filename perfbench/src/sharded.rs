//! Runner for a bulk-built `ShardedMpcbf` driven by `nproc` threads
//! through `ShardBatch` batch-64 calls.

use crate::keys::{KeySpace, Ring, MAX_KEY};
use crate::measure::{timed, Outcome, Pass, Timings};
use crate::rungs::{hash_into, route, touch, walk};
use crate::stream::{Answer, Batch, Kind, Stream, Tally, BATCH};
use crate::trace::{Name, Profile, Span, Tracer, NO_PARENT, SPAN_CAP};
use crate::workloads::Spec;
use mpcbf_concurrent::{ShardBatch, ShardedBulkBuilder, ShardedMpcbf};
use mpcbf_core::bulk::BulkStats;
use mpcbf_core::{HcbfWord, PlanBuffer};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Query batches compared with the scalar path after the run.
const EQUIVALENCE_BATCHES: usize = 256;

fn call(filter: &ShardedMpcbf, kind: Kind, keys: &[&[u8]], scratch: &mut ShardBatch) -> Answer {
    match kind {
        Kind::Query => Answer::Hits(filter.contains_batch_bytes_with(keys, scratch)),
        Kind::Remove => Answer::acks(&filter.remove_batch_bytes_with(keys, scratch)),
        Kind::Insert => Answer::acks(&filter.insert_batch_bytes_with(keys, scratch)),
    }
}

/// A bulk-built filter and what the build measured.
struct Built {
    filter: ShardedMpcbf,
    stats: BulkStats,
    push_s: f64,
    finish_s: f64,
}

/// Stages every thread's initial window through `ShardedBulkBuilder`
/// and finishes it on `spec.threads` threads.
fn build(spec: &Spec, space: &KeySpace, rings: &[Ring]) -> Built {
    let mut builder: ShardedBulkBuilder = ShardedBulkBuilder::new(spec.config(), spec.shards);
    let mut key = [0u8; MAX_KEY];
    let ((), push_s) = timed(|| {
        for ring in rings {
            let mut cursor = ring.start();
            while let Some((_, idx)) = ring.resident_at_or_after(&mut cursor) {
                let n = space.member(idx, &mut key);
                builder.push(&key[..n]);
            }
        }
    });
    let stats = builder.stats();
    let (filter, finish_s) = timed(|| builder.finish_parallel(spec.threads));
    Built {
        filter,
        stats,
        push_s,
        finish_s,
    }
}

pub fn run(spec: &Spec, seed: u64, window: Duration, traced: bool) -> Outcome {
    let space = KeySpace::bulk(2 * spec.live, seed);
    let setups = if traced { 1 } else { spec.setups };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let (built, secs) = timed(|| build(spec, &space, &spec.rings()));
        setup_s.push(secs);
        kept = Some(built);
    }
    let built = kept.expect("at least one set-up");
    let filter = &built.filter;
    let refused = filter.overflows();
    let resident: u64 = spec.rings().iter().map(Ring::resident).sum();
    let geometry = format!(
        "{} words_per_shard={}",
        spec.describe("ShardedMpcbf"),
        filter.words_per_shard()
    );
    let mut tally = Tally {
        updates: resident,
        refused,
        ..Tally::default()
    };
    let mut rings = spec.rings();
    let named = if refused > 0 {
        name_refused_preloads(filter, spec.config().seed(), &space, &mut rings)
    } else {
        0
    };
    let mut streams: Vec<Stream> = rings
        .into_iter()
        .enumerate()
        .map(|(t, ring)| Stream::new(&space, ring, seed ^ 0x5eed ^ (t as u64) << 32))
        .collect();

    let (pass, _) = parallel_pass(filter, &mut streams, &mut tally, window, seed, false);
    let mut out = Outcome::new(setup_s, pass, geometry);
    if named != refused {
        out.failures.push(format!(
            "the bulk build refused {refused} keys; inserting them in push order refuses {named}"
        ));
    }
    if traced {
        traced_passes(
            &built,
            spec.config().seed(),
            &mut streams,
            &mut tally,
            window,
            seed,
            &mut out,
        );
    }
    check_batch_equals_scalar(filter, &mut streams[0], &mut tally);
    scan_residents(filter, &mut streams, &mut tally);
    out.tally = tally;
    out
}

/// Marks absent, in `rings`, the preloaded keys the bulk build refused,
/// and returns how many. The build reports only a count, and a refused
/// key whose word is full usually reads as present, so the stream would
/// remove it and take another key's counts with it. The build admits
/// exactly what inserting the keys in push order would: under MPCBF-1
/// each key adds `k` increments to its one word, and a word holds
/// `w - b1` of them. This replays that count per word.
fn name_refused_preloads(
    filter: &ShardedMpcbf,
    hash_seed: u64,
    space: &KeySpace,
    rings: &mut [Ring],
) -> u64 {
    let shape = filter.shape();
    assert_eq!(shape.g, 1, "push-order replay assumes one word per key");
    let per_word = filter.words_per_shard();
    let room = (shape.w - shape.b1) as u8;
    let mut used = vec![0u8; filter.shard_count() * per_word as usize];
    let mut plans = PlanBuffer::new();
    let mut digests = Vec::with_capacity(BATCH);
    let mut homes = [0u128; BATCH];
    let mut keys = [[0u8; MAX_KEY]; BATCH];
    let mut named = 0;
    for ring in rings {
        let mut cursor = ring.start();
        let mut positions = Vec::with_capacity(BATCH);
        loop {
            positions.clear();
            let mut lens = [0usize; BATCH];
            while positions.len() < BATCH {
                let Some((p, idx)) = ring.resident_at_or_after(&mut cursor) else {
                    break;
                };
                lens[positions.len()] = space.member(idx, &mut keys[positions.len()]);
                positions.push(p);
            }
            if positions.is_empty() {
                break;
            }
            let views: Vec<&[u8]> = (0..positions.len()).map(|i| &keys[i][..lens[i]]).collect();
            hash_into(hash_seed, &views, &mut digests);
            route(&mut digests, &mut homes, filter.shard_count());
            plans.plan_partitioned(
                digests.iter().copied(),
                per_word,
                shape.k,
                shape.g,
                u64::from(shape.b1),
            );
            for (i, &p) in positions.iter().enumerate() {
                let word = homes[i] as usize * per_word as usize + plans.words_of(i)[0] as usize;
                let k = plans.slots_of(i).len() as u8;
                if used[word] + k <= room {
                    used[word] += k;
                } else {
                    ring.refuse(p);
                    named += 1;
                }
            }
        }
    }
    named
}

/// Every thread drives its own stream until the window closes; with
/// `traced`, each call gets a span under its op's root span.
fn parallel_pass(
    filter: &ShardedMpcbf,
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
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(t, stream)| {
                scope.spawn(move || {
                    let mut timings = Timings::new(seed ^ t as u64, start, window);
                    let mut tally = Tally::default();
                    let mut tr = Tracer::new(start, if traced { cap } else { 0 });
                    let mut scratch = ShardBatch::new();
                    let mut batch = Batch::new();
                    let mut now = Instant::now();
                    let mut op = (t as u64) << 40;
                    while now < deadline && !(traced && tr.is_full(2)) {
                        op += 1;
                        let kind = stream.next_kind();
                        stream.fill(&mut batch, kind, BATCH);
                        let keys = batch.views();
                        let t0 = Instant::now();
                        let answer = if traced {
                            let n = keys.len() as u32;
                            let root = tr.open(Name::Op, NO_PARENT, op, n);
                            let a = tr.span(sharded_name(kind), root, op, n, || {
                                call(filter, kind, &keys, &mut scratch)
                            });
                            tr.close(root);
                            a
                        } else {
                            call(filter, kind, &keys, &mut scratch)
                        };
                        now = Instant::now();
                        timings.record(kind, keys.len(), t0, now);
                        stream.settle(&batch, &answer, &mut tally);
                    }
                    (timings, tally, tr.spans().to_vec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread panicked"))
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

fn sharded_name(kind: Kind) -> Name {
    if kind.is_update() {
        Name::ShardedUpdate
    } else {
        Name::ShardedQuery
    }
}

/// Phase A: one thread replays each batch through the hash, plan and
/// HCBF rungs before the sharded call. The HCBF rung walks a mirror of
/// every shard's words, exact because only this thread updates the
/// filter in this phase; loading a key's mirrored word into cache is
/// left outside the rung's span. Phase B: every thread, with a span
/// around each sharded call only.
fn traced_passes(
    built: &Built,
    hash_seed: u64,
    streams: &mut [Stream],
    tally: &mut Tally,
    window: Duration,
    seed: u64,
    out: &mut Outcome,
) {
    let filter = &built.filter;
    let shape = filter.shape();
    let mut mirror: Vec<Vec<HcbfWord<u64>>> = (0..filter.shard_count())
        .map(|s| {
            filter
                .shard_raw_words(s)
                .into_iter()
                .map(HcbfWord::from_raw)
                .collect()
        })
        .collect();
    let stream = &mut streams[0];
    let mut scratch = ShardBatch::new();
    let mut rung_plans = PlanBuffer::new();
    let mut digests = Vec::with_capacity(BATCH);
    let mut homes = [0u128; BATCH];
    let mut rung = [false; BATCH];
    let mut batch = Batch::new();
    let mut refusals = 0u64;
    let half = window / 2;
    let start = Instant::now();
    let mut tr = Tracer::new(start, SPAN_CAP);
    let mut keys_done = 0u64;
    let mut op = 0u64;
    while start.elapsed() < half && !tr.is_full(6) {
        op += 1;
        let kind = stream.next_kind();
        stream.fill(&mut batch, kind, BATCH);
        let keys = batch.views();
        let len = keys.len();
        let n = len as u32;
        let root = tr.open(Name::Op, NO_PARENT, op, n);
        tr.span(Name::Hash, root, op, n, || {
            hash_into(hash_seed, &keys, &mut digests)
        });
        tr.span(Name::Plan, root, op, n, || {
            route(&mut digests, &mut homes, filter.shard_count());
            rung_plans.plan_partitioned(
                digests.iter().copied(),
                filter.words_per_shard(),
                shape.k,
                shape.g,
                u64::from(shape.b1),
            )
        });
        black_box((0..len).fold(0, |acc, i| {
            acc ^ touch(&mirror[homes[i] as usize], &rung_plans, i)
        }));
        let hcbf = if kind.is_update() {
            Name::HcbfUpdate
        } else {
            Name::HcbfQuery
        };
        tr.span(hcbf, root, op, n, || {
            for (i, r) in rung.iter_mut().enumerate().take(len) {
                *r = walk(
                    &mut mirror[homes[i] as usize],
                    &rung_plans,
                    i,
                    kind,
                    shape.b1,
                );
            }
        });
        let answer = tr.span(sharded_name(kind), root, op, n, || {
            call(filter, kind, &keys, &mut scratch)
        });
        tr.close(root);
        keys_done += len as u64;
        tally.mismatches += u64::from(!answer.agrees_with(&rung[..len]));
        if kind == Kind::Insert {
            refusals += rung[..len].iter().filter(|&&r| !r).count() as u64;
        }
        stream.settle(&batch, &answer, tally);
    }
    let wall_a = start.elapsed();
    let mut one = Profile::default();
    one.add(tr.spans());
    out.spans.push(tr.spans().to_vec());
    drop(mirror);

    let (pass_b, spans_b) = parallel_pass(filter, streams, tally, half, seed ^ 0xb, true);
    let mut many = Profile::default();
    for s in &spans_b {
        many.add(s);
    }
    let threads = spans_b.len() as f64;
    out.spans.extend(spans_b);

    let hash = one.get(Name::Hash);
    let plan = one.get(Name::Plan);
    let hq = one.get(Name::HcbfQuery);
    let hu = one.get(Name::HcbfUpdate);
    let sharded_1t = one.get(Name::ShardedQuery).self_ns + one.get(Name::ShardedUpdate).self_ns;
    let rate = |p: &Profile| {
        let keys = p.get(Name::ShardedQuery).keys + p.get(Name::ShardedUpdate).keys;
        let ns = p.get(Name::ShardedQuery).self_ns + p.get(Name::ShardedUpdate).self_ns;
        keys as f64 / ns.max(1) as f64
    };
    out.layer("hash.ns_per_key", hash.ns_per_key(), "ns");
    out.layer("plan.ns_per_key", plan.ns_per_key(), "ns");
    out.layer("hcbf.query_ns", hq.ns_per_key(), "ns");
    out.layer("hcbf.update_ns", hu.ns_per_key(), "ns");
    out.layer("hcbf.refusals", refusals as f64, "count");
    out.layer(
        "mpcbf.memory_ns",
        (sharded_1t as f64 - (hash.self_ns + plan.self_ns + hq.self_ns + hu.self_ns) as f64)
            / keys_done.max(1) as f64,
        "ns",
    );
    out.layer(
        "sharded.query_ns_per_key_1t",
        one.get(Name::ShardedQuery).ns_per_key(),
        "ns",
    );
    out.layer(
        "sharded.query_ns_per_key_nt",
        many.get(Name::ShardedQuery).ns_per_key(),
        "ns",
    );
    out.layer(
        "sharded.update_ns_per_key_1t",
        one.get(Name::ShardedUpdate).ns_per_key(),
        "ns",
    );
    out.layer(
        "sharded.update_ns_per_key_nt",
        many.get(Name::ShardedUpdate).ns_per_key(),
        "ns",
    );
    out.layer("sharded.scaling", rate(&many) / rate(&one), "ratio");
    let keys = built.stats.keys as f64;
    out.layer("bulk.push_s", built.push_s, "s");
    out.layer("bulk.finish_s", built.finish_s, "s");
    out.layer(
        "bulk.keys_per_s",
        keys / (built.push_s + built.finish_s),
        "1/s",
    );
    out.layer("bulk.l1_spills", built.stats.l1_spills as f64, "count");
    out.layer("bulk.l2_spills", built.stats.l2_spills as f64, "count");
    out.layer("bulk.flushes", built.stats.flushes as f64, "count");
    let end_to_end_ns = wall_a.as_nanos() as f64 + pass_b.wall.as_nanos() as f64 * threads;
    out.layer(
        "trace.unattributed_share",
        1.0 - (one.attributed_ns + many.attributed_ns) as f64 / end_to_end_ns,
        "ratio",
    );
    out.layer(
        "trace.overhead",
        pass_b.keys_per_s() / out.pass.keys_per_s(),
        "ratio",
    );
}

/// Compares sampled query batches with the scalar `contains_bytes`.
fn check_batch_equals_scalar(filter: &ShardedMpcbf, stream: &mut Stream, tally: &mut Tally) {
    let mut scratch = ShardBatch::new();
    let mut batch = Batch::new();
    for _ in 0..EQUIVALENCE_BATCHES {
        stream.fill(&mut batch, Kind::Query, BATCH);
        let keys = batch.views();
        let hits = filter.contains_batch_bytes_with(&keys, &mut scratch);
        let scalar: Vec<bool> = keys.iter().map(|k| filter.contains_bytes(k)).collect();
        tally.mismatches += u64::from(hits != scalar);
        stream.settle(&batch, &Answer::Hits(scalar), tally);
    }
}

/// Queries every resident key of every stream, one thread per stream.
fn scan_residents(filter: &ShardedMpcbf, streams: &mut [Stream], tally: &mut Tally) {
    let parts: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    let mut scratch = ShardBatch::new();
                    let mut batch = Batch::new();
                    let mut cursor = stream.ring.start();
                    while stream.fill_scan(&mut batch, &mut cursor) {
                        let hits = filter.contains_batch_bytes_with(&batch.views(), &mut scratch);
                        stream.settle(&batch, &Answer::Hits(hits), &mut t);
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan thread panicked"))
            .collect()
    });
    for p in &parts {
        tally.add(p);
    }
}
