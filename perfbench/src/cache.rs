//! Runner for a single-threaded `Mpcbf` driven by batch-64 calls.

use crate::keys::{KeySpace, Ring};
use crate::measure::{timed, Outcome, Pass, Timings};
use crate::rungs::{hash_into, touch, walk};
use crate::stream::{Ack, Answer, Batch, Kind, Stream, Tally, BATCH};
use crate::trace::{Name, Profile, Tracer, NO_PARENT, SPAN_CAP};
use crate::workloads::Spec;
use mpcbf_core::{CountingFilter, Filter, HcbfWord, Mpcbf, OpCost, PlanBuffer};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches of each check that compares batch answers with scalar ones.
const EQUIVALENCE_BATCHES: usize = 256;

/// One batch call of `kind` through the `*_batch_with` API.
fn call(
    filter: &mut Mpcbf,
    kind: Kind,
    keys: &[&[u8]],
    plans: &mut PlanBuffer,
) -> (Answer, OpCost) {
    match kind {
        Kind::Query => {
            let (hits, cost) = filter.contains_batch_with(keys, plans);
            (Answer::Hits(hits), cost)
        }
        Kind::Remove => {
            let (res, cost) = filter.remove_batch_with(keys, plans);
            (Answer::acks(&res), cost)
        }
        Kind::Insert => {
            let (res, cost) = filter.insert_batch_with(keys, plans);
            (Answer::acks(&res), cost)
        }
    }
}

/// The same ops through the scalar API.
fn call_scalar(filter: &mut Mpcbf, kind: Kind, keys: &[&[u8]]) -> Answer {
    match kind {
        Kind::Query => Answer::Hits(keys.iter().map(|k| filter.contains_bytes(k)).collect()),
        Kind::Remove => Answer::Acks(
            keys.iter()
                .map(|k| Ack::from(&filter.remove_bytes(k)))
                .collect(),
        ),
        Kind::Insert => Answer::Acks(
            keys.iter()
                .map(|k| Ack::from(&filter.insert_bytes(k)))
                .collect(),
        ),
    }
}

/// Builds the filter and preloads the first `live` keys.
fn setup(spec: &Spec, seed: u64, tally: &mut Tally) -> (KeySpace, Mpcbf, Ring) {
    let space = KeySpace::synthetic(2 * spec.live, seed);
    let mut filter: Mpcbf = Mpcbf::new(spec.config());
    let ring = spec.rings().pop().expect("one thread, one window");
    let mut stream = Stream::new(&space, ring, seed);
    preload(&mut filter, &mut stream, spec.live, tally);
    let ring = stream.ring;
    (space, filter, ring)
}

/// Inserts the window's keys (positions `0..live`) in batches, marking
/// refused ones absent.
fn preload(filter: &mut Mpcbf, stream: &mut Stream, live: u64, tally: &mut Tally) {
    let mut plans = PlanBuffer::new();
    let mut batch = Batch::new();
    let mut done = 0;
    while done < live {
        let len = BATCH.min((live - done) as usize);
        stream.fill_preload(&mut batch, done, len);
        let (answer, _) = call(filter, Kind::Insert, &batch.views(), &mut plans);
        stream.settle(&batch, &answer, tally);
        done += len as u64;
    }
}

pub fn run(spec: &Spec, seed: u64, window: Duration, traced: bool) -> Outcome {
    let geometry = spec.describe("Mpcbf");
    let setups = if traced { 1 } else { spec.setups };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let mut tally = Tally::default();
        let (state, secs) = timed(|| setup(spec, seed, &mut tally));
        setup_s.push(secs);
        kept = Some((state, tally));
    }
    let ((space, mut filter, ring), mut tally) = kept.expect("at least one set-up");
    let mut stream = Stream::new(&space, ring, seed ^ 0x5eed);

    let pass = untraced_pass(&mut filter, &mut stream, &mut tally, window, seed);
    let mut out = Outcome::new(setup_s, pass, geometry);
    if traced {
        traced_pass(&mut filter, &mut stream, &mut tally, window, &mut out);
    }
    check_batch_equals_scalar(&mut filter, &mut stream, &mut tally);
    scan_residents(&filter, &mut stream, &mut tally);
    out.tally = tally;
    out
}

fn untraced_pass(
    filter: &mut Mpcbf,
    stream: &mut Stream,
    tally: &mut Tally,
    window: Duration,
    seed: u64,
) -> Pass {
    let mut plans = PlanBuffer::new();
    let mut batch = Batch::new();
    let start = Instant::now();
    let mut timings = Timings::new(seed, start, window);
    let deadline = start + window;
    let mut now = start;
    while now < deadline {
        let kind = stream.next_kind();
        stream.fill(&mut batch, kind, BATCH);
        let keys = batch.views();
        let t0 = Instant::now();
        let (answer, _) = call(filter, kind, &keys, &mut plans);
        now = Instant::now();
        timings.record(kind, keys.len(), t0, now);
        stream.settle(&batch, &answer, tally);
    }
    Pass {
        timings: vec![timings],
        wall: start.elapsed(),
    }
}

/// Replays each batch through the hash, plan and HCBF rungs before the
/// full `Mpcbf` call, with spans around every call. The HCBF rung walks
/// a mirror of the filter's words that the rung keeps in step with it.
fn traced_pass(
    filter: &mut Mpcbf,
    stream: &mut Stream,
    tally: &mut Tally,
    window: Duration,
    out: &mut Outcome,
) {
    let shape = filter.shape();
    let hash_seed = filter.seed();
    let mut mirror: Vec<HcbfWord<u64>> = filter
        .raw_words()
        .into_iter()
        .map(HcbfWord::from_raw)
        .collect();
    let mut plans = PlanBuffer::new();
    let mut rung_plans = PlanBuffer::new();
    let mut digests = Vec::with_capacity(BATCH);
    let mut rung = [false; BATCH];
    let mut batch = Batch::new();
    let mut query_cost = (OpCost::zero(), 0u64);
    let mut update_cost = (OpCost::zero(), 0u64);
    let mut refusals = 0u64;
    let start = Instant::now();
    let mut tr = Tracer::new(start, SPAN_CAP);
    let deadline = start + window;
    let mut keys_done = 0u64;
    let mut op = 0u64;
    while Instant::now() < deadline && !tr.is_full(5) {
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
            rung_plans.plan_partitioned(
                digests.iter().copied(),
                shape.l,
                shape.k,
                shape.g,
                u64::from(shape.b1),
            )
        });
        black_box((0..len).fold(0, |acc, i| acc ^ touch(&mirror, &rung_plans, i)));
        let (hcbf, full) = if kind.is_update() {
            (Name::HcbfUpdate, Name::MpcbfUpdate)
        } else {
            (Name::HcbfQuery, Name::MpcbfQuery)
        };
        tr.span(hcbf, root, op, n, || {
            for (i, r) in rung.iter_mut().enumerate().take(len) {
                *r = walk(&mut mirror, &rung_plans, i, kind, shape.b1);
            }
        });
        let (answer, cost) = tr.span(full, root, op, n, || call(filter, kind, &keys, &mut plans));
        tr.close(root);
        keys_done += len as u64;

        tally.mismatches += u64::from(!answer.agrees_with(&rung[..len]));
        if let Answer::Acks(acks) = &answer {
            let applied = acks.iter().filter(|a| **a == Ack::Applied).count() as u64;
            update_cost = (update_cost.0.add(cost), update_cost.1 + applied);
            if kind == Kind::Insert {
                refusals += len as u64 - applied;
            }
        } else {
            query_cost = (query_cost.0.add(cost), query_cost.1 + len as u64);
        }
        stream.settle(&batch, &answer, tally);
    }
    let traced_rate = keys_done as f64 / start.elapsed().as_secs_f64();
    let mut profile = Profile::default();
    profile.add(tr.spans());

    let per_key = |name| profile.get(name).ns_per_key();
    let hash = profile.get(Name::Hash);
    let plan = profile.get(Name::Plan);
    let hcbf_ns = profile.get(Name::HcbfQuery).self_ns + profile.get(Name::HcbfUpdate).self_ns;
    let full_ns = profile.get(Name::MpcbfQuery).self_ns + profile.get(Name::MpcbfUpdate).self_ns;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.layer("hash.ns_per_key", hash.ns_per_key(), "ns");
    out.layer(
        "hash.bits_per_op",
        ratio(
            u64::from(query_cost.0.hash_bits) + u64::from(update_cost.0.hash_bits),
            query_cost.1 + update_cost.1,
        ),
        "bits",
    );
    out.layer("plan.ns_per_key", plan.ns_per_key(), "ns");
    out.layer("hcbf.query_ns", per_key(Name::HcbfQuery), "ns");
    out.layer("hcbf.update_ns", per_key(Name::HcbfUpdate), "ns");
    out.layer("hcbf.refusals", refusals as f64, "count");
    out.layer("mpcbf.query_ns_per_key", per_key(Name::MpcbfQuery), "ns");
    out.layer("mpcbf.update_ns_per_key", per_key(Name::MpcbfUpdate), "ns");
    out.layer(
        "mpcbf.words_per_query",
        ratio(u64::from(query_cost.0.word_accesses), query_cost.1),
        "words",
    );
    out.layer(
        "mpcbf.words_per_update",
        ratio(u64::from(update_cost.0.word_accesses), update_cost.1),
        "words",
    );
    out.layer(
        "mpcbf.memory_ns",
        (full_ns as f64 - (hash.self_ns + plan.self_ns + hcbf_ns) as f64) / keys_done.max(1) as f64,
        "ns",
    );
    let wall_ns = tr.spans().last().map_or(1, |s| s.end).max(1);
    out.layer(
        "trace.unattributed_share",
        1.0 - profile.attributed_ns as f64 / wall_ns as f64,
        "ratio",
    );
    out.layer(
        "trace.overhead",
        traced_rate / out.pass.keys_per_s(),
        "ratio",
    );
    out.spans.push(tr.spans().to_vec());
}

/// Runs sampled batches through the batch API on a copy of the filter
/// and through the scalar API on the filter itself: answers and the
/// resulting words must be equal.
fn check_batch_equals_scalar(filter: &mut Mpcbf, stream: &mut Stream, tally: &mut Tally) {
    let mut plans = PlanBuffer::new();
    let mut batch = Batch::new();
    for _ in 0..EQUIVALENCE_BATCHES {
        let kind = stream.next_kind();
        stream.fill(&mut batch, kind, BATCH);
        let keys = batch.views();
        let mut twin = filter.clone();
        let (answer, _) = call(&mut twin, kind, &keys, &mut plans);
        let scalar = call_scalar(filter, kind, &keys);
        let same = answer == scalar && twin.raw_words() == filter.raw_words();
        tally.mismatches += u64::from(!same);
        stream.settle(&batch, &scalar, tally);
    }
}

/// Queries every resident key; a miss counts as a false negative.
fn scan_residents(filter: &Mpcbf, stream: &mut Stream, tally: &mut Tally) {
    let mut plans = PlanBuffer::new();
    let mut batch = Batch::new();
    let mut cursor = stream.ring.start();
    while stream.fill_scan(&mut batch, &mut cursor) {
        let (hits, _) = filter.contains_batch_with(&batch.views(), &mut plans);
        stream.settle(&batch, &Answer::Hits(hits), tally);
    }
}
