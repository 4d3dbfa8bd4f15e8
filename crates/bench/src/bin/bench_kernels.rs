//! Portable-vs-dispatched kernel microbenchmarks, emitted as
//! `BENCH_kernels.json`.
//!
//! Three levels of the stack are measured in one process:
//!
//! 1. **u64 primitives** — `rank` / `rank_range` / `insert_zero` /
//!    `remove_bit` through the runtime-dispatched kernel against their
//!    portable baselines (BZHI/PDEP/PEXT vs. mask-and-shift);
//! 2. **HCBF word walks** — the hot (carried-rank, kernel-dispatched)
//!    update and query paths against the `*_reference` walks, on `u64` and
//!    on the 512-bit wide word;
//! 3. **MPCBF-1 batch query** — end-to-end queries/sec, scalar vs. the
//!    fused batch-64 pipeline (reusable plan buffer, interleaved word
//!    walks), to track the speedup against the PR 1 baseline (1.51x in
//!    `BENCH_batch.json`).
//!
//! The JSON also records the per-operation kernel routing the batch
//! pipeline resolved ([`Kernel::batch`]): query walks always take the
//! branchless portable kernel, update walks take the accelerated kernel
//! when the CPU offers one. Run from the repo root.

use mpcbf_bench::report::fixed;
use mpcbf_bench::Args;
use mpcbf_bitvec::{kernel, Kernel, Word, W512};
use mpcbf_core::hcbf::HcbfWord;
use mpcbf_core::{Filter, Mpcbf, MpcbfConfig, PlanBuffer};
use mpcbf_hash::Murmur3;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `pass` (one full pass returning its op count) repeatedly for at
/// least `budget`, returning ops/sec.
fn ops_per_sec(budget: Duration, mut pass: impl FnMut() -> u64) -> f64 {
    let _ = pass(); // warm-up
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < budget {
        ops += pass();
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Deterministic xorshift stream for benchmark inputs.
fn xorshift_stream(mut state: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect()
}

struct Pair {
    name: &'static str,
    portable: f64,
    dispatched: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.dispatched / self.portable
    }
}

/// u64 primitive throughput: one pass evaluates every (bits, pos) input.
fn bench_primitives(budget: Duration) -> Vec<Pair> {
    let bits = xorshift_stream(0x9e37_79b9_7f4a_7c15, 4096);
    let pos: Vec<u32> = xorshift_stream(0x2545_f491_4f6c_dd1d, 4096)
        .iter()
        .map(|v| (v % 64) as u32)
        .collect();
    let n = bits.len() as u64;

    let mut out = Vec::new();
    macro_rules! prim {
        ($name:literal, $portable:expr, $dispatched:expr) => {{
            let p = ops_per_sec(budget, || {
                let mut acc = 0u64;
                for (&b, &i) in bits.iter().zip(&pos) {
                    acc ^= u64::from($portable(b, i));
                }
                black_box(acc);
                n
            });
            let d = ops_per_sec(budget, || {
                let mut acc = 0u64;
                for (&b, &i) in bits.iter().zip(&pos) {
                    acc ^= u64::from($dispatched(b, i));
                }
                black_box(acc);
                n
            });
            out.push(Pair {
                name: $name,
                portable: p,
                dispatched: d,
            });
        }};
    }
    prim!("rank", kernel::rank_u64_portable, kernel::rank_u64);
    prim!(
        "rank_range",
        |b, i| kernel::rank_range_u64_portable(b, i / 2, i),
        |b, i| kernel::rank_range_u64(b, i / 2, i)
    );
    prim!(
        "insert_zero",
        kernel::insert_zero_u64_portable,
        kernel::insert_zero_u64
    );
    prim!(
        "remove_bit",
        kernel::remove_bit_u64_portable,
        kernel::remove_bit_u64
    );
    out
}

/// HCBF word-walk throughput: update = increment+decrement round trip over
/// `positions` (net-zero state), query = `query_all` over probe triples.
fn bench_word_walks<W: Word>(label: &'static str, b1: u32, budget: Duration) -> (Pair, Pair) {
    let positions: Vec<u32> = xorshift_stream(0x0123_4567_89ab_cdef, (b1 as usize) / 2)
        .iter()
        .map(|v| (v % u64::from(b1)) as u32)
        .collect();
    let n = positions.len() as u64;

    let mut word: HcbfWord<W> = HcbfWord::new();
    let update_hot = ops_per_sec(budget, || {
        for &p in &positions {
            word.increment(p, b1).expect("capacity");
        }
        for &p in &positions {
            word.decrement(p, b1).expect("present");
        }
        black_box(&word);
        2 * n
    });
    let update_ref = ops_per_sec(budget, || {
        for &p in &positions {
            word.increment_reference(p, b1).expect("capacity");
        }
        for &p in &positions {
            word.decrement_reference(p, b1).expect("present");
        }
        black_box(&word);
        2 * n
    });

    // Query against a word holding half the positions: mixed hits/misses.
    let mut loaded: HcbfWord<W> = HcbfWord::new();
    for &p in &positions {
        loaded.increment(p, b1).expect("capacity");
    }
    let probes: Vec<[u32; 3]> = (0..1024u64)
        .map(|i| {
            let s = xorshift_stream(i + 1, 3);
            [
                (s[0] % u64::from(b1)) as u32,
                (s[1] % u64::from(b1)) as u32,
                (s[2] % u64::from(b1)) as u32,
            ]
        })
        .collect();
    let qn = probes.len() as u64;
    let query_hot = ops_per_sec(budget, || {
        let mut acc = 0u64;
        for p in &probes {
            acc += u64::from(loaded.query_all(p).0);
        }
        black_box(acc);
        qn
    });
    let query_ref = ops_per_sec(budget, || {
        let mut acc = 0u64;
        for p in &probes {
            acc += u64::from(loaded.query_all_reference(p).0);
        }
        black_box(acc);
        qn
    });

    let _ = label;
    (
        Pair {
            name: "update",
            portable: update_ref,
            dispatched: update_hot,
        },
        Pair {
            name: "query",
            portable: query_ref,
            dispatched: query_hot,
        },
    )
}

/// End-to-end MPCBF-1 queries/sec, scalar loop vs batch-64 pipeline, at
/// the Table II configuration, plus the pre-load inserts the filter
/// refused. A scaled-down filter (`--scale` > 1) is too small for its `n`
/// and overflows some words; those refusals are counted, not fatal.
fn bench_mpcbf1_batch(args: &Args, budget: Duration) -> (f64, f64, u64) {
    let big_m = 8_000_000u64 / args.scale;
    let n = args.scaled(100_000);
    let mut filter = Mpcbf::<u64, Murmur3>::new(
        MpcbfConfig::builder()
            .memory_bits(big_m)
            .expected_items(n)
            .hashes(3)
            .seed(1)
            .build()
            .unwrap(),
    );
    let preload_refused = (0..n)
        .filter(|i| filter.insert_bytes(&i.to_le_bytes()).is_err())
        .count() as u64;
    // 80/20 member/stranger mix, as in BENCH_batch.json.
    let queries: Vec<[u8; 8]> = (0..args.scaled(40_000))
        .map(|i| {
            if i % 5 == 4 {
                (10_000_000 + i).to_le_bytes()
            } else {
                (i % n).to_le_bytes()
            }
        })
        .collect();
    let views: Vec<&[u8]> = queries.iter().map(|k| k.as_slice()).collect();
    let scalar = ops_per_sec(budget, || {
        let mut hits = 0u64;
        for k in &views {
            hits += u64::from(filter.contains_bytes(k));
        }
        black_box(hits);
        views.len() as u64
    });
    let mut plans = PlanBuffer::new();
    let batch64 = ops_per_sec(budget, || {
        for chunk in views.chunks(64) {
            black_box(filter.contains_batch_with(chunk, &mut plans));
        }
        views.len() as u64
    });
    (scalar, batch64, preload_refused)
}

fn main() {
    let args = Args::parse();
    let budget = Duration::from_millis(if args.scale > 1 { 60 } else { 200 });

    let primitives = bench_primitives(budget);
    let (u64_update, u64_query) = bench_word_walks::<u64>("u64", 40, budget);
    let (w512_update, w512_query) = bench_word_walks::<W512>("w512", 330, budget);
    let (scalar, batch64, preload_refused) = bench_mpcbf1_batch(&args, budget);

    let routing = Kernel::batch();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"kernel\": {{\"active\": \"{}\", \"cpu_features\": \"{}\", \
         \"forced\": {}}},",
        Kernel::active().name(),
        Kernel::cpu_features(),
        match std::env::var("MPCBF_KERNEL") {
            Ok(v) => format!("\"{v}\""),
            Err(_) => "null".to_string(),
        }
    );
    let _ = writeln!(
        json,
        "  \"batch_routing\": {{\"query_kernel\": \"{}\", \"update_kernel\": \"{}\"}},",
        routing.query.kernel().name(),
        routing.update.kernel().name(),
    );
    json.push_str("  \"primitives_u64\": [\n");
    for (i, p) in primitives.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"op\": \"{}\", \"portable_mops\": {}, \"dispatched_mops\": {}, \
             \"speedup\": {}}}{}",
            p.name,
            fixed(p.portable / 1e6, 1),
            fixed(p.dispatched / 1e6, 1),
            fixed(p.speedup(), 3),
            if i + 1 < primitives.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"word_walks\": [\n");
    let walks = [
        ("u64", &u64_update),
        ("u64", &u64_query),
        ("w512", &w512_update),
        ("w512", &w512_query),
    ];
    for (i, (word, p)) in walks.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"word\": \"{}\", \"op\": \"{}\", \"portable_ops_per_sec\": {:.0}, \
             \"dispatched_ops_per_sec\": {:.0}, \"speedup\": {}}}{}",
            word,
            p.name,
            p.portable,
            p.dispatched,
            fixed(p.speedup(), 3),
            if i + 1 < walks.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"mpcbf1_batch_query\": {{\"scalar_ops_per_sec\": {scalar:.0}, \
         \"batch64_ops_per_sec\": {batch64:.0}, \"speedup_vs_scalar\": {}, \
         \"pr1_baseline_speedup\": 1.51, \"preload_refused\": {preload_refused}}}",
        fixed(batch64 / scalar, 3)
    );
    json.push_str("}\n");

    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    if !args.quiet {
        println!("{json}");
        println!("wrote BENCH_kernels.json");
    }
}
