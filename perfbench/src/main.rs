//! The repository's benchmark: one workload per run, end-to-end metrics
//! (`--trace 0`) or per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2-cache --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a provenance header, a table of metrics (value, samples, p99,
//! per-slice quartiles) and, last, one JSON line. Exits 1 when a
//! correctness check fails and 2 on bad arguments or a host the workload
//! cannot run on.

mod cache;
mod keys;
mod measure;
mod provenance;
mod report;
mod rng;
mod rungs;
mod served;
mod sharded;
mod stats;
mod stream;
mod trace;
mod workloads;

#[cfg(test)]
mod smoke;

use measure::Outcome;
use provenance::{peak_rss_mib, Host};
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Spec, Workload};

const USAGE: &str = "usage: perfbench --workload <table2-cache|dram-sharded|served-durable> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Smallest filter-to-LLC ratio at which a filter counts as DRAM-resident.
const MIN_DRAM_RATIO: f64 = 1.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("not a whole number"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("must be 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let spec = args.workload.spec(host.nproc);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!("{}", host.header());
    if args.workload == Workload::DramSharded {
        let Some(llc) = host.llc_bytes else {
            eprintln!(
                "error: last-level cache size unknown; cannot show the filter is DRAM-resident"
            );
            return ExitCode::from(2);
        };
        let ratio = spec.filter_bytes() as f64 / llc as f64;
        println!("# filter_bytes/llc_bytes={ratio:.3}");
        if ratio < MIN_DRAM_RATIO {
            eprintln!(
                "error: a {} MiB filter is only {ratio:.2}x this host's last-level cache; \
                 {} needs at least {MIN_DRAM_RATIO}x",
                spec.filter_bytes() >> 20,
                args.workload.name()
            );
            return ExitCode::from(2);
        }
    }
    let window = Duration::from_secs(args.seconds);
    let scratch = bench_dir("scratch").join(format!("run-{}", std::process::id()));
    let served = Workload::ServedDurable.spec(host.nproc);
    let out = run(
        args.workload,
        &spec,
        &served,
        args.seed,
        window,
        args.traced,
        &scratch,
    );
    let _ = fs::remove_dir_all(&scratch);
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!("# geometry: {}", out.geometry);
    if args.traced {
        match write_spans(&out, args.workload, args.seed) {
            Ok(path) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }
    let metrics = report::print(&out, args.traced, peak_rss_mib());
    let mut failures = check_failures(&out);
    if !args.traced {
        failures.extend(sample_shortfalls(&out));
    }
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    let t = &out.tally;
    println!(
        "# attempted={} refused={} errors={} false_negatives={} false_positives={}/{}",
        t.attempted(),
        t.refused,
        t.errors,
        t.false_neg,
        t.false_pos,
        t.stranger_queries
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        failures.is_empty(),
        t.attempted(),
        t.errors
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs `workload` on `spec`, and in a traced run of a workload that
/// carries it, the served ladder on `served` for a quarter of the
/// window. Server and WAL state live under `scratch`.
fn run(
    workload: Workload,
    spec: &Spec,
    served: &Spec,
    seed: u64,
    window: Duration,
    traced: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = match workload {
        Workload::Table2Cache => cache::run(spec, seed, window, traced),
        Workload::DramSharded => sharded::run(spec, seed, window, traced),
        Workload::ServedDurable => served::run(spec, seed, window, traced, scratch)?,
    };
    if traced && workload.runs_served_ladder() {
        served::ladder(served, seed, window / 4, scratch, &mut out)?;
    }
    Ok(out)
}

/// Every failed correctness check of a run, in words.
fn check_failures(out: &Outcome) -> Vec<String> {
    let mut f = out.failures.clone();
    let t = &out.tally;
    if t.false_neg > 0 {
        f.push(format!("{} resident members reported absent", t.false_neg));
    }
    if t.mismatches > 0 {
        f.push(format!(
            "{} batches answered differently from the scalar path or the HCBF rung",
            t.mismatches
        ));
    }
    if t.stranger_queries == 0 {
        f.push("no stranger queries, so no fpr".to_string());
    }
    f
}

/// Latency kinds with too few samples for a p99 (every slice needs
/// [`stats::P99_MIN_SAMPLES`]).
fn sample_shortfalls(out: &Outcome) -> Vec<String> {
    let query = measure::figures(&out.pass.timings, |t| &t.query);
    let update = measure::figures(&out.pass.timings, |t| &t.update);
    [("query", query), ("update", update)]
        .into_iter()
        .filter(|(_, f)| f.p99.is_none())
        .map(|(kind, f)| {
            format!(
                "{} {kind} samples over {} slices; each slice's p99 needs {}",
                f.count,
                measure::SLICES,
                stats::P99_MIN_SAMPLES
            )
        })
        .collect()
}

/// A directory of the benchmark's own, inside the checkout.
fn bench_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn write_spans(out: &Outcome, workload: Workload, seed: u64) -> std::io::Result<PathBuf> {
    let dir = bench_dir("traces");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.tsv", workload.name()));
    let mut w = BufWriter::new(File::create(&path)?);
    writeln!(w, "thread\tid\tparent\tname\top\tstart_ns\tend_ns\tkeys")?;
    for (thread, spans) in out.spans.iter().enumerate() {
        trace::write_tsv(&mut w, thread, spans)?;
    }
    w.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload dram-sharded --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Workload::DramSharded, 7, 10, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload table2-cache --seed 7 --seconds 0 --trace 1").is_err());
        assert!(args("--workload table2-cache --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload table2-cache --seed 7 --seconds 10").is_err());
        assert!(args("--workload table2-cache --seed").is_err());
    }
}
