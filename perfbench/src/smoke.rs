//! Tiny-size runs of every workload through the same runners and
//! correctness checks as a full run.

use crate::measure::Outcome;
use crate::report::PER_LAYER;
use crate::workloads::Workload;
use crate::{bench_dir, check_failures};
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(200);

fn run(workload: Workload, traced: bool) -> Outcome {
    let dir = bench_dir("scratch").join(format!(
        "smoke-{}-{}-{traced}",
        std::process::id(),
        workload.name()
    ));
    let served = Workload::ServedDurable.tiny();
    let out = crate::run(
        workload,
        &workload.tiny(),
        &served,
        11,
        WINDOW,
        traced,
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    out.expect("smoke run")
}

fn assert_clean(workload: Workload, traced: bool, layers: &[&str]) {
    let out = run(workload, traced);
    let failures = check_failures(&out);
    assert!(failures.is_empty(), "{}: {failures:?}", workload.name());
    let t = &out.tally;
    assert!(t.queries > 0 && t.updates > 0 && t.stranger_queries > 0);
    assert_eq!(t.errors, 0);
    assert!(out.pass.keys_per_s() > 0.0);
    assert!(!out.setup_s.is_empty());
    for name in layers {
        let m = out.layers.iter().find(|m| m.name == *name);
        let m = m.unwrap_or_else(|| panic!("{}: no {name}", workload.name()));
        assert!(PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit));
    }
    if traced {
        assert!(!out.spans.is_empty());
    }
}

const TRACE: [&str; 2] = ["trace.unattributed_share", "trace.overhead"];

#[test]
fn table2_cache_smoke() {
    assert_clean(Workload::Table2Cache, false, &[]);
    let layers = [
        "hash.ns_per_key",
        "hash.bits_per_op",
        "plan.ns_per_key",
        "hcbf.query_ns",
        "mpcbf.memory_ns",
        "mpcbf.words_per_query",
        "wal.sync_us",
        "server.ping_us",
        "server.query_overhead_us",
    ];
    assert_clean(Workload::Table2Cache, true, &[&layers[..], &TRACE].concat());
}

#[test]
fn dram_sharded_smoke() {
    assert_clean(Workload::DramSharded, false, &[]);
    let layers = [
        "hash.ns_per_key",
        "hcbf.update_ns",
        "mpcbf.memory_ns",
        "sharded.scaling",
        "bulk.keys_per_s",
        "bulk.l1_spills",
    ];
    assert_clean(Workload::DramSharded, true, &[&layers[..], &TRACE].concat());
}

#[test]
fn served_durable_smoke() {
    assert_clean(Workload::ServedDurable, false, &[]);
    let layers = [
        "plan.ns_per_key",
        "wal.append_us",
        "wal.sync_us",
        "wal.bytes_per_op",
        "server.ping_us",
        "server.update_overhead_us",
    ];
    assert_clean(
        Workload::ServedDurable,
        true,
        &[&layers[..], &TRACE].concat(),
    );
}

#[test]
fn bulk_build_refusals_are_named_exactly() {
    // Three times the design load: the bulk build and the churn refuse
    // many keys, and every refused key must be known absent, or the
    // stream would remove it and cause false negatives.
    let tiny = Workload::DramSharded.tiny();
    let spec = crate::workloads::Spec {
        live: 3 * tiny.n,
        setups: 1,
        ..tiny
    };
    let out = crate::sharded::run(&spec, 5, WINDOW, false);
    assert!(out.tally.refused > 100, "{:?}", out.tally);
    let failures = check_failures(&out);
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn a_false_negative_fails_the_run() {
    let mut out = run(Workload::Table2Cache, false);
    assert!(check_failures(&out).is_empty());
    out.tally.false_neg = 1;
    assert_eq!(
        check_failures(&out),
        vec!["1 resident members reported absent".to_string()]
    );
}
