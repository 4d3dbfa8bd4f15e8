//! Turns an [`Outcome`] into the printed report and the final JSON line.

use crate::measure::{figures, Outcome, OverSlices};
use crate::stats::median;

/// End-to-end metrics, in print order. `failed_ratio` is printed but not
/// listed in `BENCHMARK.json`: it is 0 on a clean run, and the JSON
/// line's `attempted`/`failed` carry it.
pub const END_TO_END: [(&str, &str); 10] = [
    ("query_ops_per_s", "1/s"),
    ("update_ops_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("fpr", "ratio"),
    ("failed_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of a traced run. A workload on which a layer does
/// not run reports 0 for it.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("hash.ns_per_key", "ns"),
    ("hash.bits_per_op", "bits"),
    ("plan.ns_per_key", "ns"),
    ("hcbf.query_ns", "ns"),
    ("hcbf.update_ns", "ns"),
    ("hcbf.refusals", "count"),
    ("mpcbf.query_ns_per_key", "ns"),
    ("mpcbf.update_ns_per_key", "ns"),
    ("mpcbf.words_per_query", "words"),
    ("mpcbf.words_per_update", "words"),
    ("mpcbf.memory_ns", "ns"),
    ("sharded.query_ns_per_key_1t", "ns"),
    ("sharded.query_ns_per_key_nt", "ns"),
    ("sharded.update_ns_per_key_1t", "ns"),
    ("sharded.update_ns_per_key_nt", "ns"),
    ("sharded.scaling", "ratio"),
    ("bulk.push_s", "s"),
    ("bulk.finish_s", "s"),
    ("bulk.keys_per_s", "1/s"),
    ("bulk.l1_spills", "count"),
    ("bulk.l2_spills", "count"),
    ("bulk.flushes", "count"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_op", "bytes"),
    ("server.ping_us", "us"),
    ("server.query_overhead_us", "us"),
    ("server.update_overhead_us", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Names of the end-to-end metrics in `BENCHMARK.json`.
pub fn benchmark_end_to_end() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.into_iter().filter(|(n, _)| *n != "failed_ratio")
}

/// One printed row: value, and for timings the sample count, p99 and
/// the quartiles of the per-slice figures.
struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
    p99: Option<f64>,
    slices: Option<(f64, f64)>,
}

/// The end-to-end rows of an untraced run.
fn end_to_end_rows(out: &Outcome, peak_rss_mib: f64) -> Vec<Row> {
    let query = figures(&out.pass.timings, |t| &t.query);
    let update = figures(&out.pass.timings, |t| &t.update);
    let t = &out.tally;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let us = |f: Option<OverSlices>| {
        f.map(|f| OverSlices {
            value: f.value / 1e3,
            q1: f.q1 / 1e3,
            q3: f.q3 / 1e3,
        })
    };
    let timing = |f: Option<OverSlices>, n: u64, p99: Option<OverSlices>| {
        (
            f.map_or(0.0, |f| f.value),
            n,
            p99.map(|p| p.value),
            f.map(|f| (f.q1, f.q3)),
        )
    };
    let plain = |v: f64, n: u64| (v, n, None, None);
    let values = [
        timing(query.ops_per_s, query.count, None),
        timing(update.ops_per_s, update.count, None),
        timing(us(query.p50), query.count, us(query.p99)),
        timing(us(query.p99), query.count, None),
        timing(us(update.p50), update.count, us(update.p99)),
        timing(us(update.p99), update.count, None),
        plain(ratio(t.false_pos, t.stranger_queries), t.stranger_queries),
        plain(ratio(t.refused + t.errors, t.attempted()), t.attempted()),
        plain(median(&out.setup_s), out.setup_s.len() as u64),
        plain(peak_rss_mib, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples, p99, slices))| Row {
            name,
            unit,
            value,
            samples,
            p99,
            slices,
        })
        .collect()
}

fn layer_rows(out: &Outcome) -> Vec<Row> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = out.layers.iter().find(|m| m.name == name);
            if let Some(m) = m {
                debug_assert_eq!(m.unit, unit, "unit of {name}");
            }
            Row {
                name,
                unit,
                value: m.map_or(0.0, |m| m.value),
                samples: u64::from(m.is_some()),
                p99: None,
                slices: None,
            }
        })
        .collect()
}

/// Prints the table and returns the JSON line's `metrics` object body.
pub fn print(out: &Outcome, traced: bool, peak_rss_mib: f64) -> String {
    let rows = if traced {
        layer_rows(out)
    } else {
        end_to_end_rows(out, peak_rss_mib)
    };
    println!(
        "{:<30} {:>16} {:<6} {:>10} {:>12}  slice q1..q3",
        "metric", "value", "unit", "samples", "p99"
    );
    for r in &rows {
        let p99 = r.p99.map_or("-".to_string(), |p| format!("{p:.3}"));
        let slices = r
            .slices
            .map_or("-".to_string(), |(a, b)| format!("{a:.3}..{b:.3}"));
        println!(
            "{:<30} {:>16.6} {:<6} {:>10} {:>12}  {slices}",
            r.name, r.value, r.unit, r.samples, p99
        );
    }
    let keep: Vec<&str> = if traced {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        benchmark_end_to_end().map(|(n, _)| n).collect()
    };
    rows.iter()
        .filter(|r| keep.contains(&r.name))
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                json_number(r.value),
                r.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// A finite JSON number with every digit Rust prints.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.203_456_789), "1.203456789");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }

    #[test]
    fn benchmark_json_lists_the_report_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in benchmark_end_to_end().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(!text.contains("\"failed_ratio\""));
        assert_eq!(text.matches("\"name\"").count(), 2 + 9 + PER_LAYER.len());
    }
}
