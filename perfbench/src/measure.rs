//! What one run measures: per-kind call timings, the op tally, checks
//! that failed, and the per-layer figures of a traced run.

use crate::stats::{median, quartiles, Reservoir};
use crate::stream::{Kind, Tally};
use crate::trace::Span;
use std::time::{Duration, Instant};

/// Equal slices a timed window is cut into. Every timing metric is the
/// median over slices of the per-slice figure, so a run reports the level
/// it spent most of its time at: an episode caused from outside the
/// program that covers less than half the window (a stall, or a shared
/// core running faster or slower for a while) does not move the result.
pub const SLICES: usize = 30;

/// Latency samples kept per slice, kind and thread.
const SLICE_CAP: usize = 1 << 13;

/// Calls of one kind on one thread within one slice.
pub struct SliceStats {
    pub samples: Reservoir,
    pub keys: u64,
    pub busy_ns: u64,
}

/// One thread's calls of one kind, slice by slice.
pub struct KindStats {
    pub slices: Vec<SliceStats>,
}

impl KindStats {
    fn new(seed: u64) -> Self {
        KindStats {
            slices: (0..SLICES as u64)
                .map(|i| SliceStats {
                    samples: Reservoir::new(SLICE_CAP, seed ^ (i << 48)),
                    keys: 0,
                    busy_ns: 0,
                })
                .collect(),
        }
    }

    /// Calls recorded over the whole window.
    pub fn seen(&self) -> u64 {
        self.slices.iter().map(|s| s.samples.seen()).sum()
    }

    /// Keys handled over the whole window.
    pub fn keys(&self) -> u64 {
        self.slices.iter().map(|s| s.keys).sum()
    }
}

/// One thread's call timings, split into queries and updates.
pub struct Timings {
    pub query: KindStats,
    pub update: KindStats,
    epoch: Instant,
    slice_ns: u64,
}

impl Timings {
    /// Timings for a window of length `window` that opens at `epoch`.
    pub fn new(seed: u64, epoch: Instant, window: Duration) -> Self {
        Timings {
            query: KindStats::new(seed),
            update: KindStats::new(seed ^ 1),
            epoch,
            slice_ns: (window.as_nanos() as u64 / SLICES as u64).max(1),
        }
    }

    /// Records one call of `kind` that handled `keys` keys between
    /// `start` and `end`, in the slice where it started.
    pub fn record(&mut self, kind: Kind, keys: usize, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        let at = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let slice = ((at / self.slice_ns) as usize).min(SLICES - 1);
        let s = if kind.is_update() {
            &mut self.update.slices[slice]
        } else {
            &mut self.query.slices[slice]
        };
        s.samples.push(ns);
        s.keys += keys as u64;
        s.busy_ns += ns;
    }
}

/// A per-slice figure summarised over slices: the median, and the
/// quartiles that show how much the slices disagreed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverSlices {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl OverSlices {
    fn of(values: &[f64]) -> Option<OverSlices> {
        if values.is_empty() {
            return None;
        }
        let (q1, q3) = quartiles(values);
        Some(OverSlices {
            value: median(values),
            q1,
            q3,
        })
    }
}

/// Per-kind figures over slices, threads pooled within each slice.
pub struct KindFigures {
    /// Keys per second of time spent in this kind's calls, summed over
    /// threads.
    pub ops_per_s: Option<OverSlices>,
    /// Per-call median and p99 latency, in nanoseconds.
    pub p50: Option<OverSlices>,
    pub p99: Option<OverSlices>,
    /// Calls over the whole window.
    pub count: u64,
}

pub fn figures(threads: &[Timings], pick: impl Fn(&Timings) -> &KindStats) -> KindFigures {
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for slice in 0..SLICES {
        let parts: Vec<&SliceStats> = threads.iter().map(|t| &pick(t).slices[slice]).collect();
        if parts.iter().any(|s| s.busy_ns == 0) {
            continue;
        }
        rates.push(
            parts
                .iter()
                .map(|s| s.keys as f64 * 1e9 / s.busy_ns as f64)
                .sum(),
        );
        let samples: Vec<&Reservoir> = parts.iter().map(|s| &s.samples).collect();
        if let Some(summary) = Reservoir::pooled(&samples) {
            p50s.push(summary.median);
            p99s.extend(summary.p99);
        }
    }
    KindFigures {
        ops_per_s: OverSlices::of(&rates),
        p50: OverSlices::of(&p50s),
        p99: OverSlices::of(&p99s),
        count: threads.iter().map(|t| pick(t).seen()).sum(),
    }
}

/// The op stream over one timed window.
pub struct Pass {
    pub timings: Vec<Timings>,
    pub wall: Duration,
}

impl Pass {
    /// Keys handled per wall-clock second, all kinds and threads.
    pub fn keys_per_s(&self) -> f64 {
        let keys: u64 = self
            .timings
            .iter()
            .map(|t| t.query.keys() + t.update.keys())
            .sum();
        keys as f64 / self.wall.as_secs_f64()
    }
}

/// A per-layer metric of a traced run.
pub struct LayerMetric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a runner hands back to the report.
pub struct Outcome {
    /// Seconds per set-up (one set-up in a traced run).
    pub setup_s: Vec<f64>,
    /// The untraced op stream.
    pub pass: Pass,
    /// Ops of the set-up's preload, the stream, the checks and the probe.
    pub tally: Tally,
    /// Correctness checks beyond the tally's that failed, in words.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<LayerMetric>,
    /// Span logs to write out, one per thread and phase.
    pub spans: Vec<Vec<Span>>,
    /// Filter geometry line for the provenance header.
    pub geometry: String,
}

impl Outcome {
    pub fn new(setup_s: Vec<f64>, pass: Pass, geometry: String) -> Self {
        Outcome {
            setup_s,
            pass,
            tally: Tally::default(),
            failures: Vec::new(),
            layers: Vec::new(),
            spans: Vec::new(),
            geometry,
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(LayerMetric { name, value, unit });
    }
}

/// Times `f`, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
