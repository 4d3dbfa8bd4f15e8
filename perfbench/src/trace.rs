//! Spans recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the crates is instrumented).
//!
//! A span has a name (the layer, named after its module), start and end,
//! a parent, the id of the batch or request it serves, and the number of
//! keys the call handled. Spans stay in memory and are written out when
//! the run ends; a layer's self time is its span time minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Span names: the benchmark's root spans, then one per layer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// One batch (library workloads) or request (served workload) of the
    /// op stream, or one WAL record; its self time is the benchmark's
    /// own work.
    Op,
    Hash,
    Plan,
    HcbfQuery,
    HcbfUpdate,
    MpcbfQuery,
    MpcbfUpdate,
    ShardedQuery,
    ShardedUpdate,
    WalAppend,
    WalSync,
    ServerQuery,
    ServerUpdate,
    ServerPing,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Hash => "hash",
            Name::Plan => "plan",
            Name::HcbfQuery => "hcbf.query",
            Name::HcbfUpdate => "hcbf.update",
            Name::MpcbfQuery => "mpcbf.query",
            Name::MpcbfUpdate => "mpcbf.update",
            Name::ShardedQuery => "sharded.query",
            Name::ShardedUpdate => "sharded.update",
            Name::WalAppend => "wal.append",
            Name::WalSync => "wal.sync",
            Name::ServerQuery => "server.query",
            Name::ServerUpdate => "server.update",
            Name::ServerPing => "server.ping",
        }
    }
}

/// Most spans one traced pass keeps (split across its threads); a pass
/// ends early when they run out.
pub const SPAN_CAP: usize = 600_000;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// Parent value of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub parent: SpanId,
    /// Batch or request id shared by every span of one op.
    pub op: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Keys the call handled (0 for spans that do not count keys).
    pub keys: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log of bounded size.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(cap),
            cap,
        }
    }

    /// True once no further op can be recorded whole (`room` spans).
    pub fn is_full(&self, room: usize) -> bool {
        self.spans.len() + room > self.cap
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: Name, parent: SpanId, op: u64, keys: u32) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            op,
            start,
            end: start,
            keys,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: Name,
        parent: SpanId,
        op: u64,
        keys: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op, keys);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the part of `[start, end)` that the union of `intervals`
/// covers.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub spans: u64,
    pub keys: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    /// Self nanoseconds per key (per span when the spans count no keys).
    pub fn ns_per_key(&self) -> f64 {
        let per = if self.keys > 0 { self.keys } else { self.spans };
        if per == 0 {
            0.0
        } else {
            self.self_ns as f64 / per as f64
        }
    }
}

/// Self time, duration and keys per span name, and the self time of
/// all non-root spans (what the trace attributes to a layer).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    by_name: BTreeMap<Name, LayerTotals>,
    durations: BTreeMap<Name, Vec<f64>>,
    pub attributed_ns: u64,
}

impl Profile {
    /// Folds in one span log (one thread's, or one phase's).
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let t = self.by_name.entry(s.name).or_default();
            t.spans += 1;
            t.keys += u64::from(s.keys);
            t.self_ns += own;
            self.durations
                .entry(s.name)
                .or_default()
                .push(s.duration() as f64);
            if s.name != Name::Op {
                self.attributed_ns += own;
            }
        }
    }

    pub fn get(&self, name: Name) -> LayerTotals {
        self.by_name.get(&name).copied().unwrap_or_default()
    }

    /// Median span duration of `name` in nanoseconds (0 when absent).
    pub fn median_ns(&self, name: Name) -> f64 {
        self.durations
            .get(&name)
            .map_or(0.0, |d| crate::stats::median(d))
    }
}

/// Writes spans as tab-separated lines:
/// `thread id parent name op start_ns end_ns keys`.
pub fn write_tsv(out: &mut impl Write, thread: usize, spans: &[Span]) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{thread}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.name.as_str(),
            s.op,
            s.start,
            s.end,
            s.keys
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: SpanId, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start,
            end,
            keys: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100) ⊃ hash [10,30), mpcbf [40,90) ⊃ hcbf [50,60)
        let spans = [
            span(Name::Op, NO_PARENT, 0, 100),
            span(Name::Hash, 0, 10, 30),
            span(Name::MpcbfQuery, 0, 40, 90),
            span(Name::HcbfQuery, 2, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let mut p = Profile::default();
        p.add(&spans);
        assert_eq!(p.attributed_ns, 70);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two threads' calls under one parent overlap in [20,30).
        let spans = [
            span(Name::Op, NO_PARENT, 0, 100),
            span(Name::ShardedQuery, 0, 10, 30),
            span(Name::ShardedQuery, 0, 20, 50),
            span(Name::ShardedQuery, 0, 50, 60),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(Name::Op, NO_PARENT, 10, 50),
            span(Name::Hash, 0, 0, 20),
            span(Name::Plan, 0, 45, 70),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 5);
    }

    #[test]
    fn totals_are_per_name_and_per_key() {
        let mut spans = vec![
            span(Name::Op, NO_PARENT, 0, 100),
            span(Name::Hash, 0, 0, 64),
            span(Name::Op, NO_PARENT, 100, 200),
            span(Name::Hash, 2, 100, 132),
        ];
        spans[1].keys = 64;
        spans[3].keys = 32;
        let mut p = Profile::default();
        p.add(&spans);
        let t = p.get(Name::Hash);
        assert_eq!((t.spans, t.keys, t.self_ns), (2, 96, 96));
        assert_eq!(t.ns_per_key(), 1.0);
        assert_eq!(p.get(Name::Op).self_ns, 104);
        assert_eq!(p.median_ns(Name::Hash), 48.0);
        assert_eq!(p.get(Name::Plan), LayerTotals::default());
    }

    #[test]
    fn tracer_records_parent_links_and_stops_when_full() {
        let mut t = Tracer::new(Instant::now(), 3);
        let root = t.open(Name::Op, NO_PARENT, 7, 64);
        let v = t.span(Name::Hash, root, 7, 64, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[1].parent, root);
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert!(!t.is_full(1));
        assert!(t.is_full(2));
        let mut out = Vec::new();
        write_tsv(&mut out, 0, t.spans()).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("0\t0\t-\top\t7\t"), "{text}");
        assert_eq!(text.lines().count(), 2);
    }
}
