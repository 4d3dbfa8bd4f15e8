//! The op stream every workload runs, and the checks on its answers.
//!
//! 80% of ops are queries (80% of them for resident members, 20% for
//! strangers never inserted) and 20% are updates, split evenly between
//! removes of resident keys and inserts of fresh keys, so the load stays
//! constant. Library workloads group ops of one kind into batch-64
//! calls; the served workload sends each op as its own request.

use crate::keys::{KeySpace, Ring, MAX_KEY};
use crate::rng::Rng;
use mpcbf_core::FilterError;

/// Keys per library call.
pub const BATCH: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Remove,
    Insert,
}

impl Kind {
    pub fn is_update(self) -> bool {
        self != Kind::Query
    }
}

/// How the program answered one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    Applied,
    /// A word would overflow (paper Fig. 6): a specified answer that
    /// counts into `failed_ratio`, never a panic.
    Refused,
    /// The filter says the key is not there.
    Absent,
    /// Any other error, transport or server failure.
    Error,
}

impl From<&Result<(), FilterError>> for Ack {
    fn from(r: &Result<(), FilterError>) -> Self {
        match r {
            Ok(()) => Ack::Applied,
            Err(FilterError::WordOverflow { .. }) => Ack::Refused,
            Err(FilterError::NotPresent) => Ack::Absent,
            Err(_) => Ack::Error,
        }
    }
}

/// A call's answers, one per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Hits(Vec<bool>),
    Acks(Vec<Ack>),
    /// The call failed as a whole (transport or server error).
    Failed,
}

impl Answer {
    pub fn acks(results: &[Result<(), FilterError>]) -> Answer {
        Answer::Acks(results.iter().map(Ack::from).collect())
    }

    /// True when these answers match an HCBF rung's verdicts (found, or
    /// applied) key for key.
    pub fn agrees_with(&self, rung: &[bool]) -> bool {
        match self {
            Answer::Hits(hits) => hits[..] == *rung,
            Answer::Acks(acks) => {
                acks.len() == rung.len()
                    && acks
                        .iter()
                        .zip(rung)
                        .all(|(a, &r)| (*a == Ack::Applied) == r)
            }
            Answer::Failed => false,
        }
    }
}

/// Counts over one run; merged across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub queries: u64,
    pub stranger_queries: u64,
    pub false_pos: u64,
    /// Resident members reported absent: a correctness failure.
    pub false_neg: u64,
    pub updates: u64,
    pub refused: u64,
    pub errors: u64,
    /// Batch answers that differ from the scalar path: a failure.
    pub mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.queries += o.queries;
        self.stranger_queries += o.stranger_queries;
        self.false_pos += o.false_pos;
        self.false_neg += o.false_neg;
        self.updates += o.updates;
        self.refused += o.refused;
        self.errors += o.errors;
        self.mismatches += o.mismatches;
    }

    pub fn attempted(&self) -> u64 {
        self.queries + self.updates
    }
}

/// A group of same-kind ops with their keys.
pub struct Batch {
    pub kind: Kind,
    pub len: usize,
    keys: [[u8; MAX_KEY]; BATCH],
    lens: [u8; BATCH],
    member: [bool; BATCH],
    pos: [u64; BATCH],
}

impl Batch {
    pub fn new() -> Self {
        Batch {
            kind: Kind::Query,
            len: 0,
            keys: [[0; MAX_KEY]; BATCH],
            lens: [0; BATCH],
            member: [false; BATCH],
            pos: [0; BATCH],
        }
    }

    pub fn key(&self, i: usize) -> &[u8] {
        &self.keys[i][..self.lens[i] as usize]
    }

    /// Borrowed key slices, in order, for the batch APIs.
    pub fn views(&self) -> Vec<&[u8]> {
        (0..self.len).map(|i| self.key(i)).collect()
    }
}

impl Default for Batch {
    fn default() -> Self {
        Self::new()
    }
}

/// One thread's share of the op stream.
pub struct Stream<'a> {
    space: &'a KeySpace,
    pub ring: Ring,
    rng: Rng,
    /// Updates alternate remove, insert, so the load never drifts by
    /// more than one batch.
    last_was_remove: bool,
}

impl<'a> Stream<'a> {
    pub fn new(space: &'a KeySpace, ring: Ring, seed: u64) -> Self {
        Stream {
            space,
            ring,
            rng: Rng::new(seed),
            last_was_remove: false,
        }
    }

    /// Draws the next op kind: a query with probability 4/5, otherwise
    /// the next update, alternating remove and insert.
    pub fn next_kind(&mut self) -> Kind {
        if self.rng.chance(4, 5) {
            return Kind::Query;
        }
        self.last_was_remove = !self.last_was_remove;
        if self.last_was_remove {
            Kind::Remove
        } else {
            Kind::Insert
        }
    }

    /// Fills `batch` with `len` ops of `kind`, advancing the window for
    /// updates.
    pub fn fill(&mut self, batch: &mut Batch, kind: Kind, len: usize) {
        assert!(len <= BATCH);
        batch.kind = kind;
        batch.len = len;
        for i in 0..len {
            let key = &mut batch.keys[i];
            let n = match kind {
                Kind::Query => {
                    batch.member[i] = self.rng.chance(4, 5);
                    if batch.member[i] {
                        let (p, idx) = self.ring.pick();
                        batch.pos[i] = p;
                        self.space.member(idx, key)
                    } else {
                        let j = self.rng.below(self.space.strangers());
                        self.space.stranger(j, key)
                    }
                }
                Kind::Remove => self.space.member(self.ring.take_oldest(), key),
                Kind::Insert => {
                    let (p, idx) = self.ring.take_fresh();
                    batch.pos[i] = p;
                    self.space.member(idx, key)
                }
            };
            batch.lens[i] = n as u8;
        }
    }

    /// Fills `batch` with inserts of window positions `from..from + len`
    /// (the preload of a fresh filter).
    pub fn fill_preload(&mut self, batch: &mut Batch, from: u64, len: usize) {
        assert!(len <= BATCH);
        batch.kind = Kind::Insert;
        batch.len = len;
        for i in 0..len {
            let p = from + i as u64;
            batch.pos[i] = p;
            batch.lens[i] = self.space.member(self.ring.index_of(p), &mut batch.keys[i]) as u8;
        }
    }

    /// Fills `batch` with queries of the next resident keys at or after
    /// window position `*cursor`; false once the window is exhausted.
    pub fn fill_scan(&mut self, batch: &mut Batch, cursor: &mut u64) -> bool {
        batch.kind = Kind::Query;
        batch.len = 0;
        while batch.len < BATCH {
            let Some((p, idx)) = self.ring.resident_at_or_after(cursor) else {
                break;
            };
            let i = batch.len;
            batch.member[i] = true;
            batch.pos[i] = p;
            batch.lens[i] = self.space.member(idx, &mut batch.keys[i]) as u8;
            batch.len += 1;
        }
        batch.len > 0
    }

    /// Fills `batch` with queries of `len` strangers.
    pub fn fill_strangers(&mut self, batch: &mut Batch, len: usize) {
        assert!(len <= BATCH);
        batch.kind = Kind::Query;
        batch.len = len;
        for i in 0..len {
            batch.member[i] = false;
            let j = self.rng.below(self.space.strangers());
            batch.lens[i] = self.space.stranger(j, &mut batch.keys[i]) as u8;
        }
    }

    /// Checks a call's answers for `batch` and advances the window.
    pub fn settle(&mut self, batch: &Batch, answer: &Answer, tally: &mut Tally) {
        match answer {
            Answer::Hits(hits) => self.settle_query(batch, hits, tally),
            Answer::Acks(acks) => self.settle_update(batch, acks.iter().copied(), tally),
            Answer::Failed => {
                if batch.kind.is_update() {
                    tally.updates += batch.len as u64;
                } else {
                    tally.queries += batch.len as u64;
                }
                tally.errors += batch.len as u64;
            }
        }
    }

    /// Checks query answers: members must be found; strangers found are
    /// false positives.
    fn settle_query(&self, batch: &Batch, hits: &[bool], tally: &mut Tally) {
        debug_assert_eq!(batch.kind, Kind::Query);
        tally.queries += batch.len as u64;
        for (i, &hit) in hits.iter().enumerate().take(batch.len) {
            if batch.member[i] {
                tally.false_neg += u64::from(!hit);
            } else {
                tally.stranger_queries += 1;
                tally.false_pos += u64::from(hit);
            }
        }
    }

    /// Checks update answers: removes of resident keys must apply;
    /// refused inserts leave their key absent.
    fn settle_update(&mut self, batch: &Batch, acks: impl Iterator<Item = Ack>, tally: &mut Tally) {
        debug_assert!(batch.kind.is_update());
        tally.updates += batch.len as u64;
        for (i, ack) in acks.enumerate().take(batch.len) {
            match (batch.kind, ack) {
                (_, Ack::Applied) => {}
                (Kind::Insert, Ack::Refused) => {
                    tally.refused += 1;
                    self.ring.refuse(batch.pos[i]);
                }
                (Kind::Remove, Ack::Absent) => tally.false_neg += 1,
                _ => tally.errors += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_mix_is_eighty_ten_ten() {
        let space = KeySpace::synthetic(1_000, 1);
        let mut s = Stream::new(&space, Ring::new(0, 1_000, 500), 9);
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            counts[s.next_kind() as usize] += 1;
        }
        assert!((79_000..81_000).contains(&counts[0]), "{counts:?}");
        assert!((9_500..10_500).contains(&counts[1]), "{counts:?}");
        assert!((9_500..10_500).contains(&counts[2]), "{counts:?}");
        let mut b = Batch::new();
        s.fill(&mut b, Kind::Query, BATCH);
        let members = (0..BATCH).filter(|&i| b.member[i]).count();
        assert!(members > 32, "{members}");
    }

    #[test]
    fn settle_counts_refusals_and_false_negatives() {
        let space = KeySpace::synthetic(100, 1);
        let mut s = Stream::new(&space, Ring::new(0, 100, 50), 3);
        let mut b = Batch::new();
        let mut t = Tally::default();
        s.fill(&mut b, Kind::Insert, 2);
        s.settle_update(&b, [Ack::Applied, Ack::Refused].into_iter(), &mut t);
        assert_eq!((t.updates, t.refused, t.errors), (2, 1, 0));
        assert_eq!(s.ring.resident(), 51);
        s.fill(&mut b, Kind::Remove, 2);
        s.settle_update(&b, [Ack::Absent, Ack::Error].into_iter(), &mut t);
        assert_eq!((t.false_neg, t.errors), (1, 1));
        s.fill(&mut b, Kind::Query, BATCH);
        let hits = vec![true; BATCH];
        s.settle_query(&b, &hits, &mut t);
        assert_eq!(t.false_pos, t.stranger_queries);
        assert_eq!(t.attempted(), BATCH as u64 + 4);
    }
}
