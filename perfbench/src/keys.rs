//! Key universes and the per-thread resident window.
//!
//! Every workload draws member keys from a universe of `2 × live` keys
//! per thread and non-member ("stranger") keys from a namespace that is
//! never inserted. A thread's resident set is a window sliding over its
//! part of the universe: a remove takes the oldest resident key, an
//! insert adds the next key past the window, which is not resident (it
//! was never inserted, or was removed a full lap ago). So the load stays
//! at `live` per thread and the benchmark knows, without storing a key
//! set, which keys the filter must report.

use mpcbf_workloads::{BulkKeys, SyntheticSpec, SyntheticWorkload};

/// Longest key any universe produces.
pub const MAX_KEY: usize = 16;

/// Where keys come from.
pub enum KeySpace {
    /// The paper's §IV.A five-byte strings over `a–z, A–Z`
    /// (`workloads::synthetic`). Strangers put a digit in the first
    /// byte, so they can never collide with a generated member.
    Synthetic(Vec<[u8; 5]>),
    /// Distinct 16-byte `BulkKeys`: member `i` is stream key `i`,
    /// stranger `j` is stream key `universe + j`.
    Bulk { keys: BulkKeys, universe: u64 },
}

const ALPHABET: &[u8; 52] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

impl KeySpace {
    /// `universe` distinct synthetic strings drawn from `seed`.
    pub fn synthetic(universe: u64, seed: u64) -> Self {
        let spec = SyntheticSpec {
            test_set: universe as usize,
            queries: 0,
            member_ratio: 0.8,
            churn_per_period: 0,
            periods: 0,
            seed,
        };
        KeySpace::Synthetic(SyntheticWorkload::generate(&spec).test_set)
    }

    pub fn bulk(universe: u64, seed: u64) -> Self {
        KeySpace::Bulk {
            keys: BulkKeys::new(seed, u64::MAX),
            universe,
        }
    }

    /// Distinct strangers available.
    pub fn strangers(&self) -> u64 {
        match self {
            KeySpace::Synthetic(_) => 10 * 52u64.pow(4),
            KeySpace::Bulk { universe, .. } => u64::MAX - universe,
        }
    }

    /// Writes member `i` into `out`, returning its length.
    pub fn member(&self, i: u64, out: &mut [u8; MAX_KEY]) -> usize {
        match self {
            KeySpace::Synthetic(v) => {
                out[..5].copy_from_slice(&v[i as usize]);
                5
            }
            KeySpace::Bulk { keys, .. } => {
                out.copy_from_slice(&keys.key(i));
                16
            }
        }
    }

    /// Writes stranger `j` into `out`, returning its length.
    pub fn stranger(&self, j: u64, out: &mut [u8; MAX_KEY]) -> usize {
        match self {
            KeySpace::Synthetic(_) => {
                out[0] = b'0' + (j % 10) as u8;
                let mut rest = j / 10;
                for b in &mut out[1..5] {
                    *b = ALPHABET[(rest % 52) as usize];
                    rest /= 52;
                }
                5
            }
            KeySpace::Bulk { keys, universe } => {
                out.copy_from_slice(&keys.key(universe + j));
                16
            }
        }
    }
}

/// One thread's resident window over universe positions
/// `base .. base + size`, with inserts the filter refused marked so they
/// are neither queried as members nor removed.
pub struct Ring {
    base: u64,
    size: u64,
    /// Window `[lo, hi)` in unwrapped positions; `hi - lo <= size`.
    lo: u64,
    hi: u64,
    /// Next position [`Ring::pick`] tries.
    cursor: u64,
    refused: Vec<u64>,
    refused_live: u64,
}

impl Ring {
    /// A ring over `size` positions from `base`, with the first `live`
    /// resident.
    pub fn new(base: u64, size: u64, live: u64) -> Self {
        assert!(live > 0 && live <= size / 2, "ring needs twice its load");
        Ring {
            base,
            size,
            lo: 0,
            hi: live,
            cursor: 0,
            refused: vec![0; size.div_ceil(64) as usize],
            refused_live: 0,
        }
    }

    /// Universe index of unwrapped position `p`.
    pub fn index_of(&self, p: u64) -> u64 {
        self.base + p % self.size
    }

    fn is_refused(&self, p: u64) -> bool {
        let slot = p % self.size;
        self.refused[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }

    fn set_refused(&mut self, p: u64, on: bool) {
        let slot = p % self.size;
        let word = &mut self.refused[(slot / 64) as usize];
        if on {
            *word |= 1 << (slot % 64);
        } else {
            *word &= !(1 << (slot % 64));
        }
    }

    /// Keys the filter holds for this ring.
    pub fn resident(&self) -> u64 {
        self.hi - self.lo - self.refused_live
    }

    /// Position of the first window slot; scans start here.
    pub fn start(&self) -> u64 {
        self.lo
    }

    /// The first resident key at or after position `*cursor`, as
    /// `(position, universe index)`; advances the cursor past it.
    pub fn resident_at_or_after(&self, cursor: &mut u64) -> Option<(u64, u64)> {
        while *cursor < self.hi {
            let p = *cursor;
            *cursor += 1;
            if !self.is_refused(p) {
                return Some((p, self.index_of(p)));
            }
        }
        None
    }

    /// The next resident key for a member query, as `(position,
    /// universe index)`. Queries cycle through the window in order, so
    /// every resident key is queried equally often while the benchmark
    /// reads its own key store sequentially: on `table2-cache` a random
    /// walk over the 1 MB store would evict as many L2 lines as the
    /// 1 MB filter under test uses. The filter still sees random words,
    /// since keys are hashed.
    pub fn pick(&mut self) -> (u64, u64) {
        loop {
            if self.cursor < self.lo || self.cursor >= self.hi {
                self.cursor = self.lo;
            }
            let p = self.cursor;
            self.cursor += 1;
            if !self.is_refused(p) {
                return (p, self.index_of(p));
            }
        }
    }

    /// Takes the oldest resident key for removal.
    pub fn take_oldest(&mut self) -> u64 {
        loop {
            assert!(self.lo < self.hi, "no resident key left to remove");
            let p = self.lo;
            self.lo += 1;
            if self.is_refused(p) {
                self.set_refused(p, false);
                self.refused_live -= 1;
            } else {
                return self.index_of(p);
            }
        }
    }

    /// Takes the next key past the window for insertion, returning its
    /// position (for [`Ring::refuse`]) and universe index.
    pub fn take_fresh(&mut self) -> (u64, u64) {
        assert!(self.hi - self.lo < self.size, "ring overrun");
        let p = self.hi;
        self.hi += 1;
        (p, self.index_of(p))
    }

    /// Marks a resident position as absent from the filter: an insert
    /// the filter refused, or a preloaded key a bulk build refused.
    pub fn refuse(&mut self, p: u64) {
        if !self.is_refused(p) {
            self.set_refused(p, true);
            self.refused_live += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn synthetic_strangers_never_collide_with_members() {
        let space = KeySpace::synthetic(2_000, 3);
        let mut buf = [0u8; MAX_KEY];
        let members: HashSet<Vec<u8>> = (0..2_000)
            .map(|i| {
                let n = space.member(i, &mut buf);
                buf[..n].to_vec()
            })
            .collect();
        assert_eq!(members.len(), 2_000);
        let mut seen = HashSet::new();
        for j in 0..50_000 {
            let n = space.stranger(j, &mut buf);
            let k = buf[..n].to_vec();
            assert!(!members.contains(&k));
            assert!(seen.insert(k), "stranger {j} repeats");
        }
    }

    #[test]
    fn ring_keeps_load_and_skips_refused_keys() {
        let mut ring = Ring::new(100, 8, 4);
        let mut cursor = ring.start();
        let scan: Vec<u64> = std::iter::from_fn(|| ring.resident_at_or_after(&mut cursor))
            .map(|(_, idx)| idx)
            .collect();
        assert_eq!(scan, vec![100, 101, 102, 103]);
        assert_eq!(ring.take_oldest(), 100);
        let (p, idx) = ring.take_fresh();
        assert_eq!(idx, 104);
        ring.refuse(p);
        assert_eq!(ring.resident(), 3);
        let picks: Vec<u64> = (0..6).map(|_| ring.pick().1).collect();
        assert_eq!(picks, vec![101, 102, 103, 101, 102, 103]);
        for expect in [101, 102, 103] {
            assert_eq!(ring.take_oldest(), expect);
        }
        for _ in 0..3 {
            ring.take_fresh();
        }
        // 104 was refused: the next removal skips it.
        assert_eq!(ring.take_oldest(), 105);
        // Positions wrap around the universe.
        let (_, idx) = ring.take_fresh();
        assert_eq!(idx, 100);
        assert_eq!(ring.resident(), 3);
    }
}
