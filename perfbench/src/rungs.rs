//! The layer rungs a traced run replays beside each full call: hashing,
//! probe planning, and the HCBF word walk on cache-hot words, each
//! through the layer's public functions.

use crate::stream::Kind;
use mpcbf_concurrent::sharded::SHARD_BITS;
use mpcbf_core::{HcbfWord, PlanBuffer};
use mpcbf_hash::{Hasher128, Murmur3};

/// Hash rung: the 128-bit digest of every key, as the filters compute it.
pub fn hash_into(seed: u64, keys: &[&[u8]], out: &mut Vec<u128>) {
    out.clear();
    out.extend(keys.iter().map(|k| Murmur3::hash128(seed, k)));
}

/// Shard routing as `ShardedMpcbf` does it: the top `SHARD_BITS` of
/// each digest pick the home shard (written to `homes`), and the digest
/// keeps only the remaining bits for the probe planner.
pub fn route(digests: &mut [u128], homes: &mut [u128], shard_count: usize) {
    let mask = shard_count as u128 - 1;
    let probe_mask = (1u128 << (128 - SHARD_BITS)) - 1;
    for (h, d) in homes.iter_mut().zip(digests.iter_mut()) {
        *h = (*d >> (128 - SHARD_BITS)) & mask;
        *d &= probe_mask;
    }
}

/// Loads every word planned key `i` targets, so the walk that follows
/// runs on cache-hot words. Returns a value to pass to `black_box`.
pub fn touch(words: &[HcbfWord<u64>], plans: &PlanBuffer, i: usize) -> u64 {
    plans
        .words_of(i)
        .iter()
        .fold(0, |acc, &w| acc ^ *words[w as usize].raw())
}

/// HCBF rung: walks planned key `i` over `words` the way the filters do
/// (query, or an all-or-nothing increment or decrement with rollback
/// across groups). Returns whether the key was found or applied.
pub fn walk(
    words: &mut [HcbfWord<u64>],
    plans: &PlanBuffer,
    i: usize,
    kind: Kind,
    b1: u32,
) -> bool {
    if kind == Kind::Query {
        return plans
            .groups_of(i)
            .all(|(w, probes)| words[w].query_all(probes).0);
    }
    let insert = kind == Kind::Insert;
    for t in 0..plans.group_count() {
        let (w, probes) = plans.group(i, t);
        let applied = if insert {
            words[w].increment_all(probes, b1).is_ok()
        } else {
            words[w].decrement_all(probes, b1).is_ok()
        };
        if !applied {
            for u in (0..t).rev() {
                let (w, probes) = plans.group(i, u);
                let undone = if insert {
                    words[w].decrement_all(probes, b1).is_ok()
                } else {
                    words[w].increment_all(probes, b1).is_ok()
                };
                assert!(undone, "rollback of an applied group cannot fail");
            }
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::{CountingFilter, Filter, Mpcbf, MpcbfConfig};

    #[test]
    fn walk_agrees_with_the_filter() {
        for g in [1, 3] {
            let config = MpcbfConfig::builder()
                .memory_bits(64 * 40)
                .expected_items(60)
                .hashes(3)
                .accesses(g)
                .build()
                .unwrap();
            let mut filter: Mpcbf = Mpcbf::new(config);
            let shape = filter.shape();
            let mut words: Vec<HcbfWord<u64>> = filter
                .raw_words()
                .into_iter()
                .map(HcbfWord::from_raw)
                .collect();
            let keys: Vec<Vec<u8>> = (0..200u32).map(|i| i.to_le_bytes().to_vec()).collect();
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let mut digests = Vec::new();
            hash_into(filter.seed(), &views, &mut digests);
            let mut plans = PlanBuffer::new();
            plans.plan_partitioned(
                digests.iter().copied(),
                shape.l,
                shape.k,
                shape.g,
                u64::from(shape.b1),
            );
            for (i, key) in views.iter().enumerate() {
                let applied = walk(&mut words, &plans, i, Kind::Insert, shape.b1);
                assert_eq!(applied, filter.insert_bytes(key).is_ok());
            }
            for (i, key) in views.iter().enumerate().step_by(3) {
                let removed = walk(&mut words, &plans, i, Kind::Remove, shape.b1);
                assert_eq!(removed, filter.remove_bytes(key).is_ok());
            }
            for (i, key) in views.iter().enumerate() {
                let hit = walk(&mut words, &plans, i, Kind::Query, shape.b1);
                assert_eq!(hit, filter.contains_bytes(key));
            }
            let raw: Vec<u64> = words.iter().map(|w| *w.raw()).collect();
            assert_eq!(raw, filter.raw_words());
        }
    }
}
