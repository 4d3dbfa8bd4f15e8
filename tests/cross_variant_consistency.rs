//! Cross-implementation contracts for the three MPCBF implementations.
//!
//! The sequential and lock-free filters share the planner and layout, so
//! under the same configuration and operation sequence they must be
//! *bit-for-bit interchangeable* for membership.
//!
//! The sharded filter is different by design: it routes each key to a shard
//! using the top [`SHARD_BITS`] of the digest and probes an independent
//! per-shard sub-filter with the remaining bits (see `sharded.rs` for the
//! bit-split). Its answers are therefore not bit-identical to the
//! sequential filter — but it must still be a correct counting filter: no
//! false negatives ever, removals of present keys always succeed, and a
//! false-positive rate in the same regime as the sequential filter.

use mpcbf::concurrent::{AtomicMpcbf, ShardedMpcbf};
use mpcbf::core::{CountingFilter, Filter, Mpcbf, MpcbfConfig};
use mpcbf::hash::Murmur3;

fn config(g: u32) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(500_000)
        .expected_items(5_000)
        .hashes(3)
        .accesses(g)
        .seed(2024)
        .build()
        .unwrap()
}

#[test]
fn atomic_is_bit_compatible_with_sequential() {
    for g in [1u32, 2] {
        let cfg = config(g);
        let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let atomic: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(cfg);

        for i in 0..4_000u64 {
            let a = seq.insert(&i).is_ok();
            let c = atomic.insert(&i).is_ok();
            assert_eq!(a, c, "g={g}: insert {i} diverged (atomic)");
        }
        for i in 0..2_000u64 {
            let a = seq.remove(&i).is_ok();
            let c = atomic.remove(&i).is_ok();
            assert_eq!(a, c, "g={g}: remove {i} diverged (atomic)");
        }
        assert_eq!(
            atomic.raw_snapshot(),
            seq.raw_words(),
            "g={g}: atomic word array diverged from sequential"
        );
        for probe in 0..30_000u64 {
            let a = seq.contains(&probe);
            assert_eq!(a, atomic.contains(&probe), "g={g}: probe {probe} (atomic)");
        }
    }
}

#[test]
fn sharded_is_a_correct_filter_after_identical_history() {
    for g in [1u32, 2] {
        let cfg = config(g);
        let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let sharded: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(cfg, 64);

        // Word overflow at 80% of design load is improbable but possible
        // (Fig. 6). A refused insert rolls back whole, so the contract is
        // checked on the acknowledged keys. This seed refuses one key per
        // filter at g = 1 and none at g = 2.
        let seq_acked: Vec<u64> = (0..4_000u64).filter(|i| seq.insert(i).is_ok()).collect();
        let acked: Vec<u64> = (0..4_000u64)
            .filter(|i| sharded.insert(i).is_ok())
            .collect();
        let expected_refusals = if g == 1 { 1 } else { 0 };
        assert_eq!(seq.overflows(), expected_refusals, "g={g}: sequential");
        assert_eq!(sharded.overflows(), expected_refusals, "g={g}: sharded");
        for i in seq_acked.iter().filter(|&&i| i < 2_000) {
            seq.remove(i).unwrap();
        }
        for i in acked.iter().filter(|&&i| i < 2_000) {
            sharded.remove(i).unwrap();
        }
        // No false negatives on the live keys...
        for i in acked.iter().filter(|&&i| i >= 2_000) {
            assert!(sharded.contains(i), "g={g}: false negative on {i}");
        }
        // ...and the stranger false-positive count stays in the same regime
        // as the sequential filter's (layouts differ, so the *sets* of
        // false positives differ; the rates must not).
        let seq_fp = (10_000..40_000u64).filter(|p| seq.contains(p)).count();
        let sharded_fp = (10_000..40_000u64).filter(|p| sharded.contains(p)).count();
        assert!(
            sharded_fp <= 10 * seq_fp.max(3),
            "g={g}: sharded FP count {sharded_fp} out of regime (sequential {seq_fp})"
        );
    }
}

#[test]
fn concurrent_variants_drain_like_sequential() {
    let cfg = config(1);
    let sharded: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(cfg, 16);
    let atomic: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(cfg);
    for i in 0..3_000u64 {
        sharded.insert(&i).unwrap();
        atomic.insert(&i).unwrap();
    }
    for i in 0..3_000u64 {
        sharded.remove(&i).unwrap();
        atomic.remove(&i).unwrap();
    }
    assert_eq!(sharded.total_load(), 0);
    assert_eq!(atomic.total_load(), 0);
}

#[test]
fn shard_count_does_not_change_correctness() {
    let cfg = config(2);
    let a: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(cfg, 1);
    let b: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(cfg, 1024);
    for i in 0..2_000u64 {
        assert_eq!(a.insert(&i).is_ok(), b.insert(&i).is_ok());
    }
    // Different shard counts partition the words differently, so false
    // positives may differ; members must be present in both.
    for i in 0..2_000u64 {
        assert!(a.contains(&i), "1-shard false negative on {i}");
        assert!(b.contains(&i), "1024-shard false negative on {i}");
    }
}
