//! Crash-recovery property test: for a random operation stream crashed
//! at a random kill point, the recovered filter must be bit-identical
//! to a reference filter that applied exactly the durable prefix, with
//! zero false negatives on acknowledged keys — and recovery itself must
//! never panic or report a dirty scrub.
//!
//! Under `FsyncPolicy::Always` (the default) the durable prefix is
//! precisely determined by the kill site:
//!
//! * `WalAppend` (torn mid-frame) — the in-flight op never became
//!   durable; the prefix is every acknowledged op.
//! * `WalFsync` — the frame was written whole before the sync failed:
//!   the op is durable but unacknowledged, and replay must include it
//!   (its keys are in limbo for the client, so the zero-false-negative
//!   check exempts them).
//! * the snapshot/truncate sites — housekeeping crashed with no op in
//!   flight; the prefix is every acknowledged op.

use mpcbf::concurrent::ShardedMpcbf;
use mpcbf::core::codec::crc32;
use mpcbf::core::{CountingFilter, Filter, Mpcbf, MpcbfConfig};
use mpcbf::durability::{
    decode_envelope, encode_envelope, encode_frame, DurabilityOptions, DurableError, DurableFilter,
    DurableShardedMpcbf, KillSite, KillSwitch, WalOp, WalRecord,
};
use mpcbf::hash::Murmur3;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone)]
enum Op {
    Insert(u8),
    Remove(u8),
    InsertBatch(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's prop_oneof is unweighted; repeating the insert arm
    // biases the stream toward growth so removes find live keys.
    prop_oneof![
        any::<u8>().prop_map(Op::Insert),
        any::<u8>().prop_map(Op::Insert),
        any::<u8>().prop_map(Op::Remove),
        prop::collection::vec(any::<u8>(), 1..6).prop_map(Op::InsertBatch),
    ]
}

fn scratch_dir() -> PathBuf {
    static DIR_ID: AtomicU64 = AtomicU64::new(0);
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mpcbf-recovery-prop-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(50_000)
        .expected_items(500)
        .hashes(3)
        .seed(0xFA11)
        .build()
        .unwrap()
}

/// Applies one op to the reference filter (refusals discarded, exactly
/// as WAL replay does).
fn apply_ref(reference: &mut Mpcbf<u64, Murmur3>, op: &Op) {
    match op {
        Op::Insert(k) => {
            let _ = reference.insert_bytes_cost(&[*k]);
        }
        Op::Remove(k) => {
            let _ = reference.remove_bytes_cost(&[*k]);
        }
        Op::InsertBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(std::slice::from_ref).collect();
            let _ = reference.insert_batch_cost(&views);
        }
    }
}

/// Applies one op through the durable wrapper, recording acknowledged
/// key-count deltas into the oracle. Returns `Err` only on a kill.
fn apply_durable(
    durable: &mut DurableFilter<Mpcbf<u64, Murmur3>>,
    op: &Op,
    oracle: &mut HashMap<u8, i64>,
) -> Result<(), ()> {
    match op {
        Op::Insert(k) => match durable.insert_bytes(&[*k]) {
            Ok(()) => {
                *oracle.entry(*k).or_insert(0) += 1;
                Ok(())
            }
            Err(e) if e.is_kill() => Err(()),
            Err(_) => Ok(()), // deterministic filter refusal: still acked
        },
        Op::Remove(k) => match durable.remove_bytes(&[*k]) {
            Ok(()) => {
                *oracle.entry(*k).or_insert(0) -= 1;
                Ok(())
            }
            Err(e) if e.is_kill() => Err(()),
            Err(_) => Ok(()),
        },
        Op::InsertBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(std::slice::from_ref).collect();
            match durable.insert_batch_bytes(&views) {
                Ok(results) => {
                    for (k, r) in keys.iter().zip(&results) {
                        if r.is_ok() {
                            *oracle.entry(*k).or_insert(0) += 1;
                        }
                    }
                    Ok(())
                }
                Err(e) if e.is_kill() => Err(()),
                Err(_) => Ok(()),
            }
        }
    }
}

proptest! {
    // Every case fsyncs a real directory; keep the count I/O-friendly.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_crash_point_recovers_the_exact_durable_prefix(
        ops in prop::collection::vec(op_strategy(), 1..50),
        kill_at_hint in any::<u64>(),
        site_idx in 0usize..KillSite::ALL.len(),
        byte_hint in any::<u64>(),
        snapshot_midway in any::<bool>(),
    ) {
        let site = KillSite::ALL[site_idx];
        let kill_at = (kill_at_hint % ops.len() as u64) as usize;
        let cfg = config();
        let dir = scratch_dir();
        let kill = KillSwitch::new();
        let mut durable: DurableFilter<Mpcbf<u64, Murmur3>> = DurableFilter::create(
            Mpcbf::new(cfg),
            DurabilityOptions::new(&dir).kill(kill.clone()),
        )
        .unwrap();
        let mut reference: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let mut oracle: HashMap<u8, i64> = HashMap::new();

        for (i, op) in ops[..kill_at].iter().enumerate() {
            if snapshot_midway && i == kill_at / 2 {
                durable.snapshot().unwrap();
            }
            prop_assert!(
                apply_durable(&mut durable, op, &mut oracle).is_ok(),
                "unarmed op must not crash"
            );
            apply_ref(&mut reference, op);
        }

        // A budget below the frame size guarantees the armed append tears.
        let frame_len = encode_frame(&WalRecord {
            seq: 1,
            op: WalOp::Insert(vec![0]),
        })
        .len() as u64;
        kill.arm(site, 1 + byte_hint % (frame_len - 1));
        match site {
            KillSite::WalAppend | KillSite::WalFsync => {
                let op = &ops[kill_at];
                let before = oracle.clone();
                prop_assert!(
                    apply_durable(&mut durable, op, &mut oracle).is_err(),
                    "armed op must crash"
                );
                oracle = before; // a killed op is never acknowledged
                prop_assert_eq!(kill.fired(), Some(site));
                if site == KillSite::WalFsync {
                    // The frame hit the disk whole: durable, unacked.
                    // Its keys are in limbo — the client may not assume
                    // either outcome — so exempt them from the
                    // acked-presence check.
                    apply_ref(&mut reference, op);
                    match op {
                        Op::Insert(k) | Op::Remove(k) => {
                            oracle.remove(k);
                        }
                        Op::InsertBatch(keys) => {
                            for k in keys {
                                oracle.remove(k);
                            }
                        }
                    }
                }
            }
            _ => {
                let result = durable.snapshot();
                if site == KillSite::WalTruncate && result.is_ok() {
                    // With no op logged yet there is no sealed segment to
                    // purge, so the truncate site never executes. The
                    // scenario degrades to a crash right after a clean
                    // snapshot, which recovery must still handle.
                    kill.disarm();
                } else {
                    prop_assert!(result.is_err(), "armed snapshot must crash");
                    prop_assert_eq!(kill.fired(), Some(site));
                }
            }
        }
        drop(durable); // the crash

        let (recovered, report) = DurableFilter::open_or_recover(
            DurabilityOptions::new(&dir),
            || -> Mpcbf<u64, Murmur3> { Mpcbf::new(cfg) },
        )
        .unwrap();
        prop_assert_eq!(
            recovered.inner().raw_words(),
            reference.raw_words(),
            "recovered image must equal the durable prefix ({})", site
        );
        for (&key, &net) in &oracle {
            if net > 0 {
                prop_assert!(
                    recovered.contains_bytes(&[key]),
                    "false negative for acknowledged key {} ({})", key, site
                );
            }
        }
        prop_assert!(report.scrub_clean, "recovered image must scrub clean");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Rewrites a sealed codec image as format version 1: version byte set,
/// CRC re-sealed, so the image is intact but of the retired placement.
fn as_version_1(image: &mut [u8]) {
    assert_eq!(image[5], 2, "images are written as format version 2");
    image[5] = 1;
    let body = image.len() - 4;
    let crc = crc32(&image[..body]);
    image[body..].copy_from_slice(&crc.to_le_bytes());
}

/// The only published snapshot in `dir`, rewritten through `rewrite`.
fn rewrite_snapshot(dir: &std::path::Path, rewrite: impl Fn(&[u8]) -> Vec<u8>) {
    let snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "snapshot purges every older snapshot");
    let bytes = std::fs::read(&snaps[0]).unwrap();
    std::fs::write(&snaps[0], rewrite(&bytes)).unwrap();
}

// A snapshot holds the only record of the keys logged before it (the
// WAL below it is truncated). An intact image of the retired format
// version must stop recovery, not be skipped as corrupt, which would
// bring the filter up without those keys.
#[test]
fn version_1_snapshot_stops_recovery() {
    let cfg = config();
    let dir = scratch_dir();
    let mut durable: DurableFilter<Mpcbf<u64, Murmur3>> =
        DurableFilter::create(Mpcbf::new(cfg), DurabilityOptions::new(&dir)).unwrap();
    for key in 0..100u8 {
        durable.insert_bytes(&[key]).unwrap();
    }
    durable.snapshot().unwrap();
    durable.insert_bytes(&[200]).unwrap();
    drop(durable);
    rewrite_snapshot(&dir, |image| {
        let mut image = image.to_vec();
        as_version_1(&mut image);
        image
    });

    let result = DurableFilter::open_or_recover(DurabilityOptions::new(&dir), || {
        Mpcbf::<u64, Murmur3>::new(cfg)
    });
    match result {
        Err(DurableError::IncompatibleSnapshot {
            seq: 100,
            version: 1,
        }) => {}
        Err(e) => panic!("expected an incompatible-snapshot error, got {e}"),
        Ok(_) => panic!("recovery read a version 1 snapshot"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_1_sharded_snapshot_stops_recovery() {
    let cfg = config();
    let dir = scratch_dir();
    let mut durable: DurableShardedMpcbf =
        DurableShardedMpcbf::create(ShardedMpcbf::new(cfg, 4), DurabilityOptions::new(&dir))
            .unwrap();
    for key in 0..100u8 {
        durable.insert_bytes(&[key]).unwrap();
    }
    durable.snapshot().unwrap();
    durable.insert_bytes(&[200]).unwrap();
    drop(durable);
    rewrite_snapshot(&dir, |envelope| {
        let (seqs, image) = decode_envelope(envelope).expect("intact envelope");
        let mut image = image.to_vec();
        as_version_1(&mut image);
        encode_envelope(&seqs, &image)
    });

    let result = DurableShardedMpcbf::open_or_recover(DurabilityOptions::new(&dir), || {
        ShardedMpcbf::<u64, Murmur3>::new(cfg, 4)
    });
    match result {
        Err(DurableError::IncompatibleSnapshot { version: 1, .. }) => {}
        Err(e) => panic!("expected an incompatible-snapshot error, got {e}"),
        Ok(_) => panic!("recovery read a version 1 snapshot"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
