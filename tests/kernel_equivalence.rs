//! Differential proptests: the routed word walks must be bit-identical to
//! the portable reference walks under both kernel bundles.
//!
//! Every `HcbfWord` mutation exists in two tiers — the routed walk
//! (carried ranks + `KernelOps` primitives) and the `*_reference`
//! baseline (the naive portable `rank_range` walk). These tests drive
//! both tiers with identical scripts and demand identical raw bit
//! patterns, identical reports (count, traversal bits), and identical
//! errors — including the all-or-nothing rollback paths, where a failed
//! batch's intermediate mutations must be undone to the exact pre-batch
//! bits.
//!
//! Each property runs the routed walk under [`KernelOps::portable`] (the
//! bulk sweep's kernel) *and* [`KernelOps::accelerated`] (BMI2 where the
//! CPU has it) in the same process. CI also runs the suite with
//! `MPCBF_KERNEL=portable`, where both bundles are portable.

use mpcbf::bitvec::{Kernel, KernelOps, Word, W256, W512};
use mpcbf::core::hcbf::HcbfWord;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Inc(u32),
    Dec(u32),
}

fn ops(b1: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0..b1).prop_map(Op::Inc), (0..b1).prop_map(Op::Dec)],
        0..len,
    )
}

/// Both bundles: the portable walk and the accelerated one.
fn bundles() -> [KernelOps; 2] {
    [KernelOps::portable(), KernelOps::accelerated()]
}

/// Runs one script through the routed and reference tiers in lockstep,
/// under both bundles; the raw words, reports, and errors must agree
/// after every operation.
fn check_scalar_equivalence<W: Word>(b1: u32, script: &[Op]) {
    for ops in bundles() {
        check_scalar_equivalence_with::<W>(b1, script, &ops);
    }
}

fn check_scalar_equivalence_with<W: Word>(b1: u32, script: &[Op], ops: &KernelOps) {
    let mut routed: HcbfWord<W> = HcbfWord::new();
    let mut reference: HcbfWord<W> = HcbfWord::new();
    for op in script {
        match *op {
            Op::Inc(p) => {
                let a = routed.increment_routed(p, b1, ops);
                let b = reference.increment_reference(p, b1);
                assert_eq!(a, b, "increment({p}) diverged");
            }
            Op::Dec(p) => {
                let a = routed.decrement_routed(p, b1, ops);
                let b = reference.decrement_reference(p, b1);
                assert_eq!(a, b, "decrement({p}) diverged");
            }
        }
        assert_eq!(
            routed.raw(),
            reference.raw(),
            "raw bits diverged after {op:?}"
        );
        for p in 0..b1 {
            assert_eq!(
                routed.counter(p, b1),
                reference.counter(p, b1),
                "counter {p}"
            );
        }
    }
}

/// Drives batches (including overflowing ones that must roll back) through
/// both tiers, under both bundles; results and final bits must agree.
fn check_batch_equivalence<W: Word>(b1: u32, batches: &[Vec<Op>]) {
    for ops in bundles() {
        check_batch_equivalence_with::<W>(b1, batches, &ops);
    }
}

fn check_batch_equivalence_with<W: Word>(b1: u32, batches: &[Vec<Op>], ops: &KernelOps) {
    let mut routed: HcbfWord<W> = HcbfWord::new();
    let mut reference: HcbfWord<W> = HcbfWord::new();
    for batch in batches {
        let incs: Vec<u32> = batch
            .iter()
            .filter_map(|op| match op {
                Op::Inc(p) => Some(*p),
                Op::Dec(_) => None,
            })
            .collect();
        let decs: Vec<u32> = batch
            .iter()
            .filter_map(|op| match op {
                Op::Dec(p) => Some(*p),
                Op::Inc(_) => None,
            })
            .collect();
        assert_eq!(
            routed.increment_all_routed(&incs, b1, ops),
            reference.increment_all_reference(&incs, b1),
            "increment_all({incs:?}) diverged"
        );
        assert_eq!(
            routed.raw(),
            reference.raw(),
            "bits diverged after inc batch"
        );
        assert_eq!(
            routed.decrement_all_routed(&decs, b1, ops),
            reference.decrement_all_reference(&decs, b1),
            "decrement_all({decs:?}) diverged"
        );
        assert_eq!(
            routed.raw(),
            reference.raw(),
            "bits diverged after dec batch"
        );
        // Batched membership must meter exactly like the scalar loop.
        let probes: Vec<u32> = batch
            .iter()
            .map(|op| match op {
                Op::Inc(p) | Op::Dec(p) => *p,
            })
            .collect();
        assert_eq!(
            routed.query_all(&probes),
            reference.query_all_reference(&probes),
            "query_all({probes:?}) metering diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn u16_scalar_walks_match(script in ops(10, 60)) {
        check_scalar_equivalence::<u16>(10, &script);
    }

    #[test]
    fn u32_scalar_walks_match(script in ops(20, 100)) {
        check_scalar_equivalence::<u32>(20, &script);
    }

    #[test]
    fn u64_scalar_walks_match(script in ops(40, 160)) {
        check_scalar_equivalence::<u64>(40, &script);
    }

    #[test]
    fn u64_scalar_walks_match_small_b1(script in ops(6, 160)) {
        // Small b1 forces deep chains and frequent overflow errors.
        check_scalar_equivalence::<u64>(6, &script);
    }

    #[test]
    fn u128_scalar_walks_match(script in ops(90, 220)) {
        check_scalar_equivalence::<u128>(90, &script);
    }

    #[test]
    fn w256_scalar_walks_match(script in ops(160, 320)) {
        check_scalar_equivalence::<W256>(160, &script);
    }

    #[test]
    fn w512_scalar_walks_match(script in ops(330, 420)) {
        check_scalar_equivalence::<W512>(330, &script);
    }

    #[test]
    fn u64_batches_match_with_rollback(
        batches in prop::collection::vec(ops(8, 14), 0..12)
    ) {
        // b1 = 8 in a 64-bit word: batches overflow regularly, exercising
        // the all-or-nothing rollback in both tiers.
        check_batch_equivalence::<u64>(8, &batches);
    }

    #[test]
    fn u16_batches_match_with_rollback(
        batches in prop::collection::vec(ops(10, 10), 0..10)
    ) {
        // Word capacity 6: most non-trivial insert batches overflow.
        check_batch_equivalence::<u16>(10, &batches);
    }

    #[test]
    fn u32_batches_match_with_rollback(
        batches in prop::collection::vec(ops(20, 16), 0..10)
    ) {
        check_batch_equivalence::<u32>(20, &batches);
    }

    #[test]
    fn u128_batches_match_with_rollback(
        batches in prop::collection::vec(ops(90, 22), 0..10)
    ) {
        check_batch_equivalence::<u128>(90, &batches);
    }

    #[test]
    fn w256_batches_match_with_rollback(
        batches in prop::collection::vec(ops(240, 26), 0..8)
    ) {
        check_batch_equivalence::<W256>(240, &batches);
    }

    #[test]
    fn w512_batches_match_with_rollback(
        batches in prop::collection::vec(ops(480, 40), 0..8)
    ) {
        check_batch_equivalence::<W512>(480, &batches);
    }

    #[test]
    fn query_all_is_branchless_but_meters_identically(
        sets in prop::collection::vec(0u32..40, 0..24),
        probes in prop::collection::vec(0u32..40, 0..80),
    ) {
        let mut w: HcbfWord<u64> = HcbfWord::new();
        for &p in &sets {
            w.increment(p, 40).unwrap();
        }
        prop_assert_eq!(w.query_all(&probes), w.query_all_reference(&probes));
    }
}

#[test]
fn active_kernel_is_reported() {
    // Not an equivalence check — just pin that dispatch resolved and that
    // the forced-portable override is honoured when CI sets it.
    let k = Kernel::active();
    if std::env::var("MPCBF_KERNEL").as_deref() == Ok("portable") {
        assert_eq!(k, Kernel::Portable, "MPCBF_KERNEL=portable not honoured");
    }
    eprintln!(
        "kernel_equivalence ran against kernel `{}` (features: {})",
        k.name(),
        Kernel::cpu_features()
    );
}
