//! Property tests for the bit substrate: counters against a `Vec<u64>`
//! oracle, word insert/remove against shift semantics, cross-width
//! equivalence.

use mpcbf_bitvec::{BitVec, CounterVec, KernelOps, WideWord, Word};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum CounterOp {
    Inc(usize),
    Dec(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counters_match_oracle(
        width in 1u32..=16,
        ops in prop::collection::vec(
            prop_oneof![
                (0usize..50).prop_map(CounterOp::Inc),
                (0usize..50).prop_map(CounterOp::Dec),
            ],
            0..300,
        ),
    ) {
        let mut cv = CounterVec::new(50, width);
        let max = cv.max_value();
        let mut oracle = vec![0u64; 50];
        for op in &ops {
            match *op {
                CounterOp::Inc(i) => {
                    cv.increment(i);
                    if oracle[i] < max {
                        oracle[i] += 1;
                    }
                }
                CounterOp::Dec(i) => {
                    cv.decrement(i);
                    // Saturated counters stick; zero counters stay zero.
                    if oracle[i] > 0 && oracle[i] < max {
                        oracle[i] -= 1;
                    }
                }
            }
        }
        for (i, &expect) in oracle.iter().enumerate() {
            prop_assert_eq!(cv.get(i), expect, "counter {}", i);
        }
        prop_assert_eq!(cv.total(), oracle.iter().sum::<u64>());
    }

    #[test]
    fn bitvec_set_clear_matches_hashset(
        ops in prop::collection::vec((any::<bool>(), 0usize..200), 0..200)
    ) {
        let mut bv = BitVec::new(200);
        let mut oracle = std::collections::HashSet::new();
        for (set, i) in ops {
            if set {
                bv.set(i);
                oracle.insert(i);
            } else {
                bv.clear(i);
                oracle.remove(&i);
            }
        }
        for i in 0..200 {
            prop_assert_eq!(bv.get(i), oracle.contains(&i), "bit {}", i);
        }
        prop_assert_eq!(bv.count_ones(), oracle.len());
    }

    #[test]
    fn wideword2_tracks_u128(
        sets in prop::collection::vec(0u32..127, 0..40),
        insert_at in 0u32..127,
        remove_at in 0u32..127,
    ) {
        let mut wide = WideWord::<2>::zero();
        let mut narrow: u128 = 0;
        for &i in &sets {
            wide.set_bit(i);
            narrow.set_bit(i);
        }
        wide.insert_zero(insert_at);
        narrow.insert_zero(insert_at);
        wide.remove_bit(remove_at);
        narrow.remove_bit(remove_at);
        for i in 0..128 {
            prop_assert_eq!(wide.bit(i), narrow.bit(i), "bit {}", i);
        }
        for i in 0..=128u32 {
            prop_assert_eq!(wide.rank(i), narrow.rank(i), "rank {}", i);
        }
        prop_assert_eq!(wide.highest_set_bit(), narrow.highest_set_bit());
    }

    #[test]
    fn insert_then_remove_is_identity_when_top_clear(
        sets in prop::collection::vec(0u32..63, 0..30),
        pos in 0u32..63,
    ) {
        let mut w: u64 = 0;
        for &i in &sets {
            w.set_bit(i);
        }
        let before = w;
        w.insert_zero(pos);
        prop_assert!(!w.bit(pos));
        w.remove_bit(pos);
        prop_assert_eq!(w, before);
    }

    #[test]
    fn rank_counts_exactly(sets in prop::collection::vec(0u32..64, 0..40)) {
        let mut w: u64 = 0;
        for &i in &sets {
            w.set_bit(i);
        }
        for i in 0..=64u32 {
            let direct = (0..i).filter(|&j| w.bit(j)).count() as u32;
            prop_assert_eq!(w.rank(i), direct, "rank({})", i);
        }
    }

    #[test]
    fn mask_below_defines_rank_all_widths(sets in prop::collection::vec(0u32..512, 0..80)) {
        // Satellite pin: rank(i) == count_ones(bits & mask_below(i)) across
        // the full 0..=BITS range for every word type, including wide words.
        fn check<W: Word>(sets: &[u32]) {
            let mut w = W::zero();
            for &i in sets {
                w.set_bit(i % W::BITS);
            }
            for i in 0..=W::BITS {
                let mut masked = w;
                let keep = W::mask_below(i);
                for b in 0..W::BITS {
                    if !keep.bit(b) {
                        masked.clear_bit(b);
                    }
                }
                prop_assert_eq!(w.rank(i), masked.count_ones(), "rank({}) vs mask", i);
                for ops in [KernelOps::portable(), KernelOps::accelerated()] {
                    prop_assert_eq!(w.rank_routed(i, &ops), w.rank(i), "rank_routed({})", i);
                }
            }
            // Saturation beyond the width.
            prop_assert_eq!(W::mask_below(W::BITS + 7), W::mask_below(W::BITS));
        }
        check::<u16>(&sets);
        check::<u32>(&sets);
        check::<u64>(&sets);
        check::<u128>(&sets);
        check::<mpcbf_bitvec::W256>(&sets);
        check::<mpcbf_bitvec::W512>(&sets);
    }

    #[test]
    fn routed_tier_is_bit_identical_all_widths(
        sets in prop::collection::vec(0u32..512, 0..80),
        pos in 0u32..512,
        a in 0u32..512,
        b in 0u32..512,
    ) {
        // Routed primitives must match the portable baseline bit-for-bit
        // on every width, under both the portable and the accelerated
        // bundle.
        fn check<W: Word>(
            sets: &[u32],
            pos: u32,
            a: u32,
            b: u32,
        ) {
            let mut w = W::zero();
            for &i in sets {
                w.set_bit(i % W::BITS);
            }
            let pos = pos % W::BITS;
            let (a, b) = {
                let (a, b) = (a % (W::BITS + 1), b % (W::BITS + 1));
                if a <= b { (a, b) } else { (b, a) }
            };
            for ops in [KernelOps::portable(), KernelOps::accelerated()] {
                prop_assert_eq!(w.rank_range_routed(a, b, &ops), w.rank_range(a, b));
                let mut plain = w;
                let mut routed = w;
                plain.insert_zero(pos);
                routed.insert_zero_routed(pos, &ops);
                prop_assert_eq!(plain, routed, "insert_zero at {}", pos);
                plain.remove_bit(pos);
                routed.remove_bit_routed(pos, &ops);
                prop_assert_eq!(plain, routed, "remove_bit at {}", pos);
            }
        }
        check::<u16>(&sets, pos, a, b);
        check::<u32>(&sets, pos, a, b);
        check::<u64>(&sets, pos, a, b);
        check::<u128>(&sets, pos, a, b);
        check::<mpcbf_bitvec::W256>(&sets, pos, a, b);
        check::<mpcbf_bitvec::W512>(&sets, pos, a, b);
    }

    #[test]
    fn counter_widths_straddle_safely(width in 1u32..=32, idx in 0usize..100) {
        // Write a value near max into one counter; neighbours unaffected.
        let mut cv = CounterVec::new(100, width);
        let target = cv.max_value().min(37);
        for _ in 0..target {
            cv.increment(idx);
        }
        prop_assert_eq!(cv.get(idx), target);
        for i in 0..100 {
            if i != idx {
                prop_assert_eq!(cv.get(i), 0, "neighbour {} dirtied", i);
            }
        }
    }
}
