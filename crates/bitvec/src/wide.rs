//! [`WideWord`]: words wider than 128 bits, built from 64-bit limbs.
//!
//! The paper evaluates w = 16…64 (one CPU word), but its analysis (Eq. 5 and
//! Fig. 5) predicts further FPR gains with wider "words" fetched per memory
//! access — e.g. a 512-bit DDR burst or cache line. `WideWord<N>` gives the
//! harness those points: `WideWord<4>` = 256 bits, `WideWord<8>` = 512 bits.

use crate::kernel::{self, KernelOps};
use crate::word::Word;

/// A `64·N`-bit word stored as `N` little-endian 64-bit limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideWord<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> Default for WideWord<N> {
    #[inline]
    fn default() -> Self {
        WideWord { limbs: [0; N] }
    }
}

impl<const N: usize> WideWord<N> {
    /// Builds a wide word from limbs (limb 0 holds bits 0–63).
    #[inline]
    pub fn from_limbs(limbs: [u64; N]) -> Self {
        WideWord { limbs }
    }

    /// The underlying limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    #[inline]
    fn split(i: u32) -> (usize, u32) {
        ((i / 64) as usize, i % 64)
    }
}

impl<const N: usize> Word for WideWord<N> {
    const BITS: u32 = 64 * N as u32;

    #[inline]
    fn zero() -> Self {
        Self::default()
    }

    #[inline]
    fn mask_below(i: u32) -> Self {
        let mut limbs = [0u64; N];
        let i = i.min(Self::BITS);
        let (limb, off) = Self::split(i.min(Self::BITS - 1));
        let full = if i == Self::BITS { N } else { limb };
        limbs[..full].fill(u64::MAX);
        if full < N {
            limbs[limb] = kernel::mask_below_u64(off);
        }
        WideWord { limbs }
    }

    #[inline]
    fn bit(&self, i: u32) -> bool {
        debug_assert!(i < Self::BITS);
        let (limb, off) = Self::split(i);
        (self.limbs[limb] >> off) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, i: u32) {
        debug_assert!(i < Self::BITS);
        let (limb, off) = Self::split(i);
        self.limbs[limb] |= 1 << off;
    }

    #[inline]
    fn clear_bit(&mut self, i: u32) {
        debug_assert!(i < Self::BITS);
        let (limb, off) = Self::split(i);
        self.limbs[limb] &= !(1 << off);
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }

    // The plain shifting/ranking primitives are the routed tier under
    // the portable bundle, whose tag branch folds away once inlined.

    #[inline]
    fn rank(&self, i: u32) -> u32 {
        self.rank_routed(i, &KernelOps::portable())
    }

    #[inline]
    fn rank_range(&self, a: u32, b: u32) -> u32 {
        self.rank_range_routed(a, b, &KernelOps::portable())
    }

    #[inline]
    fn insert_zero(&mut self, pos: u32) {
        self.insert_zero_routed(pos, &KernelOps::portable());
    }

    #[inline]
    fn remove_bit(&mut self, pos: u32) {
        self.remove_bit_routed(pos, &KernelOps::portable());
    }

    #[inline]
    fn is_zero_from(&self, pos: u32) -> bool {
        debug_assert!(pos <= Self::BITS);
        if pos == Self::BITS {
            return true;
        }
        let (limb, off) = Self::split(pos);
        if self.limbs[limb] >> off != 0 {
            return false;
        }
        self.limbs[limb + 1..].iter().all(|&l| l == 0)
    }

    #[inline]
    fn highest_set_bit(&self) -> Option<u32> {
        for (j, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return Some(j as u32 * 64 + 63 - l.leading_zeros());
            }
        }
        None
    }

    // Routed tier: whole limbs use plain POPCNT either way; the boundary
    // limb goes through the bundle's kernel (BZHI/PDEP/PEXT when
    // accelerated).

    #[inline]
    fn rank_routed(&self, i: u32, ops: &KernelOps) -> u32 {
        debug_assert!(i <= Self::BITS);
        if i == Self::BITS {
            return self.count_ones();
        }
        let (limb, off) = Self::split(i);
        let mut ones = 0;
        for l in &self.limbs[..limb] {
            ones += l.count_ones();
        }
        ones + kernel::rank_u64_routed(self.limbs[limb], off, ops)
    }

    #[inline]
    fn rank_range_routed(&self, a: u32, b: u32, ops: &KernelOps) -> u32 {
        debug_assert!(a <= b && b <= Self::BITS);
        let (la, _) = Self::split(a.min(Self::BITS - 1));
        let (lb, _) = Self::split(b.min(Self::BITS - 1));
        if la == lb && b < Self::BITS {
            // Both ends in one limb: a single masked popcount.
            let off = la as u32 * 64;
            return kernel::rank_range_u64_routed(self.limbs[la], a - off, b - off, ops);
        }
        self.rank_routed(b, ops) - self.rank_routed(a, ops)
    }

    #[inline]
    fn insert_zero_routed(&mut self, pos: u32, ops: &KernelOps) {
        debug_assert!(pos < Self::BITS);
        let (limb, off) = Self::split(pos);
        // PDEP discards the boundary limb's top bit, so capture the carry
        // before the kernel call.
        let mut carry = self.limbs[limb] >> 63;
        self.limbs[limb] = kernel::insert_zero_u64_routed(self.limbs[limb], off, ops);
        for l in &mut self.limbs[limb + 1..] {
            let next_carry = *l >> 63;
            *l = (*l << 1) | carry;
            carry = next_carry;
        }
    }

    #[inline]
    fn remove_bit_routed(&mut self, pos: u32, ops: &KernelOps) {
        debug_assert!(pos < Self::BITS);
        let (limb, off) = Self::split(pos);
        let mut carry = 0u64;
        for j in (limb + 1..N).rev() {
            let next_carry = self.limbs[j] & 1;
            self.limbs[j] = (self.limbs[j] >> 1) | (carry << 63);
            carry = next_carry;
        }
        self.limbs[limb] =
            kernel::remove_bit_u64_routed(self.limbs[limb], off, ops) | (carry << 63);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type W256 = WideWord<4>;

    #[test]
    fn width_constant() {
        assert_eq!(W256::BITS, 256);
        assert_eq!(WideWord::<8>::BITS, 512);
    }

    #[test]
    fn set_get_across_limbs() {
        let mut w = W256::zero();
        for i in [0u32, 63, 64, 127, 128, 191, 192, 255] {
            w.set_bit(i);
            assert!(w.bit(i));
        }
        assert_eq!(w.count_ones(), 8);
        assert_eq!(w.highest_set_bit(), Some(255));
        w.clear_bit(255);
        assert_eq!(w.highest_set_bit(), Some(192));
    }

    #[test]
    fn rank_across_limb_boundaries() {
        let mut w = W256::zero();
        w.set_bit(10);
        w.set_bit(63);
        w.set_bit(64);
        w.set_bit(130);
        assert_eq!(w.rank(0), 0);
        assert_eq!(w.rank(11), 1);
        assert_eq!(w.rank(64), 2);
        assert_eq!(w.rank(65), 3);
        assert_eq!(w.rank(131), 4);
        assert_eq!(w.rank(256), 4);
    }

    #[test]
    fn insert_zero_carries_across_limbs() {
        let mut w = W256::zero();
        w.set_bit(63); // top of limb 0
        w.insert_zero(0);
        assert!(!w.bit(63));
        assert!(w.bit(64)); // carried into limb 1
        assert_eq!(w.count_ones(), 1);
    }

    #[test]
    fn remove_bit_borrows_across_limbs() {
        let mut w = W256::zero();
        w.set_bit(64);
        w.remove_bit(0);
        assert!(w.bit(63));
        assert!(!w.bit(64));
        assert_eq!(w.count_ones(), 1);
    }

    #[test]
    fn insert_remove_roundtrip_random_patterns() {
        // Deterministic pseudo-random patterns, top bit kept clear.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut limbs = [0u64; 4];
            for l in &mut limbs {
                *l = next();
            }
            limbs[3] &= !(1 << 63);
            let base = W256::from_limbs(limbs);
            for pos in (0..255).step_by(7) {
                let mut w = base;
                w.insert_zero(pos);
                assert!(!w.bit(pos));
                // Tail above pos shifted up by one.
                for i in pos + 1..256 {
                    assert_eq!(w.bit(i), base.bit(i - 1), "pos={pos} i={i}");
                }
                w.remove_bit(pos);
                assert_eq!(w, base, "round-trip at pos {pos}");
            }
        }
    }

    #[test]
    fn matches_u128_semantics() {
        // WideWord<2> must behave exactly like u128.
        let mut wide = WideWord::<2>::zero();
        let mut narrow: u128 = 0;
        let ops: [(u8, u32); 12] = [
            (0, 5),
            (0, 77),
            (0, 127),
            (1, 40),
            (0, 64),
            (2, 63),
            (0, 100),
            (1, 0),
            (2, 90),
            (0, 3),
            (1, 127),
            (2, 1),
        ];
        for (op, pos) in ops {
            match op {
                0 => {
                    wide.set_bit(pos);
                    narrow.set_bit(pos);
                }
                1 => {
                    wide.insert_zero(pos.min(126));
                    narrow.insert_zero(pos.min(126));
                }
                _ => {
                    wide.remove_bit(pos);
                    narrow.remove_bit(pos);
                }
            }
            for i in 0..128 {
                assert_eq!(wide.bit(i), narrow.bit(i), "bit {i} after op {op}@{pos}");
            }
            assert_eq!(wide.rank(128), narrow.rank(128));
        }
    }

    #[test]
    fn is_zero_from_spans_limbs() {
        let mut w = W256::zero();
        w.set_bit(200);
        assert!(!w.is_zero_from(0));
        assert!(!w.is_zero_from(200));
        assert!(w.is_zero_from(201));
        assert!(w.is_zero_from(256));
    }
}
