//! Runtime-dispatched bit kernels for the HCBF hot path.
//!
//! Every MPCBF operation bottoms out in a handful of one-word primitives —
//! masked popcounts ([`Word::rank`](crate::Word::rank) /
//! [`Word::rank_range`](crate::Word::rank_range)) and the shifting
//! insert/remove the hierarchy performs — so those ~10 instructions decide
//! the paper's entire speed claim (§IV, Table II). This module provides two
//! implementations of each primitive:
//!
//! * a **portable** one (safe Rust, mask-and-shift, branch-free via
//!   [`Word::mask_below`](crate::Word::mask_below)), the baseline every
//!   other kernel must match bit-for-bit; and
//! * a **BMI2** one for x86-64, where the primitives collapse to single
//!   instructions: `rank` is `BZHI + POPCNT`, and the hierarchy's
//!   insert-a-zero / remove-a-bit are one `PDEP` / `PEXT` each (depositing
//!   or extracting through the mask `!(1 << pos)` shifts the tail by one
//!   position in a single µop instead of a mask/shift/merge sequence).
//!
//! # Dispatch
//!
//! [`Kernel::active`] picks the implementation **once per process**: the
//! first call probes the CPU (`is_x86_feature_detected!`) and the
//! `MPCBF_KERNEL` environment override, then caches the verdict in a
//! static. There is no per-call feature probe, and no `-C target-cpu` flag
//! is needed for release binaries to use the best kernel on the machine
//! they actually run on.
//!
//! Primitives come in two tiers. The plain [`Word`](crate::Word) methods
//! are the portable baseline. The `*_routed` tier takes a [`KernelOps`]
//! resolved once per operation or batch and branches on its tag — a
//! register compare, not an atomic load per primitive. Update walks take
//! [`KernelOps::accelerated`]: `BENCH_kernels.json` measures the BMI2
//! update walks at 1.2–1.3x portable, while the isolated primitives and
//! the query walks (which call no primitive) gain nothing.
//!
//! Set `MPCBF_KERNEL=portable` to force the baseline (CI runs the
//! differential suite on both legs); `MPCBF_KERNEL=bmi2` requests the
//! accelerated kernel but still falls back to portable when the CPU lacks
//! BMI2 — the override can never cause an illegal-instruction fault.
//!
//! # Safety
//!
//! The `unsafe` here is exactly the set of `#[target_feature(enable =
//! "bmi2,popcnt")]` functions below. Each is only reachable through the
//! `*_routed` dispatchers in this module, and every dispatcher guards the
//! call with the tag of a [`KernelOps`], which is `Kernel::Bmi2` only when
//! built from [`Kernel::active`] — a verdict cached only after
//! `is_x86_feature_detected!("bmi2")` (and `"popcnt"`) returned true on
//! this CPU. The intrinsics themselves dereference nothing — they are pure
//! register arithmetic — so the *only* safety obligation is CPU support,
//! discharged by the detection above.
#![allow(unsafe_code)]

use core::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the process is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The safe mask-and-shift baseline; always available.
    Portable,
    /// x86-64 `BZHI`/`PDEP`/`PEXT`/`POPCNT` kernels (requires BMI2).
    Bmi2,
}

/// Cached dispatch verdict: 0 = not yet detected, 1 = portable, 2 = BMI2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

impl Kernel {
    /// The kernel selected for this process (detection runs once; see the
    /// module docs for the `MPCBF_KERNEL` override).
    #[inline]
    pub fn active() -> Kernel {
        match ACTIVE.load(Ordering::Relaxed) {
            1 => Kernel::Portable,
            2 => Kernel::Bmi2,
            _ => Self::detect_and_cache(),
        }
    }

    /// True when the active kernel uses hardware-specific instructions.
    #[inline]
    pub fn is_accelerated(self) -> bool {
        self == Kernel::Bmi2
    }

    /// Stable name for logs and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Bmi2 => "bmi2",
        }
    }

    /// One-line description of what this CPU offers, for benchmark JSON.
    pub fn cpu_features() -> String {
        #[cfg(target_arch = "x86_64")]
        {
            format!(
                "x86_64 popcnt={} bmi2={}",
                std::arch::is_x86_feature_detected!("popcnt"),
                std::arch::is_x86_feature_detected!("bmi2"),
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            std::env::consts::ARCH.to_string()
        }
    }

    #[cold]
    fn detect_and_cache() -> Kernel {
        let forced = std::env::var("MPCBF_KERNEL").ok();
        let kernel = match forced.as_deref() {
            Some("portable") => Kernel::Portable,
            // Any other value (including an explicit "bmi2") falls through
            // to detection: the override may request acceleration but can
            // never grant it on a CPU that lacks the instructions.
            _ => detect(),
        };
        ACTIVE.store(
            match kernel {
                Kernel::Portable => 1,
                Kernel::Bmi2 => 2,
            },
            Ordering::Relaxed,
        );
        kernel
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Kernel {
    if std::arch::is_x86_feature_detected!("bmi2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        Kernel::Bmi2
    } else {
        Kernel::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Kernel {
    Kernel::Portable
}

/// The kernel a word walk routes its primitives to, resolved once per
/// operation or batch.
///
/// Walks take a `&KernelOps` and branch on its tag — a register compare
/// per primitive instead of the relaxed atomic load [`Kernel::active`]
/// costs. [`KernelOps::portable`] always routes to the mask-and-shift
/// baseline (and, once inlined, the tag branch folds away at compile
/// time); [`KernelOps::accelerated`] routes update walks to BMI2 where
/// the CPU has it.
///
/// The `kernel` field is private on purpose: an accelerated bundle can only
/// be constructed by [`KernelOps::accelerated`] *after* runtime detection
/// confirmed BMI2 + POPCNT, so carrying the tag is a proof token the
/// `*_routed` dispatchers below may trust.
#[derive(Debug, Clone, Copy)]
pub struct KernelOps {
    kernel: Kernel,
}

impl KernelOps {
    /// The portable mask-and-shift bundle; always available.
    #[inline]
    pub fn portable() -> KernelOps {
        KernelOps {
            kernel: Kernel::Portable,
        }
    }

    /// The best available bundle for *update* walks: BMI2 when this CPU
    /// has it (honouring the `MPCBF_KERNEL` override through
    /// [`Kernel::active`]), the portable bundle otherwise. Query walks
    /// test single bits and call no primitive, so they take no bundle.
    #[inline]
    pub fn accelerated() -> KernelOps {
        KernelOps {
            kernel: Kernel::active(),
        }
    }

    /// Which kernel this bundle routes to.
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

/// All ones strictly below bit `i` (`i ≥ 64` saturates to all ones) — the
/// portable twin of `BZHI`'s mask, with no undefined shift anywhere: the
/// double shift `(MAX >> 1) >> (63 - i)` keeps every shift amount in
/// `0..64` for every `i < 64`.
#[inline]
pub fn mask_below_u64(i: u32) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (u64::MAX >> 1) >> (63 - i)
    }
}

/// Portable `rank`: ones strictly below bit `i`.
#[inline]
pub fn rank_u64_portable(bits: u64, i: u32) -> u32 {
    (bits & mask_below_u64(i)).count_ones()
}

/// Portable `rank_range`: ones in `[a, b)` (`a ≤ b ≤ 64`).
#[inline]
pub fn rank_range_u64_portable(bits: u64, a: u32, b: u32) -> u32 {
    debug_assert!(a <= b && b <= 64);
    if a >= 64 {
        // Only reachable as [64, 64), which is empty.
        return 0;
    }
    ((bits >> a) & mask_below_u64(b - a)).count_ones()
}

/// Portable insert-a-zero at `pos`: the tail shifts up one, the former top
/// bit is discarded.
#[inline]
pub fn insert_zero_u64_portable(bits: u64, pos: u32) -> u64 {
    debug_assert!(pos < 64);
    let low = bits & mask_below_u64(pos);
    ((bits ^ low) << 1) | low
}

/// Portable remove-the-bit at `pos`: the tail shifts down one, the top bit
/// becomes zero.
#[inline]
pub fn remove_bit_u64_portable(bits: u64, pos: u32) -> u64 {
    debug_assert!(pos < 64);
    let low = bits & mask_below_u64(pos);
    ((bits >> 1) & !mask_below_u64(pos)) | low
}

#[cfg(target_arch = "x86_64")]
mod bmi2 {
    use core::arch::x86_64::{_bzhi_u64, _pdep_u64, _pext_u64};

    /// `rank` as `BZHI + POPCNT`. `_bzhi_u64` reads its index from the low
    /// 8 bits and leaves the word intact for indices ≥ 64 — exactly the
    /// saturation [`super::mask_below_u64`] specifies.
    #[target_feature(enable = "bmi2,popcnt")]
    pub unsafe fn rank_u64(bits: u64, i: u32) -> u32 {
        _bzhi_u64(bits, i).count_ones()
    }

    /// `rank_range` as one shift + `BZHI` + `POPCNT`.
    #[target_feature(enable = "bmi2,popcnt")]
    pub unsafe fn rank_range_u64(bits: u64, a: u32, b: u32) -> u32 {
        debug_assert!(a <= b && b <= 64);
        if a >= 64 {
            // Only reachable as [64, 64), which is empty.
            return 0;
        }
        _bzhi_u64(bits >> a, b - a).count_ones()
    }

    /// Insert-a-zero as a single `PDEP`: depositing `bits` through the
    /// mask `!(1 << pos)` keeps `[0, pos)` in place, forces bit `pos` to
    /// zero, shifts `[pos, 63)` up one, and discards the old top bit.
    #[target_feature(enable = "bmi2")]
    pub unsafe fn insert_zero_u64(bits: u64, pos: u32) -> u64 {
        debug_assert!(pos < 64);
        _pdep_u64(bits, !(1u64 << pos))
    }

    /// Remove-the-bit as a single `PEXT`: extracting through the same mask
    /// keeps `[0, pos)` in place, shifts `(pos, 64)` down one, and zeroes
    /// the top bit.
    #[target_feature(enable = "bmi2")]
    pub unsafe fn remove_bit_u64(bits: u64, pos: u32) -> u64 {
        debug_assert!(pos < 64);
        _pext_u64(bits, !(1u64 << pos))
    }
}

/// Routed `rank`: ones strictly below bit `i` (`i ≥ 64` saturates),
/// dispatched on the bundle's tag. Both arms inline fully.
#[inline]
pub fn rank_u64_routed(bits: u64, i: u32, ops: &KernelOps) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if ops.kernel().is_accelerated() {
        // SAFETY: an accelerated `KernelOps` is only constructible by
        // `KernelOps::accelerated()` after runtime detection (the tag
        // field is private), so BMI2 + POPCNT are present.
        return unsafe { bmi2::rank_u64(bits, i) };
    }
    rank_u64_portable(bits, i)
}

/// Routed `rank_range`; see [`rank_u64_routed`].
#[inline]
pub fn rank_range_u64_routed(bits: u64, a: u32, b: u32, ops: &KernelOps) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if ops.kernel().is_accelerated() {
        // SAFETY: accelerated bundles imply detection succeeded (see
        // `rank_u64_routed`).
        return unsafe { bmi2::rank_range_u64(bits, a, b) };
    }
    rank_range_u64_portable(bits, a, b)
}

/// Routed insert-a-zero; see [`rank_u64_routed`].
#[inline]
pub fn insert_zero_u64_routed(bits: u64, pos: u32, ops: &KernelOps) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if ops.kernel().is_accelerated() {
        // SAFETY: accelerated bundles imply detection succeeded (see
        // `rank_u64_routed`).
        return unsafe { bmi2::insert_zero_u64(bits, pos) };
    }
    insert_zero_u64_portable(bits, pos)
}

/// Routed remove-the-bit; see [`rank_u64_routed`].
#[inline]
pub fn remove_bit_u64_routed(bits: u64, pos: u32, ops: &KernelOps) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if ops.kernel().is_accelerated() {
        // SAFETY: accelerated bundles imply detection succeeded (see
        // `rank_u64_routed`).
        return unsafe { bmi2::remove_bit_u64(bits, pos) };
    }
    remove_bit_u64_portable(bits, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn mask_below_full_range() {
        assert_eq!(mask_below_u64(0), 0);
        assert_eq!(mask_below_u64(1), 1);
        assert_eq!(mask_below_u64(63), u64::MAX >> 1);
        assert_eq!(mask_below_u64(64), u64::MAX);
        assert_eq!(mask_below_u64(200), u64::MAX);
        for i in 0..=64u32 {
            assert_eq!(mask_below_u64(i).count_ones(), i.min(64));
        }
    }

    #[test]
    fn portable_primitives_match_naive() {
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..500 {
            let bits = next();
            for i in 0..=64u32 {
                let naive = (0..i.min(64)).filter(|&j| (bits >> j) & 1 == 1).count() as u32;
                assert_eq!(rank_u64_portable(bits, i), naive, "rank({i})");
            }
            let a = (next() % 65) as u32;
            let b = a + (next() % (65 - u64::from(a))) as u32;
            assert_eq!(
                rank_range_u64_portable(bits, a, b),
                rank_u64_portable(bits, b) - rank_u64_portable(bits, a),
                "rank_range({a},{b})"
            );
        }
    }

    #[test]
    fn bundles_report_their_kernel() {
        assert_eq!(KernelOps::portable().kernel(), Kernel::Portable);
        // The accelerated bundle follows the process-wide verdict.
        assert_eq!(KernelOps::accelerated().kernel(), Kernel::active());
    }

    #[test]
    fn both_bundles_match_portable_for_all_primitives() {
        // On BMI2 hardware the accelerated bundle exercises the BMI2
        // kernels; on the forced-portable leg it pins routing == portable.
        // Either way every routed result must equal the baseline.
        let mut next = rng(0x0123_4567_89ab_cdef);
        for ops in [KernelOps::portable(), KernelOps::accelerated()] {
            for _ in 0..2_000 {
                let bits = next();
                let i = (next() % 66) as u32;
                assert_eq!(rank_u64_routed(bits, i, &ops), rank_u64_portable(bits, i));
                let a = (next() % 65) as u32;
                let b = a + (next() % (65 - u64::from(a))) as u32;
                assert_eq!(
                    rank_range_u64_routed(bits, a, b, &ops),
                    rank_range_u64_portable(bits, a, b)
                );
                let pos = (next() % 64) as u32;
                assert_eq!(
                    insert_zero_u64_routed(bits, pos, &ops),
                    insert_zero_u64_portable(bits, pos)
                );
                assert_eq!(
                    remove_bit_u64_routed(bits, pos, &ops),
                    remove_bit_u64_portable(bits, pos)
                );
                let top_clear = bits >> 1; // insert loses nothing
                assert_eq!(
                    remove_bit_u64_routed(insert_zero_u64_routed(top_clear, pos, &ops), pos, &ops),
                    top_clear
                );
            }
        }
    }

    #[test]
    fn detection_is_stable_and_named() {
        let first = Kernel::active();
        assert_eq!(Kernel::active(), first, "dispatch verdict must be cached");
        assert!(matches!(first.name(), "portable" | "bmi2"));
        assert!(!Kernel::cpu_features().is_empty());
    }
}
