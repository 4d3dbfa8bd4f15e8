//! A read-prefetch hint for word arrays that live in DRAM.
//!
//! Once a filter outgrows the last-level cache, its one word access per
//! operation is the whole cost. A walk that must take a lock between keys
//! cannot interleave their loads across the lock; [`prefetch`] lets such a
//! pipeline request every planned word's cache line up front, so the
//! misses of a whole batch overlap before the first lock is taken.
//!
//! # Safety
//!
//! The `unsafe` here is one `_mm_prefetch` call. A prefetch is a hint: it
//! never faults, never reads architecturally and never changes program
//! state, whatever address it is given (unmapped, freed, or not a pointer
//! at all). Callers therefore need no validity guarantee for `addr`; a
//! wrong or stale address only wastes one hint.
#![allow(unsafe_code)]

/// Hints the CPU to pull the cache line holding byte address `addr` into
/// every cache level (`prefetcht0`). A no-op off x86-64.
#[inline(always)]
pub fn prefetch(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is part of SSE, which every x86-64 CPU
        // has, and it cannot fault or read architecturally for any
        // address (module docs), so no precondition on `addr` remains.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(addr as *const i8) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_accepts_any_address() {
        let words = [1u64, 2, 3, 4];
        prefetch(words.as_ptr() as usize);
        // Stale, null and wild addresses are harmless hints.
        prefetch(0);
        prefetch(usize::MAX);
        prefetch(0xdead_beef_0000);
        assert_eq!(words.iter().sum::<u64>(), 10);
    }
}
