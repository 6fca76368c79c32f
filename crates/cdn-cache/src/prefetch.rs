//! Safe software-prefetch shim.
//!
//! Eviction loops and the batched replay mode know the *next* node they
//! will touch one step before they touch it; issuing a prefetch for it
//! overlaps that future cache miss with current work. `_mm_prefetch` is a
//! hint with no architectural side effects, so wrapping it behind a
//! reference (always a valid address) makes the shim safe to call from
//! hot paths, and non-x86_64 targets compile it to nothing.

/// Hint the CPU to pull the cache line holding `r` into L1 (read intent).
#[inline(always)]
pub fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `r` is a live reference, so the address is valid; prefetch
    // performs no memory access that can fault.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            r as *const T as *const i8,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_pure_hint() {
        let v = vec![1u64, 2, 3];
        prefetch_read(&v[0]);
        prefetch_read(&v[2]);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
