//! Software-prefetch shim for the CSR neighbor scans.
//!
//! [`prefetch_read`] issues `PREFETCHT0` for an element a few entries
//! ahead of a scan's cursor: a pure latency hint that never faults and
//! never changes results, compiled to a no-op off `x86_64`. Arb-Linial,
//! Kuhn–Wattenhofer, the recolor sweep and the derandomized coloring's
//! conflict sweep call it [`PREFETCH_LOOKAHEAD`] neighbors ahead.

// The prefetch intrinsic needs `core::arch`; this module opts out of the
// crate-wide `deny(unsafe_code)` the same way `pool.rs` and `perf.rs` do,
// with the unsafety confined to one in-bounds pointer offset.
#![allow(unsafe_code)]

/// How many neighbor-list entries ahead of the cursor the CSR scans issue
/// [`prefetch_read`] hints: far enough to cover DRAM latency at a few
/// cycles per scan step, near enough to stay inside the list.
pub const PREFETCH_LOOKAHEAD: usize = 8;

/// Hints the cache hierarchy to pull `data[index]` toward L1
/// (`PREFETCHT0`). Out-of-range indices and non-`x86_64` targets are
/// no-ops; the hint never faults and never changes observable state.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < data.len() {
        // Safety: the pointer is in bounds, and PREFETCHT0 is
        // architecturally a hint — it cannot fault even on a bad address.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                data.as_ptr().add(index).cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_inert() {
        let data = vec![1u32, 2, 3];
        prefetch_read(&data, 0);
        prefetch_read(&data, 2);
        prefetch_read(&data, 999); // out of range: no-op, no fault
        prefetch_read::<u64>(&[], 0);
        assert_eq!(data, vec![1, 2, 3]);
    }
}
