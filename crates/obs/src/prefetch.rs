//! Software prefetch: one hint and one rule for every loop in the
//! workspace that walks memory faster than the hardware prefetchers
//! follow — the plan kernels (`mpicd-datatype`), the run walker
//! (`mpicd::resumable`) and the fragment engine's region loop
//! (`mpicd-fabric`). It lives here because this is the lowest crate the
//! three share.
//!
//! The rule: a loop stepping [`MIN_STRIDE`] bytes or more per run (block,
//! region) prefetches the run [`AHEAD`] steps in front of the one it
//! copies. Shorter strides stay within lines the hardware prefetchers
//! already stream.

/// Strides at or above this many bytes issue software prefetch.
pub const MIN_STRIDE: usize = 128;

/// Prefetch distance, in runs (blocks, regions) ahead of the current one.
pub const AHEAD: usize = 16;

/// Best-effort prefetch of the cache line holding `p` into every cache
/// level (`prefetcht0`). A hint: it never faults, and any address is fine.
///
/// # Safety
/// Declared with the `sse` target feature, so a call needs an `unsafe`
/// context. `sse` is part of the x86_64 baseline, so every call is sound.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse")]
#[inline]
pub fn line(p: *const u8) {
    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
}

/// Best-effort prefetch of the cache line holding `p`: a no-op off x86_64.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn line(_p: *const u8) {}
