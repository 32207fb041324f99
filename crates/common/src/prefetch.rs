//! The workspace's one prefetch hint.
//!
//! Every batched reader here — the CSS-tree's interleaved descent, and the
//! `mmdb` operators' gathers behind it — keeps several independent misses
//! in flight by asking for a line some steps before it reads it. They all
//! ask through [`prefetch`], so the one `core::arch` call and its safety
//! argument live in one place.

/// Ask the cache for the line holding `ptr`, without waiting for it. A
/// no-op off `x86_64`.
///
/// A hint, not an access: `ptr` is never dereferenced, so it may point
/// anywhere — one past a slice's end, or into memory the caller does not
/// own — and a lookahead computes it with `wrapping_add`.
#[inline(always)]
pub fn prefetch<E>(ptr: *const E) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint — it reads nothing the program can
    // observe and cannot fault, whatever the address — and SSE, which
    // provides it, is part of the x86_64 baseline.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}
