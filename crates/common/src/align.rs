//! Cache-line-aligned storage.
//!
//! §6.2 of the paper: "The sorted array is aligned properly according to the
//! cache line size. For T-trees, B+-trees and CSS-trees, all the tree nodes
//! are allocated at once and the starting addresses are also aligned
//! properly." [`AlignedBuf`] reproduces that discipline: a fixed-capacity
//! buffer whose base address is aligned to a cache-line multiple, allocated
//! in one shot (no incremental reallocation — the OLAP setting preallocates,
//! see the footnote to Fig. 9).

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Cache-line size assumed by the default layouts (64 bytes, the UltraSparc
/// II L2 line size from §6.1 and the dominant line size on modern x86).
pub const CACHE_LINE_BYTES: usize = 64;

/// A heap buffer of `T` whose base address is aligned to `align` bytes
/// (at least `align_of::<T>()`), zero-initialised, with a fixed length.
///
/// Unlike `Vec`, an `AlignedBuf` never grows: index arenas in this workspace
/// compute their exact size up front (Algorithm 4.1 computes the number of
/// internal nodes before filling them) and are rebuilt from scratch on batch
/// updates.
pub struct AlignedBuf<T> {
    ptr: NonNull<T>,
    len: usize,
    align: usize,
    _marker: PhantomData<T>,
}

// SAFETY: AlignedBuf owns its allocation exclusively, like Box<[T]>.
unsafe impl<T: Send> Send for AlignedBuf<T> {}
// SAFETY: shared access only hands out &T into the owned allocation,
// so AlignedBuf is as Sync as its element type.
unsafe impl<T: Sync> Sync for AlignedBuf<T> {}

impl<T: Copy + Default> AlignedBuf<T> {
    /// Allocate `len` zeroed elements aligned to [`CACHE_LINE_BYTES`].
    pub fn new_zeroed(len: usize) -> Self {
        Self::with_align(len, CACHE_LINE_BYTES)
    }

    /// Allocate `len` zeroed elements aligned to `align` bytes (rounded up
    /// to the element alignment; must be a power of two).
    pub fn with_align(len: usize, align: usize) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align = align.max(core::mem::align_of::<T>());
        if len == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len: 0,
                align,
                _marker: PhantomData,
            };
        }
        let bytes = core::mem::size_of::<T>()
            .checked_mul(len)
            .expect("allocation size overflow");
        let layout = Layout::from_size_align(bytes, align).expect("bad layout");
        if bytes == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len,
                align,
                _marker: PhantomData,
            };
        }
        // SAFETY: layout has non-zero size — the zero-sized case (ZST
        // element or len rounding to 0 bytes) returned a dangling
        // buffer just above and never reaches the allocator.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout)
        };
        Self {
            ptr,
            len,
            align,
            _marker: PhantomData,
        }
    }

    /// Copy a slice into a new aligned buffer.
    pub fn from_slice(src: &[T]) -> Self {
        let mut buf = Self::new_zeroed(src.len());
        buf.copy_from_slice(src);
        buf
    }
}

impl<T> AlignedBuf<T> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the buffer (stable for the buffer's lifetime); used
    /// by the access tracer to report which cache lines a probe touches.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.ptr.as_ptr() as usize
    }

    /// Size of the buffer's allocation in bytes (the quantity charged by the
    /// paper's space model).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        core::mem::size_of::<T>() * self.len
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr is valid for len elements (allocated zeroed), and we
        // only hand out T: Copy contents.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// View as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: as above, plus exclusive access via &mut self.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        let bytes = core::mem::size_of::<T>() * self.len;
        if bytes == 0 {
            return;
        }
        let layout = Layout::from_size_align(bytes, self.align).expect("bad layout");
        // SAFETY: allocated with the identical layout in with_align.
        unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
    }
}

impl<T> Deref for AlignedBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for AlignedBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        let mut buf = Self::with_align(self.len, self.align);
        buf.as_mut_slice().copy_from_slice(self.as_slice());
        buf
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .field("align", &self.align)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_cache_line_aligned() {
        for len in [1usize, 7, 16, 1000] {
            let buf = AlignedBuf::<u32>::new_zeroed(len);
            assert_eq!(buf.base_addr() % CACHE_LINE_BYTES, 0, "len={len}");
            assert_eq!(buf.len(), len);
        }
    }

    #[test]
    fn zeroed_on_allocation() {
        let buf = AlignedBuf::<u64>::new_zeroed(123);
        assert!(buf.iter().all(|&v| v == 0));
    }

    #[test]
    fn from_slice_roundtrip() {
        let data: Vec<u32> = (0..100).map(|i| i * 3).collect();
        let buf = AlignedBuf::from_slice(&data);
        assert_eq!(buf.as_slice(), data.as_slice());
        assert_eq!(buf.size_bytes(), 400);
    }

    #[test]
    fn empty_buffer_is_safe() {
        let buf = AlignedBuf::<u32>::new_zeroed(0);
        assert!(buf.is_empty());
        assert_eq!(buf.as_slice(), &[] as &[u32]);
        assert_eq!(buf.size_bytes(), 0);
        let cloned = buf.clone();
        assert!(cloned.is_empty());
    }

    #[test]
    fn custom_alignment_honoured() {
        let buf = AlignedBuf::<u32>::with_align(10, 4096);
        assert_eq!(buf.base_addr() % 4096, 0);
    }

    #[test]
    fn mutation_through_deref() {
        let mut buf = AlignedBuf::<u32>::new_zeroed(4);
        buf[2] = 42;
        assert_eq!(buf.as_slice(), &[0, 0, 42, 0]);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedBuf::from_slice(&[1u32, 2, 3]);
        let b = a.clone();
        a[0] = 99;
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_ne!(a.base_addr(), b.base_addr());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_alignment_panics() {
        let _ = AlignedBuf::<u32>::with_align(4, 48);
    }
}
