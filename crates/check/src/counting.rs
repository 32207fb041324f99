//! A counting global allocator, for tests that bound what code
//! allocates: it forwards every call to the system allocator unchanged
//! and records, of the requests made since the last
//! [`reset`](Counting::reset), how many there were, the first one's size
//! and the largest, the largest block freed, and how many requests were
//! the size of up to two watched arrays.
//!
//! A test binary installs it as its global allocator and measures one
//! step at a time (one `#[test]` per binary, so no other test thread
//! allocates meanwhile):
//!
//! ```
//! use check::counting::Counting;
//!
//! #[global_allocator]
//! static ALLOC: Counting = Counting::new();
//!
//! fn main() {
//!     ALLOC.reset();
//!     let ids = vec![0u32; 1024];
//!     assert!(ALLOC.largest() >= 4096);
//!     let (_, [hits, _]) = ALLOC.watching([1024, 0], || ids.clone());
//!     assert_eq!(hits, 1, "one request the size of 1024 u32s");
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A request holds a watched array if it is the array's bytes plus at
/// most this much header (an `Arc`'s two counts, with room to spare).
const HEADER: usize = 64;

/// The counting allocator; see the [module docs](self).
#[derive(Debug)]
pub struct Counting {
    requests: AtomicUsize,
    first: AtomicUsize,
    largest: AtomicUsize,
    largest_freed: AtomicUsize,
    /// The byte sizes of up to two arrays being watched (0 = none).
    watched: [AtomicUsize; 2],
    /// Requests of each watched array's size.
    hits: [AtomicUsize; 2],
}

impl Counting {
    /// An allocator with nothing recorded.
    pub const fn new() -> Self {
        Self {
            requests: AtomicUsize::new(0),
            first: AtomicUsize::new(0),
            largest: AtomicUsize::new(0),
            largest_freed: AtomicUsize::new(0),
            watched: [AtomicUsize::new(0), AtomicUsize::new(0)],
            hits: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// Forget the requests and the frees made so far.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::SeqCst);
        self.first.store(0, Ordering::SeqCst);
        self.largest.store(0, Ordering::SeqCst);
        self.largest_freed.store(0, Ordering::SeqCst);
    }

    /// How many requests were made since the last reset (a `realloc` is
    /// one).
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::SeqCst)
    }

    /// The size of the first request since the last reset (0 if none).
    pub fn first(&self) -> usize {
        self.first.load(Ordering::SeqCst)
    }

    /// The size of the largest request since the last reset.
    pub fn largest(&self) -> usize {
        self.largest.load(Ordering::SeqCst)
    }

    /// The size of the largest block freed since the last reset.
    pub fn largest_freed(&self) -> usize {
        self.largest_freed.load(Ordering::SeqCst)
    }

    /// Run `f` watching for requests the size of `u32` arrays of `lens`
    /// (0 watches nothing); its result, and how many requests each
    /// array's size drew.
    pub fn watching<T>(&self, lens: [usize; 2], f: impl FnOnce() -> T) -> (T, [usize; 2]) {
        for (watched, len) in self.watched.iter().zip(lens) {
            watched.store(4 * len, Ordering::SeqCst);
        }
        self.hits.iter().for_each(|h| h.store(0, Ordering::SeqCst));
        let out = f();
        self.watched
            .iter()
            .for_each(|w| w.store(0, Ordering::SeqCst));
        (out, self.hits.each_ref().map(|h| h.load(Ordering::SeqCst)))
    }
}

impl Default for Counting {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only records the size asked for.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, which passes
    // through to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        self.requests.fetch_add(1, Ordering::SeqCst);
        let _ = (self.first).compare_exchange(0, size, Ordering::SeqCst, Ordering::SeqCst);
        self.largest.fetch_max(size, Ordering::SeqCst);
        for (watched, hits) in self.watched.iter().zip(&self.hits) {
            let bytes = watched.load(Ordering::SeqCst);
            if bytes != 0 && (bytes..=bytes + HEADER).contains(&size) {
                hits.fetch_add(1, Ordering::SeqCst);
            }
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `dealloc`'s contract, which passes
    // through to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.largest_freed
            .fetch_max(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
