//! What `Column::from_values` allocates. A dense integer column is ranked
//! without a sort, so no `(value, rid)` pairs vector exists; a sparse one
//! is rejected before anything is allocated and goes straight to the
//! sort. A counting global allocator records the first and the largest
//! single request made while a column is built.

use mmdb::{Column, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static FIRST: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only records the size asked for.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = FIRST.compare_exchange(0, layout.size(), Ordering::SeqCst, Ordering::SeqCst);
        LARGEST.fetch_max(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Build a column over `values`; the first and the largest single
/// allocation the build made.
fn build(values: &[Value]) -> (usize, usize) {
    FIRST.store(0, Ordering::SeqCst);
    LARGEST.store(0, Ordering::SeqCst);
    let column = Column::from_values(values);
    let seen = (FIRST.load(Ordering::SeqCst), LARGEST.load(Ordering::SeqCst));
    assert_eq!(column.len(), values.len());
    seen
}

/// `rows` values from a xorshift stream, each reduced by `shape`.
fn column(rows: usize, shape: impl Fn(u64) -> i64) -> Vec<Value> {
    let mut x = 0x5eed_u64;
    (0..rows)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Value::Int(shape(x))
        })
        .collect()
}

// One test, so no other test thread allocates while a build is measured.
#[test]
fn a_dense_column_builds_without_pairs_and_a_sparse_one_allocates_only_its_sort() {
    let pair = std::mem::size_of::<(i64, u32)>();
    // `refresh`'s shape at half scale: 1M rows uniform in `[0, 2M)`. The
    // sorted values take at most 8 B a row and the IDs 4; the pairs
    // vector would take 16.
    const DENSE: usize = 1 << 20;
    let dense = column(DENSE, |x| (x % (2 * DENSE as u64)) as i64);
    let (_, largest) = build(&dense);
    assert!(
        largest <= 8 * DENSE,
        "a {DENSE}-row dense column made a {largest}-byte allocation"
    );
    // `serve-small`'s shape: 64k keys over 2^32 can never rank, so the
    // first allocation is the sort's pairs vector.
    const SPARSE: usize = 1 << 16;
    let sparse = column(SPARSE, |x| i64::from(x as u32));
    let (first, _) = build(&sparse);
    assert_eq!(first, pair * SPARSE, "allocated before the sort path");
}
