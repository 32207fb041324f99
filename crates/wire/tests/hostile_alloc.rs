//! A hostile length prefix reserves memory in proportion to the frame
//! that carries it, never to the count it claims. A counting global
//! allocator records the largest single request made while decoding.

use ccindex_wire::ShardRequest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only records the size asked for.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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

/// Decode `frame`, which must fail, and return the largest single
/// allocation the decode made.
fn largest_reservation(frame: &[u8]) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    let decoded = ShardRequest::decode(frame, "hostile");
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(decoded.is_err(), "a hostile frame decoded");
    largest
}

// One test, so no other test thread allocates while a decode is measured.
#[test]
fn hostile_counts_reserve_at_most_their_frame() {
    const BODY: usize = 1 << 20;
    // `PointProbeBatch` (tag 1) on `t.c` claiming `u32::MAX` values,
    // then 1 MiB of bytes that are no value at all.
    let mut probes = vec![1u8];
    for name in [b't', b'c'] {
        probes.extend_from_slice(&1u32.to_le_bytes());
        probes.push(name);
    }
    probes.extend_from_slice(&u32::MAX.to_le_bytes());
    // `Mutate` (tag 12) claiming `u32::MAX` mutations.
    let mut mutations = vec![12u8];
    mutations.extend_from_slice(&u32::MAX.to_le_bytes());
    // One `Register` (mutation tag 0) of table `t`, up to its column
    // count.
    let register = |columns: u32| {
        let mut frame = vec![12u8];
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(0);
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(b't');
        frame.extend_from_slice(&columns.to_le_bytes());
        frame
    };
    // A column count of `u32::MAX`: a count nested inside another
    // sequence.
    let columns = register(u32::MAX);
    // One column `c` whose value count is `u32::MAX`: a count two
    // sequences deep.
    let mut values = register(1);
    values.extend_from_slice(&1u32.to_le_bytes());
    values.push(b'c');
    values.extend_from_slice(&u32::MAX.to_le_bytes());
    for mut frame in [probes, mutations, columns, values] {
        frame.resize(frame.len() + BODY, 0xFF);
        let largest = largest_reservation(&frame);
        assert!(
            largest <= frame.len(),
            "decoding a {}-byte frame reserved {largest} bytes at once",
            frame.len()
        );
    }
}
