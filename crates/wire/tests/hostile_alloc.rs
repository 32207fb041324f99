//! A hostile length prefix reserves memory in proportion to the frame
//! that carries it, never to the count it claims. A counting global
//! allocator records the largest single request made while decoding.

use ccindex_wire::ShardRequest;
use check::counting::Counting;

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// Decode `frame`, which must fail, and return the largest single
/// allocation the decode made.
fn largest_reservation(frame: &[u8]) -> usize {
    ALLOC.reset();
    let decoded = ShardRequest::decode(frame, "hostile");
    let largest = ALLOC.largest();
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
