//! What `Column::from_values` and `RidList::for_column` allocate. A dense
//! integer column is ranked without a sort, so no `(value, rid)` pairs
//! vector exists; a sparse one is rejected before anything is allocated
//! and goes straight to the sort. Each final shared array (a column's
//! IDs, a RID list's offsets and RIDs) is allocated once, in its final
//! block, never built in a `Vec` and copied. A RID list's build keeps no
//! array the size of its domain besides its offsets, and no scratch
//! larger than one 8-byte pair a row. A counting global allocator
//! records the first and the largest single request made while a column
//! is built, and how many requests were the size of a watched array.

use check::counting::Counting;
use mmdb::{Column, RidList, Value};

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// Build a column over `values`; the column, the first and the largest
/// single allocation the build made, and how many requests were the
/// size of its ID array.
fn build(values: &[Value]) -> (Column, usize, usize, usize) {
    ALLOC.reset();
    let (column, [ids, _]) = ALLOC.watching([values.len(), 0], || Column::from_values(values));
    let (first, largest) = (ALLOC.first(), ALLOC.largest());
    assert_eq!(column.len(), values.len());
    (column, first, largest, ids)
}

/// Sort `column`'s RIDs: no request is larger than `bytes`, and one
/// (its offsets) is the size of its domain. The largest request.
fn assert_sort_scratch(column: &Column, bytes: usize) -> usize {
    let d = column.domain().len();
    ALLOC.reset();
    let (list, [domain_sized, _]) = ALLOC.watching([d, 0], || RidList::for_column(column));
    assert_eq!(list.len(), column.len());
    let largest = ALLOC.largest();
    assert!(
        largest <= bytes,
        "a {largest}-byte allocation sorting {d} IDs"
    );
    assert_eq!(domain_sized, 1, "domain-sized allocations sorting {d} IDs");
    largest
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
    let (built, _, largest, ids) = build(&dense);
    assert!(
        largest <= 8 * DENSE,
        "a {DENSE}-row dense column made a {largest}-byte allocation"
    );
    assert_eq!(ids, 1, "the ranked column's IDs were allocated {ids} times");
    // The RID list over it: `d + 1` offsets and one RID per row.
    let offsets = built.domain().len() + 1;
    let (list, hits) = ALLOC.watching([offsets, DENSE], || RidList::for_column(&built));
    assert_eq!(list.len(), DENSE);
    assert_eq!(hits, [1, 1], "offsets and RIDs allocations");
    // Its domain is clustered: the pairs, 8 B a row, are the largest
    // request, and nothing but the offsets is the domain's size.
    let largest = assert_sort_scratch(&built, 8 * DENSE);
    assert_eq!(largest, 8 * DENSE, "the pairs are the largest request");
    // `engine-mix`'s `amount` shape, 10k IDs: one cluster, no scratch.
    let (narrow, _, _, _) = build(&column(DENSE, |x| (x % 10_000) as i64));
    assert_eq!(narrow.domain().len(), 10_000);
    assert_sort_scratch(&narrow, 4 * DENSE + 64);
    // `serve-small`'s shape: 64k keys over 2^32 can never rank, so the
    // first allocation is the sort's pairs vector.
    const SPARSE: usize = 1 << 16;
    let sparse = column(SPARSE, |x| i64::from(x as u32));
    let (_, first, _, _) = build(&sparse);
    assert_eq!(first, pair * SPARSE, "allocated before the sort path");
    // A row count whose IDs' size no doubling `Vec` of the sort passes
    // through (64k rows' IDs are as large as the key run's 32k slots).
    const ODD: usize = 3 << 14 | 1;
    let (_, _, _, ids) = build(&column(ODD, |x| i64::from(x as u32)));
    assert_eq!(ids, 1, "the sorted column's IDs were allocated {ids} times");
}
