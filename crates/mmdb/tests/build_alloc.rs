//! What `Column::from_values` and `RidList::for_column` allocate. A dense
//! integer column is ranked without a sort, so no `(value, rid)` pairs
//! vector exists; a sparse one is rejected before anything is allocated
//! and goes straight to the sort. Each final shared array (a column's
//! IDs, a RID list's offsets and RIDs) is allocated once, in its final
//! block, never built in a `Vec` and copied. A RID list's build keeps no
//! array the size of its domain besides its offsets, and no scratch
//! larger than one 8-byte pair a row. An integer column is encoded from
//! 8-byte integers: `int_column` never makes a 24-byte `Value` a row, and
//! `from_values` moves each `Int` out into the rows' own buffer and frees
//! it before it returns; a string column pays nothing for that. Opening an
//! image decodes each column's IDs straight into their shared block. A
//! counting global allocator records how many requests a step made, the
//! first and the largest, the largest block freed, and how many requests
//! were the size of a watched array.

use check::counting::Counting;
use mmdb::{Column, Database, RidList, TableBuilder, Value};

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// The requests a 100,000-row string column over 1,000 values makes,
/// counted on the build from borrowed rows that the typed ingest
/// replaced: a string column's build is unchanged.
const STR_REQUESTS: usize = 1_013;

/// Build a column over `values`; the column, the first and the largest
/// single allocation the build made, and how many requests were the
/// size of its ID array.
fn build(values: Vec<Value>) -> (Column, usize, usize, usize) {
    let rows = values.len();
    ALLOC.reset();
    let (column, [ids, _]) = ALLOC.watching([rows, 0], || Column::from_values(values));
    let (first, largest) = (ALLOC.first(), ALLOC.largest());
    assert_eq!(column.len(), rows);
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

/// `rows` integers from a xorshift stream, each reduced by `shape`.
fn ints(rows: usize, shape: impl Fn(u64) -> i64) -> Vec<i64> {
    let mut x = 0x5eed_u64;
    (0..rows)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shape(x)
        })
        .collect()
}

/// [`ints`] as `Value`s.
fn column(rows: usize, shape: impl Fn(u64) -> i64) -> Vec<Value> {
    ints(rows, shape).into_iter().map(Value::Int).collect()
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
    let (built, _, largest, ids) = build(dense);
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
    let (narrow, _, _, _) = build(column(DENSE, |x| (x % 10_000) as i64));
    assert_eq!(narrow.domain().len(), 10_000);
    assert_sort_scratch(&narrow, 4 * DENSE + 64);
    // `serve-small`'s shape: 64k keys over 2^32 can never rank, so the
    // first allocation is the sort's pairs vector.
    const SPARSE: usize = 1 << 16;
    let sparse = column(SPARSE, |x| i64::from(x as u32));
    let (_, first, _, _) = build(sparse);
    assert_eq!(first, pair * SPARSE, "allocated before the sort path");
    // A row count whose IDs' size no doubling `Vec` of the sort passes
    // through (64k rows' IDs are as large as the key run's 32k slots).
    const ODD: usize = 3 << 14 | 1;
    let (_, _, _, ids) = build(column(ODD, |x| i64::from(x as u32)));
    assert_eq!(ids, 1, "the sorted column's IDs were allocated {ids} times");
    typed_ingest_reads_each_row_once();
}

/// The typed ingest's pins, in the one test for the same reason.
fn typed_ingest_reads_each_row_once() {
    const ROWS: usize = 1 << 20;
    let shape = |x: u64| (x % (2 * ROWS as u64)) as i64;
    // `int_column` encodes from the `i64`s: 8 B a row at most, never a
    // 24-byte `Value` a row.
    let keys = ints(ROWS, shape);
    ALLOC.reset();
    let table = TableBuilder::new("t")
        .int_column("k", keys.iter().copied())
        .build();
    assert_eq!(table.expect("one column").rows(), ROWS);
    let largest = ALLOC.largest();
    assert!(
        largest <= 8 * ROWS,
        "int_column made a {largest}-byte request"
    );
    // `from_values` over owned `Int`s converts them in the rows' own
    // buffer: no new request of 24 B a row, and that buffer is freed
    // before the encode returns.
    let rows = column(ROWS, shape);
    ALLOC.reset();
    let built = Column::from_values(rows);
    let (largest, freed) = (ALLOC.largest(), ALLOC.largest_freed());
    assert_eq!(built.len(), ROWS);
    assert!(
        largest < 24 * ROWS,
        "from_values made a {largest}-byte request"
    );
    assert!(freed >= 24 * ROWS, "the rows' buffer outlived the encode");
    // Opening an image requests the column's ID array once: the ID
    // page's bytes (its count and 4 B a row) are the only other request
    // that size. Decoding into a `Vec` and copying it into the shared
    // block would make a third.
    let mut db = Database::new();
    let ids = TableBuilder::new("t").int_column("k", ints(ROWS, |x| (x % 1_000) as i64));
    db.register(ids.build().expect("one column"))
        .expect("a fresh table");
    let image = db.save_to_bytes();
    let (opened, [hits, _]) =
        ALLOC.watching([ROWS, 0], || Database::open_from_bytes(image, "image"));
    assert_eq!(
        opened
            .expect("a valid image")
            .snapshot()
            .table("t")
            .map(|t| t.rows()),
        Ok(ROWS)
    );
    assert_eq!(hits, 2, "the ID page and the ID array, each once");
    // A string column never pays for the conversion: `n` rows over `k`
    // distinct values make exactly the requests the generic sort made
    // before it (the pairs, the key run's growth, the IDs, each distinct
    // value's clone, the run and its shared block).
    let text: Vec<Value> = ints(100_000, |x| (x % 1_000) as i64)
        .into_iter()
        .map(|v| Value::Str(format!("s{v:04}")))
        .collect();
    ALLOC.reset();
    let strings = Column::from_values(text);
    assert_eq!(strings.domain().len(), 1_000);
    assert_eq!(
        ALLOC.requests(),
        STR_REQUESTS,
        "requests building a string column"
    );
}
