//! The batch-probe API, end to end: interleaved CSS lookups, the
//! runtime-tunable lane count, batched selections, and the
//! batched indexed nested-loop join. Every `mmdb` operator takes its lane
//! count and worker count explicitly; they run inline here (`threads = 1`)
//! and check themselves against their partitioned runs.
//!
//! ```sh
//! cargo run --release --example batched_probes
//! ```

use ccindex::db::domain::Value;
use ccindex::db::{
    indexed_nested_loop_join, point_select_many, range_select_many, RidList, TableBuilder,
};
use ccindex::prelude::*;
use std::time::Instant;

fn main() {
    // A sorted array big enough that probes miss the cache.
    let n = 4_000_000u32;
    let keys: Vec<u32> = (0..n).map(|i| i * 2).collect();
    let arr = SortedArray::from_slice(&keys);
    let probes: Vec<u32> = (0..100_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761)) % (2 * n))
        .collect();

    // One tree, probed three ways: per-probe, via the trait batch entry
    // point (DEFAULT_BATCH_LANES interleaved descents), and with an
    // explicit lane count.
    let css = DynCssTree::build(CssVariant::Full, 16, arr.clone());

    let t0 = Instant::now();
    let sequential: Vec<usize> = probes.iter().map(|&p| css.lower_bound(p)).collect();
    let t_seq = t0.elapsed();

    let t1 = Instant::now();
    let batched = css.lower_bound_batch(&probes);
    let t_bat = t1.elapsed();
    assert_eq!(batched, sequential);
    println!(
        "lower bounds over {} probes: sequential {:?}, batched ({} lanes) {:?}",
        probes.len(),
        t_seq,
        DEFAULT_BATCH_LANES,
        t_bat
    );

    // The lane count is a runtime tuning knob.
    for lanes in [1usize, 4, 8, 16, 32] {
        let t = Instant::now();
        let got = css.lower_bound_batch_lanes(&probes, lanes);
        assert_eq!(got, sequential);
        println!("  lanes = {lanes:>2}: {:?}", t.elapsed());
    }

    // Batched selections on the database substrate: one domain encoding
    // for many query constants, each ID then addressing its run of the
    // sorted RID list.
    let amounts: Vec<i64> = (0..50_000).map(|i| (i * 37) % 1_000).collect();
    let table = TableBuilder::new("orders")
        .int_column("amount", amounts)
        .build()
        .expect("one column");
    let col = table.column("amount").expect("column");
    let rids = RidList::for_column(col);

    let wanted: Vec<Value> = (0..200).map(|v| Value::Int(v * 5)).collect();
    let hits = point_select_many(col, &rids, &wanted, DEFAULT_BATCH_LANES, 1);
    assert_eq!(point_select_many(col, &rids, &wanted, 3, 2), hits);
    println!(
        "point_select_many: {} probe values, {} matching rows",
        wanted.len(),
        hits.iter().map(Vec::len).sum::<usize>()
    );

    let ranges: Vec<(Value, Value)> = (0..50)
        .map(|i| (Value::Int(i * 20), Value::Int(i * 20 + 9)))
        .collect();
    let banded = range_select_many(col, &rids, &ranges, DEFAULT_BATCH_LANES, 1);
    assert_eq!(range_select_many(col, &rids, &ranges, 3, 2), banded);
    println!(
        "range_select_many: {} ranges, {} matching rows",
        ranges.len(),
        banded.iter().map(Vec::len).sum::<usize>()
    );

    // The join translates the outer domain into inner IDs with one
    // batched dictionary search, then addresses each row's inner run.
    let outer = TableBuilder::new("outer")
        .int_column("k", (0..30_000).map(|i| i % 500))
        .build()
        .expect("one column");
    let inner = TableBuilder::new("inner")
        .int_column("k", (0..400i64).collect::<Vec<_>>())
        .build()
        .expect("one column");
    let icol = inner.column("k").expect("column");
    let irids = RidList::for_column(icol);
    let ocol = outer.column("k").expect("column");
    let every_row: Vec<u32> = (0..ocol.len() as u32).collect();
    let join =
        |lanes, threads| indexed_nested_loop_join(ocol, &every_row, icol, &irids, lanes, threads);
    let joined = join(DEFAULT_BATCH_LANES, 1);
    assert_eq!(join(3, 2), joined);
    println!(
        "batched indexed nested-loop join: {} result rows",
        joined.len()
    );
}
