//! End-to-end run of in-process sharded execution on four hash shards.
//! The `ccindex_shard` crate's doc example runs the same flow; this is an
//! ordinary test, not a copy to keep in step.

use ccindex::db::Value;
use ccindex::prelude::*;

fn demo() -> Result<(), MmdbError> {
    // 4 shards, hash-partitioned on the customer key.
    let mut db = ShardedDatabase::hash(4)?;
    db.register(
        TableBuilder::new("sales")
            .int_column("cust", [1, 2, 1, 3])
            .int_column("amount", [10, 40, 25, 99])
            .build()?,
        "cust", // shard key
    )?;
    db.create_index("sales", "cust", IndexKind::Hash)?;
    db.create_index("sales", "amount", IndexKind::FullCss)?;

    // Equality on the shard key routes to exactly one shard; the plan —
    // the same `Plan` a `Database` compiles — records it in `routing`.
    let plan = db.query("sales").filter(eq("cust", 1)).plan()?;
    assert_eq!(plan.routing.shards, 4);
    assert!(plan.explain().contains("(pruned)"));
    assert!(plan.is_shard_local()); // the whole plan runs on that shard
    assert_eq!(plan.execute(&db)?.rids(), &[0, 2]); // global row ids
    assert_eq!(plan.execute(&db.snapshot())?.rids(), &[0, 2]); // or a pinned one

    // Updates split by owning shard; the shard key re-partitions.
    db.replace_column(
        "sales",
        "amount",
        vec![11, 41, 26, 100].into_iter().map(Value::Int).collect(),
    )?;
    let hits = db.query("sales").filter(between("amount", 20, 50)).run()?;
    assert_eq!(hits.values("amount")?, vec![Value::Int(41), Value::Int(26)]);

    // Range partitioning prunes range probes too.
    let mut ranged = ShardedDatabase::new(RangePartitioner::int_spans(0, 99, 4)?)?;
    ranged.register(
        TableBuilder::new("sales")
            .int_column("cust", [1, 2, 55, 90])
            .build()?,
        "cust",
    )?;
    ranged.create_index("sales", "cust", IndexKind::FullCss)?;
    let plan = ranged
        .query("sales")
        .filter(between("cust", 0, 30))
        .plan()?;
    assert_eq!(plan.routing.selected, vec![0, 1]); // shards 2, 3 pruned
    Ok(())
}

#[test]
fn readme_sharding_example_runs() {
    demo().expect("the example must keep working");
}
