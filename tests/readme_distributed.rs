//! End-to-end run of a coordinator over two `ShardServer`s on the wire
//! protocol. README.md's "Distributed shards" block runs the same flow
//! as a doctest; this is an ordinary test, not a copy to keep in step.

use ccindex::db::Value;
use ccindex::prelude::*;

fn demo() -> Result<(), MmdbError> {
    // One ShardServer per shard, each fronting its own catalog.
    let servers: Vec<ShardServer> = (0..2)
        .map(|_| ShardServer::spawn(Database::new()))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();

    // The coordinator speaks the wire protocol; the surface is the
    // one Query/ResultSet every catalog answers with.
    let mut db = ShardedDatabase::connect(HashPartitioner::new(2)?, &addrs)?;
    db.register(
        TableBuilder::new("sales")
            .int_column("cust", [1, 2, 1, 3])
            .int_column("amount", [10, 40, 25, 99])
            .build()?,
        "cust", // shard key
    )?;
    db.create_index("sales", "cust", IndexKind::Hash)?;
    db.create_index("sales", "amount", IndexKind::FullCss)?;

    // Scatter-gather over TCP: the same `Plan`, the same routing, the
    // same global row ids — and a shard-local plan is one request to
    // each routed shard.
    let plan = db.query("sales").filter(eq("cust", 1)).plan()?;
    assert!(plan.is_shard_local() && plan.routing.selected.len() == 1);
    assert!(plan.explain().contains("(pruned)"));
    assert!(plan.explain().contains("one request per shard"));
    assert_eq!(plan.execute(&db)?.rids(), &[0, 2]);

    // Updates travel the wire too, splitting by owning shard.
    db.replace_column(
        "sales",
        "amount",
        vec![11, 41, 26, 100].into_iter().map(Value::Int).collect(),
    )?;
    let hits = db.query("sales").filter(between("amount", 20, 50)).run()?;
    assert_eq!(hits.values("amount")?, vec![Value::Int(41), Value::Int(26)]);

    // A downed shard is a typed transport error, never a hang.
    for server in servers {
        server.shutdown();
    }
    match db.query("sales").filter(eq("cust", 1)).run() {
        Err(MmdbError::Transport { .. }) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
    Ok(())
}

#[test]
fn readme_distributed_example_runs() {
    demo().expect("the example must keep working");
}
