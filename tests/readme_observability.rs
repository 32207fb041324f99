//! End-to-end run of the observability surface: timed explains and the
//! metrics registry. README.md's "Observability" block runs the same
//! flow as a doctest; this is an ordinary test, not a copy to keep in step.

use ccindex::prelude::*;
use std::sync::Arc;

fn demo() -> Result<(), MmdbError> {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("sales")
            .int_column("cust", [1, 2, 1, 3])
            .int_column("amount", [10, 40, 25, 99])
            .build()?,
    )?;
    db.create_index("sales", "cust", IndexKind::Hash)?;
    db.create_index("sales", "amount", IndexKind::FullCss)?;

    // Every executed plan stamps per-node timings; `explain_timed`
    // renders the same tree `explain` prints, annotated per node.
    let plan = db.query("sales").filter(between("amount", 20, 50)).plan()?;
    let rows = plan.execute(&db)?;
    assert_eq!(rows.rids(), &[1, 2]);
    let timed = plan.explain_timed(rows.timings());
    assert!(timed.contains(" .. ") && timed.contains("total: "));

    // The serving layer records into a shared Registry: window shapes,
    // per-request latency, queue-depth high-water, snapshot swaps.
    let registry = Arc::new(Registry::new());
    let server = BatchServer::with_metrics(&db, ServeOptions::batch_max(8), Arc::clone(&registry));
    let (answers, _) = server.serve_concurrent(2, |i, client| {
        client.call(Request::point("sales", "cust", [1i64, 3][i]))
    });
    assert_eq!(answers[0], Ok(ResultRows::Rids(vec![0, 2])));
    let latency = registry
        .find_histogram("serve.latency.ns")
        .expect("the server registers serve.latency.ns");
    assert_eq!(latency.count(), 2);
    assert!(registry
        .to_json()
        .contains("\"name\": \"serve.window.size\""));
    assert!(registry
        .to_prometheus()
        .contains("serve_latency_ns{quantile=\"0.99\"}"));

    // Cross-wire tracing: the client stamps its span id into the
    // request frame, the server answers with its own timing breakdown,
    // and the two graft into one latency tree — durations only, so no
    // clock synchronisation is needed.
    let mut shard_db = Database::new();
    shard_db.register(
        TableBuilder::new("sales")
            .int_column("amount", [10, 40, 25, 99])
            .build()?,
    )?;
    shard_db.create_index("sales", "amount", IndexKind::FullCss)?;
    let shard_server = ShardServer::spawn(shard_db)?;
    let shard = RemoteShard::connect(shard_server.addr())?;
    let mut span = Span::root("query");
    let spec = QuerySpec::table("sales").filter(eq("amount", 40));
    assert_eq!(
        shard.run_spec_traced(&spec, &mut span)?,
        ResultRows::Rids(vec![1])
    );
    let tree = span.finish();
    assert!(tree.find("decode").is_some() && tree.find("execute").is_some());
    println!("{}", tree.render());
    shard_server.shutdown();
    Ok(())
}

#[test]
fn readme_observability_example_runs() {
    demo().expect("the example must keep working");
}
