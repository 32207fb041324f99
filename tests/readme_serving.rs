//! End-to-end run of the batching server: concurrent clients whose
//! compatible probes coalesce into batched descents. The `ccindex_serve`
//! crate's doc example runs the same flow; this is an ordinary test, not
//! a copy to keep in step.

use ccindex::prelude::*;

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

    // 4 concurrent clients; compatible probes coalesce into one
    // batched descent per window, answers demux per client.
    let server = BatchServer::with_options(&db, ServeOptions::batch_max(16));
    let (answers, stats) = server.serve_concurrent(4, |i, client| {
        client.call(Request::point("sales", "cust", [1i64, 2, 3, 9][i]))
    });
    assert_eq!(answers[0], Ok(ResultRows::Rids(vec![0, 2])));
    assert_eq!(answers[3], Ok(ResultRows::Rids(vec![]))); // miss
    assert_eq!(stats.requests, 4);

    // Pipelining: many requests in flight per client deepen windows
    // beyond the client count; ranges and full plans ride along.
    let (answers, _) = server.serve_concurrent(2, |_, client| {
        let a = client.submit(Request::range("sales", "amount", 20, 50));
        let b = client.submit(Request::query(
            QuerySpec::table("sales").group_by("cust", sum("amount")),
        ));
        (a.wait(), b.wait())
    });
    let (ranged, grouped) = &answers[0];
    assert_eq!(*ranged, Ok(ResultRows::Rids(vec![1, 2])));
    match grouped {
        Ok(ResultRows::Groups(g)) => assert_eq!(g.len(), 3),
        other => panic!("expected groups, got {other:?}"),
    }
    Ok(())
}

#[test]
fn readme_serving_example_runs() {
    demo().expect("the example must keep working");
}
