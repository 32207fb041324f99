//! Distributed/in-process equivalence: the same scatter-gather
//! coordinator running over `RemoteShard` clients (each shard a
//! `ShardServer` behind loopback TCP) must answer **byte-identically**
//! to the in-process `ShardedDatabase` and to the unsharded `Database`
//! — the tentpole property of the transport-generic refactor. Both
//! partitioners, shard counts {1, 2, 4}, the full pipeline matrix,
//! decoded values, and update-then-query including a shard-key
//! repartition all cross the wire here. A killed shard surfaces as a
//! typed `MmdbError::Transport` — never a panic or a hang.

use ccindex::db::{MmdbError, ResultRows, Value};
use ccindex::prelude::*;
use ccindex::shard::RemoteShard;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const KEY_SPACE: i64 = 120; // 'cust' values fall in 0..KEY_SPACE

fn orders(rows: usize) -> Table {
    TableBuilder::new("orders")
        .int_column("cust", (0..rows).map(|i| (i as i64 * 131) % KEY_SPACE))
        .int_column("amount", (0..rows).map(|i| (i as i64 * 17) % 1_000))
        .str_column(
            "day",
            (0..rows).map(|i| ["mon", "tue", "wed", "thu"][i % 4]),
        )
        .build()
        .expect("equal columns")
}

fn customers() -> Table {
    TableBuilder::new("customers")
        .int_column("id", 0..KEY_SPACE)
        .str_column(
            "region",
            (0..KEY_SPACE as usize).map(|i| ["e", "w", "n", "s"][i % 4]),
        )
        .build()
        .expect("equal columns")
}

fn index_all(create: &mut dyn FnMut(&str, &str, IndexKind)) {
    create("orders", "cust", IndexKind::Hash);
    create("orders", "cust", IndexKind::FullCss);
    create("orders", "amount", IndexKind::FullCss);
    create("orders", "amount", IndexKind::BPlusTree);
    create("orders", "day", IndexKind::Hash);
    create("customers", "id", IndexKind::LevelCss);
    create("customers", "id", IndexKind::FullCss);
    create("customers", "id", IndexKind::Hash);
}

fn unsharded(rows: usize) -> Database {
    let mut db = Database::new();
    db.register(orders(rows)).unwrap();
    db.register(customers()).unwrap();
    index_all(&mut |t, c, k| db.create_index(t, c, k).unwrap());
    db
}

fn local_sharded<P: Partitioner + 'static>(rows: usize, p: P) -> ShardedDatabase {
    let mut db = ShardedDatabase::new(p).unwrap();
    db.register(orders(rows), "cust").unwrap();
    db.register(customers(), "id").unwrap();
    index_all(&mut |t, c, k| db.create_index(t, c, k).unwrap());
    db
}

/// Spin up one `ShardServer` per shard (each fronting an empty catalog)
/// and build a coordinator over their addresses. Registration, index
/// builds, updates — everything flows through the wire.
fn distributed<P: Partitioner + 'static>(rows: usize, p: P) -> (ShardedDatabase, Vec<ShardServer>) {
    let servers: Vec<ShardServer> = (0..p.shards())
        .map(|_| ShardServer::spawn(Database::new()).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
    let mut db = ShardedDatabase::connect(p, &addrs).unwrap();
    db.register(orders(rows), "cust").unwrap();
    db.register(customers(), "id").unwrap();
    index_all(&mut |t, c, k| db.create_index(t, c, k).unwrap());
    (db, servers)
}

/// Every pipeline shape of the acceptance criteria, as (label, rows).
fn pipeline_battery(run: &dyn Fn(&str) -> ResultRows) -> Vec<(String, ResultRows)> {
    [
        "all",
        "point_key",
        "point_key_missing",
        "point_nonkey",
        "range_key",
        "range_nonkey",
        "conjunction",
        "join_plain",
        "join_filtered",
        "group_only",
        "group_filtered",
        "join_group_inner",
        "join_group_outer",
        "forced_css_range",
        "forced_hash_point",
    ]
    .iter()
    .map(|&name| (name.to_owned(), run(name)))
    .collect()
}

/// Both query builders expose the same combinator surface, so one macro
/// drives the identical pipeline through either catalog.
macro_rules! run_pipeline {
    ($query:expr, $what:expr) => {{
        let q = $query;
        let q = match $what {
            "all" => q,
            "point_key" => q.filter(eq("cust", 42)),
            "point_key_missing" => q.filter(eq("cust", 100_000)),
            "point_nonkey" => q.filter(eq("day", "tue")),
            "range_key" => q.filter(between("cust", 30, 110)),
            "range_nonkey" => q.filter(between("amount", 200, 700)),
            "conjunction" => q.filter(between("amount", 100, 900)).filter(eq("cust", 7)),
            "join_plain" => q.join("customers", on("cust", "id")),
            "join_filtered" => q
                .filter(between("amount", 150, 850))
                .join("customers", on("cust", "id")),
            "group_only" => q.group_by("day", count()),
            "group_filtered" => q
                .filter(between("amount", 100, 800))
                .group_by("day", sum("amount")),
            "join_group_inner" => q
                .filter(between("amount", 50, 950))
                .join("customers", on("cust", "id"))
                .group_by("region", sum("amount")),
            "join_group_outer" => q
                .join("customers", on("cust", "id"))
                .group_by("day", max("amount")),
            "forced_css_range" => q
                .filter(between("amount", 333, 666))
                .using(IndexKind::FullCss),
            "forced_hash_point" => q.filter(eq("day", "mon")).using(IndexKind::Hash),
            other => panic!("unknown pipeline {other}"),
        };
        q.run().expect("planned").rows().clone()
    }};
}

fn run_unsharded(db: &Database, what: &str) -> ResultRows {
    run_pipeline!(db.query("orders"), what)
}

fn run_sharded(db: &ShardedDatabase, what: &str) -> ResultRows {
    run_pipeline!(db.query("orders"), what)
}

#[test]
fn every_pipeline_matches_over_tcp_across_shard_counts_and_partitioners() {
    let rows = 600;
    let un = unsharded(rows);
    let reference = pipeline_battery(&|w| run_unsharded(&un, w));
    for shards in SHARD_COUNTS {
        for (label, partitioned) in [
            (
                "hash",
                distributed(rows, HashPartitioner::new(shards).unwrap()),
            ),
            (
                "range",
                distributed(
                    rows,
                    RangePartitioner::int_spans(0, KEY_SPACE - 1, shards).unwrap(),
                ),
            ),
        ] {
            let (db, servers) = partitioned;
            // Byte-identical to the unsharded engine ...
            let got = pipeline_battery(&|w| run_sharded(&db, w));
            for ((name, expect), (_, actual)) in reference.iter().zip(&got) {
                assert_eq!(
                    actual, expect,
                    "{label} x{shards} over TCP: pipeline `{name}` diverged"
                );
            }
            // ... and to the in-process sharded coordinator, same layout.
            let local = match label {
                "hash" => local_sharded(rows, HashPartitioner::new(shards).unwrap()),
                _ => local_sharded(
                    rows,
                    RangePartitioner::int_spans(0, KEY_SPACE - 1, shards).unwrap(),
                ),
            };
            let in_process = pipeline_battery(&|w| run_sharded(&local, w));
            assert_eq!(
                got, in_process,
                "{label} x{shards}: transport changed bytes"
            );
            for server in servers {
                server.shutdown();
            }
        }
    }
}

#[test]
fn decoded_values_match_through_remote_shards() {
    let rows = 400;
    let un = unsharded(rows);
    let (db, servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    let s = db
        .query("orders")
        .filter(between("amount", 100, 500))
        .run()
        .unwrap();
    let u = un
        .query("orders")
        .filter(between("amount", 100, 500))
        .run()
        .unwrap();
    assert_eq!(s.values("day").unwrap(), u.values("day").unwrap());
    let s = db
        .query("orders")
        .filter(eq("day", "wed"))
        .join("customers", on("cust", "id"))
        .run()
        .unwrap();
    let u = un
        .query("orders")
        .filter(eq("day", "wed"))
        .join("customers", on("cust", "id"))
        .run()
        .unwrap();
    assert_eq!(s.values("region").unwrap(), u.values("region").unwrap());
    assert_eq!(s.values("amount").unwrap(), u.values("amount").unwrap());
    // Typed errors cross the wire unchanged.
    assert_eq!(
        db.query("nope").run().unwrap_err(),
        MmdbError::UnknownTable {
            table: "nope".into()
        }
    );
    assert!(matches!(
        s.values("nocol").unwrap_err(),
        MmdbError::UnknownColumn { .. }
    ));
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn update_then_query_matches_over_tcp_including_repartition() {
    let rows = 500;
    for shards in SHARD_COUNTS {
        let mut un = unsharded(rows);
        let (mut db, servers) = distributed(rows, HashPartitioner::new(shards).unwrap());
        // Non-key column: the update splits across remote shards.
        let amounts: Vec<Value> = (0..rows)
            .map(|i| Value::Int((i as i64 * 37) % 444))
            .collect();
        un.replace_column("orders", "amount", amounts.clone())
            .unwrap();
        let report = db.replace_column("orders", "amount", amounts).unwrap();
        assert!(!report.repartitioned);
        // Shard-key column: rows migrate between remote shards — the
        // coordinator drains each server's rows and re-registers the
        // new placement, all over the wire.
        let keys: Vec<Value> = (0..rows)
            .map(|i| Value::Int((i as i64 * 53 + 11) % KEY_SPACE))
            .collect();
        un.replace_column("orders", "cust", keys.clone()).unwrap();
        let report = db.replace_column("orders", "cust", keys).unwrap();
        assert!(report.repartitioned);
        let reference = pipeline_battery(&|w| run_unsharded(&un, w));
        let got = pipeline_battery(&|w| run_sharded(&db, w));
        for ((name, expect), (_, actual)) in reference.iter().zip(&got) {
            assert_eq!(
                actual, expect,
                "x{shards} over TCP after updates: `{name}` diverged"
            );
        }
        for server in servers {
            server.shutdown();
        }
    }
}

#[test]
fn killed_shard_surfaces_a_typed_transport_error() {
    let rows = 300;
    let (db, mut servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    // Healthy first: the fanned pipeline answers.
    let want = db
        .query("orders")
        .filter(between("amount", 100, 500))
        .run()
        .unwrap()
        .rows()
        .clone();
    assert!(!matches!(want, ResultRows::Rids(ref r) if r.is_empty()));
    // Kill shard 1 mid-session. The next fanned query must fail with a
    // typed transport error — no panic, no hang (the remote client's
    // bounded reconnect gives up after its backoff schedule).
    servers.remove(1).kill();
    let err = db
        .query("orders")
        .filter(between("amount", 100, 500))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, MmdbError::Transport { .. }),
        "expected a typed transport error, got {err:?}"
    );
    // The error is descriptive: it names the dead endpoint.
    let text = err.to_string();
    assert!(text.contains("127.0.0.1"), "{text}");
    // Mutations hit the same typed wall instead of corrupting state.
    let mut db = db;
    let err = db
        .replace_column(
            "orders",
            "amount",
            (0..rows).map(|i| Value::Int(i as i64)).collect(),
        )
        .unwrap_err();
    assert!(
        matches!(err, MmdbError::Transport { .. }),
        "expected a typed transport error, got {err:?}"
    );
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn wire_shutdown_stops_a_server_and_later_connects_fail_typed() {
    let server = ShardServer::spawn(Database::new()).unwrap();
    let addr = server.addr();
    let shard = RemoteShard::connect(addr.as_str()).unwrap();
    shard.shutdown().unwrap();
    // The wire shutdown already stopped the accept loop; joining the
    // server returns promptly and closes the listener for good.
    server.shutdown();
    // A fresh client cannot connect and fails with the typed connect
    // fault after bounded retries — never a hang.
    let err = RemoteShard::connect(addr.as_str()).unwrap_err();
    assert!(
        matches!(err, MmdbError::Transport { .. }),
        "expected a typed transport error, got {err:?}"
    );
}

#[test]
fn one_query_spec_answers_identically_on_every_surface() {
    // One owned `QuerySpec` value — never rebuilt, converted or
    // re-described — run through every place a query can enter.
    let rows = 400;
    let spec = QuerySpec::table("orders")
        .filter(between("amount", 100, 900))
        .filter(between("cust", 5, 110))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .using(IndexKind::FullCss)
        .exec(ExecOptions::threads(2));

    let db = unsharded(rows);
    let want = db.catalog().run_spec(&spec).unwrap();
    assert!(matches!(&want, ResultRows::Groups(g) if g.len() == 4));

    assert_eq!(
        db.snapshot().run_spec(&spec).unwrap(),
        want,
        "pinned Snapshot"
    );

    let local = local_sharded(rows, HashPartitioner::new(2).unwrap());
    assert_eq!(
        local.catalog().run_spec(&spec).unwrap(),
        want,
        "2 local shards"
    );
    assert_eq!(
        local.snapshot().run_spec(&spec).unwrap(),
        want,
        "pinned ShardedSnapshot"
    );

    let served = BatchServer::with_options(&db, ServeOptions::default())
        .run_batch(&[Request::Query(spec.clone())]);
    assert_eq!(served, [Ok(want.clone())], "BatchServer via Request::Query");

    let server = ShardServer::spawn(unsharded(rows)).unwrap();
    let remote = RemoteShard::connect(server.addr()).unwrap();
    assert_eq!(
        remote.run_spec(&spec).unwrap(),
        want,
        "RemoteShard::run_spec"
    );
    assert_eq!(
        remote
            .execute_batch(vec![Request::Query(spec.clone())])
            .unwrap(),
        [Ok(want)],
        "remote BatchServer window"
    );
    server.shutdown();
}
