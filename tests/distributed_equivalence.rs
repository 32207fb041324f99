//! Distributed/in-process equivalence: the same scatter-gather
//! coordinator running over `RemoteShard` clients (each shard a
//! `ShardServer` behind loopback TCP) must answer **byte-identically**
//! to the in-process `ShardedDatabase` and to the unsharded `Database`
//! — the tentpole property of the transport-generic refactor. Both
//! partitioners, shard counts {1, 2, 4}, sequential execution at the
//! default lanes and 8 workers at 3 lanes, the full pipeline matrix, decoded values, and
//! update-then-query including a shard-key repartition all cross the
//! wire here. A killed shard surfaces as a
//! typed `MmdbError::Transport` — never a panic or a hang — and a
//! client's thread or lane count cannot take a server down.

use ccindex::db::{MmdbError, Query, ResultRows, Value};
use ccindex::prelude::*;
use ccindex::shard::{RemoteShard, ShardBackend};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// `(threads, lanes)` the coordinator and its shards run with:
/// sequential at the default lanes, and a pool the exchange splits
/// between the routed shards at 3 lanes, which leave ragged rounds and
/// lookahead tails in the streamed join's `JoinProbeBatch` probes.
const EXECS: [(usize, usize); 2] = [(1, 8), (8, 3)];

/// `(threads, lanes)` as catalog options.
fn exec_at((threads, lanes): (usize, usize)) -> ExecOptions {
    ExecOptions {
        threads,
        lanes,
        ..ExecOptions::default()
    }
}
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

/// Every catalog answers `query` with the one [`Query`] builder, so one
/// function drives the identical pipeline through any of them.
fn run_pipeline<C: CatalogRead>(q: Query<'_, C>, what: &str) -> ResultRows {
    let q = match what {
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
}

fn run_unsharded(db: &Database, what: &str) -> ResultRows {
    run_pipeline(db.query("orders"), what)
}

fn run_sharded(db: &ShardedDatabase, what: &str) -> ResultRows {
    run_pipeline(db.query("orders"), what)
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
            let (mut db, servers) = partitioned;
            let mut local = match label {
                "hash" => local_sharded(rows, HashPartitioner::new(shards).unwrap()),
                _ => local_sharded(
                    rows,
                    RangePartitioner::int_spans(0, KEY_SPACE - 1, shards).unwrap(),
                ),
            };
            for (threads, lanes) in EXECS {
                db.set_exec_options(exec_at((threads, lanes))).unwrap();
                local.set_exec_options(exec_at((threads, lanes))).unwrap();
                // Byte-identical to the unsharded engine ...
                let got = pipeline_battery(&|w| run_sharded(&db, w));
                for ((name, expect), (_, actual)) in reference.iter().zip(&got) {
                    assert_eq!(
                        actual, expect,
                        "{label} x{shards}, {threads} thread(s) x {lanes} lanes, over TCP: pipeline `{name}` diverged"
                    );
                }
                // ... and to the in-process sharded coordinator, same layout.
                let in_process = pipeline_battery(&|w| run_sharded(&local, w));
                assert_eq!(
                    got, in_process,
                    "{label} x{shards}, {threads} thread(s) x {lanes} lanes: transport changed bytes"
                );
            }
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
    // Outer-only, inner-only and on neither side, over loopback and
    // local shards alike: the outer table binds first, and a column on
    // neither side is the unsharded error, naming the outer table.
    let local = local_sharded(rows, HashPartitioner::new(2).unwrap());
    let l = local
        .query("orders")
        .filter(eq("day", "wed"))
        .join("customers", on("cust", "id"))
        .run()
        .unwrap();
    for column in ["amount", "region", "nocol"] {
        assert_eq!(s.values(column), u.values(column), "loopback: {column}");
        assert_eq!(l.values(column), u.values(column), "local: {column}");
    }
    assert_eq!(
        u.values("nocol").unwrap_err(),
        MmdbError::UnknownColumn {
            table: "orders".into(),
            column: "nocol".into()
        }
    );
    // Typed errors cross the wire unchanged.
    assert_eq!(
        db.query("nope").run().unwrap_err(),
        MmdbError::UnknownTable {
            table: "nope".into()
        }
    );
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
    servers.remove(1).shutdown();
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

/// Tag 19 was the `Shutdown` request, retired in v5: no peer can stop a
/// server, only its owner. A payload that still carries it is answered
/// with a typed decode error and the connection serves on; after
/// `ShardServer::shutdown`, a connect fails typed.
#[test]
fn wire_shutdown_stops_a_server_and_later_connects_fail_typed() {
    use ccindex::wire::{read_response, write_frame, write_request, ShardRequest, ShardResponse};
    let server = ShardServer::spawn(Database::new()).unwrap();
    let addr = server.addr();
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    for _ in 0..2 {
        write_frame(&mut stream, "test", &[], &[19]).unwrap();
        match read_response(&mut stream, "test").unwrap().0 {
            ShardResponse::Err(MmdbError::Transport {
                fault: ccindex::db::TransportFault::Decode,
                detail,
                ..
            }) => assert!(detail.contains("bad ShardRequest tag 19"), "{detail}"),
            other => panic!("expected a typed decode error, got {other:?}"),
        }
        write_request(&mut stream, "test", &ShardRequest::Hello, 0).unwrap();
        let (hello, _) = read_response(&mut stream, "test").unwrap();
        assert_eq!(hello, ShardResponse::Info { generation: 0 });
    }
    assert!(RemoteShard::connect(addr.as_str()).is_ok(), "still serving");
    drop(stream);
    // Only the owner stops the server: the listener closes for good.
    server.shutdown();
    // A fresh client cannot connect and fails with the typed connect
    // fault after bounded retries — never a hang.
    let err = RemoteShard::connect(addr.as_str()).unwrap_err();
    assert!(
        matches!(err, MmdbError::Transport { .. }),
        "expected a typed transport error, got {err:?}"
    );
}

/// A table's `(column, values)`, in order, as a peer writes them.
type RawColumns<'a> = Vec<(&'a str, Vec<Value>)>;

/// A `Mutate` payload of `Register`s, each a table name and its raw
/// columns, written field by field: a peer can send what no local
/// `Table` can hold.
fn register_batch(tables: &[(&str, RawColumns<'_>)]) -> Vec<u8> {
    use ccindex::store::bytes::ByteWriter;
    let mut w = ByteWriter::new();
    w.u8(12);
    w.u32(tables.len() as u32);
    for (table, columns) in tables {
        w.u8(0);
        w.str(table);
        w.seq(columns, |w, (column, values)| {
            w.str(column);
            w.seq(values, ccindex::db::put_value);
        });
    }
    w.into_bytes()
}

#[test]
fn a_register_frame_with_a_duplicate_column_is_refused_typed() {
    use ccindex::wire::{read_response, write_frame, write_request, ShardRequest, ShardResponse};
    let server = ShardServer::spawn(Database::new()).unwrap();
    let column = |name, values: &[i64]| (name, values.iter().copied().map(Value::Int).collect());
    // Each batch registers a good table `u` first, then `t` with two
    // columns `a`, or with a column shorter than the first.
    let good = ("u", vec![column("k", &[1, 2])]);
    let cases = [
        (
            vec![column("a", &[1, 2, 3]), column("a", &[7, 8, 9])],
            MmdbError::DuplicateColumn {
                table: "t".into(),
                column: "a".into(),
            },
        ),
        (
            vec![column("a", &[1, 2, 3]), column("b", &[7, 8])],
            MmdbError::RaggedColumn {
                table: "t".into(),
                column: "b".into(),
                expected: 3,
                got: 2,
            },
        ),
    ];
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    for (columns, error) in cases {
        let batch = register_batch(&[good.clone(), ("t", columns)]);
        write_frame(&mut stream, "test", &[], &batch).unwrap();
        let (reply, _) = read_response(&mut stream, "test").unwrap();
        assert_eq!(reply, ShardResponse::Err(error));
        // Nothing of the batch was committed, and the connection still
        // serves.
        write_request(&mut stream, "test", &ShardRequest::Hello, 0).unwrap();
        let (hello, _) = read_response(&mut stream, "test").unwrap();
        assert_eq!(hello, ShardResponse::Info { generation: 0 });
    }
    server.shutdown();
}

/// A batch of catalog edits is one commit on a remote shard, as on a
/// local one: two column replacements advance the generation by one,
/// and a batch whose second index names an unknown column is the typed
/// error with nothing of it applied.
#[test]
fn a_remote_batch_commits_as_one_generation_or_not_at_all() {
    use ccindex::db::Mutation;
    use ccindex::shard::LocalShard;
    let server = ShardServer::spawn(Database::new()).unwrap();
    let mut remote = RemoteShard::connect(server.addr()).unwrap();
    let mut local = LocalShard::new(Database::new());
    let ints = |values: [i64; 3]| values.map(Value::Int).to_vec();
    let replace =
        |column: &str, values| Mutation::ReplaceColumn("t".into(), column.into(), ints(values));
    let index = |column: &str| Mutation::CreateIndex("t".into(), column.into(), IndexKind::FullCss);
    let shards: [&mut dyn ShardBackend; 2] = [&mut remote, &mut local];
    let mut outcomes = Vec::new();
    for shard in shards {
        let generation = |shard: &dyn ShardBackend| shard.reader().generation().unwrap();
        let table = TableBuilder::new("t")
            .int_column("a", [3, 1, 2])
            .int_column("b", [9, 8, 7])
            .build()
            .unwrap();
        shard.apply(vec![Mutation::Register(table)]).unwrap();
        let registered = generation(shard);

        let reports = shard
            .apply(vec![replace("a", [1, 2, 3]), replace("b", [4, 5, 6])])
            .unwrap();
        assert_eq!(reports.len(), 2, "{}", shard.reader().describe());
        assert_eq!(
            generation(shard),
            registered + 1,
            "{}",
            shard.reader().describe()
        );

        let err = shard.apply(vec![index("a"), index("nocol")]).unwrap_err();
        assert_eq!(
            generation(shard),
            registered + 1,
            "{}",
            shard.reader().describe()
        );
        let unindexed = shard.reader().point_probe_batch("t", "a", &ints([1, 2, 3]));
        let values = shard.reader().column_values("t", "b", None).unwrap();
        outcomes.push((err, unindexed, values));
    }
    let unknown = MmdbError::UnknownColumn {
        table: "t".into(),
        column: "nocol".into(),
    };
    let no_index = MmdbError::NoIndex {
        table: "t".into(),
        column: "a".into(),
    };
    let want = (unknown, Err(no_index), ints([4, 5, 6]));
    assert_eq!(outcomes, [want.clone(), want]);
    server.shutdown();
}

/// Two clients fetch snapshots from one server while a commit lands
/// between their chunk 0s: client A's chunk 0, a `ReplaceColumn`
/// commit, client B's chunk 0, then A's remaining chunks, then B's. A
/// transfer is its own connection's chunk sequence, so A's image is the
/// generation before the commit and B's the one after — neither is a
/// splice of two generations.
#[test]
fn interleaved_snapshot_transfers_each_stream_one_generation() {
    use ccindex::wire::{read_response, write_request, ShardRequest, ShardResponse};
    use std::net::TcpStream;
    // Distinct values spread over 2^32 (the multiplier is odd), so the
    // domain is stored value by value and the image spans chunks.
    let rows = 400_000i64;
    let spread = |i: i64| (i * 2_654_435_761) % (1 << 32);
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .int_column("v", (0..rows).map(spread))
            .build()
            .expect("one column"),
    )
    .unwrap();
    db.create_index("t", "v", IndexKind::FullCss).unwrap();
    assert!(
        ccindex::db::catalog_to_bytes(&db.snapshot()).len() > ccindex::wire::SNAPSHOT_CHUNK,
        "the image must span at least two chunks"
    );
    let spec = QuerySpec::table("t").filter(eq("v", spread(7)));
    let before = db.run_spec(&spec).unwrap();
    let server = ShardServer::spawn(db).unwrap();

    let call = |stream: &mut TcpStream, request: &ShardRequest| {
        write_request(stream, "test", request, 0).unwrap();
        read_response(stream, "test").unwrap().0
    };
    // One chunk of a transfer: appended to `image`; the chunk count.
    let fetch = |stream: &mut TcpStream, chunk: u32, image: &mut Vec<u8>| match call(
        stream,
        &ShardRequest::FetchSnapshot { chunk },
    ) {
        ShardResponse::SnapshotChunk {
            chunk: echoed,
            total_chunks,
            bytes,
            ..
        } => {
            assert_eq!(echoed, chunk);
            image.extend_from_slice(&bytes);
            total_chunks
        }
        other => panic!("chunk {chunk}: {other:?}"),
    };
    let mut a = TcpStream::connect(server.addr()).unwrap();
    let mut b = TcpStream::connect(server.addr()).unwrap();
    let mut writer = TcpStream::connect(server.addr()).unwrap();
    let (mut image_a, mut image_b) = (Vec::new(), Vec::new());

    let chunks_a = fetch(&mut a, 0, &mut image_a);
    assert!(chunks_a >= 2, "{chunks_a} chunk(s)");
    let replace = ShardRequest::Mutate(vec![ccindex::db::Mutation::ReplaceColumn(
        "t".into(),
        "v".into(),
        (0..rows).map(|i| Value::Int(spread(i) + 1)).collect(),
    )]);
    assert!(matches!(
        call(&mut writer, &replace),
        ShardResponse::Applied { .. }
    ));
    let chunks_b = fetch(&mut b, 0, &mut image_b);
    for chunk in 1..chunks_a {
        fetch(&mut a, chunk, &mut image_a);
    }
    for chunk in 1..chunks_b {
        fetch(&mut b, chunk, &mut image_b);
    }

    let opened = |image: Vec<u8>, label: &str| {
        Database::open_from_bytes(image, label)
            .unwrap_or_else(|e| panic!("{label}'s image does not open: {e}"))
            .run_spec(&spec)
            .unwrap()
    };
    assert_eq!(
        opened(image_a, "A"),
        before,
        "A streams the older generation"
    );
    let after = opened(image_b, "B");
    assert_ne!(after, before, "B streams the committed generation");
    assert_eq!(
        after,
        RemoteShard::connect(server.addr())
            .unwrap()
            .run_spec(&spec)
            .unwrap()
    );
    server.shutdown();
}

/// A selection, a join or a join+group over `orders`, on any catalog's
/// one [`Query`] builder.
fn shaped<'c, C: CatalogRead>(q: Query<'c, C>, shape: &str) -> Query<'c, C> {
    let q = q.filter(between("amount", 100, 900));
    match shape {
        "selection" => q.filter(between("cust", 5, 110)),
        "join" => q.join("customers", on("cust", "id")),
        "join_group" => q
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount")),
        other => panic!("unknown shape {other}"),
    }
}

/// Everything a [`ResultSet`](ccindex::db::ResultSet) says about itself:
/// rows, length, emptiness, and `values` — or the error — of an outer,
/// an inner and a missing column.
type Surface = (ResultRows, usize, bool, Vec<Result<Vec<Value>, MmdbError>>);

fn surface<C: CatalogRead>(q: Query<'_, C>) -> Surface {
    let r = q.run().expect("planned");
    let values = ["day", "region", "nocol"]
        .iter()
        .map(|&c| r.values(c))
        .collect();
    (r.rows().clone(), r.len(), r.is_empty(), values)
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
    let want = db.run_spec(&spec).unwrap();
    assert!(matches!(&want, ResultRows::Groups(g) if g.len() == 4));

    assert_eq!(
        db.snapshot().run_spec(&spec).unwrap(),
        want,
        "pinned Snapshot"
    );

    let local = local_sharded(rows, HashPartitioner::new(2).unwrap());
    assert_eq!(local.run_spec(&spec).unwrap(), want, "2 local shards");
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
    server.shutdown();

    // One `Query::run` and one `ResultSet` on every catalog: the plain
    // engine, its snapshot, two local shards, their snapshot, and two
    // loopback shards.
    let (loopback, servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    for shape in ["selection", "join", "join_group"] {
        let want = surface(shaped(db.query("orders"), shape));
        assert!(!want.2, "{shape} matches rows");
        let snapshot = db.snapshot();
        let local_snapshot = local.snapshot();
        for (name, got) in [
            ("Snapshot", surface(shaped(snapshot.query("orders"), shape))),
            (
                "2 local shards",
                surface(shaped(local.query("orders"), shape)),
            ),
            (
                "ShardedSnapshot",
                surface(shaped(local_snapshot.query("orders"), shape)),
            ),
            (
                "2 loopback shards",
                surface(shaped(loopback.query("orders"), shape)),
            ),
        ] {
            assert_eq!(got, want, "{shape} on {name}");
        }

        // The one `Plan::execute` on each catalog: the writer and its
        // snapshot.
        let plan = shaped(db.query("orders"), shape).plan().unwrap();
        assert_eq!(
            plan.execute(&db).unwrap().rows(),
            plan.execute(&db.snapshot()).unwrap().rows(),
            "{shape}: Plan"
        );
        let plan = shaped(local.query("orders"), shape).plan().unwrap();
        assert_eq!(
            plan.execute(&local).unwrap().rows(),
            plan.execute(&local.snapshot()).unwrap().rows(),
            "{shape}: sharded Plan"
        );
    }
    for server in servers {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// One request per routed shard: trips, co-location, generations, faults
// ---------------------------------------------------------------------

/// Rows of `table` on one shard: its filterless selection's RIDs.
fn shard_rows(shard: &dyn ccindex::shard::ShardRead, table: &str) -> usize {
    match shard.run_spec(&QuerySpec::table(table)).unwrap() {
        ResultRows::Rids(rids) => rids.len(),
        other => panic!("a selection answered {other:?}"),
    }
}

/// Framed requests the servers have answered so far, summed.
fn server_requests(servers: &[ShardServer]) -> u64 {
    servers
        .iter()
        .map(|s| {
            s.registry()
                .find_counter("server.requests")
                .expect("registered at bind")
                .get()
        })
        .sum()
}

fn counter(db: &ShardedDatabase, name: &str) -> u64 {
    db.registry()
        .find_counter(name)
        .unwrap_or_else(|| panic!("{name} is registered at construction"))
        .get()
}

#[test]
fn a_warm_shape_costs_one_request_per_routed_shard() {
    let rows = 600;
    let (db, servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    // (pipeline, wire requests per run, cold or warm, shard-local runs)
    let shapes: [(&str, u64, u64); 7] = [
        ("point_key", 1, 1),        // pruned to the owning shard
        ("range_key", 2, 1),        // hash layout: ranges fan
        ("group_filtered", 2, 1),   // four rows per shard come back
        ("join_filtered", 2, 1),    // co-located: cust ⋈ id
        ("join_group_inner", 2, 1), // co-located join + group
        ("conjunction", 1, 1),      // one conjunct on the shard key prunes
        ("all", 0, 0),              // placement metadata answers
    ];
    // The coordinator compiles from the schema it keeps, so a shape's
    // first run costs what every later one does.
    for (what, trips, pushdowns) in shapes {
        let pushed = counter(&db, "shard.route.pushdown");
        let before = server_requests(&servers);
        let cold = run_sharded(&db, what);
        assert_eq!(
            server_requests(&servers) - before,
            trips,
            "`{what}`: wire requests for a cold shape"
        );
        let before = server_requests(&servers);
        assert_eq!(run_sharded(&db, what), cold, "`{what}` is repeatable");
        assert_eq!(
            server_requests(&servers) - before,
            trips,
            "`{what}`: wire requests for a warm shape"
        );
        assert_eq!(
            counter(&db, "shard.route.pushdown"),
            pushed + 2 * pushdowns,
            "`{what}`"
        );
    }
    // Other literals cost the same.
    let before = server_requests(&servers);
    db.query("orders").filter(eq("cust", 77)).run().unwrap();
    assert_eq!(server_requests(&servers) - before, 1);

    // A probe batch checks its access path against the same schema: a
    // pruned batch costs as many requests as shards with work, from its
    // first call.
    let values: Vec<Value> = (0..64).map(|i| Value::Int(i % KEY_SPACE)).collect();
    let before = server_requests(&servers);
    let want = db.point_probe_batch("orders", "cust", &values).unwrap();
    assert_eq!(server_requests(&servers) - before, 2, "a cold batch");
    let before = server_requests(&servers);
    assert_eq!(
        db.point_probe_batch("orders", "cust", &values).unwrap(),
        want
    );
    assert_eq!(
        server_requests(&servers) - before,
        2,
        "both shards own keys"
    );
    let owner = db.query("orders").filter(eq("cust", 42)).plan().unwrap();
    assert_eq!(owner.routing.selected.len(), 1);
    let before = server_requests(&servers);
    db.point_probe_batch("orders", "cust", &vec![Value::Int(42); 64])
        .unwrap();
    assert_eq!(server_requests(&servers) - before, 1, "one shard has work");
    let ranges = [
        (Value::Int(3), Value::Int(9)),
        (Value::Int(50), Value::Int(40)),
    ];
    db.range_probe_batch("orders", "cust", &ranges).unwrap();
    let before = server_requests(&servers);
    db.range_probe_batch("orders", "cust", &ranges).unwrap();
    assert_eq!(server_requests(&servers) - before, 2);
    // Validation still beats routing, and asks no shard.
    let before = server_requests(&servers);
    for _ in 0..2 {
        assert!(matches!(
            db.point_probe_batch("orders", "nocol", &[]).unwrap_err(),
            MmdbError::UnknownColumn { .. }
        ));
    }
    assert_eq!(server_requests(&servers), before);
    for server in servers {
        server.shutdown();
    }
}

/// The matrix's inner table. With [`orders`], every shard-key candidate
/// is an integer in `0..1000`, so one range partitioner can own any of
/// them.
fn matrix_customers() -> Table {
    // Ten ids appear twice, so some outer rows match two inner rows.
    TableBuilder::new("customers")
        .int_column("id", (0..KEY_SPACE + 10).map(|i| i % KEY_SPACE))
        .int_column("tier", (0..KEY_SPACE + 10).map(|i| (i * 13) % 40))
        .str_column(
            "region",
            (0..(KEY_SPACE + 10) as usize).map(|i| ["e", "w", "n", "s"][i % 4]),
        )
        .build()
        .expect("equal columns")
}

fn matrix_indexes(create: &mut dyn FnMut(&str, &str, IndexKind)) {
    create("orders", "amount", IndexKind::FullCss);
    create("orders", "cust", IndexKind::Hash);
    create("orders", "day", IndexKind::Hash);
    create("customers", "id", IndexKind::FullCss);
    create("customers", "id", IndexKind::Hash);
}

/// Join and join+group shapes with the group and the measure on either
/// side, every aggregate, a forced kind and a per-query exec override.
fn matrix_spec(what: &str) -> QuerySpec {
    let q = QuerySpec::table("orders");
    let joined = |q: QuerySpec| q.join("customers", on("cust", "id"));
    match what {
        "join" => joined(q),
        "join_filtered" => joined(q.filter(between("amount", 150, 850))),
        "join_pruned" => joined(q.filter(eq("cust", 42))),
        "join_forced_hash" => joined(q.filter(eq("day", "tue"))).using(IndexKind::Hash),
        "group_inner_sum_outer" => {
            joined(q.filter(between("amount", 50, 950))).group_by("region", sum("amount"))
        }
        "group_outer_max_inner" => joined(q).group_by("day", max("tier")),
        "group_inner_min_inner" => joined(q).group_by("region", min("tier")),
        "group_outer_count" => joined(q.filter(between("amount", 0, 500))).group_by("day", count()),
        "group_exec_override" => joined(q)
            .group_by("tier", sum("amount"))
            .exec(ExecOptions::threads(3)),
        other => panic!("unknown matrix query {other}"),
    }
}

const MATRIX_QUERIES: [&str; 9] = [
    "join",
    "join_filtered",
    "join_pruned",
    "join_forced_hash",
    "group_inner_sum_outer",
    "group_outer_max_inner",
    "group_inner_min_inner",
    "group_outer_count",
    "group_exec_override",
];

#[test]
fn joins_match_for_every_placement_of_the_join_columns() {
    let rows = 600;
    let mut un = Database::new();
    un.register(orders(rows)).unwrap();
    un.register(matrix_customers()).unwrap();
    matrix_indexes(&mut |t, c, k| un.create_index(t, c, k).unwrap());
    let reference: Vec<ResultRows> = MATRIX_QUERIES
        .iter()
        .map(|&w| un.run_spec(&matrix_spec(w)).expect("planned"))
        .collect();
    assert!(reference.iter().all(|r| match r {
        ResultRows::Joined(rows) => !rows.is_empty(),
        ResultRows::Groups(rows) => !rows.is_empty(),
        ResultRows::Rids(_) => false,
    }));

    // (outer shard key, inner shard key, runs whole on each shard?)
    let layouts = [
        ("cust", "id", true),    // co-located
        ("amount", "id", false), // bucketed by inner shard key, not co-located
        ("cust", "tier", false), // inner not sharded on its join column: fanned
    ];
    for shards in SHARD_COUNTS {
        for (outer_key, inner_key, local) in layouts {
            for range in [false, true] {
                let servers: Vec<ShardServer> = (0..shards)
                    .map(|_| ShardServer::spawn(Database::new()).unwrap())
                    .collect();
                let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
                // Under the range layout `cust`, `id` and `tier` all fall
                // in the first span, so every later shard holds no row of
                // a table sharded on them.
                let mut db = if range {
                    let p = RangePartitioner::int_spans(0, 999, shards).unwrap();
                    ShardedDatabase::connect(p, &addrs)
                } else {
                    ShardedDatabase::connect(HashPartitioner::new(shards).unwrap(), &addrs)
                }
                .unwrap();
                db.register(orders(rows), outer_key).unwrap();
                db.register(matrix_customers(), inner_key).unwrap();
                matrix_indexes(&mut |t, c, k| db.create_index(t, c, k).unwrap());
                let label = format!(
                    "{} x{shards}, orders on {outer_key}, customers on {inner_key}",
                    db.partitioner()
                );
                if range && shards > 1 && outer_key == "cust" {
                    assert_eq!(shard_rows(db.backend(1).reader(), "orders"), 0, "{label}");
                }
                for (threads, lanes) in EXECS {
                    db.set_exec_options(exec_at((threads, lanes))).unwrap();
                    for (&what, want) in MATRIX_QUERIES.iter().zip(&reference) {
                        let spec = matrix_spec(what);
                        let plan = db.compile(&spec).unwrap();
                        assert_eq!(plan.is_shard_local(), local, "{label}: `{what}`");
                        let mode = if local {
                            "run: shard-local"
                        } else {
                            "run: join streamed through the coordinator"
                        };
                        assert!(plan.explain().contains(mode), "{}", plan.explain());
                        // Twice: a cold and a warm template.
                        for _ in 0..2 {
                            assert_eq!(
                                &db.run_spec(&spec).expect("planned"),
                                want,
                                "{label}, {threads} thread(s) x {lanes} lanes: `{what}` diverged"
                            );
                        }
                    }
                }
                for server in servers {
                    server.shutdown();
                }
            }
        }
    }
}

/// The coordinator registered every table, so it knows each one's
/// columns: a non-key `replace_column` over loopback costs each shard
/// exactly one request (its `Mutate`), and the validation errors —
/// unknown table, then unknown column, then ragged column — are raised
/// before any request leaves.
#[test]
fn a_sharded_replace_column_is_one_request_per_shard() {
    let rows = 300;
    let mut un = unsharded(rows);
    let (mut db, servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    let requests = || -> Vec<u64> {
        (servers.iter())
            .map(|s| {
                s.registry()
                    .find_counter("server.requests")
                    .expect("registered at bind")
                    .get()
            })
            .collect()
    };
    let amounts: Vec<Value> = (0..rows)
        .map(|i| Value::Int((i as i64 * 7) % 1_000))
        .collect();
    let before = requests();
    let report = db
        .replace_column("orders", "amount", amounts.clone())
        .unwrap();
    assert!(!report.repartitioned);
    assert_eq!(requests(), before.iter().map(|n| n + 1).collect::<Vec<_>>());
    un.replace_column("orders", "amount", amounts).unwrap();
    let spec = QuerySpec::table("orders").filter(between("amount", 100, 300));
    assert_eq!(db.run_spec(&spec).unwrap(), un.run_spec(&spec).unwrap());

    let before = requests();
    let ragged = vec![Value::Int(0); rows - 1];
    let cases = [
        (
            "nosuch",
            "nocol",
            MmdbError::UnknownTable {
                table: "nosuch".into(),
            },
        ),
        (
            "orders",
            "nocol",
            MmdbError::UnknownColumn {
                table: "orders".into(),
                column: "nocol".into(),
            },
        ),
        (
            "orders",
            "amount",
            MmdbError::RaggedColumn {
                table: "orders".into(),
                column: "amount".into(),
                expected: rows,
                got: rows - 1,
            },
        ),
    ];
    for (table, column, want) in cases {
        let err = db
            .replace_column(table, column, ragged.clone())
            .unwrap_err();
        assert_eq!(err, want);
    }
    assert_eq!(requests(), before, "no request for a refused replacement");
    for server in servers {
        server.shutdown();
    }
}

/// The coordinator keeps no plans: each generation compiles from its own
/// schema. Across `drop_index`/`create_index` its answers and errors are
/// the unsharded catalog's, a snapshot pinned before a drop still
/// compiles against its own generation, and no stream of shapes costs
/// more than its routed requests — an erroring spec asks no shard.
#[test]
fn the_template_cache_dies_with_its_generation_and_stays_bounded() {
    let rows = 300;
    let mut un = unsharded(rows);
    let (mut db, servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    type Build = fn(QuerySpec) -> QuerySpec;
    // (shape, the index whose removal breaks it)
    let shapes: [(Build, (&str, &str, IndexKind)); 3] = [
        (
            |q| {
                q.filter(between("amount", 100, 500))
                    .using(IndexKind::BPlusTree)
            },
            ("orders", "amount", IndexKind::BPlusTree), // IndexNotBuilt
        ),
        (
            |q| {
                q.filter(between("cust", 10, 50))
                    .group_by("day", sum("amount"))
            },
            ("orders", "cust", IndexKind::FullCss), // NoOrderedIndex: hash is left
        ),
        (
            |q| {
                q.join("customers", on("cust", "id"))
                    .using(IndexKind::LevelCss)
            },
            ("customers", "id", IndexKind::LevelCss), // IndexNotBuilt on the inner side
        ),
    ];
    for (build, (table, column, kind)) in shapes {
        let spec = build(QuerySpec::table("orders"));
        let same = |db: &ShardedDatabase, un: &Database, when: &str| {
            for _ in 0..2 {
                assert_eq!(db.run_spec(&spec), un.run_spec(&spec), "{when}: {spec:?}");
                assert_eq!(
                    db.compile(&spec).map(drop),
                    un.compile(&spec).map(drop),
                    "{when}: {spec:?}"
                );
            }
        };
        same(&db, &un, "before");
        let want = db.run_spec(&spec).unwrap();
        let planned = db.compile(&spec).unwrap();
        let pinned = db.snapshot();

        un.drop_index(table, column, kind).unwrap();
        db.drop_index(table, column, kind).unwrap();
        same(&db, &un, "after drop_index");
        let err = db.run_spec(&spec).unwrap_err();
        assert!(
            matches!(
                err,
                MmdbError::IndexNotBuilt { .. } | MmdbError::NoOrderedIndex { .. }
            ),
            "{err:?}"
        );
        // The pin compiles against the generation it holds, where the
        // index is still declared, and asks no shard.
        let before = server_requests(&servers);
        assert_eq!(pinned.compile(&spec), Ok(planned));
        assert_eq!(server_requests(&servers), before);
        drop(pinned);

        un.create_index(table, column, kind).unwrap();
        db.create_index(table, column, kind).unwrap();
        same(&db, &un, "after create_index");
        assert_eq!(db.run_spec(&spec).unwrap(), want);
    }

    // Typed planning errors are the unsharded catalog's, run after run,
    // and cost no request.
    for bad in [
        QuerySpec::table("nope"),
        QuerySpec::table("orders").filter(eq("nocol", 1)),
        QuerySpec::table("orders").group_by("day", sum("day")),
        QuerySpec::table("orders").join("customers", on("cust", "nocol")),
    ] {
        let before = server_requests(&servers);
        for _ in 0..2 {
            let err = db.run_spec(&bad).unwrap_err();
            assert_eq!(err, un.run_spec(&bad).unwrap_err());
        }
        assert_eq!(server_requests(&servers), before, "{bad:?}");
    }

    // Seventy ad-hoc shapes each cost exactly their one routed request:
    // the coordinator keeps nothing per shape.
    let warm = QuerySpec::table("orders").filter(eq("cust", 7));
    let want = un.run_spec(&warm).unwrap();
    for lanes in 1..=70 {
        let spec = warm.clone().exec(ExecOptions {
            lanes,
            ..ExecOptions::default()
        });
        let before = server_requests(&servers);
        assert_eq!(db.run_spec(&spec).unwrap(), want);
        assert_eq!(server_requests(&servers) - before, 1, "lanes {lanes}");
    }
    for server in servers {
        server.shutdown();
    }
}

/// `tagged`: an integer shard key `k` and a measure `v` that is an
/// integer on every row but one, whose `Str` sits on a row hash x2
/// places on shard 1 — shard 0's rows alone would pass as a measure.
fn tagged() -> Table {
    let placed = HashPartitioner::new(2).unwrap();
    let on_shard_1 = (0..40)
        .find(|&k| placed.shard_of(&Value::Int(k)).unwrap() == 1)
        .expect("hash x2 places some key on shard 1");
    TableBuilder::new("tagged")
        .int_column("k", 0..40)
        .column(
            "v",
            (0..40)
                .map(|k| match k == on_shard_1 {
                    true => Value::from("x"),
                    false => Value::Int(k * 3),
                })
                .collect(),
        )
        .build()
        .expect("equal columns")
}

/// Planning specs whose errors each come from a different check, and
/// two that plan: all compiled and run through every catalog.
fn planning_battery() -> Vec<QuerySpec> {
    let orders = || QuerySpec::table("orders");
    vec![
        QuerySpec::table("nope"),
        orders().filter(eq("nocol", 1)),
        QuerySpec::table("customers").filter(eq("region", "e")), // NoIndex
        orders().filter(between("day", "a", "z")),               // NoOrderedIndex
        orders().filter(eq("day", "mon")).using(IndexKind::FullCss), // IndexNotBuilt
        orders()
            .filter(between("cust", 1, 9))
            .using(IndexKind::Hash), // NoOrderedIndex
        orders().join("customers", on("cust", "region")),        // NoIndex, inner side
        orders().join("nope", on("cust", "id")),
        orders().join("customers", on("nocol", "id")),
        orders().group_by("nocol", count()),
        orders().group_by("day", sum("nocol")), // a missing measure
        orders().group_by("cust", sum("day")),  // a Str measure
        QuerySpec::table("tagged").group_by("k", sum("v")), // a Str on shard 1 only
        QuerySpec::table("tagged")
            .filter(eq("k", 3))
            .group_by("k", count()),
        orders()
            .filter(between("amount", 10, 900))
            .join("customers", on("cust", "id"))
            .group_by("region", max("amount")),
    ]
}

/// A sharded catalog plans every spec of the battery exactly as the
/// unsharded one does — the same typed error, in the same order of
/// checks — in process and over loopback, and asks no shard to: only a
/// run that gets past planning costs requests.
#[test]
fn sharded_planning_errors_are_the_unsharded_ones() {
    let rows = 200;
    let mut un = unsharded(rows);
    un.register(tagged()).unwrap();
    un.create_index("tagged", "k", IndexKind::FullCss).unwrap();
    let mut local = local_sharded(rows, HashPartitioner::new(2).unwrap());
    let (mut remote, servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    for db in [&mut local, &mut remote] {
        db.register(tagged(), "k").unwrap();
        db.create_index("tagged", "k", IndexKind::FullCss).unwrap();
    }
    let battery = planning_battery();
    let planned = battery.iter().filter(|s| un.compile(s).is_ok()).count();
    assert_eq!(planned, 2, "two specs plan, the rest fail typed");
    for db in [&local, &remote] {
        for spec in &battery {
            let before = server_requests(&servers);
            assert_eq!(
                db.compile(spec).map(drop),
                un.compile(spec).map(drop),
                "plan: {spec:?}"
            );
            assert_eq!(server_requests(&servers), before, "compiled: {spec:?}");
            assert_eq!(db.run_spec(spec), un.run_spec(spec), "run: {spec:?}");
            if un.compile(spec).is_err() {
                assert_eq!(server_requests(&servers), before, "refused: {spec:?}");
            }
        }
    }

    // A replacement re-types its column: `v` all integers sums, and a
    // `Str` in the shard key `k` (a repartition) fails as a measure.
    let ints: Vec<Value> = (0..40).map(Value::Int).collect();
    let mut keys = ints.clone();
    keys[5] = Value::from("k5");
    un.replace_column("tagged", "v", ints.clone()).unwrap();
    un.replace_column("tagged", "k", keys.clone()).unwrap();
    for db in [&mut local, &mut remote] {
        db.replace_column("tagged", "v", ints.clone()).unwrap();
        db.replace_column("tagged", "k", keys.clone()).unwrap();
    }
    let by_k = QuerySpec::table("tagged").group_by("k", sum("v"));
    let by_v = QuerySpec::table("tagged").group_by("v", sum("k"));
    assert!(un.compile(&by_k).is_ok() && un.compile(&by_v).is_err());
    for db in [&local, &remote] {
        for spec in [&by_k, &by_v] {
            assert_eq!(db.compile(spec).map(drop), un.compile(spec).map(drop));
            assert_eq!(db.run_spec(spec), un.run_spec(spec), "{spec:?}");
        }
    }
    for server in servers {
        server.shutdown();
    }
}

/// The coordinator compiles without its shards, so a dead shard 0 takes
/// down only the queries routed to it: a shape never run before, pruned
/// to shard 1, answers, and the same shape routed to shard 0 is a typed
/// transport error.
#[test]
fn a_dead_shard_0_leaves_queries_pruned_to_shard_1_answering() {
    let rows = 300;
    let un = unsharded(rows);
    let (db, mut servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    let placed = HashPartitioner::new(2).unwrap();
    let key_on = |s: usize| {
        (0..KEY_SPACE)
            .find(|&k| placed.shard_of(&Value::Int(k)).unwrap() == s)
            .expect("hash x2 places keys on both shards")
    };
    let shape = |k: i64| {
        QuerySpec::table("orders")
            .filter(eq("cust", k))
            .group_by("day", sum("amount"))
    };
    servers.remove(0).shutdown();
    let alive = shape(key_on(1));
    assert_eq!(db.compile(&alive).unwrap().routing.selected, [1]);
    assert_eq!(db.run_spec(&alive), un.run_spec(&alive));
    let err = db.run_spec(&shape(key_on(0))).unwrap_err();
    assert!(
        matches!(err, MmdbError::Transport { .. }),
        "expected a typed transport error, got {err:?}"
    );
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn a_shard_killed_between_shard_local_queries_is_a_typed_transport_error() {
    let rows = 300;
    let (db, mut servers) = distributed(rows, HashPartitioner::new(2).unwrap());
    let grouped = || {
        db.query("orders")
            .filter(between("amount", 50, 950))
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
    };
    assert!(grouped().plan().unwrap().is_shard_local());
    assert_eq!(grouped().run().unwrap().groups().len(), 4);
    let pushed = counter(&db, "shard.route.pushdown");
    servers.remove(1).shutdown();
    // The coordinator compiles without asking a shard, so the error
    // comes from the gather barrier, whole — never the surviving
    // shard's partial groups.
    for _ in 0..2 {
        let err = grouped().run().unwrap_err();
        assert!(
            matches!(err, MmdbError::Transport { .. }),
            "expected a typed transport error, got {err:?}"
        );
        assert!(err.to_string().contains("127.0.0.1"), "{err}");
    }
    assert_eq!(counter(&db, "shard.route.pushdown"), pushed + 2);
    // A query pruned to the surviving shard still answers.
    let alive = (0..KEY_SPACE)
        .find(|&k| {
            let plan = db.query("orders").filter(eq("cust", k)).plan().unwrap();
            plan.routing.selected == [0]
        })
        .expect("shard 0 owns some key");
    assert!(!db
        .query("orders")
        .filter(eq("cust", alive))
        .run()
        .unwrap()
        .is_empty());
    for server in servers {
        server.shutdown();
    }
}

/// A grouped selection over a 300k-row shard, sent to a `ShardServer`
/// under `hostile` execution options twice: as the spec's own override
/// (`RunSpec`), and as the shard's catalog options (`SetExecOptions`)
/// followed by a plain query. The server bounds what a peer asks for,
/// so both answer the rows of the default options, a later request
/// still answers, and the server shuts down.
fn hostile_exec_answers_like_the_default(hostile: ExecOptions) {
    let rows = 300_000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .int_column("g", (0..rows).map(|i| i % 7))
            .int_column("v", (0..rows).map(|i| (i * 13) % 1_000))
            .build()
            .expect("equal columns"),
    )
    .unwrap();
    db.create_index("t", "v", IndexKind::FullCss).unwrap();
    let spec = QuerySpec::table("t")
        .filter(between("v", 0, 899))
        .group_by("g", sum("v"));
    let want = db.run_spec(&spec).unwrap();
    let server = ShardServer::spawn(db).unwrap();
    let mut shard = RemoteShard::connect(server.addr()).unwrap();
    assert_eq!(shard.run_spec(&spec.clone().exec(hostile)).unwrap(), want);
    shard.set_exec_options(hostile).unwrap();
    assert_eq!(shard.run_spec(&spec).unwrap(), want);
    assert_eq!(shard_rows(shard.reader(), "t"), rows as usize);
    drop(shard);
    server.shutdown();
}

#[test]
fn a_client_thread_count_cannot_exhaust_a_shard_server() {
    hostile_exec_answers_like_the_default(ExecOptions::threads(100_000));
}

#[test]
fn a_client_lane_count_cannot_overflow_a_shard_server() {
    hostile_exec_answers_like_the_default(ExecOptions {
        lanes: usize::MAX,
        ..ExecOptions::default()
    });
}
