//! Save → open → query equivalence: a catalog serialized to the paged
//! `ccindex-store` container and reopened — from bytes, from a file, or
//! across the wire via shard snapshot transfer — must answer every
//! query **byte-identically** to the live catalog it was saved from,
//! for every index kind and for sharded and unsharded execution alike.
//! Reopening is also idempotent: serializing the reopened catalog
//! reproduces the same container bytes.

use ccindex::db::{GroupRow, Predicate, ResultRows, StorageFault};
use ccindex::prelude::*;

const KEY_SPACE: i64 = 120;

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

/// A catalog exercising **every** index kind: all eight on `amount`,
/// plus hash/CSS indexes on the join and group columns.
fn seeded(rows: usize) -> Database {
    let mut db = Database::new();
    db.register(orders(rows)).unwrap();
    db.register(customers()).unwrap();
    for kind in IndexKind::ALL {
        db.create_index("orders", "amount", kind).unwrap();
    }
    db.create_index("orders", "cust", IndexKind::Hash).unwrap();
    db.create_index("orders", "day", IndexKind::Hash).unwrap();
    db.create_index("customers", "id", IndexKind::LevelCss)
        .unwrap();
    db.create_index("customers", "id", IndexKind::Hash).unwrap();
    db
}

/// Every pipeline shape, including one forced probe per index kind, as
/// (label, rows).
fn battery(db: &Database) -> Vec<(String, ResultRows)> {
    let mut out = Vec::new();
    let mut run = |label: &str, rows: ResultRows| out.push((label.to_owned(), rows));
    run("all", db.query("orders").run().unwrap().rows().clone());
    run(
        "point",
        db.query("orders")
            .filter(eq("amount", 340))
            .run()
            .unwrap()
            .rows()
            .clone(),
    );
    run(
        "range",
        db.query("orders")
            .filter(between("amount", 200, 700))
            .run()
            .unwrap()
            .rows()
            .clone(),
    );
    run(
        "join_group",
        db.query("orders")
            .filter(between("amount", 50, 950))
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
            .run()
            .unwrap()
            .rows()
            .clone(),
    );
    for kind in IndexKind::ALL {
        let q = db.query("orders");
        let q = if kind == IndexKind::Hash {
            q.filter(eq("amount", 340))
        } else {
            q.filter(between("amount", 333, 666))
        };
        run(
            &format!("forced_{kind:?}"),
            q.using(kind).run().unwrap().rows().clone(),
        );
    }
    out
}

fn assert_equivalent(live: &Database, reopened: &Database, label: &str) {
    let want = battery(live);
    let got = battery(reopened);
    for ((name, expect), (_, actual)) in want.iter().zip(&got) {
        assert_eq!(actual, expect, "{label}: pipeline `{name}` diverged");
    }
}

#[test]
fn bytes_roundtrip_answers_identically_for_every_index_kind() {
    let live = seeded(600);
    let bytes = live.save_to_bytes();
    let reopened = Database::open_from_bytes(bytes.clone(), "test").unwrap();
    assert_equivalent(&live, &reopened, "open_from_bytes");
    // Reopening is idempotent at the byte level: the reopened catalog
    // serializes to the very same container.
    assert_eq!(reopened.save_to_bytes(), bytes, "reserialization drifted");
}

#[test]
fn file_roundtrip_answers_identically() {
    let live = seeded(400);
    let dir = std::env::temp_dir().join(format!("ccindex-persist-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.ccsp");
    live.save_to(&path).unwrap();
    let reopened = Database::open_from(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_equivalent(&live, &reopened, "open_from");
}

/// The catalog behind [`GOLDEN_IMAGE`]: two tables, an `Int`, a `Str`
/// and a mixed column, every index kind.
fn golden_catalog() -> Database {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("sales")
            .int_column("amount", [30, 10, 20, 10, 30, 40, 10])
            .str_column("region", ["e", "w", "e", "n", "w", "e", "s"])
            .column(
                "tag",
                vec![
                    Value::Int(7),
                    Value::from("x"),
                    Value::Int(-3),
                    Value::from("a"),
                    Value::Int(7),
                    Value::from("x"),
                    Value::Int(i64::MAX),
                ],
            )
            .build()
            .unwrap(),
    )
    .unwrap();
    db.register(
        TableBuilder::new("dim")
            .int_column("id", [3, 1, 2])
            .build()
            .unwrap(),
    )
    .unwrap();
    for kind in IndexKind::ALL {
        db.create_index("sales", "amount", kind).unwrap();
    }
    db.create_index("sales", "region", IndexKind::BPlusTree)
        .unwrap();
    db.create_index("sales", "tag", IndexKind::FullCss).unwrap();
    db
}

/// `golden_catalog().save_to_bytes()` in manifest version 2: per column
/// a domain page and an ID page, per indexed column its name and kind
/// codes. This build must write the same bytes and read them back.
const GOLDEN_IMAGE: &str = "\
    4343535001000000030000000001000000000000000002000000000000000003\
    000000000000000300000002000000000000000100000004000000000a000000\
    00000000001400000000000000001e0000000000000000280000000000000007\
    0000000200000000000000010000000000000002000000030000000000000004\
    00000001010000006501010000006e0101000000730101000000770700000000\
    0000000300000000000000010000000300000000000000020000000500000000\
    fdffffffffffffff00070000000000000000ffffffffffffff7f010100000061\
    0101000000780700000001000000040000000000000003000000010000000400\
    000002000000080000000108000000000000001f0000000000000070a48fc702\
    270000000000000010000000000000005d06f491013700000000000000280000\
    00000000001423454b025f000000000000002000000000000000381f27a5017f\
    000000000000001c0000000000000037f7e0ea029b0000000000000020000000\
    00000000fa657e8a01bb000000000000002b00000000000000eca1260f02e600\
    0000000000002000000000000000961a0255aa00000002000000020000000300\
    000064696d030000000000000001000000020000006964000000000100000000\
    0000000500000073616c657307000000000000000300000006000000616d6f75\
    6e74020000000300000006000000726567696f6e040000000500000003000000\
    74616706000000070000000300000006000000616d6f756e7408000000000102\
    030405060706000000726567696f6e0100000004030000007461670100000005\
    06010000000000005a010000000000001547472443435346";

/// `golden_catalog().save_to_bytes()` in manifest version 1, which also
/// stored each indexed column's RID list as a key page and a RID page,
/// and each CSS kind's directory as one page per level. This build reads
/// only version 2: it must refuse the image as a typed version error.
const GOLDEN_IMAGE_V1: &str = "\
    4343535001000000030000000001000000000000000002000000000000000003\
    000000000000000300000002000000000000000100000004000000000a000000\
    00000000001400000000000000001e0000000000000000280000000000000007\
    0000000200000000000000010000000000000002000000030000000000000004\
    00000001010000006501010000006e0101000000730101000000770700000000\
    0000000300000000000000010000000300000000000000020000000500000000\
    fdffffffffffffff00070000000000000000ffffffffffffff7f010100000061\
    0101000000780700000001000000040000000000000003000000010000000400\
    0000020000000700000000000000000000000000000001000000020000000200\
    0000030000000700000001000000030000000600000002000000000000000400\
    0000050000000700000000000000000000000000000001000000020000000300\
    0000030000000700000000000000020000000500000003000000060000000100\
    0000040000000700000000000000010000000100000002000000030000000400\
    0000040000000700000002000000000000000400000006000000030000000100\
    0000050000000e0000000108000000000000001f0000000000000070a48fc702\
    270000000000000010000000000000005d06f491013700000000000000280000\
    00000000001423454b025f000000000000002000000000000000381f27a5017f\
    000000000000001c0000000000000037f7e0ea029b0000000000000020000000\
    00000000fa657e8a01bb000000000000002b00000000000000eca1260f02e600\
    0000000000002000000000000000961a02550306010000000000002000000000\
    000000a5e05cb304260100000000000020000000000000007355234803460100\
    000000000020000000000000003be0f67f046601000000000000200000000000\
    0000f3dd13d603860100000000000020000000000000006777cbbe04a6010000\
    000000002000000000000000e31d6233ea000000010000000200000003000000\
    64696d0300000000000000010000000200000069640000000001000000000000\
    000500000073616c657307000000000000000300000006000000616d6f756e74\
    020000000300000006000000726567696f6e0400000005000000030000007461\
    6706000000070000000300000006000000616d6f756e74080000000900000008\
    0000000000000000010000000002000000000300000000040000000005000000\
    000600000000070000000006000000726567696f6e0a0000000b000000010000\
    000400000000030000007461670c0000000d000000010000000500000000c601\
    000000000000180200000000000019237d2143435346";

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn a_version_1_image_is_a_typed_version_error() {
    match Database::open_from_bytes(unhex(GOLDEN_IMAGE_V1), "golden-v1") {
        Err(MmdbError::Storage {
            path,
            fault: StorageFault::Version,
            detail,
        }) => {
            assert_eq!(path, "golden-v1");
            assert!(
                detail.contains("version 1") && detail.contains("reads 2"),
                "{detail}"
            );
        }
        other => panic!("expected a typed version error, got {other:?}"),
    }
}

#[test]
fn golden_image_is_written_and_read_unchanged() {
    assert_eq!(ccindex::db::persist::MANIFEST_VERSION, 2);
    let golden = unhex(GOLDEN_IMAGE);
    let live = golden_catalog();
    assert_eq!(live.save_to_bytes(), golden, "the stored format moved");

    let opened = Database::open_from_bytes(golden.clone(), "golden").unwrap();
    assert_eq!(opened.save_to_bytes(), golden, "reserialization drifted");
    let rids = |db: &Database, filter: Predicate, kind: Option<IndexKind>| {
        let q = db.query("sales").filter(filter);
        let q = match kind {
            Some(kind) => q.using(kind),
            None => q,
        };
        q.run().unwrap().rids().to_vec()
    };
    for db in [&live, &opened] {
        for kind in IndexKind::ALL {
            assert_eq!(rids(db, eq("amount", 10), Some(kind)), [1, 3, 6]);
            if kind != IndexKind::Hash {
                assert_eq!(rids(db, between("amount", 15, 30), Some(kind)), [0, 2, 4]);
            }
        }
        assert_eq!(rids(db, eq("region", "e"), None), [0, 2, 5]);
        // The mixed column keeps enum order: every `Int` before any `Str`.
        assert_eq!(rids(db, eq("tag", 7), None), [0, 4]);
        assert_eq!(rids(db, eq("tag", "x"), None), [1, 5]);
        assert_eq!(
            rids(db, between("tag", Value::Int(0), Value::from("a")), None),
            [0, 3, 4, 6]
        );
        let tag = db.table("sales").unwrap().column("tag").unwrap();
        assert!(!tag.domain().is_int());
        assert_eq!(
            tag.domain().decode_batch(&[0, 1, 2, 3, 4]),
            [
                Value::Int(-3),
                Value::Int(7),
                Value::Int(i64::MAX),
                Value::from("a"),
                Value::from("x")
            ]
        );
        assert!(db
            .table("dim")
            .unwrap()
            .column("id")
            .unwrap()
            .domain()
            .is_int());
        assert_eq!(db.table("dim").unwrap().value("id", 0), Some(Value::Int(3)));
        let groups = db
            .query("sales")
            .group_by("region", sum("amount"))
            .run()
            .unwrap()
            .rows()
            .clone();
        assert_eq!(
            groups,
            ResultRows::Groups(vec![
                GroupRow {
                    group: "e".into(),
                    value: 90
                },
                GroupRow {
                    group: "n".into(),
                    value: 10
                },
                GroupRow {
                    group: "s".into(),
                    value: 10
                },
                GroupRow {
                    group: "w".into(),
                    value: 40
                },
            ])
        );
    }
}

#[test]
fn missing_file_is_a_typed_open_fault() {
    let err = Database::open_from("/nonexistent/ccindex/catalog.ccsp").unwrap_err();
    match err {
        MmdbError::Storage { fault, path, .. } => {
            assert_eq!(fault, StorageFault::Open);
            assert!(path.contains("catalog.ccsp"), "{path}");
        }
        other => panic!("expected a typed Storage error, got {other:?}"),
    }
}

#[test]
fn local_shard_snapshot_transfer_bootstraps_a_fresh_backend() {
    let rows = 500;
    let un = seeded(rows);
    let mut db = ShardedDatabase::new(HashPartitioner::new(2).unwrap()).unwrap();
    db.register(orders(rows), "cust").unwrap();
    db.register(customers(), "id").unwrap();
    for kind in IndexKind::ALL {
        db.create_index("orders", "amount", kind).unwrap();
    }
    db.create_index("orders", "cust", IndexKind::Hash).unwrap();
    db.create_index("customers", "id", IndexKind::Hash).unwrap();
    let before = db
        .query("orders")
        .filter(between("amount", 200, 700))
        .run()
        .unwrap()
        .rows()
        .clone();
    let pinned = db.snapshot();
    // Bootstrap an empty backend from shard 1's serialized pages.
    db.replace_shard_backend(1, Box::new(LocalShard::new(Database::new())))
        .unwrap();
    let after = db
        .query("orders")
        .filter(between("amount", 200, 700))
        .run()
        .unwrap()
        .rows()
        .clone();
    assert_eq!(after, before, "snapshot transfer changed answers");
    // Snapshots pinned before the swap keep answering from the old
    // backend's frozen state.
    assert_eq!(
        pinned
            .query("orders")
            .filter(between("amount", 200, 700))
            .run()
            .unwrap()
            .rows()
            .clone(),
        before
    );
    // And the composed answers still match the unsharded reference.
    assert_eq!(
        after,
        un.query("orders")
            .filter(between("amount", 200, 700))
            .run()
            .unwrap()
            .rows()
            .clone()
    );
}

#[test]
fn remote_snapshot_transfer_streams_a_shard_across_the_wire() {
    let rows = 400;
    let un = seeded(rows);
    let servers: Vec<ShardServer> = (0..2)
        .map(|_| ShardServer::spawn(Database::new()).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
    let mut db = ShardedDatabase::connect(HashPartitioner::new(2).unwrap(), &addrs).unwrap();
    db.register(orders(rows), "cust").unwrap();
    db.register(customers(), "id").unwrap();
    for kind in IndexKind::ALL {
        db.create_index("orders", "amount", kind).unwrap();
    }
    db.create_index("customers", "id", IndexKind::Hash).unwrap();
    let before = db
        .query("orders")
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()
        .unwrap()
        .rows()
        .clone();
    // A brand-new empty server joins; its catalog is bootstrapped from
    // shard 1's snapshot, fetched and installed in CRC-checked chunks
    // entirely over TCP.
    let newcomer = ShardServer::spawn(Database::new()).unwrap();
    let backend = RemoteShard::connect(newcomer.addr().as_str()).unwrap();
    db.replace_shard_backend(1, Box::new(backend)).unwrap();
    let after = db
        .query("orders")
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()
        .unwrap()
        .rows()
        .clone();
    assert_eq!(after, before, "wire snapshot transfer changed answers");
    assert_eq!(
        after,
        un.query("orders")
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
            .run()
            .unwrap()
            .rows()
            .clone()
    );
    // The direct backend surface agrees too: fetching each remote
    // shard's snapshot and reopening locally recovers every row.
    let shard_rows: usize = (0..2)
        .map(|s| {
            let bytes = db.backend(s).reader().fetch_snapshot().unwrap();
            let local = Database::open_from_bytes(bytes, "fetched").unwrap();
            local.query("orders").run().unwrap().rids().len()
        })
        .sum();
    assert_eq!(shard_rows, rows, "snapshot fetch lost rows");
    drop(db);
    newcomer.shutdown();
    for server in servers {
        server.shutdown();
    }
}
