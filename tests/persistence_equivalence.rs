//! Save → open → query equivalence: a catalog serialized to the paged
//! `ccindex-store` container and reopened — from bytes, from a file, or
//! across the wire via shard snapshot transfer — must answer every
//! query **byte-identically** to the live catalog it was saved from,
//! for every index kind and for sharded and unsharded execution alike.
//! Reopening is also idempotent: serializing the reopened catalog
//! reproduces the same container bytes.

use ccindex::db::{ResultRows, StorageFault};
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
