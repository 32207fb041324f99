//! Sharded/unsharded equivalence: the same filter + join + group
//! pipelines run on a plain `Database` and on `ShardedDatabase`s across
//! shard counts {1, 2, 8} and **both** partitioners (hash and range)
//! must return byte-identical `ResultRows` — the tentpole property of
//! the sharded subsystem. Also covered: forced access paths, decoded
//! values through owning shards, update-then-query (both the split
//! per-shard path and the re-partitioning shard-key path), and the
//! `ShardedDatabase::hash(n)` constructor at n ∈ {1, 2, 4}.

use ccindex::db::{Plan, Query, ResultRows, Value};
use ccindex::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const KEY_SPACE: i64 = 200; // 'cust' values fall in 0..KEY_SPACE

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
    create("customers", "id", IndexKind::Hash);
}

fn unsharded(rows: usize) -> Database {
    let mut db = Database::new();
    db.register(orders(rows)).unwrap();
    db.register(customers()).unwrap();
    index_all(&mut |t, c, k| db.create_index(t, c, k).unwrap());
    db
}

fn sharded<P: Partitioner + 'static>(rows: usize, p: P) -> ShardedDatabase {
    let mut db = ShardedDatabase::new(p).unwrap();
    db.register(orders(rows), "cust").unwrap();
    db.register(customers(), "id").unwrap();
    index_all(&mut |t, c, k| db.create_index(t, c, k).unwrap());
    db
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
fn every_pipeline_matches_across_shard_counts_and_partitioners() {
    let rows = 3_000;
    let un = unsharded(rows);
    let reference = pipeline_battery(&|w| run_unsharded(&un, w));
    for shards in SHARD_COUNTS {
        let hash_db = sharded(rows, HashPartitioner::new(shards).unwrap());
        let range_db = sharded(
            rows,
            RangePartitioner::int_spans(0, KEY_SPACE - 1, shards).unwrap(),
        );
        for (label, db) in [("hash", &hash_db), ("range", &range_db)] {
            let got = pipeline_battery(&|w| run_sharded(db, w));
            for ((name, expect), (_, actual)) in reference.iter().zip(&got) {
                assert_eq!(
                    actual, expect,
                    "{label} x{shards}: pipeline `{name}` diverged"
                );
            }
        }
    }
}

#[test]
fn decoded_values_match_through_owning_shards() {
    let rows = 1_200;
    let un = unsharded(rows);
    for shards in SHARD_COUNTS {
        let db = sharded(rows, HashPartitioner::new(shards).unwrap());
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
        // Outer-only, inner-only and on neither side: the outer table
        // binds first, and a column on neither side is the unsharded
        // error, naming the outer table.
        for column in ["amount", "region", "nocol"] {
            assert_eq!(s.values(column), u.values(column), "x{shards}: {column}");
        }
        assert_eq!(
            s.values("nocol").unwrap_err(),
            MmdbError::UnknownColumn {
                table: "orders".into(),
                column: "nocol".into()
            }
        );
    }
}

#[test]
fn update_then_query_matches_on_both_paths() {
    let rows = 900;
    for shards in SHARD_COUNTS {
        let mut un = unsharded(rows);
        let mut db = sharded(rows, HashPartitioner::new(shards).unwrap());
        // Non-key column: the update splits across shards.
        let amounts: Vec<Value> = (0..rows)
            .map(|i| Value::Int((i as i64 * 37) % 444))
            .collect();
        un.replace_column("orders", "amount", amounts.clone())
            .unwrap();
        let report = db.replace_column("orders", "amount", amounts).unwrap();
        assert!(!report.repartitioned);
        // Shard-key column: rows migrate between shards.
        let keys: Vec<Value> = (0..rows)
            .map(|i| Value::Int((i as i64 * 53 + 11) % KEY_SPACE))
            .collect();
        un.replace_column("orders", "cust", keys.clone()).unwrap();
        let report = db.replace_column("orders", "cust", keys).unwrap();
        assert!(report.repartitioned);
        let reference = pipeline_battery(&|w| run_unsharded(&un, w));
        let got = pipeline_battery(&|w| run_sharded(&db, w));
        for ((name, expect), (_, actual)) in reference.iter().zip(&got) {
            assert_eq!(actual, expect, "x{shards} after updates: `{name}` diverged");
        }
    }
}

#[test]
fn plans_record_routing_and_exec_overrides_flow_through() {
    let rows = 600;
    let db = sharded(
        rows,
        RangePartitioner::int_spans(0, KEY_SPACE - 1, 4).unwrap(),
    );
    let plan: Plan = db
        .query("orders")
        .filter(eq("cust", 5))
        .join("customers", on("cust", "id"))
        .plan()
        .unwrap();
    assert_eq!(plan.routing.shards, 4);
    assert_eq!(plan.routing.selected.len(), 1, "point probe prunes");
    let text = plan.explain();
    assert!(text.contains("(pruned)"), "{text}");
    assert!(text.contains("per-shard plan:"), "{text}");
    // Per-query ExecOptions override reaches the compiled per-shard body.
    let plan = db
        .query("orders")
        .filter(between("amount", 1, 999))
        .group_by("day", count())
        .exec(ExecOptions::threads(8))
        .plan()
        .unwrap();
    assert_eq!(plan.exec.threads, 8);
    // ... and partitioned execution stays byte-identical.
    let un = unsharded(rows);
    let mut db = db;
    let sequential = pipeline_battery(&|w| run_sharded(&db, w));
    assert_eq!(sequential, pipeline_battery(&|w| run_unsharded(&un, w)));
    for threads in [0usize, 2, 8] {
        db.set_exec_options(ExecOptions::threads(threads)).unwrap();
        assert_eq!(
            pipeline_battery(&|w| run_sharded(&db, w)),
            sequential,
            "threads={threads}"
        );
    }
}

#[test]
fn env_sized_catalog_answers_identically() {
    // A sharded catalog is sized by its caller, never by the process
    // environment: `hash(n)` has exactly `n` shards at the default
    // `ExecOptions`, and answers like the unsharded engine.
    let rows = 800;
    let un = unsharded(rows);
    let reference = pipeline_battery(&|w| run_unsharded(&un, w));
    for shards in [1usize, 2, 4] {
        let mut db = ShardedDatabase::hash(shards).unwrap();
        assert_eq!(db.shards(), shards);
        assert_eq!(db.exec_options(), ExecOptions::default());
        db.register(orders(rows), "cust").unwrap();
        db.register(customers(), "id").unwrap();
        index_all(&mut |t, c, k| db.create_index(t, c, k).unwrap());
        let got = pipeline_battery(&|w| run_sharded(&db, w));
        for ((name, expect), (_, actual)) in reference.iter().zip(&got) {
            assert_eq!(actual, expect, "hash x{shards}: `{name}` diverged");
        }
    }
}
