//! The sharded `explain()` text, pinned byte for byte: one compiled plan
//! per scatter shape (pruned point, fanned range, two filters, no
//! filter, co-located join, bucketed and fanned streamed joins, grouped
//! join) on a hash x4 and a range x2 catalog, and `explain_timed` on a
//! sharded result. The text is how an operator reads a plan's routing,
//! so a change to it must show up here.

use ccindex::db::Query;
use ccindex::prelude::*;
use ccindex::shard::ShardedState;

/// `sales` sharded on `cust` and `customers` on `id` over `partitioner`,
/// at the default (sequential) exec options whatever the environment.
fn catalog<P: Partitioner + 'static>(partitioner: P) -> ShardedDatabase {
    let mut db = ShardedDatabase::new(partitioner).unwrap();
    db.set_exec_options(ExecOptions::default()).unwrap();
    db.register(
        TableBuilder::new("sales")
            .int_column("cust", (0..120).map(|i| (i * 31) % 40))
            .int_column("amount", (0..120).map(|i| (i * 17) % 40))
            .str_column("day", (0..120).map(|i| ["e", "w", "n"][i % 3]))
            .build()
            .unwrap(),
        "cust",
    )
    .unwrap();
    db.register(
        TableBuilder::new("customers")
            .int_column("id", 0..40)
            .str_column("region", (0..40).map(|i| ["e", "w", "n", "s"][i % 4]))
            .build()
            .unwrap(),
        "id",
    )
    .unwrap();
    for (table, column, kind) in [
        ("sales", "cust", IndexKind::Hash),
        ("sales", "cust", IndexKind::FullCss),
        ("sales", "amount", IndexKind::FullCss),
        ("customers", "id", IndexKind::LevelCss),
        ("customers", "region", IndexKind::Hash),
    ] {
        db.create_index(table, column, kind).unwrap();
    }
    db
}

/// Every scatter shape, named.
fn shapes(db: &ShardedState) -> Vec<(&'static str, Query<'_, ShardedState>)> {
    let q = || db.query("sales");
    vec![
        ("pruned point", q().filter(eq("cust", 7))),
        ("fanned range", q().filter(between("amount", 5, 20))),
        (
            "two filters",
            q().filter(between("cust", 0, 12)).filter(eq("amount", 9)),
        ),
        ("no filter", q()),
        (
            "co-located join",
            q().filter(between("amount", 5, 20))
                .join("customers", on("cust", "id")),
        ),
        (
            "bucketed streamed join",
            q().filter(eq("cust", 7))
                .join("customers", on("amount", "id")),
        ),
        (
            "fanned streamed join",
            q().filter(between("amount", 5, 20))
                .join("customers", on("day", "region")),
        ),
        (
            "grouped join",
            q().join("customers", on("cust", "id"))
                .group_by("region", sum("amount")),
        ),
    ]
}

fn assert_explains(db: &ShardedDatabase, want: &[&str]) {
    let shapes = shapes(db);
    assert_eq!(shapes.len(), want.len());
    for ((name, query), want) in shapes.into_iter().zip(want) {
        let got = query.plan().unwrap().explain();
        assert_eq!(got, *want, "{name} on {}", db.partitioner());
    }
}

#[test]
fn hash_x4_explain_text_is_pinned() {
    assert_explains(&catalog(HashPartitioner::new(4).unwrap()), &HASH_X4);
}

#[test]
fn range_x2_explain_text_is_pinned() {
    let db = catalog(RangePartitioner::int_spans(0, 39, 2).unwrap());
    assert_explains(&db, &RANGE_X2);
}

#[test]
fn a_sharded_result_explains_its_routing_and_total() {
    let db = catalog(HashPartitioner::new(4).unwrap());
    for (name, query) in shapes(&db) {
        let plan = query.plan().unwrap();
        let result = plan.execute(&db).unwrap();
        let text = plan.explain_timed(result.timings());
        // The routing and the per-shard plan, as `explain()` has them;
        // the exchange is timed as a whole, on one `total:` line.
        let total = text.strip_prefix(&plan.explain()).expect(name);
        let ns = total.strip_prefix("\ntotal: ").expect(name);
        assert!(!ns.is_empty() && !ns.contains('\n'), "{name}: {text}");
        assert!(
            text.starts_with("scatter sales across 4 shard(s)"),
            "{text}"
        );
        assert!(text.contains("\nper-shard plan:\n  scan sales"), "{text}");
    }
}

const HASH_X4: [&str; 8] = [
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  probe cust -> shards {0} (pruned)\n  scatter set: {0}\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales\n    probe cust = 7",
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  probe amount -> all shards (fanned)\n  scatter set: all shards\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales\n    probe amount in [5, 20]",
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  probe cust -> all shards (fanned)\n  probe amount -> all shards (fanned)\n  scatter set: all shards\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales\n    probe cust in [0, 12]\n    probe amount = 9\n    and 2 filters: the shortest run drives, the others test its rows' IDs",
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  scatter set: all shards\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales (all rows)",
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  probe amount -> all shards (fanned)\n  scatter set: all shards\n  join customers: outer probe batches bucketed by inner shard key id — co-located on outer shard key cust, joined inside each shard\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge join rows in (outer, inner) global order\nper-shard plan:\n  scan sales\n    probe amount in [5, 20]\n    join customers on cust = id",
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  probe cust -> shards {0} (pruned)\n  scatter set: {0}\n  join customers: outer probe batches bucketed by inner shard key id\n  run: join streamed through the coordinator (not co-located)\n  gather: merge join rows in (outer, inner) global order\nper-shard plan:\n  scan sales\n    probe cust = 7\n    join customers on amount = id",
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  probe amount -> all shards (fanned)\n  scatter set: all shards\n  join customers: outer RID chunks fanned to all 4 inner shard(s)\n  run: join streamed through the coordinator (not co-located)\n  gather: merge join rows in (outer, inner) global order\nper-shard plan:\n  scan sales\n    probe amount in [5, 20]\n    join customers on day = region",
    "scatter sales across 4 shard(s) (hash x4 on cust)\n  scatter set: all shards\n  join customers: outer probe batches bucketed by inner shard key id — co-located on outer shard key cust, joined inside each shard\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge per-shard partial aggregates by group value\nper-shard plan:\n  scan sales (all rows)\n    join customers on cust = id\n    group by region (Sum over amount)",
];
const RANGE_X2: [&str; 8] = [
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  probe cust -> shards {0} (pruned)\n  scatter set: {0}\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales\n    probe cust = 7",
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  probe amount -> all shards (fanned)\n  scatter set: all shards\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales\n    probe amount in [5, 20]",
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  probe cust -> shards {0} (pruned)\n  probe amount -> all shards (fanned)\n  scatter set: {0}\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales\n    probe cust in [0, 12]\n    probe amount = 9\n    and 2 filters: the shortest run drives, the others test its rows' IDs",
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  scatter set: all shards\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge RID sets in global row order\nper-shard plan:\n  scan sales (all rows)",
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  probe amount -> all shards (fanned)\n  scatter set: all shards\n  join customers: outer probe batches bucketed by inner shard key id — co-located on outer shard key cust, joined inside each shard\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge join rows in (outer, inner) global order\nper-shard plan:\n  scan sales\n    probe amount in [5, 20]\n    join customers on cust = id",
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  probe cust -> shards {0} (pruned)\n  scatter set: {0}\n  join customers: outer probe batches bucketed by inner shard key id\n  run: join streamed through the coordinator (not co-located)\n  gather: merge join rows in (outer, inner) global order\nper-shard plan:\n  scan sales\n    probe cust = 7\n    join customers on amount = id",
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  probe amount -> all shards (fanned)\n  scatter set: all shards\n  join customers: outer RID chunks fanned to all 2 inner shard(s)\n  run: join streamed through the coordinator (not co-located)\n  gather: merge join rows in (outer, inner) global order\nper-shard plan:\n  scan sales\n    probe amount in [5, 20]\n    join customers on day = region",
    "scatter sales across 2 shard(s) (range x2: [0, 19] [20, 39] on cust)\n  scatter set: all shards\n  join customers: outer probe batches bucketed by inner shard key id — co-located on outer shard key cust, joined inside each shard\n  run: shard-local — the whole plan on each routed shard, one request per shard\n  gather: merge per-shard partial aggregates by group value\nper-shard plan:\n  scan sales (all rows)\n    join customers on cust = id\n    group by region (Sum over amount)",
];
