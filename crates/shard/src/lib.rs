//! # ccindex-shard — sharded catalog with scatter-gather execution
//!
//! The ROADMAP's "Sharding" step: partition tables across N shards by a
//! key column — hash or range, per the Gamma-style shared-nothing
//! designs — so a catalog can exceed one node's memory, while every
//! query keeps answering **byte-identically** to the unsharded
//! [`Database`](mmdb::Database).
//!
//! Two pieces:
//!
//! * [`Partitioner`] — who owns which key: [`HashPartitioner`]
//!   (deterministic FNV, equality probes prune to one shard) and
//!   [`RangePartitioner`] (declared inclusive ranges, both equality and
//!   range probes prune; out-of-range keys fail placement with a typed
//!   [`MmdbError::ShardKeyOutOfRange`](mmdb::MmdbError));
//! * [`ShardedDatabase`] — N per-shard `Database` catalogs behind the
//!   one `mmdb` query surface: it derefs to its composed generation
//!   ([`ShardedState`], a `CatalogRead`), whose `query` hands back the
//!   same [`mmdb::Query`] builder, compiles — on the coordinator,
//!   through the same planner, from the schema it keeps — to the same
//!   [`mmdb::Plan`] (its `routing` filled in) and answers the same
//!   [`mmdb::ResultSet`]. It splits updates by shard and executes
//!   queries scatter-gather through one exchange and one merge: a
//!   shard-local plan (no join, or a join co-located on both shard
//!   keys) runs whole on each shard the partitioner says can match —
//!   one request per shard — and the coordinator merges the local RID
//!   sets, join pairs or partial aggregates; only a join that is not
//!   co-located streams its outer keys through the coordinator, fanned
//!   (or bucketed) across inner shards over the shared worker pool.
//!
//! ```
//! use ccindex_shard::{RangePartitioner, ShardedDatabase};
//! use mmdb::{between, eq, IndexKind, TableBuilder, Value};
//!
//! // 4 shards, hash-partitioned on the customer key.
//! let mut db = ShardedDatabase::hash(4)?;
//! db.register(
//!     TableBuilder::new("sales")
//!         .int_column("cust", [1, 2, 1, 3])
//!         .int_column("amount", [10, 40, 25, 99])
//!         .build()?,
//!     "cust", // shard key
//! )?;
//! db.create_index("sales", "cust", IndexKind::Hash)?;
//! db.create_index("sales", "amount", IndexKind::FullCss)?;
//!
//! // Equality on the shard key routes to exactly one shard; the plan —
//! // the same `Plan` a `Database` compiles — records it in `routing`.
//! let plan = db.query("sales").filter(eq("cust", 1)).plan()?;
//! assert_eq!(plan.routing.shards, 4);
//! assert!(plan.explain().contains("(pruned)"));
//! assert!(plan.is_shard_local()); // the whole plan runs on that shard
//! assert_eq!(plan.execute(&db)?.rids(), &[0, 2]); // global row ids
//! assert_eq!(plan.execute(&db.snapshot())?.rids(), &[0, 2]); // or a pinned one
//!
//! // Updates split by owning shard; the shard key re-partitions.
//! db.replace_column(
//!     "sales",
//!     "amount",
//!     vec![11, 41, 26, 100].into_iter().map(Value::Int).collect(),
//! )?;
//! let hits = db.query("sales").filter(between("amount", 20, 50)).run()?;
//! assert_eq!(hits.values("amount")?, vec![Value::Int(41), Value::Int(26)]);
//!
//! // Range partitioning prunes range probes too.
//! let mut ranged = ShardedDatabase::new(RangePartitioner::int_spans(0, 99, 4)?)?;
//! ranged.register(
//!     TableBuilder::new("sales")
//!         .int_column("cust", [1, 2, 55, 90])
//!         .build()?,
//!     "cust",
//! )?;
//! ranged.create_index("sales", "cust", IndexKind::FullCss)?;
//! let plan = ranged.query("sales").filter(between("cust", 0, 30)).plan()?;
//! assert_eq!(plan.routing.selected, vec![0, 1]); // shards 2, 3 pruned
//! # Ok::<(), mmdb::MmdbError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod backend;
mod partition;
mod remote;
mod sharded;

pub use backend::{LocalShard, ShardBackend, ShardRead};
pub use partition::{HashPartitioner, Partitioner, RangePartitioner};
pub use remote::{RemoteShard, SHARD_TIMEOUT_KNOB};
pub use sharded::{
    ShardedDatabase, ShardedHandle, ShardedRebuildReport, ShardedSnapshot, ShardedState,
};

#[cfg(test)]
mod tests {
    use super::{HashPartitioner, Partitioner, RangePartitioner, ShardedDatabase, ShardedState};
    use mmdb::plan::{JoinRouting, Plan, Routing, ShardTargets};
    use mmdb::{
        between, count, eq, on, sum, CatalogRead, Database, ExecOptions, IndexKind, MmdbError,
        QuerySpec, TableBuilder, Value,
    };

    fn seed_tables(rows: usize) -> (mmdb::Table, mmdb::Table) {
        let sales = TableBuilder::new("sales")
            .int_column("cust", (0..rows).map(|i| (i as i64 * 31) % 40))
            .int_column("amount", (0..rows).map(|i| (i as i64 * 17) % 500))
            .str_column("day", (0..rows).map(|i| ["mon", "tue", "wed"][i % 3]))
            .build()
            .expect("equal columns");
        let customers = TableBuilder::new("customers")
            .int_column("id", 0..40i64)
            .str_column("region", (0..40).map(|i| ["e", "w", "n", "s"][i % 4]))
            .build()
            .expect("equal columns");
        (sales, customers)
    }

    fn unsharded(rows: usize) -> Database {
        let (sales, customers) = seed_tables(rows);
        let mut db = Database::new();
        db.register(sales).unwrap();
        db.register(customers).unwrap();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        db.create_index("sales", "cust", IndexKind::Hash).unwrap();
        db.create_index("sales", "cust", IndexKind::BPlusTree)
            .unwrap();
        db.create_index("customers", "id", IndexKind::LevelCss)
            .unwrap();
        db
    }

    fn sharded<P: Partitioner + 'static>(rows: usize, p: P) -> ShardedDatabase {
        let (sales, customers) = seed_tables(rows);
        let mut db = ShardedDatabase::new(p).unwrap();
        db.register(sales, "cust").unwrap();
        db.register(customers, "id").unwrap();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        db.create_index("sales", "cust", IndexKind::Hash).unwrap();
        db.create_index("sales", "cust", IndexKind::BPlusTree)
            .unwrap();
        db.create_index("customers", "id", IndexKind::LevelCss)
            .unwrap();
        db
    }

    #[test]
    fn registration_splits_rows_and_keeps_global_view() {
        let db = sharded(200, HashPartitioner::new(4).unwrap());
        assert_eq!(db.shards(), 4);
        assert_eq!(db.rows("sales").unwrap(), 200);
        assert_eq!(db.shard_key("sales").unwrap(), "cust");
        assert_eq!(db.tables().collect::<Vec<_>>(), ["customers", "sales"]);
        // Every global row is placed exactly once and the per-shard row
        // counts add up: each global RID reads back its registered row.
        let total: usize = (0..4)
            .map(|s| db.shard(s).table("sales").unwrap().rows())
            .sum();
        assert_eq!(total, 200);
        let (sales, _) = seed_tables(200);
        let all: Vec<u32> = (0..200).collect();
        for column in ["cust", "amount", "day"] {
            let want: Vec<Value> = all
                .iter()
                .map(|&r| sales.value(column, r).unwrap())
                .collect();
            assert_eq!(db.values_at("sales", column, &all).unwrap(), want);
        }
    }

    #[test]
    fn placement_of_an_out_of_range_rid_is_a_typed_error() {
        let db = sharded(4, HashPartitioner::new(2).unwrap());
        assert_eq!(
            db.values_at("sales", "cust", &[99]).unwrap_err(),
            MmdbError::Unsupported {
                what: "rid 99 is out of range for table `sales` (4 rows)".into()
            }
        );
        // A snapshot answers from the placement it pinned.
        let snapshot = db.snapshot();
        assert_eq!(
            snapshot.values_at("sales", "cust", &[3]).unwrap(),
            db.values_at("sales", "cust", &[3]).unwrap()
        );
        assert!(matches!(
            snapshot.values_at("nope", "cust", &[0]).unwrap_err(),
            MmdbError::UnknownTable { .. }
        ));
    }

    #[test]
    fn typed_errors_surface_through_the_sharded_layer() {
        let mut db = sharded(60, HashPartitioner::new(2).unwrap());
        assert_eq!(
            db.query("slaes").run().unwrap_err(),
            MmdbError::UnknownTable {
                table: "slaes".into()
            }
        );
        let (sales, _) = seed_tables(10);
        assert_eq!(
            db.register(sales, "cust").unwrap_err(),
            MmdbError::DuplicateTable {
                table: "sales".into()
            }
        );
        let (sales2, _) = seed_tables(10);
        let mut renamed = TableBuilder::new("sales2");
        for (name, col) in sales2.columns() {
            renamed = renamed.column(
                name,
                (0..sales2.rows() as u32).map(|r| col.value(r)).collect(),
            );
        }
        assert_eq!(
            db.register(renamed.build().unwrap(), "nokey").unwrap_err(),
            MmdbError::UnknownColumn {
                table: "sales2".into(),
                column: "nokey".into()
            }
        );
        assert!(matches!(
            db.create_index("sales", "nocol", IndexKind::Hash)
                .unwrap_err(),
            MmdbError::UnknownColumn { .. }
        ));
        assert!(matches!(
            db.replace_column("sales", "amount", vec![Value::Int(1)])
                .unwrap_err(),
            MmdbError::RaggedColumn { .. }
        ));
    }

    #[test]
    fn out_of_range_keys_fail_registration_with_a_typed_error() {
        // Ranges cover keys 0..=19 only; 'cust' goes up to 39.
        let p = RangePartitioner::int_spans(0, 19, 2).unwrap();
        let mut db = ShardedDatabase::new(p).unwrap();
        let (sales, _) = seed_tables(60);
        let err = db.register(sales, "cust").unwrap_err();
        assert!(
            matches!(err, MmdbError::ShardKeyOutOfRange { shards: 2, .. }),
            "{err:?}"
        );
        // The failed registration left nothing behind.
        assert_eq!(db.tables().count(), 0);
    }

    #[test]
    fn empty_shards_answer_queries() {
        // All 'cust' keys land in [0, 39]; two of the four ranges own
        // keys nobody uses, so those shards hold zero sales rows.
        let p = RangePartitioner::new(vec![
            (Value::Int(0), Value::Int(39)),
            (Value::Int(40), Value::Int(79)),
            (Value::Int(80), Value::Int(119)),
            (Value::Int(120), Value::Int(159)),
        ])
        .unwrap();
        let db = sharded(90, p);
        assert_eq!(db.shard(1).table("sales").unwrap().rows(), 0);
        let un = unsharded(90);
        for (s, u) in [
            (
                db.query("sales").filter(eq("cust", 7)).run().unwrap(),
                un.query("sales").filter(eq("cust", 7)).run().unwrap(),
            ),
            (
                db.query("sales")
                    .filter(between("amount", 50, 300))
                    .run()
                    .unwrap(),
                un.query("sales")
                    .filter(between("amount", 50, 300))
                    .run()
                    .unwrap(),
            ),
        ] {
            assert_eq!(s.rows(), u.rows());
        }
        // A probe into an unowned key range matches nothing (and is not
        // an error).
        assert!(db
            .query("sales")
            .filter(eq("cust", 999))
            .run()
            .unwrap()
            .is_empty());
        // Group over the whole table still merges only non-empty shards.
        let s = db.query("sales").group_by("day", count()).run().unwrap();
        let u = un.query("sales").group_by("day", count()).run().unwrap();
        assert_eq!(s.rows(), u.rows());
    }

    /// The coordinator's plan body is the one shard 0's own planner
    /// compiles — row hints (shard 0's rows), sides, exec — so routing
    /// aside, the plan and its `explain()` are what a shard would say.
    #[test]
    fn the_coordinators_plan_body_is_shard_0s_compile() {
        let db = sharded(200, HashPartitioner::new(4).unwrap());
        let specs = [
            QuerySpec::table("sales").filter(eq("cust", 3)),
            QuerySpec::table("sales")
                .filter(between("amount", 10, 300))
                .join("customers", on("cust", "id"))
                .group_by("region", sum("amount")),
            QuerySpec::table("sales")
                .group_by("day", count())
                .exec(ExecOptions::threads(0)),
        ];
        for spec in &specs {
            let plan = db.compile(spec).unwrap();
            let body = Plan {
                routing: Routing::default(),
                ..plan
            };
            assert_eq!(body, db.shard(0).compile(spec).unwrap(), "{spec:?}");
        }
        assert!(db.shard(0).table("sales").unwrap().rows() < 200);
    }

    #[test]
    fn routing_prunes_and_explains() {
        let db = sharded(120, RangePartitioner::int_spans(0, 39, 4).unwrap());
        // Equality on the shard key: pruned to exactly one shard.
        let plan = db.query("sales").filter(eq("cust", 5)).plan().unwrap();
        assert_eq!(plan.routing.selected, vec![0]);
        assert!(matches!(
            plan.routing.probe_targets[0],
            ShardTargets::Pruned(ref s) if s == &[0]
        ));
        let text = plan.explain();
        assert!(text.contains("(pruned)"), "{text}");
        assert!(text.contains("range x4"), "{text}");
        assert!(text.contains("per-shard plan:"), "{text}");

        // Range on the shard key: pruned to the overlapping shards.
        let plan = db
            .query("sales")
            .filter(between("cust", 8, 22))
            .plan()
            .unwrap();
        assert_eq!(plan.routing.selected, vec![0, 1, 2]);

        // A non-key filter fans everywhere.
        let plan = db
            .query("sales")
            .filter(between("amount", 0, 10))
            .plan()
            .unwrap();
        assert_eq!(plan.routing.selected, vec![0, 1, 2, 3]);
        assert!(plan.explain().contains("all shards"), "{}", plan.explain());

        // Join on the inner shard key: bucketed; group gathers partials.
        let plan = db
            .query("sales")
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
            .plan()
            .unwrap();
        assert_eq!(plan.routing.join, Some(JoinRouting::Bucketed));
        let text = plan.explain();
        assert!(text.contains("bucketed by inner shard key id"), "{text}");
        assert!(text.contains("partial aggregates"), "{text}");
        // ... and co-located (sales is sharded on the outer join column),
        // so the whole plan runs inside each shard.
        assert!(plan.is_shard_local());
        assert!(
            text.contains("co-located on outer shard key cust"),
            "{text}"
        );
        assert!(text.contains("run: shard-local"), "{text}");

        // Join on a non-key inner column: fanned.
        let db2 = {
            let (sales, customers) = seed_tables(30);
            let mut db2 = ShardedDatabase::hash(3).unwrap();
            db2.register(sales, "amount").unwrap();
            db2.register(customers, "region").unwrap();
            db2.create_index("customers", "id", IndexKind::FullCss)
                .unwrap();
            db2
        };
        let plan = db2
            .query("sales")
            .join("customers", on("cust", "id"))
            .plan()
            .unwrap();
        assert_eq!(plan.routing.join, Some(JoinRouting::Fanned));
        assert!(!plan.is_shard_local());
        let text = plan.explain();
        assert!(text.contains("fanned to all"), "{text}");
        assert!(
            text.contains("run: join streamed through the coordinator"),
            "{text}"
        );
    }

    #[test]
    fn hash_and_range_results_match_the_unsharded_engine() {
        let rows = 240;
        let un = unsharded(rows);
        let hash_db = sharded(rows, HashPartitioner::new(3).unwrap());
        let range_db = sharded(rows, RangePartitioner::int_spans(0, 39, 3).unwrap());
        for db in [&hash_db, &range_db] {
            assert_eq!(
                db.query("sales")
                    .filter(eq("cust", 9))
                    .run()
                    .unwrap()
                    .rows(),
                un.query("sales")
                    .filter(eq("cust", 9))
                    .run()
                    .unwrap()
                    .rows()
            );
            assert_eq!(
                db.query("sales")
                    .filter(between("amount", 100, 400))
                    .filter(eq("cust", 2))
                    .run()
                    .unwrap()
                    .rows(),
                un.query("sales")
                    .filter(between("amount", 100, 400))
                    .filter(eq("cust", 2))
                    .run()
                    .unwrap()
                    .rows()
            );
            assert_eq!(
                db.query("sales")
                    .filter(between("amount", 40, 360))
                    .join("customers", on("cust", "id"))
                    .run()
                    .unwrap()
                    .rows(),
                un.query("sales")
                    .filter(between("amount", 40, 360))
                    .join("customers", on("cust", "id"))
                    .run()
                    .unwrap()
                    .rows()
            );
            assert_eq!(
                db.query("sales")
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount"))
                    .run()
                    .unwrap()
                    .rows(),
                un.query("sales")
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount"))
                    .run()
                    .unwrap()
                    .rows()
            );
        }
    }

    #[test]
    fn values_decode_through_owning_shards() {
        let rows = 90;
        let un = unsharded(rows);
        let db = sharded(rows, HashPartitioner::new(4).unwrap());
        let s = db.query("sales").filter(eq("cust", 3)).run().unwrap();
        let u = un.query("sales").filter(eq("cust", 3)).run().unwrap();
        assert_eq!(s.values("amount").unwrap(), u.values("amount").unwrap());
        let s = db
            .query("sales")
            .filter(eq("cust", 3))
            .join("customers", on("cust", "id"))
            .run()
            .unwrap();
        let u = un
            .query("sales")
            .filter(eq("cust", 3))
            .join("customers", on("cust", "id"))
            .run()
            .unwrap();
        assert_eq!(s.values("region").unwrap(), u.values("region").unwrap());
        assert_eq!(s.values("amount").unwrap(), u.values("amount").unwrap());
        let grouped = db.query("sales").group_by("day", count()).run().unwrap();
        assert!(matches!(
            grouped.values("day").unwrap_err(),
            MmdbError::Unsupported { .. }
        ));
    }

    #[test]
    fn replace_column_splits_updates_by_shard() {
        let rows = 80;
        let mut db = sharded(rows, HashPartitioner::new(4).unwrap());
        let mut un = unsharded(rows);
        let new_amounts: Vec<Value> = (0..rows).map(|i| Value::Int((i as i64 * 7) % 90)).collect();
        let report = db
            .replace_column("sales", "amount", new_amounts.clone())
            .unwrap();
        assert!(!report.repartitioned);
        assert_eq!(report.per_shard.len(), 4);
        un.replace_column("sales", "amount", new_amounts).unwrap();
        assert_eq!(
            db.query("sales")
                .filter(between("amount", 10, 60))
                .run()
                .unwrap()
                .rows(),
            un.query("sales")
                .filter(between("amount", 10, 60))
                .run()
                .unwrap()
                .rows()
        );
    }

    #[test]
    fn replacing_the_shard_key_repartitions() {
        let rows = 80;
        let mut db = sharded(rows, HashPartitioner::new(4).unwrap());
        let mut un = unsharded(rows);
        // New keys move most rows to different shards.
        let new_keys: Vec<Value> = (0..rows)
            .map(|i| Value::Int((i as i64 * 13 + 5) % 40))
            .collect();
        let report = db
            .replace_column("sales", "cust", new_keys.clone())
            .unwrap();
        assert!(report.repartitioned);
        un.replace_column("sales", "cust", new_keys).unwrap();
        // Queries through the re-partitioned catalog still match.
        assert_eq!(
            db.query("sales")
                .filter(eq("cust", 18))
                .run()
                .unwrap()
                .rows(),
            un.query("sales")
                .filter(eq("cust", 18))
                .run()
                .unwrap()
                .rows()
        );
        assert_eq!(
            db.query("sales")
                .join("customers", on("cust", "id"))
                .group_by("region", sum("amount"))
                .run()
                .unwrap()
                .rows(),
            un.query("sales")
                .join("customers", on("cust", "id"))
                .group_by("region", sum("amount"))
                .run()
                .unwrap()
                .rows()
        );
        // Re-partitioning onto a range partitioner that cannot own the
        // new keys is a typed error that leaves the catalog answering.
        let mut rdb = sharded(rows, RangePartitioner::int_spans(0, 39, 2).unwrap());
        let bad: Vec<Value> = (0..rows).map(|i| Value::Int(i as i64 * 50)).collect();
        assert!(matches!(
            rdb.replace_column("sales", "cust", bad).unwrap_err(),
            MmdbError::ShardKeyOutOfRange { .. }
        ));
        // The failed replacement left the catalog untouched: it still
        // answers with its original rows (compare against a fresh
        // unsharded build, since `un` was key-replaced above).
        assert_eq!(
            rdb.query("sales")
                .filter(eq("cust", 9))
                .run()
                .unwrap()
                .rows(),
            unsharded(rows)
                .query("sales")
                .filter(eq("cust", 9))
                .run()
                .unwrap()
                .rows()
        );
    }

    #[test]
    fn scatter_probe_batches_match_the_unsharded_engine() {
        let rows = 150;
        let un = unsharded(rows);
        for db in [
            sharded(rows, HashPartitioner::new(4).unwrap()),
            sharded(rows, RangePartitioner::int_spans(0, 39, 4).unwrap()),
        ] {
            // Point probes on the shard key (pruned routing), including
            // duplicates and a key no shard owns under range layout.
            let values: Vec<Value> = [3i64, 17, 3, 999, 0].map(Value::Int).to_vec();
            let got = db.point_probe_batch("sales", "cust", &values).unwrap();
            let want = un.point_probe_batch("sales", "cust", &values).unwrap();
            assert_eq!(got, want, "{}", db.partitioner());
            // ... and on a non-key column (fanned routing).
            let values: Vec<Value> = [100i64, 317, 9_999].map(Value::Int).to_vec();
            assert_eq!(
                db.point_probe_batch("sales", "amount", &values).unwrap(),
                un.point_probe_batch("sales", "amount", &values).unwrap(),
                "{}",
                db.partitioner()
            );
            // Range probes on key and non-key columns, with empty and
            // inverted ranges in the batch.
            let ranges: Vec<(Value, Value)> = [(5i64, 20i64), (39, 10), (-5, 2)]
                .map(|(lo, hi)| (Value::Int(lo), Value::Int(hi)))
                .to_vec();
            assert_eq!(
                db.range_probe_batch("sales", "cust", &ranges).unwrap(),
                un.range_probe_batch("sales", "cust", &ranges).unwrap(),
                "{}",
                db.partitioner()
            );
            assert_eq!(
                db.range_probe_batch("sales", "amount", &ranges).unwrap(),
                un.range_probe_batch("sales", "amount", &ranges).unwrap(),
                "{}",
                db.partitioner()
            );
            // Each slot also equals its per-request query.
            for (v, rids) in values.iter().zip(
                db.point_probe_batch("sales", "amount", &values)
                    .unwrap()
                    .iter(),
            ) {
                let one = db
                    .query("sales")
                    .filter(eq("amount", v.clone()))
                    .run()
                    .unwrap();
                assert_eq!(rids, one.rids(), "value {v}");
            }
            // Typed errors surface unchanged.
            assert!(matches!(
                db.point_probe_batch("nope", "cust", &[Value::Int(1)])
                    .unwrap_err(),
                MmdbError::UnknownTable { .. }
            ));
            assert!(matches!(
                db.point_probe_batch("sales", "day", &[Value::from("mon")])
                    .unwrap_err(),
                MmdbError::NoIndex { .. }
            ));
        }
    }

    #[test]
    fn probe_batch_validation_beats_routing() {
        // The access path resolves before routing: a misconfigured
        // column must fail typed even when every probe routes to no
        // shard (unowned keys, inverted ranges, or an empty batch) —
        // exactly like the per-request query path would.
        let (sales, customers) = seed_tables(30);
        let mut db = ShardedDatabase::new(RangePartitioner::int_spans(0, 39, 2).unwrap()).unwrap();
        db.register(sales, "cust").unwrap();
        db.register(customers, "id").unwrap();
        // No index on cust yet: every shape fails NoIndex/NoOrderedIndex.
        assert!(matches!(
            db.point_probe_batch("sales", "cust", &[Value::Int(999)])
                .unwrap_err(),
            MmdbError::NoIndex { .. }
        ));
        db.create_index("sales", "cust", IndexKind::Hash).unwrap();
        // Hash-only column: ranges fail even when inverted (routes nowhere).
        assert!(matches!(
            db.range_probe_batch("sales", "cust", &[(Value::Int(50), Value::Int(10))])
                .unwrap_err(),
            MmdbError::NoOrderedIndex { .. }
        ));
        // Empty batches still validate their names.
        assert!(matches!(
            db.point_probe_batch("sales", "nocol", &[]).unwrap_err(),
            MmdbError::UnknownColumn { .. }
        ));
        // A well-formed batch of only-unowned keys answers empty, not
        // an error.
        assert_eq!(
            db.point_probe_batch("sales", "cust", &[Value::Int(999)])
                .unwrap(),
            vec![Vec::<u32>::new()]
        );
    }

    #[test]
    fn stale_plans_fail_with_a_typed_error() {
        let rows = 60;
        let refused = |err: MmdbError| {
            assert!(matches!(err, MmdbError::Unsupported { .. }), "{err:?}");
            assert!(err.to_string().contains("recompile"), "{err}");
        };
        // A plan compiled for one shard count indexes that catalog's
        // shards; executing it elsewhere must fail typed, not panic.
        let db4 = sharded(rows, HashPartitioner::new(4).unwrap());
        let db2 = sharded(rows, HashPartitioner::new(2).unwrap());
        let plan = db4.query("sales").filter(eq("cust", 1)).plan().unwrap();
        refused(plan.execute(&db2).unwrap_err());

        // So must a plan for another catalog shape with the same shard
        // count. Each of these used to run and drop rows: its routing
        // named the shards of the catalog it was compiled for.
        let un = unsharded(rows);
        let want = |cust: i64| un.query("sales").filter(eq("cust", cust)).run().unwrap();
        fn on_key(db: &ShardedDatabase, cust: i64) -> mmdb::Query<'_, ShardedState> {
            db.query("sales").filter(eq("cust", cust))
        }

        // The same rows under another partitioner: the hash plan routes
        // key 4 to the shard that holds keys 20..=39 on the range catalog.
        let hash2 = sharded(rows, HashPartitioner::new(2).unwrap());
        let range2 = sharded(rows, RangePartitioner::int_spans(0, 39, 2).unwrap());
        assert_eq!(want(4).len(), 2);
        refused(
            on_key(&hash2, 4)
                .plan()
                .unwrap()
                .execute(&range2)
                .unwrap_err(),
        );
        assert_eq!(on_key(&range2, 4).run().unwrap().rows(), want(4).rows());

        // The same partitioner, sharded on another column: key 7's rows
        // are spread by amount, not on the one shard the plan names.
        let by_amount = {
            let (sales, customers) = seed_tables(rows);
            let mut db = ShardedDatabase::hash(3).unwrap();
            db.register(sales, "amount").unwrap();
            db.register(customers, "id").unwrap();
            db.create_index("sales", "cust", IndexKind::Hash).unwrap();
            db
        };
        let by_cust = sharded(rows, HashPartitioner::new(3).unwrap());
        assert_eq!(want(7).len(), 2);
        refused(
            on_key(&by_cust, 7)
                .plan()
                .unwrap()
                .execute(&by_amount)
                .unwrap_err(),
        );
        assert_eq!(on_key(&by_amount, 7).run().unwrap().rows(), want(7).rows());

        // A `Database` plan on a sharded catalog, and the reverse.
        let plan = un.query("sales").filter(eq("cust", 7)).plan().unwrap();
        refused(plan.execute(&hash2).unwrap_err());
        refused(plan.execute(&hash2.snapshot()).unwrap_err());
        let plan = on_key(&hash2, 7).plan().unwrap();
        refused(plan.execute(&un).unwrap_err());
        refused(plan.execute(&un.snapshot()).unwrap_err());
    }

    #[test]
    fn single_shard_catalog_is_the_identity() {
        let rows = 50;
        let un = unsharded(rows);
        let db = sharded(rows, HashPartitioner::new(1).unwrap());
        assert_eq!(
            db.query("sales").run().unwrap().rids(),
            un.query("sales").run().unwrap().rids()
        );
        let plan = db.query("sales").filter(eq("cust", 1)).plan().unwrap();
        assert_eq!(plan.routing.selected, vec![0]);
    }

    #[test]
    fn snapshots_pin_composed_generations_across_commits() {
        let rows = 80;
        let mut db = sharded(rows, HashPartitioner::new(4).unwrap());
        let before = db.snapshot();
        assert_eq!(before.generation(), db.generation());
        let old_rids = before
            .query("sales")
            .filter(eq("cust", 3))
            .run()
            .unwrap()
            .rids()
            .to_vec();

        // Commit a non-key replacement; the pinned snapshot keeps
        // answering from its generation while new snapshots see the new
        // values.
        let gen_before = db.generation();
        let new_amounts: Vec<Value> = (0..rows).map(|i| Value::Int((i as i64 * 7) % 90)).collect();
        db.replace_column("sales", "amount", new_amounts).unwrap();
        assert_eq!(db.generation(), gen_before + 1, "one commit per cycle");
        let after = db.snapshot();
        assert_eq!(
            before
                .query("sales")
                .filter(eq("cust", 3))
                .run()
                .unwrap()
                .rids(),
            &old_rids[..],
            "pinned snapshot is immutable"
        );
        assert_ne!(
            before
                .query("sales")
                .filter(between("amount", 10, 60))
                .run()
                .unwrap()
                .rows(),
            after
                .query("sales")
                .filter(between("amount", 10, 60))
                .run()
                .unwrap()
                .rows(),
            "new snapshot sees the replacement"
        );
        assert_eq!(db.pinned_snapshots(), 2);
        drop(before);
        drop(after);
        assert_eq!(db.pinned_snapshots(), 0);
    }

    #[test]
    fn snapshots_survive_a_repartition_whole() {
        // A shard-key replacement moves rows between shards; a snapshot
        // pinned before the move must keep the *old* placement and the
        // old per-shard tables together — never a mix.
        let rows = 80;
        let mut db = sharded(rows, HashPartitioner::new(4).unwrap());
        let before = db.snapshot();
        let old = before
            .query("sales")
            .filter(eq("cust", 18))
            .run()
            .unwrap()
            .rids()
            .to_vec();
        let new_keys: Vec<Value> = (0..rows)
            .map(|i| Value::Int((i as i64 * 13 + 5) % 40))
            .collect();
        db.replace_column("sales", "cust", new_keys.clone())
            .unwrap();
        assert_eq!(
            before
                .query("sales")
                .filter(eq("cust", 18))
                .run()
                .unwrap()
                .rids(),
            &old[..]
        );
        // Probe batches through the old snapshot agree with an unsharded
        // catalog that never saw the update.
        let un = unsharded(rows);
        let values: Vec<Value> = [3i64, 18, 999].map(Value::Int).to_vec();
        assert_eq!(
            before.point_probe_batch("sales", "cust", &values).unwrap(),
            un.point_probe_batch("sales", "cust", &values).unwrap()
        );
        // And the new snapshot agrees with an unsharded catalog that did.
        let mut un2 = unsharded(rows);
        un2.replace_column("sales", "cust", new_keys).unwrap();
        assert_eq!(
            db.snapshot()
                .point_probe_batch("sales", "cust", &values)
                .unwrap(),
            un2.point_probe_batch("sales", "cust", &values).unwrap()
        );
    }

    #[test]
    fn handles_share_the_commit_slot_across_threads() {
        let rows = 60;
        let mut db = sharded(rows, HashPartitioner::new(2).unwrap());
        let handle = db.handle();
        let want = db
            .query("sales")
            .filter(eq("cust", 9))
            .run()
            .unwrap()
            .rids()
            .to_vec();
        std::thread::scope(|scope| {
            let reader = scope.spawn({
                let handle = handle.clone();
                move || {
                    let snap = handle.snapshot();
                    snap.query("sales")
                        .filter(eq("cust", 9))
                        .run()
                        .unwrap()
                        .rids()
                        .to_vec()
                }
            });
            assert_eq!(reader.join().expect("reader"), want);
        });
        let gen = handle.generation();
        db.create_index("sales", "day", IndexKind::Hash).unwrap();
        assert_eq!(handle.generation(), gen + 1);
        assert!(handle.swaps() > 0);
        // The new generation serves the new index.
        assert_eq!(
            handle
                .snapshot()
                .point_probe_batch("sales", "day", &[Value::from("mon")])
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn failed_mutations_do_not_commit_a_generation() {
        let mut db = sharded(40, HashPartitioner::new(2).unwrap());
        let (gen, swaps) = (db.generation(), db.swap_count());
        assert!(db
            .replace_column("sales", "amount", vec![Value::Int(1)])
            .is_err());
        assert!(db.create_index("sales", "nocol", IndexKind::Hash).is_err());
        let (sales, _) = seed_tables(10);
        assert!(db.register(sales, "cust").is_err());
        assert_eq!((db.generation(), db.swap_count()), (gen, swaps));
    }
}
