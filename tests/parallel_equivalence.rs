//! Parallel/sequential equivalence: every operator and every engine stage
//! routed through the worker pool must return byte-identical results to
//! its one-thread run — across all 8 `IndexKind`s and thread counts
//! {1, 2, 8} (plus 0 = all cores), at both layer levels: the raw
//! physical operators (one form each, at every lane count too) and whole
//! queries through `Database` with `ExecOptions`.

use ccindex::css::{CssVariant, DynCssTree};
use ccindex::db::domain::Value;
use ccindex::db::{
    between, eq, group_aggregate_pairs, indexed_nested_loop_join, on, point_select_many,
    range_select_many, sum, AggFn, Database, ExecOptions, IndexKind, Measure, ResultRows, RidList,
    TableBuilder,
};
use ccindex::parallel::WorkerPool;
use ccindex::prelude::*;

const THREADS: [usize; 4] = [1, 2, 8, 0];

fn workload_db() -> Database {
    let n = 6_000usize;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("orders")
            .int_column("cust", (0..n).map(|i| (i as i64 * 131) % 400))
            .int_column("amount", (0..n).map(|i| (i as i64 * 17) % 1_000))
            .build()
            .expect("equal columns"),
    )
    .expect("fresh");
    db.register(
        TableBuilder::new("customers")
            .int_column("id", 0..400i64)
            .str_column("region", (0..400).map(|i| ["e", "w", "n", "s"][i % 4]))
            .build()
            .expect("equal columns"),
    )
    .expect("fresh");
    for kind in IndexKind::ALL {
        db.create_index("orders", "amount", kind).expect("column");
        db.create_index("customers", "id", kind).expect("column");
    }
    db
}

/// Whole queries through the engine: every kind forced as the access
/// path, every thread count, compared stage by stage against the
/// sequential run of the same query.
#[test]
fn engine_queries_are_identical_across_kinds_and_threads() {
    let mut db = workload_db();
    for kind in IndexKind::ALL {
        let queries = |db: &Database| -> Vec<ResultRows> {
            let mut out = vec![
                // Equality stage.
                db.query("orders")
                    .filter(eq("amount", 340))
                    .using(kind)
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                // Join stage (inner access path forced to `kind`).
                db.query("orders")
                    .filter(eq("amount", 123))
                    .join("customers", on("cust", "id"))
                    .using(kind)
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                // Group stage over the whole table (no index involved in
                // the aggregation itself).
                db.query("orders")
                    .group_by("cust", sum("amount"))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
            ];
            if kind.is_ordered() {
                // Range stage (the hash kind cannot serve it).
                out.push(
                    db.query("orders")
                        .filter(between("amount", 250, 750))
                        .using(kind)
                        .run()
                        .expect("planned")
                        .rows()
                        .clone(),
                );
                // The full pipeline: range + join + group.
                out.push(
                    db.query("orders")
                        .filter(between("amount", 100, 900))
                        .join("customers", on("cust", "id"))
                        .group_by("region", sum("amount"))
                        .using(kind)
                        .run()
                        .expect("planned")
                        .rows()
                        .clone(),
                );
            }
            out
        };
        db.set_exec_options(ExecOptions::default());
        let sequential = queries(&db);
        for threads in THREADS {
            db.set_exec_options(ExecOptions::threads(threads));
            assert_eq!(queries(&db), sequential, "{kind:?} threads={threads}");
        }
    }
}

/// An adaptive plan (`threads == 0`) must *explain* the worker count it
/// resolves to for the planner's row estimate — via the same
/// `adaptive_threads` the executor applies — never the raw `0` knob.
#[test]
fn adaptive_explain_reports_resolved_worker_counts() {
    let db = workload_db();
    let plan = db
        .query("orders")
        .filter(between("amount", 100, 900))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .exec(ExecOptions::threads(0))
        .plan()
        .expect("planned");
    // The chunkable nodes keep the adaptive sentinel for execution but
    // carry the driving table's row count as their explain hint.
    let join = plan.join.as_ref().expect("join step");
    let group = plan.group.as_ref().expect("group step");
    assert_eq!((join.threads, group.threads), (0, 0));
    let rows = db.table("orders").expect("registered").rows();
    assert_eq!((join.rows_hint, group.rows_hint), (rows, rows));
    let resolved = ccindex::parallel::adaptive_threads(rows);
    let text = plan.explain();
    let expect = format!("[x{resolved} threads (adaptive)]");
    assert!(text.contains(&expect), "want `{expect}` in:\n{text}");
    assert!(!text.contains("x0"), "raw 0 knob must not leak:\n{text}");
    assert!(
        text.contains("exec: adaptive worker(s), resolved per node"),
        "{text}"
    );
    // The adaptive plan still answers identically to the sequential one.
    let sequential = db
        .query("orders")
        .filter(between("amount", 100, 900))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()
        .expect("planned");
    assert_eq!(
        plan.execute(&db).expect("executed").rows(),
        sequential.rows()
    );
}

/// The raw operators, each at every thread count and lane count, against
/// the same operator run inline at the default lanes.
#[test]
fn physical_operators_are_identical_across_kinds_and_threads() {
    let db = workload_db();
    let orders = db.table("orders").expect("registered");
    let amount = orders.column("amount").expect("present");
    let rl = RidList::for_column(amount);
    let customers = db.table("customers").expect("registered");
    let cust = orders.column("cust").expect("present");
    let id = customers.column("id").expect("present");
    let irl = RidList::for_column(id);
    let values: Vec<Value> = (0..500i64).map(|v| Value::Int(v * 3 - 100)).collect();
    let ranges: Vec<(Value, Value)> = (0..200i64)
        .map(|v| (Value::Int(v * 4 - 50), Value::Int(v * 4 + 90)))
        .collect();
    let all_outer: Vec<u32> = (0..cust.len() as u32).collect();
    // Every kind's access path answers from the catalog's one RID list.
    assert_eq!(
        db.rid_list("orders", "amount").expect("indexed").rids(),
        rl.rids()
    );
    assert_eq!(
        db.rid_list("customers", "id").expect("indexed").rids(),
        irl.rids()
    );
    let points = |lanes, threads| point_select_many(amount, &rl, &values, lanes, threads);
    let join =
        |lanes, threads| indexed_nested_loop_join(cust, &all_outer, id, &irl, lanes, threads);
    let bands = |lanes, threads| range_select_many(amount, &rl, &ranges, lanes, threads);
    let (seq_points, seq_join, seq_bands) = (points(8, 1), join(8, 1), bands(8, 1));
    for threads in THREADS {
        for lanes in [1, 3, 8] {
            let at = format!("threads={threads} lanes={lanes}");
            assert_eq!(points(lanes, threads), seq_points, "{at}");
            assert_eq!(join(lanes, threads), seq_join, "{at}");
            assert_eq!(bands(lanes, threads), seq_bands, "{at}");
        }
    }
    // Grouped aggregation with per-worker partials.
    let region = customers.column("region").expect("present");
    let rows = id.len();
    for agg in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max] {
        let measure = Measure::resolve(agg, Some(("customers", "id", id))).expect("Int measure");
        let pair = |r: usize| (r as u32, measure.at(r as u32));
        let seq = group_aggregate_pairs(region, rows, pair, agg, 1);
        for threads in THREADS {
            assert_eq!(
                group_aggregate_pairs(region, rows, pair, agg, threads),
                seq,
                "{agg:?} threads={threads}"
            );
        }
    }
}

/// The CSS trees' partitioned batch descents, over every standard node
/// size and both variants, including degenerate lane counts.
#[test]
fn css_partitioned_batches_are_identical() {
    let keys: Vec<u32> = (0..30_000u32).map(|i| i * 3 % 50_021).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let arr = SortedArray::from_slice(&sorted);
    let probes: Vec<u32> = (0..5_000u32).map(|i| i * 37 % 90_100).collect();
    for (variant, m) in [
        (CssVariant::Full, 16usize),
        (CssVariant::Level, 16),
        (CssVariant::Full, 24), // no monomorph: the runtime-`m` tree
    ] {
        let t = DynCssTree::build(variant, m, arr.clone());
        let seq_lb = t.lower_bound_batch(&probes);
        let seq_pt: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
        for threads in THREADS {
            for lanes in [0usize, 1, 8, 64] {
                assert_eq!(
                    t.lower_bound_batch_par(&probes, lanes, threads),
                    seq_lb,
                    "{variant:?} m={m} threads={threads} lanes={lanes}"
                );
                assert_eq!(
                    t.search_batch_par(&probes, lanes, threads),
                    seq_pt,
                    "{variant:?} m={m} threads={threads} lanes={lanes}"
                );
            }
        }
    }
    // The worker pool itself honours ordering for uneven partitions.
    let pool = WorkerPool::new(8);
    let doubled = pool.flat_map_chunks(&probes, |c| c.iter().map(|&p| u64::from(p) * 2).collect());
    let expect: Vec<u64> = probes.iter().map(|&p| u64::from(p) * 2).collect();
    assert_eq!(doubled, expect);
}
