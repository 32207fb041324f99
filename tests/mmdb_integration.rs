//! End-to-end database-substrate tests: query operators against brute
//! force on randomized tables, for every index kind — plus the
//! engine-vs-raw-operator equivalence suite: the same query through
//! [`Database`] and through the free functions must return identical RID
//! sets / join pairs / group rows for every [`IndexKind`].

use ccindex::common::SearchIndex;
use ccindex::db::domain::Value;
use ccindex::db::{
    between, build_index, count, eq, group_aggregate_pairs, indexed_nested_loop_join, on,
    point_select_many, range_select_many, sum, AggFn, Column, Database, IndexHandle, IndexKind,
    JoinRow, Measure, RidList, Table, TableBuilder,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// One value through the batched point selection, inline.
fn select_one(col: &Column, rids: &RidList, idx: &dyn SearchIndex<u32>, value: i64) -> Vec<u32> {
    point_select_many(col, rids, idx, &[Value::Int(value)], 8, 1).remove(0)
}

/// One inclusive range through the batched range selection on a fresh
/// `kind` index, inline.
fn range_one(col: &Column, rids: &RidList, kind: IndexKind, lo: Value, hi: Value) -> Vec<u32> {
    let handle = IndexHandle::build(kind, rids.keys());
    let idx = handle.as_ordered().expect("ordered kind");
    range_select_many(col, rids, idx, &[(lo, hi)], 8, 1).remove(0)
}

/// Every outer row joined through `idx`, inline.
fn join_every_row(
    outer: &Column,
    inner: &Column,
    inner_rids: &RidList,
    idx: &dyn SearchIndex<u32>,
) -> Vec<JoinRow> {
    let all: Vec<u32> = (0..outer.len() as u32).collect();
    indexed_nested_loop_join(outer, &all, inner, inner_rids, idx, 8, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn point_select_matches_scan(
        values in vec(0i64..200, 1..300),
        probe in 0i64..220,
    ) {
        let t = TableBuilder::new("t").int_column("v", values.clone()).build().unwrap();
        let col = t.column("v").unwrap();
        let rids = RidList::for_column(col);
        let expected: Vec<u32> = (0..values.len() as u32)
            .filter(|&r| values[r as usize] == probe)
            .collect();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, rids.keys());
            let got = select_one(col, &rids, idx.as_ref(), probe);
            prop_assert_eq!(&got, &expected, "{:?}", kind);
        }
    }

    #[test]
    fn range_select_matches_scan(
        values in vec(0i64..500, 1..300),
        a in 0i64..520,
        b in 0i64..520,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let t = TableBuilder::new("t").int_column("v", values.clone()).build().unwrap();
        let col = t.column("v").unwrap();
        let rids = RidList::for_column(col);
        let expected: Vec<u32> = (0..values.len() as u32)
            .filter(|&r| (lo..=hi).contains(&values[r as usize]))
            .collect();
        for kind in IndexKind::ORDERED {
            let got = range_one(col, &rids, kind, Value::Int(lo), Value::Int(hi));
            prop_assert_eq!(&got, &expected, "{:?} range [{},{}]", kind, lo, hi);
        }
    }

    #[test]
    fn join_matches_nested_scan(
        outer in vec(0i64..60, 1..120),
        inner in vec(0i64..60, 1..120),
    ) {
        let ot = TableBuilder::new("o").int_column("k", outer.clone()).build().unwrap();
        let it = TableBuilder::new("i").int_column("k", inner.clone()).build().unwrap();
        let ocol = ot.column("k").unwrap();
        let icol = it.column("k").unwrap();
        let irids = RidList::for_column(icol);

        let mut expected: Vec<(u32, u32)> = Vec::new();
        for (o, ov) in outer.iter().enumerate() {
            for (i, iv) in inner.iter().enumerate() {
                if ov == iv {
                    expected.push((o as u32, i as u32));
                }
            }
        }
        expected.sort_unstable();

        for kind in [IndexKind::FullCss, IndexKind::Hash, IndexKind::TTree] {
            let idx = build_index(kind, irids.keys());
            let mut got: Vec<(u32, u32)> =
                join_every_row(ocol, icol, &irids, idx.as_ref())
                    .into_iter()
                    .map(|j| (j.outer_rid, j.inner_rid))
                    .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{:?}", kind);
        }
    }
}

// ---------------------------------------------------------------------
// Engine-vs-raw-operator equivalence: for every index kind, the same
// query answered by the `Database` engine and by hand-threaded free
// functions.
// ---------------------------------------------------------------------

/// A deterministic two-table schema with duplicates in every column.
fn star_tables() -> (Table, Table) {
    let n = 400usize;
    let sales = TableBuilder::new("sales")
        .int_column("cust", (0..n).map(|i| (i * 7 % 50) as i64))
        .int_column("amount", (0..n).map(|i| (i * 13 % 90) as i64))
        .build()
        .expect("equal columns");
    let customers = TableBuilder::new("customers")
        .int_column("id", (0..45).map(|i| i as i64))
        .str_column("region", (0..45).map(|i| ["n", "s", "e", "w"][i % 4]))
        .build()
        .expect("equal columns");
    (sales, customers)
}

/// Engine with one index kind on every access-path column.
fn engine_with(kind: IndexKind) -> Database {
    let (sales, customers) = star_tables();
    let mut db = Database::new();
    db.register(sales).unwrap();
    db.register(customers).unwrap();
    db.create_index("sales", "amount", kind).unwrap();
    db.create_index("customers", "id", kind).unwrap();
    db
}

#[test]
fn engine_point_select_equals_raw_for_every_kind() {
    let (sales, _) = star_tables();
    let amount = sales.column("amount").unwrap();
    let rids = RidList::for_column(amount);
    for kind in IndexKind::ALL {
        let db = engine_with(kind);
        let idx = build_index(kind, rids.keys());
        for probe in [0i64, 13, 26, 89, 91, -1] {
            let raw = select_one(amount, &rids, idx.as_ref(), probe);
            let engine = db
                .query("sales")
                .filter(eq("amount", probe))
                .using(kind)
                .run()
                .unwrap();
            assert_eq!(engine.rids(), raw.as_slice(), "{kind:?} probe {probe}");
        }
    }
}

#[test]
fn engine_range_select_equals_raw_for_every_ordered_kind() {
    let (sales, _) = star_tables();
    let amount = sales.column("amount").unwrap();
    let rids = RidList::for_column(amount);
    for kind in IndexKind::ORDERED {
        let db = engine_with(kind);
        for (lo, hi) in [(0i64, 20i64), (15, 15), (85, 200), (90, 95)] {
            let raw = range_one(amount, &rids, kind, Value::Int(lo), Value::Int(hi));
            let engine = db
                .query("sales")
                .filter(between("amount", lo, hi))
                .using(kind)
                .run()
                .unwrap();
            assert_eq!(engine.rids(), raw.as_slice(), "{kind:?} [{lo}, {hi}]");
        }
    }
}

#[test]
fn engine_conjunction_equals_brute_force_for_every_ordered_kind() {
    let (sales, _) = star_tables();
    let cust = sales.column("cust").unwrap();
    let amount = sales.column("amount").unwrap();
    let expected: Vec<u32> = (0..sales.rows() as u32)
        .filter(|&r| {
            matches!(cust.value(r), Value::Int(c) if (10..=30).contains(&c))
                && matches!(amount.value(r), Value::Int(a) if (0..=45).contains(&a))
        })
        .collect();
    for kind in IndexKind::ORDERED {
        let mut db = engine_with(kind);
        db.create_index("sales", "cust", kind).unwrap();
        let engine = db
            .query("sales")
            .filter(between("cust", 10, 30))
            .filter(between("amount", 0, 45))
            .using(kind)
            .run()
            .unwrap();
        assert_eq!(engine.rids(), expected.as_slice(), "{kind:?}");
    }
}

#[test]
fn engine_join_equals_raw_for_every_kind() {
    let (sales, customers) = star_tables();
    let cust = sales.column("cust").unwrap();
    let id = customers.column("id").unwrap();
    let id_rids = RidList::for_column(id);
    for kind in IndexKind::ALL {
        let db = engine_with(kind);
        let idx = build_index(kind, id_rids.keys());
        let mut raw: Vec<(u32, u32)> = join_every_row(cust, id, &id_rids, idx.as_ref())
            .into_iter()
            .map(|j| (j.outer_rid, j.inner_rid))
            .collect();
        raw.sort_unstable();
        let engine = db
            .query("sales")
            .join("customers", on("cust", "id"))
            .using(kind)
            .run()
            .unwrap();
        let mut pairs: Vec<(u32, u32)> = engine
            .join_rows()
            .iter()
            .map(|j| (j.outer_rid, j.inner_rid))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, raw, "{kind:?}");
    }
}

#[test]
fn engine_group_by_equals_raw_for_every_kind() {
    let (sales, _) = star_tables();
    let cust = sales.column("cust").unwrap();
    let amount = sales.column("amount").unwrap();
    let cust_rids = RidList::for_column(cust);
    // Raw path: the grouping operator over the RID list sorted on `cust`.
    let raw = |agg: AggFn| {
        let measure = Measure::resolve(agg, Some(("sales", "amount", amount))).unwrap();
        let rids = cust_rids.rids();
        group_aggregate_pairs(cust, rids.len(), |i| (rids[i], measure.at(rids[i])), agg, 1)
    };
    let (raw_counts, raw_sums) = (raw(AggFn::Count), raw(AggFn::Sum));
    for kind in IndexKind::ALL {
        let db = engine_with(kind);
        let engine_counts = db.query("sales").group_by("cust", count()).run().unwrap();
        assert_eq!(engine_counts.groups(), raw_counts.as_slice(), "{kind:?}");
        let engine_sums = db
            .query("sales")
            .group_by("cust", sum("amount"))
            .run()
            .unwrap();
        assert_eq!(engine_sums.groups(), raw_sums.as_slice(), "{kind:?}");
    }
}

/// The full pipeline — select, join, group — against a hand-composed
/// raw-operator pipeline, for every kind that can drive it.
#[test]
fn engine_pipeline_equals_raw_composition() {
    let (sales, customers) = star_tables();
    let amount = sales.column("amount").unwrap();
    let cust = sales.column("cust").unwrap();
    let region = customers.column("region").unwrap();
    let id = customers.column("id").unwrap();
    let amount_rids = RidList::for_column(amount);
    let id_rids = RidList::for_column(id);
    for kind in IndexKind::ORDERED {
        let db = engine_with(kind);
        let engine = db
            .query("sales")
            .filter(between("amount", 30, 80))
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
            .using(kind)
            .run()
            .unwrap();

        // Raw composition of the same query.
        let selected = range_one(amount, &amount_rids, kind, Value::Int(30), Value::Int(80));
        let inner_idx = build_index(kind, id_rids.keys());
        let joined =
            indexed_nested_loop_join(cust, &selected, id, &id_rids, inner_idx.as_ref(), 8, 1);
        let measure = Measure::resolve(AggFn::Sum, Some(("sales", "amount", amount))).unwrap();
        let raw = group_aggregate_pairs(
            region,
            joined.len(),
            |i| (joined[i].inner_rid, measure.at(joined[i].outer_rid)),
            AggFn::Sum,
            1,
        );
        assert_eq!(engine.groups(), raw.as_slice(), "{kind:?}");
    }
}

/// String-valued columns exercise the domain encoding end to end.
#[test]
fn string_range_queries_via_domain_ids() {
    let cities = ["austin", "boston", "chicago", "denver", "el paso", "fresno"];
    let values: Vec<Value> = (0..600).map(|i| cities[i % cities.len()].into()).collect();
    let t = TableBuilder::new("t")
        .column("city", values.clone())
        .build()
        .expect("one column");
    let col = t.column("city").unwrap();
    let rids = RidList::for_column(col);

    // Range [boston, denver] covers boston, chicago, denver = 300 rows.
    let got = range_one(
        col,
        &rids,
        IndexKind::FullCss,
        "boston".into(),
        "denver".into(),
    );
    assert_eq!(got.len(), 300);
    for rid in got {
        let v = col.value(rid).to_string();
        assert!(["boston", "chicago", "denver"].contains(&v.as_str()), "{v}");
    }
}
