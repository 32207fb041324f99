//! A kind is a declaration, not a choice: every kind declared on a
//! column answers through the column's one RID list, so a catalog
//! compiles the same plan, explains it in the same words and returns
//! the same answer whichever kinds it declares, as long as each probed
//! column has one and each ranged column has an ordered one.

use mmdb::{
    between, count, eq, on, sum, CatalogRead, Database, IndexKind, MmdbError, QuerySpec,
    TableBuilder, Value,
};

/// `sales` (cust, amount, day) and `customers` (id, region), with
/// `kinds` declared on every probed and joined column.
fn catalog(kinds: &[IndexKind]) -> Database {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("sales")
            .int_column("cust", (0..300).map(|i| (i * 31) % 45))
            .int_column("amount", (0..300).map(|i| (i * 17) % 500 - 100))
            .str_column("day", (0..300).map(|i| ["mon", "tue", "wed"][i % 3]))
            .build()
            .unwrap(),
    )
    .unwrap();
    db.register(
        TableBuilder::new("customers")
            .int_column("id", (0..40).map(|i| i + i / 7))
            .str_column("region", (0..40).map(|i| ["e", "w", "n", "s"][i % 4]))
            .build()
            .unwrap(),
    )
    .unwrap();
    for &kind in kinds {
        for (table, column) in [
            ("sales", "cust"),
            ("sales", "amount"),
            ("sales", "day"),
            ("customers", "id"),
        ] {
            db.create_index(table, column, kind).unwrap();
        }
    }
    db
}

/// Point, range, conjunction, join and grouped shapes.
fn shapes() -> Vec<QuerySpec> {
    let q = || QuerySpec::table("sales");
    vec![
        q().filter(eq("cust", 7)),
        q().filter(eq("day", "tue")),
        q().filter(between("amount", -20, 150)),
        q().filter(between("cust", 3, 30)).filter(eq("day", "wed")),
        q().filter(eq("cust", 12))
            .filter(between("amount", 0, 400))
            .filter(between("cust", 10, 14)),
        q().filter(between("amount", 50, 250))
            .join("customers", on("cust", "id")),
        q().join("customers", on("cust", "id"))
            .group_by("region", sum("amount")),
        q().filter(eq("day", "mon"))
            .join("customers", on("cust", "id"))
            .group_by("day", count()),
    ]
}

#[test]
fn every_declared_kind_set_compiles_explains_and_answers_alike() {
    use IndexKind::*;
    let sets: [&[IndexKind]; 4] = [
        &[FullCss],
        &[Hash, LevelCss],
        &[BPlusTree, TTree, BinarySearch],
        &IndexKind::ALL,
    ];
    let reference = catalog(sets[0]);
    let points: Vec<Value> = (-2..50).map(Value::Int).collect();
    let ranges: Vec<(Value, Value)> = (-2..50)
        .map(|i| (Value::Int(i * 9 - 120), Value::Int(i * 13)))
        .collect();
    for kinds in &sets[1..] {
        let db = catalog(kinds);
        for spec in shapes() {
            let (want, got) = (
                reference.compile(&spec).unwrap(),
                db.compile(&spec).unwrap(),
            );
            assert_eq!(got, want, "{kinds:?}: {spec:?}");
            assert_eq!(got.explain(), want.explain(), "{kinds:?}: {spec:?}");
            assert_eq!(
                db.run_spec(&spec).unwrap(),
                reference.run_spec(&spec).unwrap(),
                "{kinds:?}: {spec:?}"
            );
        }
        for column in ["cust", "amount"] {
            assert_eq!(
                db.point_probe_batch("sales", column, &points).unwrap(),
                reference
                    .point_probe_batch("sales", column, &points)
                    .unwrap(),
                "{kinds:?}: {column}"
            );
            assert_eq!(
                db.range_probe_batch("sales", column, &ranges).unwrap(),
                reference
                    .range_probe_batch("sales", column, &ranges)
                    .unwrap(),
                "{kinds:?}: {column}"
            );
        }
    }
}

#[test]
fn a_range_over_hash_alone_is_no_ordered_index() {
    let db = catalog(&[IndexKind::Hash]);
    let want = MmdbError::NoOrderedIndex {
        table: "sales".into(),
        column: "amount".into(),
    };
    let range = QuerySpec::table("sales").filter(between("amount", 1, 2));
    assert_eq!(db.compile(&range).unwrap_err(), want);
    assert_eq!(db.run_spec(&range).unwrap_err(), want);
    let ranges = [(Value::Int(1), Value::Int(2))];
    assert_eq!(
        db.range_probe_batch("sales", "amount", &ranges)
            .unwrap_err(),
        want
    );
    // A point probe, a join and a grouping need no order.
    let q = || QuerySpec::table("sales");
    for spec in [
        q().filter(eq("cust", 7)),
        q().filter(eq("day", "mon"))
            .join("customers", on("cust", "id"))
            .group_by("region", count()),
    ] {
        assert_eq!(
            db.run_spec(&spec).unwrap(),
            catalog(&[IndexKind::FullCss]).run_spec(&spec).unwrap(),
            "{spec:?}"
        );
    }
}
