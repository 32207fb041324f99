//! End-to-end run of the query engine: a point + range conjunction, a
//! select-join-group, and one plan on the writer and on a snapshot.
//! README.md's "The query engine" block runs the same flow as a doctest;
//! this is an ordinary test, not a copy to keep in step.

use ccindex::prelude::*;

fn demo() -> Result<(), MmdbError> {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("sales")
            .int_column("cust", [1, 2, 1, 3])
            .int_column("amount", [10, 40, 25, 99])
            .str_column("day", ["mon", "mon", "tue", "wed"])
            .build()?,
    )?;
    db.register(
        TableBuilder::new("customers")
            .int_column("id", [1, 2, 3])
            .str_column("region", ["east", "west", "east"])
            .build()?,
    )?;
    db.create_index("sales", "amount", IndexKind::FullCss)?;
    db.create_index("sales", "day", IndexKind::Hash)?;
    db.create_index("customers", "id", IndexKind::FullCss)?;

    // Point + range conjunction: the shorter run drives, and its rows
    // are tested against the other filter's domain-ID interval.
    let monday_mid = db
        .query("sales")
        .filter(eq("day", "mon"))
        .filter(between("amount", 20, 100))
        .run()?;
    assert_eq!(monday_mid.rids(), &[1]);

    // Select ⋈ join ⋈ group-by: revenue per region.
    let revenue = db
        .query("sales")
        .filter(between("amount", 20, 100))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()?;
    assert_eq!(revenue.groups().len(), 2); // east 25+99, west 40

    // One plan, executed on the writer or on a pinned snapshot.
    let plan = db
        .query("sales")
        .filter(between("amount", 20, 100))
        .plan()?;
    assert_eq!(
        plan.execute(&db)?.rows(),
        plan.execute(&db.snapshot())?.rows()
    );
    Ok(())
}

#[test]
fn readme_query_engine_example() {
    demo().expect("the example must run clean");
}
