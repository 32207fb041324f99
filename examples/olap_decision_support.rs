//! An OLAP mini-warehouse on the `Database` engine (§2 of the paper).
//!
//! Builds a small star schema (orders ⋈ customers), registers it in a
//! catalog that owns the RID lists and indexes, and runs the paper's
//! three index consumers as *composable queries* — point selection,
//! range selection, multi-predicate conjunction, indexed nested-loop
//! join, and a join-then-group-by pipeline — then applies a batch update
//! through the catalog's rebuild cycle.
//!
//! ```sh
//! cargo run --release --example olap_decision_support
//! ```

use ccindex::db::domain::Value;
use ccindex::db::{between, count, eq, on, sum, Database, IndexKind, MmdbError, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), MmdbError> {
    let mut rng = StdRng::seed_from_u64(7);

    // Dimension: 10 000 customers across 8 regions.
    let regions = ["north", "south", "east", "west", "nw", "ne", "sw", "se"];
    let n_customers = 10_000i64;
    let customers = TableBuilder::new("customers")
        .int_column("id", 0..n_customers)
        .str_column(
            "region",
            (0..n_customers).map(|_| regions[rng.gen_range(0..regions.len())]),
        )
        .build()?;

    // Fact: 200 000 orders referencing customers, with amounts.
    let n_orders = 200_000usize;
    let orders = TableBuilder::new("orders")
        .int_column("cust", (0..n_orders).map(|_| rng.gen_range(0..n_customers)))
        .int_column("amount", (0..n_orders).map(|_| rng.gen_range(1..10_000)))
        .build()?;

    // The catalog owns the access paths: a CSS-tree for ranges on the
    // measure, a hash index for point probes on it, and a CSS-tree on
    // the join column (§2.2's setup, held by the engine instead of
    // threaded by hand).
    let mut db = Database::new();
    db.register(customers)?;
    db.register(orders)?;
    db.create_index("orders", "amount", IndexKind::FullCss)?;
    db.create_index("orders", "amount", IndexKind::Hash)?;
    db.create_index("customers", "id", IndexKind::FullCss)?;

    // Point selection: orders of exactly 4999 (planner picks the hash).
    let exact = db.query("orders").filter(eq("amount", 4999)).run()?;
    println!("orders with amount = 4999: {}", exact.len());

    // Range selection: big-ticket orders (planner picks the CSS-tree).
    let big = db
        .query("orders")
        .filter(between("amount", 9_000, 10_000))
        .run()?;
    println!("orders with amount in [9000, 10000]: {}", big.len());
    // Verify against a scan.
    let amount = db.table("orders")?.column("amount").expect("column");
    let scan = (0..db.table("orders")?.rows() as u32)
        .filter(|&r| matches!(amount.value(r), Value::Int(v) if (9_000..=10_000).contains(&v)))
        .count();
    assert_eq!(big.len(), scan, "index agrees with full scan");

    // Multi-predicate conjunction: mid-range amounts that are also one
    // exact value — combined by sorted RID-set intersection.
    let both = db
        .query("orders")
        .filter(between("amount", 4_000, 6_000))
        .filter(eq("amount", 4999))
        .run()?;
    assert_eq!(both.len(), exact.len());
    println!("conjunction [4000,6000] ∧ (= 4999): {} orders", both.len());

    // Indexed nested-loop join: orders ⋈ customers on customer id. The
    // plan is inspectable before it runs.
    let join_query = db.query("orders").join("customers", on("cust", "id"));
    println!("plan:\n{}", join_query.plan()?.explain());
    let joined = join_query.run()?;
    assert_eq!(
        joined.len(),
        n_orders,
        "every order has exactly one customer"
    );
    println!("orders ⋈ customers produced {} rows", joined.len());

    // The flagship pipeline: select, join, aggregate — order count and
    // revenue per region, with the group column on the inner table and
    // the measure on the outer.
    let counts = db
        .query("orders")
        .join("customers", on("cust", "id"))
        .group_by("region", count())
        .run()?;
    println!(
        "orders per region: {:?}",
        counts
            .groups()
            .iter()
            .map(|g| (g.group.to_string(), g.value))
            .collect::<Vec<_>>()
    );
    let revenue = db
        .query("orders")
        .filter(between("amount", 5_000, 10_000))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()?;
    let top = revenue
        .groups()
        .iter()
        .max_by_key(|g| g.value)
        .expect("non-empty");
    println!(
        "big-ticket revenue per region: top {} with {}",
        top.group, top.value
    );

    // Grouped aggregation without a join: total revenue per customer.
    let per_customer = db.query("orders").group_by("cust", sum("amount")).run()?;
    let best = per_customer
        .groups()
        .iter()
        .max_by_key(|g| g.value)
        .expect("non-empty");
    println!(
        "{} customer groups; top customer {} with revenue {}",
        per_customer.len(),
        best.group,
        best.value
    );

    // The OLAP batch-update cycle (§2.3), catalog-owned: replace the
    // measure column wholesale (here: a 10% price bump on every order),
    // and the engine re-sorts the RID list both indexes answer from.
    let bumped: Vec<Value> = (0..db.table("orders")?.rows() as u32)
        .map(|r| match amount.value(r) {
            Value::Int(v) => Value::Int(v * 11 / 10),
            other => other,
        })
        .collect();
    let report = db.replace_column("orders", "amount", bumped)?;
    println!("batch update: RID list re-sorted in {:?}", report.sort_time);
    // The fresh RID list answers over the new values.
    let big_after = db
        .query("orders")
        .filter(between("amount", 9_900, 11_000))
        .run()?;
    println!(
        "after the 10% bump, orders in [9900, 11000]: {}",
        big_after.len()
    );
    Ok(())
}
