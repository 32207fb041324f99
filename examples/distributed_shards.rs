//! Distributed shards: the same scatter-gather catalog, with every
//! shard behind a TCP socket.
//!
//! Builds the orders/customers workload three ways — a plain
//! `Database`, 4 in-process shards, and 4 `ShardServer`s on loopback
//! TCP fronted by `RemoteShard` clients — and shows every query
//! answering byte-identically across all three, updates (including a
//! re-partitioning shard-key replacement) travelling the wire, and a
//! killed shard surfacing as a typed `MmdbError::Transport` instead of
//! a panic or a hang.
//!
//! ```sh
//! cargo run --release --example distributed_shards
//! ```

use ccindex::db::Value;
use ccindex::prelude::*;

/// The `orders` rows shard `shard` holds: its filterless selection's
/// RIDs, one `RunSpec` across the wire.
fn order_rows(db: &ShardedDatabase, shard: usize) -> Result<usize, MmdbError> {
    let all = QuerySpec::table("orders");
    Ok(match db.backend(shard).reader().run_spec(&all)? {
        ResultRows::Rids(rids) => rids.len(),
        other => unreachable!("a selection answered {}", other.shape()),
    })
}

fn main() -> Result<(), MmdbError> {
    let n = 40_000usize;
    let n_customers = 1_000i64;
    let orders = || {
        TableBuilder::new("orders")
            .int_column("cust", (0..n).map(|i| (i as i64 * 131) % n_customers))
            .int_column("amount", (0..n).map(|i| (i as i64 * 17) % 10_000))
            .build()
    };
    let customers = || {
        TableBuilder::new("customers")
            .int_column("id", 0..n_customers)
            .str_column(
                "region",
                (0..n_customers as usize).map(|i| ["north", "south", "east", "west"][i % 4]),
            )
            .build()
    };
    let index_all = |db: &mut dyn FnMut(&str, &str, IndexKind) -> Result<(), MmdbError>| {
        db("orders", "cust", IndexKind::Hash)?;
        db("orders", "cust", IndexKind::FullCss)?;
        db("orders", "amount", IndexKind::FullCss)?;
        db("customers", "id", IndexKind::FullCss)
    };

    // The unsharded reference catalog.
    let mut base = Database::new();
    base.register(orders()?)?;
    base.register(customers()?)?;
    index_all(&mut |t, c, k| base.create_index(t, c, k))?;

    // The in-process sharded catalog.
    let mut local = ShardedDatabase::hash(4)?;
    local.register(orders()?, "cust")?;
    local.register(customers()?, "id")?;
    index_all(&mut |t, c, k| local.create_index(t, c, k))?;

    // The distributed catalog: 4 shard servers on loopback TCP, each
    // fronting an initially empty Database; the coordinator registers,
    // indexes, and queries through the wire protocol.
    let servers: Vec<ShardServer> = (0..4)
        .map(|_| ShardServer::spawn(Database::new()))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
    let mut remote = ShardedDatabase::connect(HashPartitioner::new(4)?, &addrs)?;
    remote.register(orders()?, "cust")?;
    remote.register(customers()?, "id")?;
    index_all(&mut |t, c, k| remote.create_index(t, c, k))?;
    println!("distributed catalog: {} shards over TCP", remote.shards());
    for (s, addr) in addrs.iter().enumerate() {
        println!(
            "  shard {s} @ {addr}: {} order rows",
            order_rows(&remote, s)?
        );
    }

    // An equality probe on the shard key routes to exactly one remote
    // shard; one round trip, identical bytes.
    let plan = remote.query("orders").filter(eq("cust", 17)).plan()?;
    println!("\n{}", plan.explain());
    let remote_hits = plan.execute(&remote)?;
    let base_hits = base.query("orders").filter(eq("cust", 17)).run()?;
    assert_eq!(remote_hits.rids(), base_hits.rids());
    println!("-> {} rows, identical over the wire", remote_hits.len());

    // Scatter-gather join + group over TCP, partials merged at the
    // gather barrier — against both in-process references.
    let base_groups = base
        .query("orders")
        .filter(between("amount", 1_000, 4_000))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()?
        .groups()
        .to_vec();
    let local_groups = local
        .query("orders")
        .filter(between("amount", 1_000, 4_000))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()?
        .groups()
        .to_vec();
    let remote_groups = remote
        .query("orders")
        .filter(between("amount", 1_000, 4_000))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .run()?
        .groups()
        .to_vec();
    assert_eq!(remote_groups, base_groups);
    assert_eq!(remote_groups, local_groups);
    println!("\nrevenue by region (unsharded == in-process == TCP):");
    for g in &remote_groups {
        println!("  {:>6}: {}", g.group.to_string(), g.value);
    }

    // Update the shard key itself: rows migrate between *remote*
    // shards, entirely over the wire.
    let new_keys: Vec<Value> = (0..n)
        .map(|i| Value::Int((i as i64 * 37 + 5) % n_customers))
        .collect();
    base.replace_column("orders", "cust", new_keys.clone())?;
    let report = remote.replace_column("orders", "cust", new_keys)?;
    assert!(report.repartitioned);
    println!("\nreplace_column(cust): re-partitioned across the wire");
    for (s, addr) in addrs.iter().enumerate() {
        println!(
            "  shard {s} @ {addr}: {} order rows",
            order_rows(&remote, s)?
        );
    }
    let post = remote.query("orders").filter(eq("cust", 17)).run()?;
    assert_eq!(
        post.rids(),
        base.query("orders").filter(eq("cust", 17)).run()?.rids()
    );
    println!("-> post-migration queries still byte-identical");

    // Fault injection: kill one shard mid-flight. The coordinator
    // surfaces a typed transport error at the gather barrier.
    let mut servers = servers;
    servers.remove(2).shutdown();
    match remote
        .query("orders")
        .filter(between("amount", 0, 9_999))
        .run()
    {
        Err(MmdbError::Transport {
            endpoint, fault, ..
        }) => {
            println!("\nkilled shard 2 -> MmdbError::Transport ({fault:?} at {endpoint})");
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
    for server in servers {
        server.shutdown();
    }
    println!("remaining servers drained and joined; done.");
    Ok(())
}
