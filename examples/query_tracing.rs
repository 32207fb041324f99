//! Cross-wire query tracing: one latency tree spanning the client and
//! every shard server it scattered to.
//!
//! Spawns two `ShardServer`s on loopback TCP, each holding half of an
//! orders table, then runs a traced range query against both: the
//! client stamps its span id into each request frame, every server
//! answers with its own decode/execute timing breakdown, and the
//! subtrees graft under the client's root span — one cross-process
//! latency report with no clock synchronisation (each side reports only
//! durations it measured itself). Finishes by scraping a server's
//! metric registry over the wire.
//!
//! ```sh
//! cargo run --release --example query_tracing
//! ```

use ccindex::prelude::*;

fn main() -> Result<(), MmdbError> {
    let n = 40_000usize;

    // Two shard servers, each fronting half the orders (split by row
    // parity, so both shards see every amount range).
    let mut servers = Vec::new();
    let mut shards = Vec::new();
    for shard_id in 0..2usize {
        let mut db = Database::new();
        db.register(
            TableBuilder::new("orders")
                .int_column(
                    "amount",
                    (0..n)
                        .filter(|i| i % 2 == shard_id)
                        .map(|i| (i as i64 * 17) % 10_000),
                )
                .build()?,
        )?;
        db.create_index("orders", "amount", IndexKind::FullCss)?;
        let server = ShardServer::spawn(db)?;
        let shard = RemoteShard::connect(server.addr())?;
        servers.push(server);
        shards.push(shard);
    }

    // One traced scatter: the same spec to every shard, each RPC a
    // child of the client's root span.
    let spec = QuerySpec::table("orders").filter(between("amount", 100, 120));
    let mut span = Span::root("scatter");
    let mut hits = 0usize;
    for shard in &shards {
        match shard.run_spec_traced(&spec, &mut span)? {
            ResultRows::Rids(rids) => hits += rids.len(),
            other => panic!("expected rids, got {other:?}"),
        }
    }
    let tree = span.finish();

    println!("matched {hits} rows across {} shards\n", shards.len());
    println!("{}", tree.render());

    // The tree really is cross-process: both RPCs carry the server-side
    // breakdown the wire brought back.
    assert_eq!(tree.children.len(), shards.len());
    for rpc in &tree.children {
        assert!(rpc.find("decode").is_some(), "server breakdown missing");
        assert!(rpc.find("execute").is_some(), "server breakdown missing");
    }

    // Every server also exposes its metric registry for scraping.
    let scrape = shards[0].stats()?;
    assert!(scrape.contains("server.execute.ns"));
    println!("shard 0 registry: {scrape}");

    for server in servers {
        server.shutdown();
    }
    Ok(())
}
