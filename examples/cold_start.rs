//! Persistence and cold start: save a catalog to the paged on-disk
//! container, reopen it, and get byte-identical answers — without
//! re-encoding a single row or comparison-sorting anything.
//!
//! The container stores only what open cannot derive: each column's
//! domain values and in-place IDs, as validated, CRC-checksummed pages.
//! `Database::open_from` decodes those and rebuilds each indexed
//! column's RID list by a counting sort of its IDs (radix-clustered so
//! each cluster sorts in cache), the same build
//! `create_index` runs; no index kind holds a structure of its own. A
//! corrupted or truncated file surfaces as a typed `MmdbError::Storage`
//! — never a panic.
//!
//! ```sh
//! cargo run --release --example cold_start
//! ```

use ccindex::db::StorageFault;
use ccindex::prelude::*;
use std::time::Instant;

fn main() -> Result<(), MmdbError> {
    let n = 1_000_000usize;

    // Build a catalog the expensive way: encode the rows into domains
    // and IDs, then sort each indexed column's RID list.
    let t0 = Instant::now();
    let mut db = Database::new();
    db.register(
        TableBuilder::new("orders")
            .int_column(
                "amount",
                (0..n).map(|i| ((i as u64).wrapping_mul(48_271) % (n as u64)) as i64),
            )
            .str_column("day", (0..n).map(|i| ["mon", "tue", "wed", "thu"][i % 4]))
            .build()?,
    )?;
    db.create_index("orders", "amount", IndexKind::FullCss)?;
    db.create_index("orders", "amount", IndexKind::Hash)?;
    db.create_index("orders", "day", IndexKind::Hash)?;
    let built = t0.elapsed();

    // Save the whole catalog — tables, each column's domain and IDs,
    // each indexed column's kinds — as one paged, checksummed container.
    let dir = std::env::temp_dir().join(format!("ccindex-cold-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| MmdbError::Storage {
        path: dir.display().to_string(),
        fault: StorageFault::Write,
        detail: e.to_string(),
    })?;
    let path = dir.join("orders.ccsp");
    db.save_to(&path)?;

    // Cold start: reopen from disk. No row is encoded again: the pages
    // decode straight into the domains and ID arrays, and each RID list
    // is a counting sort of its column's IDs, run cluster by cluster.
    let t0 = Instant::now();
    let reopened = Database::open_from(&path)?;
    let opened = t0.elapsed();

    // Byte-identical answers, live vs reopened.
    let query = |db: &Database| -> Result<ResultRows, MmdbError> {
        Ok(db
            .query("orders")
            .filter(between("amount", 1_000, 50_000))
            .group_by("day", sum("amount"))
            .run()?
            .rows()
            .clone())
    };
    let live_rows = query(&db)?;
    let cold_rows = query(&reopened)?;
    assert_eq!(live_rows, cold_rows, "cold start changed answers");

    println!("build from rows: {built:.2?}");
    println!("open from disk:  {opened:.2?}");
    println!("answers match:   {live_rows:?}");

    // Storage faults are typed, never panics: opening a missing file
    // names the path and the failing stage.
    let missing = Database::open_from(dir.join("nope.ccsp"));
    match missing {
        Err(MmdbError::Storage { fault, .. }) => {
            assert_eq!(fault, StorageFault::Open);
            println!("missing file:    typed Storage({fault:?}) error, as promised");
        }
        other => panic!("expected a typed storage error, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
