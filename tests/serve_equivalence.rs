//! Serving-layer equivalence: batch-formed answers must be
//! **byte-identical** to per-request sequential execution — across
//! client counts {1, 4, 32}, window sizes {1, 16, 64}, window pools of
//! 1 and 8 workers, both engines
//! (`Database` and a 4-shard `ShardedDatabase` under both
//! partitioners), all three request shapes
//! (point, range, full query spec), and with column updates interleaved
//! between serving windows (including a shard-key replacement that
//! re-partitions the sharded catalog mid-test), and with pipelining
//! clients that keep more than a window outstanding and collect their
//! answers newest first.

use ccindex::db::domain::Value;
use ccindex::db::{
    between, eq, on, sum, CatalogRead, Database, ExecOptions, IndexKind, MmdbError, ResultRows,
    TableBuilder,
};
use ccindex::serve::{BatchServer, Pending, QuerySpec, Request, ServeOptions, ServeSource};
use ccindex::shard::{HashPartitioner, Partitioner, RangePartitioner, ShardedDatabase};
use std::time::Duration;

const ROWS: usize = 300;
const CLIENT_COUNTS: [usize; 3] = [1, 4, 32];
/// Window sizes: no coalescing, a mid-size window, and the default.
const BATCH_MAXES: [usize; 3] = [1, 16, 64];
/// Engine worker threads, which also size each window's job pool:
/// sequential windows, and jobs that run in parallel.
const THREADS: [usize; 2] = [1, 8];

/// Whether a `(threads, clients, batch_max)` point is served. The
/// parallel pass skips one-request windows, whose single job runs
/// inline, and 32 clients: 4 clients already put several jobs in every
/// larger window, and the queue contention 32 add is the same at any
/// pool size, so the sequential pass covers it.
fn swept(threads: usize, clients: usize, batch_max: usize) -> bool {
    threads == 1 || (batch_max > 1 && clients <= 4)
}

/// Both engines' thread setter, so one sweep drives either.
trait SetThreads {
    fn set_threads(&mut self, threads: usize);
}

impl SetThreads for Database {
    fn set_threads(&mut self, threads: usize) {
        self.set_exec_options(ExecOptions::threads(threads));
    }
}

impl SetThreads for ShardedDatabase {
    fn set_threads(&mut self, threads: usize) {
        self.set_exec_options(ExecOptions::threads(threads))
            .expect("in-process shards accept any options");
    }
}

fn seed_tables(amount_mul: i64) -> (ccindex::db::Table, ccindex::db::Table) {
    let sales = TableBuilder::new("sales")
        .int_column("cust", (0..ROWS).map(|i| (i as i64 * 31) % 40))
        .int_column("amount", (0..ROWS).map(|i| (i as i64 * amount_mul) % 500))
        .str_column("day", (0..ROWS).map(|i| ["mon", "tue", "wed"][i % 3]))
        .build()
        .expect("equal columns");
    let customers = TableBuilder::new("customers")
        .int_column("id", 0..40i64)
        .str_column("region", (0..40).map(|i| ["e", "w", "n", "s"][i % 4]))
        .build()
        .expect("equal columns");
    (sales, customers)
}

fn index_unsharded(db: &mut Database) {
    db.create_index("sales", "cust", IndexKind::Hash).unwrap();
    db.create_index("sales", "cust", IndexKind::FullCss)
        .unwrap();
    db.create_index("sales", "amount", IndexKind::FullCss)
        .unwrap();
    db.create_index("customers", "id", IndexKind::LevelCss)
        .unwrap();
}

fn unsharded() -> Database {
    let (sales, customers) = seed_tables(17);
    let mut db = Database::new();
    db.register(sales).unwrap();
    db.register(customers).unwrap();
    index_unsharded(&mut db);
    db
}

fn sharded<P: Partitioner + 'static>(p: P) -> ShardedDatabase {
    let (sales, customers) = seed_tables(17);
    let mut db = ShardedDatabase::new(p).unwrap();
    db.register(sales, "cust").unwrap();
    db.register(customers, "id").unwrap();
    db.create_index("sales", "cust", IndexKind::Hash).unwrap();
    db.create_index("sales", "cust", IndexKind::FullCss)
        .unwrap();
    db.create_index("sales", "amount", IndexKind::FullCss)
        .unwrap();
    db.create_index("customers", "id", IndexKind::LevelCss)
        .unwrap();
    db
}

/// The request mix every client pipelines: shard-key and non-key points
/// (hits, duplicates, misses), ranges (pruning, empty, inverted), and
/// full query specs (join + group, group-only).
fn request_mix() -> Vec<Request> {
    vec![
        Request::point("sales", "cust", 9i64),
        Request::point("sales", "cust", 9i64),
        Request::point("sales", "cust", 999i64),
        Request::point("sales", "amount", 68i64),
        Request::range("sales", "cust", 5i64, 20i64),
        Request::range("sales", "amount", 100i64, 300i64),
        Request::range("sales", "amount", 300i64, 100i64),
        Request::query(
            QuerySpec::table("sales")
                .filter(between("amount", 50, 400))
                .join("customers", on("cust", "id"))
                .group_by("region", sum("amount")),
        ),
        Request::query(QuerySpec::table("sales").group_by("day", ccindex::db::count())),
        Request::point("customers", "id", 7i64),
    ]
}

/// Per-request sequential execution on the unsharded engine — the
/// reference every batch-formed answer must match byte-for-byte.
fn sequential_reference(db: &Database) -> Vec<Result<ResultRows, MmdbError>> {
    request_mix()
        .into_iter()
        .map(|r| match r {
            Request::Point {
                table,
                column,
                value,
            } => db
                .query(table)
                .filter(eq(&column, value))
                .run()
                .map(|r| r.rows().clone()),
            Request::Range {
                table,
                column,
                lo,
                hi,
            } => db
                .query(table)
                .filter(between(&column, lo, hi))
                .run()
                .map(|r| r.rows().clone()),
            Request::Query(spec) => db.run_spec(&spec),
        })
        .collect()
}

/// Serve the mix from `clients` concurrent clients at every engine
/// thread count and assert every client's answers equal the sequential
/// reference. The engine is left sequential.
fn assert_serves_identically<S: ServeSource + SetThreads>(
    engine: &mut S,
    reference: &[Result<ResultRows, MmdbError>],
    label: &str,
) {
    for threads in THREADS {
        engine.set_threads(threads);
        for clients in CLIENT_COUNTS {
            for batch_max in BATCH_MAXES {
                if !swept(threads, clients, batch_max) {
                    continue;
                }
                let server = BatchServer::with_options(
                    &*engine,
                    ServeOptions {
                        batch_max,
                        batch_wait: Duration::from_millis(1),
                    },
                );
                let (answers, stats) = server.serve_concurrent(clients, |_, client| {
                    let pending: Vec<Pending> = request_mix()
                        .into_iter()
                        .map(|r| client.submit(r))
                        .collect();
                    pending.into_iter().map(Pending::wait).collect::<Vec<_>>()
                });
                assert_eq!(stats.requests, clients * reference.len());
                for (c, got) in answers.iter().enumerate() {
                    assert_eq!(
                        got.as_slice(),
                        reference,
                        "{label} threads={threads} clients={clients} batch_max={batch_max} client={c}"
                    );
                }
            }
        }
    }
    engine.set_threads(1);
}

#[test]
fn batch_formed_answers_match_sequential_execution() {
    let mut un = unsharded();
    let reference = sequential_reference(&un);
    assert_serves_identically(&mut un, &reference, "unsharded");
    assert_serves_identically(
        &mut sharded(HashPartitioner::new(4).unwrap()),
        &reference,
        "hash x4",
    );
    assert_serves_identically(
        &mut sharded(RangePartitioner::int_spans(0, 39, 4).unwrap()),
        &reference,
        "range x4",
    );
}

/// Laps of the request mix a pipelining client keeps outstanding at
/// once: 40 requests, more than the largest `batch_max` served here.
const PIPELINE_LAPS: usize = 4;

/// Serve the mix from `clients` pipelining clients under a zero-wait
/// window: each client submits [`PIPELINE_LAPS`] laps before it waits,
/// then waits on them **newest first**, for a few rounds. Its older
/// answers are stored in earlier windows while it is still submitting
/// or asleep on a newer ticket, so no wake is sent for them and it
/// collects them later without blocking. Every client must still
/// terminate with answers byte-identical to the reference, at every
/// engine thread count.
fn assert_pipelined_newest_first_serves_identically<S: ServeSource + SetThreads>(
    engine: &mut S,
    reference: &[Result<ResultRows, MmdbError>],
    label: &str,
) {
    const ROUNDS: usize = 3;
    let expect: Vec<_> = reference
        .iter()
        .cycle()
        .take(reference.len() * PIPELINE_LAPS)
        .cloned()
        .collect();
    for threads in THREADS {
        engine.set_threads(threads);
        for clients in CLIENT_COUNTS {
            for batch_max in BATCH_MAXES {
                if !swept(threads, clients, batch_max) {
                    continue;
                }
                let server = BatchServer::with_options(
                    &*engine,
                    ServeOptions {
                        batch_max,
                        batch_wait: Duration::ZERO,
                    },
                );
                let (answers, stats) = server.serve_concurrent(clients, |_, client| {
                    (0..ROUNDS)
                        .map(|_| {
                            let pending: Vec<Pending> = (0..PIPELINE_LAPS)
                                .flat_map(|_| request_mix())
                                .map(|r| client.submit(r))
                                .collect();
                            let mut got: Vec<_> =
                                pending.into_iter().rev().map(Pending::wait).collect();
                            got.reverse();
                            got
                        })
                        .collect::<Vec<_>>()
                });
                assert_eq!(stats.requests, clients * ROUNDS * expect.len());
                for (c, rounds) in answers.iter().enumerate() {
                    for (round, got) in rounds.iter().enumerate() {
                        assert_eq!(
                            got, &expect,
                            "{label} threads={threads} clients={clients} batch_max={batch_max} client={c} round={round}"
                        );
                    }
                }
            }
        }
    }
    engine.set_threads(1);
}

#[test]
fn pipelined_newest_first_waits_match_sequential_execution() {
    let mut un = unsharded();
    let reference = sequential_reference(&un);
    assert_pipelined_newest_first_serves_identically(&mut un, &reference, "unsharded");
    assert_pipelined_newest_first_serves_identically(
        &mut sharded(HashPartitioner::new(4).unwrap()),
        &reference,
        "hash x4",
    );
}

#[test]
fn interleaved_updates_between_windows_stay_equivalent() {
    let mut un = unsharded();
    let mut hash_db = sharded(HashPartitioner::new(4).unwrap());
    let mut range_db = sharded(RangePartitioner::int_spans(0, 39, 4).unwrap());

    // Window phase 1: the seed catalog.
    let reference = sequential_reference(&un);
    assert_serves_identically(&mut un, &reference, "unsharded/seed");
    assert_serves_identically(&mut hash_db, &reference, "hash/seed");
    assert_serves_identically(&mut range_db, &reference, "range/seed");

    // Update between windows: replace a non-key column everywhere (the
    // sharded engines split the update by owning shard) and serve again.
    let new_amounts: Vec<Value> = (0..ROWS)
        .map(|i| Value::Int((i as i64 * 23) % 500))
        .collect();
    un.replace_column("sales", "amount", new_amounts.clone())
        .unwrap();
    hash_db
        .replace_column("sales", "amount", new_amounts.clone())
        .unwrap();
    range_db
        .replace_column("sales", "amount", new_amounts)
        .unwrap();
    let reference = sequential_reference(&un);
    assert_serves_identically(&mut un, &reference, "unsharded/updated");
    assert_serves_identically(&mut hash_db, &reference, "hash/updated");
    assert_serves_identically(&mut range_db, &reference, "range/updated");

    // Replace the shard key: the sharded catalogs re-partition (rows
    // migrate between shards) and must still serve identically.
    let new_keys: Vec<Value> = (0..ROWS)
        .map(|i| Value::Int((i as i64 * 13 + 7) % 40))
        .collect();
    un.replace_column("sales", "cust", new_keys.clone())
        .unwrap();
    hash_db
        .replace_column("sales", "cust", new_keys.clone())
        .unwrap();
    range_db.replace_column("sales", "cust", new_keys).unwrap();
    let reference = sequential_reference(&un);
    assert_serves_identically(&mut un, &reference, "unsharded/rekeyed");
    assert_serves_identically(&mut hash_db, &reference, "hash/rekeyed");
    assert_serves_identically(&mut range_db, &reference, "range/rekeyed");
}

#[test]
fn env_default_windows_serve_end_to_end() {
    // `BatchServer::new` starts at the default window, whatever the
    // process environment holds; explicit windows of 1, 16 and 64
    // requests serve the same answers as the sequential reference.
    let un = unsharded();
    let reference = sequential_reference(&un);
    assert_eq!(BatchServer::new(&un).options(), ServeOptions::default());
    for batch_max in BATCH_MAXES {
        let server = BatchServer::with_options(&un, ServeOptions::batch_max(batch_max));
        let (answers, _) = server.serve_concurrent(8, |_, client| {
            request_mix()
                .into_iter()
                .map(|r| client.call(r))
                .collect::<Vec<_>>()
        });
        for got in &answers {
            assert_eq!(
                got.as_slice(),
                reference.as_slice(),
                "batch_max={batch_max}"
            );
        }
    }
}
