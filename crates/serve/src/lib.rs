//! # ccindex-serve — batch-formation serving front-end
//!
//! RaoR99's CSS-tree numbers assume a **batch-shaped consumer**: the
//! interleaved multi-lane descent and the partitioned operators only pay
//! off when many probes travel together. Inside one query that batch
//! exists naturally (a join streams thousands of probes); across
//! *clients* it does not — a served system sees N concurrent requests of
//! one probe each. This crate closes that gap: it **forms** the batches,
//! turning concurrent client traffic into the engine's native batch
//! shapes.
//!
//! The pieces:
//!
//! * [`Request`]/[`QuerySpec`] — `mmdb`'s owned request values (point
//!   probe, range probe, or a full query description), re-exported:
//!   they cross threads without borrowing a catalog;
//! * [`ServeSource`] — where windows pin the generation they execute
//!   against: a [`Database`](mmdb::Database), a
//!   [`ShardedDatabase`](ccindex_shard::ShardedDatabase) (sharded
//!   requests scatter through the existing routing), or a reader handle
//!   of either — anything whose pinned generation is a
//!   [`CatalogRead`](mmdb::CatalogRead);
//! * [`BatchServer`] — accumulates submissions in a **batch-formation
//!   window** (size-bound + time-bound, [`ServeOptions`] with
//!   `CCINDEX_BATCH_MAX`/`CCINDEX_BATCH_WAIT_US` env defaults),
//!   coalesces same-`table.column` probes into single batched engine
//!   calls (one batched domain search each), executes the
//!   window's jobs over the shared
//!   [`WorkerPool`](ccindex_parallel::WorkerPool), and demultiplexes
//!   per-client answers in submission order;
//! * [`Client`]/[`Pending`] — the cheap handles clients submit through
//!   (synchronous [`call`](Client::call) or pipelined
//!   [`submit`](Client::submit));
//! * [`ShardServer`] — the network entry point: one shard's catalog
//!   behind a `TcpListener` speaking the `ccindex-wire` protocol, the
//!   server half of the remote shards a
//!   [`ShardedDatabase::connect`](ccindex_shard::ShardedDatabase::connect)
//!   coordinator scatters to.
//!
//! Answers are **byte-identical** to executing every request alone, for
//! any window bounds, client count, and either engine — the property
//! `tests/serve_equivalence.rs` asserts. `ccbench`'s `serve-small`
//! workload times it against the unbatched baseline
//! (`serve.unbatched_ns_per_req` beside `serve.session_ns_per_req`).
//!
//! ```
//! use ccindex_serve::{BatchServer, Request, ServeOptions};
//! use mmdb::{Database, IndexKind, ResultRows, TableBuilder};
//!
//! let mut db = Database::new();
//! db.register(
//!     TableBuilder::new("sales")
//!         .int_column("amount", [10, 40, 25, 99])
//!         .build()?,
//! )?;
//! db.create_index("sales", "amount", IndexKind::FullCss)?;
//!
//! // 4 concurrent clients, each one point probe; compatible probes
//! // coalesce into a single batched domain search.
//! let server = BatchServer::with_options(&db, ServeOptions::batch_max(16));
//! let (answers, stats) = server.serve_concurrent(4, |i, client| {
//!     client.call(Request::point("sales", "amount", [10i64, 40, 25, 7][i]))
//! });
//! assert_eq!(answers[1], Ok(ResultRows::Rids(vec![1]))); // amount = 40
//! assert_eq!(answers[3], Ok(ResultRows::Rids(vec![]))); // no row
//! assert_eq!(stats.requests, 4);
//! # Ok::<(), mmdb::MmdbError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod engine;
mod net;
mod server;

pub use engine::{ServeSource, SnapshotInfo};
pub use mmdb::{QuerySpec, Request};
pub use net::ShardServer;
pub use server::{BatchServer, Client, Pending, ServeOptions, ServeStats};

#[cfg(test)]
mod tests {
    use super::*;
    use ccindex_shard::ShardedDatabase;
    use mmdb::{
        between, count, eq, on, sum, Database, IndexKind, MmdbError, ResultRows, TableBuilder,
        Value,
    };
    use std::time::Duration;

    fn catalog() -> Database {
        let mut db = Database::new();
        db.register(
            TableBuilder::new("sales")
                .int_column("cust", (0..60).map(|i| (i * 7) % 20))
                .int_column("amount", (0..60).map(|i| (i * 13) % 100))
                .build()
                .expect("equal columns"),
        )
        .unwrap();
        db.register(
            TableBuilder::new("customers")
                .int_column("id", 0..20i64)
                .str_column("region", (0..20).map(|i| ["e", "w"][i % 2]))
                .build()
                .expect("equal columns"),
        )
        .unwrap();
        db.create_index("sales", "cust", IndexKind::Hash).unwrap();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        db.create_index("customers", "id", IndexKind::LevelCss)
            .unwrap();
        db
    }

    fn requests() -> Vec<Request> {
        vec![
            Request::point("sales", "cust", 3i64),
            Request::point("sales", "cust", 14i64),
            Request::range("sales", "amount", 20i64, 60i64),
            Request::point("sales", "cust", 3i64), // duplicate value
            Request::range("sales", "amount", 60i64, 20i64), // inverted
            Request::query(
                QuerySpec::table("sales")
                    .filter(between("amount", 10, 90))
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount")),
            ),
            Request::point("sales", "cust", 999i64), // misses
        ]
    }

    /// One answer per request, equal to running each request alone.
    fn reference(db: &Database) -> Vec<Result<ResultRows, MmdbError>> {
        requests()
            .iter()
            .map(|r| match r {
                Request::Point {
                    table,
                    column,
                    value,
                } => db
                    .query(table.clone())
                    .filter(eq(column, value.clone()))
                    .run()
                    .map(|r| r.rows().clone()),
                Request::Range {
                    table,
                    column,
                    lo,
                    hi,
                } => db
                    .query(table.clone())
                    .filter(between(column, lo.clone(), hi.clone()))
                    .run()
                    .map(|r| r.rows().clone()),
                Request::Query(_) => db
                    .query("sales")
                    .filter(between("amount", 10, 90))
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount"))
                    .run()
                    .map(|r| r.rows().clone()),
            })
            .collect()
    }

    #[test]
    fn run_batch_coalesces_and_demuxes_in_submission_order() {
        let db = catalog();
        let server = BatchServer::with_options(&db, ServeOptions::default());
        assert_eq!(server.run_batch(&requests()), reference(&db));
        // An empty batch answers nothing.
        assert!(server.run_batch(&[]).is_empty());
    }

    #[test]
    fn errors_fail_only_their_own_requests() {
        let db = catalog();
        let server = BatchServer::with_options(&db, ServeOptions::default());
        let batch = vec![
            Request::point("sales", "cust", 3i64),
            Request::point("sales", "nope", 1i64), // unknown column
            Request::range("sales", "cust", 0i64, 5i64), // hash-only: no ordered index
            Request::point("sales", "cust", 14i64),
        ];
        let answers = server.run_batch(&batch);
        assert!(answers[0].is_ok());
        assert_eq!(
            answers[1],
            Err(MmdbError::UnknownColumn {
                table: "sales".into(),
                column: "nope".into()
            })
        );
        assert_eq!(
            answers[2],
            Err(MmdbError::NoOrderedIndex {
                table: "sales".into(),
                column: "cust".into()
            })
        );
        assert!(answers[3].is_ok(), "same coalesced group as request 0");
    }

    #[test]
    fn concurrent_sessions_form_batches_and_answer_identically() {
        let db = catalog();
        let reference = reference(&db);
        for batch_max in [1usize, 4, 64] {
            let server = BatchServer::with_options(
                &db,
                ServeOptions {
                    batch_max,
                    batch_wait: Duration::from_millis(2),
                },
            );
            // Each client pipelines the full request set; every answer
            // must match the per-request reference.
            let (answers, stats) = server.serve_concurrent(6, |_, client| {
                let pending: Vec<_> = requests().into_iter().map(|r| client.submit(r)).collect();
                pending.into_iter().map(Pending::wait).collect::<Vec<_>>()
            });
            for (client_idx, client_answers) in answers.iter().enumerate() {
                assert_eq!(
                    client_answers, &reference,
                    "client {client_idx} batch_max={batch_max}"
                );
            }
            assert_eq!(stats.requests, 6 * requests().len());
            assert!(stats.windows >= 1);
            assert!(stats.largest_window <= batch_max.max(1));
            if batch_max == 1 {
                assert_eq!(stats.windows, stats.requests, "no coalescing at 1");
            }
        }
    }

    #[test]
    fn serves_a_sharded_engine_through_the_same_surface() {
        let mut sdb = ShardedDatabase::hash(3).unwrap();
        let db = catalog();
        sdb.register(db.table("sales").unwrap().clone(), "cust")
            .unwrap();
        sdb.register(db.table("customers").unwrap().clone(), "id")
            .unwrap();
        sdb.create_index("sales", "cust", IndexKind::Hash).unwrap();
        sdb.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        sdb.create_index("customers", "id", IndexKind::LevelCss)
            .unwrap();
        let server = BatchServer::with_options(&sdb, ServeOptions::batch_max(8));
        let (answers, _) = server.serve_concurrent(4, |_, client| {
            requests()
                .into_iter()
                .map(|r| client.call(r))
                .collect::<Vec<_>>()
        });
        let reference = reference(&db);
        for client_answers in &answers {
            assert_eq!(client_answers, &reference, "sharded == unsharded");
        }
    }

    #[test]
    fn group_only_and_forced_kind_specs_replay() {
        let db = catalog();
        let server = BatchServer::with_options(&db, ServeOptions::default());
        let spec = QuerySpec::table("sales")
            .filter(eq("cust", 3))
            .using(IndexKind::Hash);
        let got = server.run_batch(&[Request::query(spec)]);
        let want = db
            .query("sales")
            .filter(eq("cust", 3))
            .using(IndexKind::Hash)
            .run()
            .unwrap();
        assert_eq!(got[0], Ok(want.rows().clone()));
        let spec = QuerySpec::table("customers").group_by("region", count());
        let got = server.run_batch(&[spec.into()]);
        let want = db
            .query("customers")
            .group_by("region", count())
            .run()
            .unwrap();
        assert_eq!(got[0], Ok(want.rows().clone()));
    }

    #[test]
    fn serve_options_env_knobs_parse_strictly() {
        // Under a clean environment both constructors agree and floors
        // hold (the parse rule itself is unit-tested in mmdb).
        let opts = ServeOptions::from_env();
        assert!(opts.batch_max >= 1);
        assert_eq!(ServeOptions::try_from_env().expect("parsable env"), opts);
        let floored = ServeOptions {
            batch_max: 0,
            batch_wait: Duration::ZERO,
        }
        .normalized();
        assert_eq!(floored.batch_max, 1, "a window holds at least one request");
        assert_eq!(
            floored.batch_wait,
            Duration::ZERO,
            "zero wait is meaningful"
        );
    }

    /// `ShardServer::bind` resolves the window knobs once, strictly. The
    /// environment is process-wide and the other tests read it, so the
    /// bad value is set on a child: this test binary re-run on the one
    /// test below.
    #[test]
    fn shard_server_rejects_an_unparsable_window_knob_at_bind() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "tests::bind_under_a_bad_window_knob",
                "--nocapture",
            ])
            .env("CCINDEX_BATCH_MAX", "lots")
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "{stdout}");
        assert!(
            stdout.contains("bind refused: CCINDEX_BATCH_MAX"),
            "{stdout}"
        );
    }

    #[test]
    fn bind_under_a_bad_window_knob() {
        if std::env::var("CCINDEX_BATCH_MAX").as_deref() != Ok("lots") {
            return; // Only meaningful as the child of the test above.
        }
        match ShardServer::spawn(Database::new()) {
            Err(MmdbError::InvalidExecOption { name, value }) => {
                assert_eq!(value, "lots");
                println!("bind refused: {name}");
            }
            other => panic!("expected InvalidExecOption, got {other:?}"),
        }
    }

    /// No coordinator sends the v3 `GroupPartial` frame any more (grouped
    /// plans arrive whole as `RunSpec`), but a v3 server still answers
    /// it — with the engine's own groups, and typed errors for the
    /// malformed shapes a foreign client could send.
    #[test]
    fn shard_server_still_answers_the_group_partial_frame() {
        use ccindex_wire::{read_response, write_request, ShardRequest, ShardResponse};
        use mmdb::AggFn;
        let db = catalog();
        let want_sum = db
            .query("sales")
            .filter(between("amount", 10, 90))
            .group_by("cust", sum("amount"))
            .run()
            .unwrap()
            .groups()
            .to_vec();
        let selected = db
            .query("sales")
            .filter(between("amount", 10, 90))
            .run()
            .unwrap()
            .rids()
            .to_vec();
        let want_count = db
            .query("sales")
            .group_by("cust", count())
            .run()
            .unwrap()
            .groups()
            .to_vec();
        let server = ShardServer::spawn(db).unwrap();
        let addr = server.addr();
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        let mut ask = |measure: Option<&str>, agg: AggFn, rids: Option<Vec<u32>>| {
            let request = ShardRequest::GroupPartial {
                table: "sales".into(),
                group_column: "cust".into(),
                measure: measure.map(str::to_owned),
                agg,
                rids,
            };
            write_request(&mut stream, &addr, &request).unwrap();
            read_response(&mut stream, &addr).unwrap()
        };
        assert_eq!(
            ask(Some("amount"), AggFn::Sum, Some(selected)),
            ShardResponse::Groups(want_sum)
        );
        assert_eq!(
            ask(None, AggFn::Count, None),
            ShardResponse::Groups(want_count)
        );
        for (measure, agg, rids) in [
            (Some("amount"), AggFn::Max, Some(vec![0, 60])), // rid out of range
            (None, AggFn::Sum, None),                        // no measure
            (Some("nocol"), AggFn::Sum, None),               // unknown column
        ] {
            assert!(
                matches!(ask(measure, agg, rids), ShardResponse::Err(_)),
                "{measure:?} {agg:?}"
            );
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn zero_clients_and_zero_wait_sessions_terminate() {
        let db = catalog();
        let server = BatchServer::with_options(
            &db,
            ServeOptions {
                batch_max: 4,
                batch_wait: Duration::ZERO,
            },
        );
        let (answers, stats) =
            server.serve_concurrent::<(), _>(0, |_, _| unreachable!("no clients"));
        assert!(answers.is_empty());
        assert_eq!(
            (stats.windows, stats.requests, stats.largest_window),
            (0, 0, 0)
        );
        // The snapshot counters still report the catalog's state: the
        // test catalog committed one generation per register/index call.
        assert_eq!(stats.snapshot.generation, 5);
        assert_eq!(stats.snapshot.pinned, 0, "no window pinned anything");
        // Zero wait still answers everything (windows just close early).
        let (answers, stats) = server.serve_concurrent(2, |_, client| {
            client.call(Request::point("sales", "cust", 3i64))
        });
        assert_eq!(answers[0], answers[1]);
        assert_eq!(stats.requests, 2);
        let rows = answers[0].clone().unwrap();
        assert_eq!(
            rows,
            ResultRows::Rids(
                db.query("sales")
                    .filter(eq("cust", Value::Int(3)))
                    .run()
                    .unwrap()
                    .rids()
                    .to_vec()
            )
        );
    }

    #[test]
    fn shutdown_flushes_every_queued_request() {
        // Clients pipeline a burst of submissions and retire immediately
        // — the queue closes while (almost) all of them are still
        // queued. The serving loop must flush the backlog through its
        // windows, answering every ticket; none may be dropped.
        let db = catalog();
        let per_client = 50;
        let clients = 2;
        let server = BatchServer::with_options(
            &db,
            ServeOptions {
                batch_max: 8,
                batch_wait: Duration::ZERO,
            },
        );
        let (answers, stats) = server.serve_concurrent(clients, |_, client| {
            // Submit everything before waiting on anything: when this
            // closure returns the client retires, and the last client
            // closes the queue with requests still in flight.
            let pending: Vec<_> = (0..per_client)
                .map(|i| client.submit(Request::point("sales", "cust", (i % 20) as i64)))
                .collect();
            pending.into_iter().map(Pending::wait).collect::<Vec<_>>()
        });
        assert_eq!(stats.requests, clients * per_client, "nothing dropped");
        let want: Vec<_> = (0..per_client)
            .map(|i| {
                db.query("sales")
                    .filter(eq("cust", (i % 20) as i64))
                    .run()
                    .map(|r| r.rows().clone())
            })
            .collect();
        for client_answers in &answers {
            assert_eq!(client_answers, &want);
        }
    }

    #[test]
    fn windows_serve_pinned_snapshots_while_a_writer_commits() {
        // The tentpole shape: the serving session runs over a reader
        // handle on one thread while the catalog owner keeps committing
        // replace_column cycles. Every answer must equal the probe's
        // result against *some* committed generation — and since 'cust'
        // never changes, answers here must be byte-stable throughout.
        let mut db = catalog();
        let handle = db.handle();
        let want = db.query("sales").filter(eq("cust", 3)).run().unwrap();
        let want = ResultRows::Rids(want.rids().to_vec());
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| {
                let server = BatchServer::with_options(&handle, ServeOptions::batch_max(8));
                server.serve_concurrent(4, |_, client| {
                    (0..100)
                        .map(|_| client.call(Request::point("sales", "cust", 3i64)))
                        .collect::<Vec<_>>()
                })
            });
            // Writer: keep committing new 'amount' generations until the
            // serving session finishes.
            let mut toggle = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                toggle += 1;
                let values: Vec<Value> = (0..60).map(|i| Value::Int((i + toggle) % 100)).collect();
                db.replace_column("sales", "amount", values).unwrap();
                if server_thread.is_finished() {
                    stop.store(true, std::sync::atomic::Ordering::Release);
                }
            }
            let (answers, stats) = server_thread.join().expect("serving thread");
            stop.store(true, std::sync::atomic::Ordering::Release);
            for client_answers in &answers {
                for a in client_answers {
                    assert_eq!(a.as_ref().unwrap(), &want, "torn or stale read");
                }
            }
            assert_eq!(stats.requests, 400);
            assert!(
                stats.snapshot.generation > 5,
                "the writer committed generations during the session: {}",
                stats.snapshot.generation
            );
            assert_eq!(stats.snapshot.pinned, 0, "window snapshots all dropped");
        });
    }

    #[test]
    fn stats_explain_surfaces_snapshot_observability() {
        let mut db = catalog();
        db.replace_column(
            "sales",
            "amount",
            (0..60).map(|i| Value::Int(i % 7)).collect(),
        )
        .unwrap();
        let server = BatchServer::with_options(&db, ServeOptions::batch_max(4));
        let (_, stats) = server.serve_concurrent(2, |_, client| {
            client.call(Request::point("sales", "cust", 3i64))
        });
        assert_eq!(stats.snapshot.generation, db.generation());
        assert_eq!(stats.snapshot.swaps, db.swap_count());
        let text = stats.explain();
        assert!(text.contains("served 2 request(s)"), "{text}");
        assert!(
            text.contains(&format!("catalog generation {}", db.generation())),
            "{text}"
        );
        assert!(text.contains("0 pinned snapshot(s)"), "{text}");
        assert!(
            text.contains(&format!(
                "queue depth {} at last close, high-water {}",
                stats.queue_depth, stats.queue_depth_high_water
            )),
            "{text}"
        );
    }

    #[test]
    fn queue_depth_gauge_tracks_backlog() {
        // One client floods 200 pipelined submissions before waiting on
        // any of them; the serving thread must execute a full window
        // (snapshot pin + pool dispatch) per pop, so the queue backs up
        // and the high-water gauge observes it. By the final window the
        // backlog has fully drained.
        let db = catalog();
        let server = BatchServer::with_options(
            &db,
            ServeOptions {
                batch_max: 4,
                batch_wait: Duration::ZERO,
            },
        );
        let (answers, stats) = server.serve_concurrent(1, |_, client| {
            let pending: Vec<_> = (0..200)
                .map(|i| client.submit(Request::point("sales", "cust", (i % 20) as i64)))
                .collect();
            pending.into_iter().map(Pending::wait).collect::<Vec<_>>()
        });
        assert!(answers[0].iter().all(Result::is_ok));
        assert_eq!(stats.requests, 200);
        assert!(
            stats.queue_depth_high_water >= 1,
            "a flood of pipelined submissions must back the queue up: {stats:?}"
        );
        assert_eq!(
            stats.queue_depth, 0,
            "the last window drains the backlog: {stats:?}"
        );
        // The windowless core never touches a queue.
        let direct = BatchServer::with_options(&db, ServeOptions::default());
        direct.run_batch(&requests());
    }
}
