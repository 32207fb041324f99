//! `serve-small` — the batch-forming server over a table that fits in
//! cache.
//!
//! *Why:* with 64k keys (256 KB, inside L2) the index is a few percent of
//! a request, so queue → window → coalesce → demux is the cost: `serve`
//! and `parallel::BlockingQueue` dominate. ROADMAP item 5's queue bound
//! and `catch_unwind`, and item 6's extra recording, must not move it. It
//! is also the in-cache counterpart of `index-probe`: a prefetching
//! change predicts *no change* here.
//!
//! Two client threads each keep 32 requests outstanding (`submit` …
//! `wait` for the oldest), 90 % `Request::point` / 10 % `Request::range`
//! (≈ 8 keys wide), against `ServeOptions { batch_max: 64, batch_wait:
//! 200 µs }`. All three threads share one CPU ([`pin_to_one_cpu`]): on
//! the 2-vCPU host a wake-up that crosses CPUs costs more than the work it
//! hands over — the same session reads 580–650k requests/s with p99
//! 175–195 µs on one CPU and 330–395k with p99 365–595 µs on two — so one
//! CPU measures what the serving layer's code costs, and two measure the
//! hypervisor. op = one request; latency = `submit` → `wait` returns;
//! `ops_per_s` is over the session's wall time, chunk by chunk; `setup_s` = table build +
//! index + server construction. Reference: `Database::query().run()` per
//! request.

use crate::harness::*;
use crate::trace::{Tracer, ALL_REQUESTS};
use ccindex::prelude::*;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: usize = 65_536;
const CLIENTS: usize = 2;
const OUTSTANDING: usize = 32;
const OPTIONS: ServeOptions = ServeOptions {
    batch_max: 64,
    batch_wait: Duration::from_micros(200),
};
/// Requests per client per lap of its stream.
const REQUESTS: usize = 65_536;
/// Requests per client the traced ladder replays per pass.
const TRACE_REQUESTS: usize = 32_768;
/// Every `SAMPLE_EVERY`-th request's latency is kept. At ~200k requests
/// a second per client, keeping all of them makes the sample buffers a
/// fifth of the process's memory and `peak_rss_mb` a function of the
/// throughput.
const SAMPLE_EVERY: usize = 8;
/// Completions per client per throughput chunk.
const CHUNK: usize = 2048;
/// A range request spans this many consecutive keys.
const RANGE_KEYS: usize = 8;

struct Inputs {
    keys: Vec<i64>,
    /// One request stream per client.
    streams: Vec<Vec<Request>>,
}

impl Inputs {
    fn generate(cfg: &Config, requests: usize) -> Inputs {
        let keys: Vec<u32> = KeySetBuilder::new(cfg.rows(KEYS, 2048))
            .seed(cfg.stream_seed(0))
            .build();
        let streams = (0..CLIENTS as u64)
            .map(|c| {
                let mut rng = Rng::new(cfg.seed, 300 + c);
                LookupStream::successful(&keys, requests, cfg.stream_seed(1 + c))
                    .probes()
                    .iter()
                    .map(|&k| {
                        if rng.below(10) == 0 {
                            let at = keys.partition_point(|&x| x < k);
                            let hi = keys[(at + RANGE_KEYS - 1).min(keys.len() - 1)];
                            Request::range("t", "k", i64::from(k), i64::from(hi))
                        } else {
                            Request::point("t", "k", i64::from(k))
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            keys: keys.into_iter().map(i64::from).collect(),
            streams,
        }
    }
}

fn setup(keys: &[i64]) -> Result<Database, String> {
    let mut db = Database::new();
    db.set_exec_options(Config::EXEC);
    db.register(
        TableBuilder::new("t")
            .int_column("k", keys.iter().copied())
            .build()
            .map_err(fail("table t"))?,
    )
    .map_err(fail("register t"))?;
    db.create_index("t", "k", IndexKind::FullCss)
        .map_err(fail("create_index"))?;
    black_box(BatchServer::with_options(&db, OPTIONS));
    Ok(db)
}

fn reference(db: &Database, request: &Request) -> Result<ResultRows, MmdbError> {
    let predicate = match request {
        Request::Point { column, value, .. } => eq(column, value.clone()),
        Request::Range { column, lo, hi, .. } => between(column, lo.clone(), hi.clone()),
        Request::Query(_) => unreachable!("serve-small submits probes only"),
    };
    Ok(db.query("t").filter(predicate).run()?.rows().clone())
}

/// When a client stops submitting.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    /// This many requests per client.
    Count(usize),
}

#[derive(Default)]
struct ClientOutcome {
    completed: u64,
    failed: u64,
    samples: Vec<u32>,
    /// This client's completions per second, chunk by chunk.
    rates: Vec<f64>,
}

/// One serving session: every client keeps [`OUTSTANDING`] requests in
/// flight through its stream (cycling) until `until`, checking each
/// answer against `expected`. Returns the clients' outcomes and the
/// session's wall time.
fn session<S: ServeSource + ?Sized>(
    server: &BatchServer<'_, S>,
    streams: &[Vec<Request>],
    expected: &[Vec<Expected>],
    until: Until,
    samples_capacity: usize,
) -> (Vec<ClientOutcome>, Instant, Instant) {
    let start = Instant::now();
    let (outcomes, _) = server.serve_concurrent(streams.len(), |c, client| {
        let (stream, expected) = (&streams[c], &expected[c]);
        let mut out = ClientOutcome {
            samples: Vec::with_capacity(samples_capacity),
            ..ClientOutcome::default()
        };
        let mut inflight = VecDeque::with_capacity(OUTSTANDING);
        let mut submitted = 0usize;
        let mut chunk_start = Instant::now();
        loop {
            while inflight.len() < OUTSTANDING {
                let more = match until {
                    Until::Deadline(deadline) => Instant::now() < deadline,
                    Until::Count(n) => submitted < n,
                };
                if !more {
                    break;
                }
                let i = submitted % stream.len();
                let request = stream[i].clone();
                inflight.push_back((i, Instant::now(), client.submit(request)));
                submitted += 1;
            }
            let Some((i, sent, pending)) = inflight.pop_front() else {
                return out;
            };
            let answer = pending.wait();
            if out.completed % SAMPLE_EVERY as u64 == 0 {
                out.samples
                    .push(sample_ns(sent.elapsed().as_nanos() as u64));
            }
            out.completed += 1;
            if out.completed % CHUNK as u64 == 0 {
                let now = Instant::now();
                out.rates
                    .push(rate(CHUNK as u64, (now - chunk_start).as_nanos() as u64));
                chunk_start = now;
            }
            if answer.ok().map(|rows| digest_rows(&rows)) != Some(expected[i]) {
                out.failed += 1;
            }
        }
    });
    (outcomes, start, Instant::now())
}

fn expected_for(db: &Database, streams: &[Vec<Request>]) -> Result<Vec<Vec<Expected>>, String> {
    streams
        .iter()
        .map(|stream| {
            stream
                .iter()
                .map(|r| reference(db, r).map(|rows| digest_rows(&rows)))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(fail("reference"))
}

pub fn run(cfg: &Config) -> Result<EndToEnd, String> {
    pin_to_one_cpu()?;
    let inputs = Inputs::generate(cfg, cfg.rows(REQUESTS, 4096));
    let (db, setups_s) = repeat_setup(cfg.setup_reps(15), || setup(&inputs.keys))?;
    let expected = expected_for(&db, &inputs.streams)?;
    let server = BatchServer::with_options(&db, OPTIONS);

    // The gate: the first ops of client 0's stream through a real session
    // (pipelined, so windows form), answers compared whole.
    let gate_len = GATE_OPS.min(inputs.streams[0].len());
    let (got, _) = server.serve_concurrent(1, |_, client| {
        let pending: Vec<_> = inputs.streams[0][..gate_len]
            .iter()
            .map(|r| client.submit(r.clone()))
            .collect();
        pending.into_iter().map(|p| p.wait()).collect::<Vec<_>>()
    });
    let want: Vec<_> = inputs.streams[0][..gate_len]
        .iter()
        .map(|r| reference(&db, r))
        .collect();
    gate("a served answer", &got[0], &want)?;

    // Warm-up: 5 % of each stream through a session of the same shape.
    let warmup = warmup_len(inputs.streams[0].len());
    session(
        &server,
        &inputs.streams,
        &expected,
        Until::Count(warmup),
        warmup,
    );

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let (clients, start, end) = session(
        &server,
        &inputs.streams,
        &expected,
        Until::Deadline(deadline),
        // Room for a request every microsecond per client.
        (cfg.seconds * 1e6) as usize / SAMPLE_EVERY,
    );

    let (lap_rows, lap_checksum) = lap_digest(&expected.concat());
    let mut out = EndToEnd {
        setups_s,
        lap_rows,
        lap_checksum,
        ..EndToEnd::default()
    };
    // The clients run side by side, so chunk `k` of the session moved the
    // sum of what each client completed per second in its chunk `k`.
    let chunks = clients.iter().map(|c| c.rates.len()).min().unwrap_or(0);
    out.rates = (0..chunks)
        .map(|k| clients.iter().map(|c| c.rates[k]).sum())
        .collect();
    for client in clients {
        out.ops += client.completed;
        out.failed += client.failed;
        out.samples.push(client.samples);
    }
    if out.rates.is_empty() {
        // Shorter than one chunk (a smoke run): the session is the chunk.
        out.rates
            .push(rate(out.ops, (end - start).as_nanos() as u64));
    }
    Ok(out)
}

/// The serving ladder — direct batch calls, `run_batch`, a full session
/// — plus the queue and pool primitives underneath and the `obs`
/// cross-checks.
pub fn trace(cfg: &Config, tracer: &mut Tracer) -> Result<Layers, String> {
    pin_to_one_cpu()?;
    let per_client = cfg.rows(TRACE_REQUESTS, 1024);
    let inputs = Inputs::generate(cfg, per_client);
    let db = setup(&inputs.keys)?;
    let expected = expected_for(&db, &inputs.streams)?;
    let requests = (per_client * CLIENTS) as f64;

    let r_session = tracer.rung("serve.session", None);
    let r_run_batch = tracer.rung("serve.BatchServer.run_batch", Some(r_session));
    let r_direct = tracer.rung("mmdb.probe_batch", Some(r_run_batch));
    let r_unbatched = tracer.rung("serve.session.batch_max_1", None);
    let r_disabled = tracer.rung("serve.session.registry_disabled", None);
    let r_untraced = tracer.rung("serve.session.untraced", None);

    // The same requests as windows of `batch_max`, and each window's
    // probes as the engine's native batch shapes.
    let all: Vec<&Request> = inputs.streams.iter().flatten().collect();
    let windows: Vec<Vec<Request>> = all
        .chunks(OPTIONS.batch_max)
        .map(|w| w.iter().map(|&r| r.clone()).collect())
        .collect();
    #[derive(Default)]
    struct Shapes {
        points: Vec<Value>,
        ranges: Vec<(Value, Value)>,
    }
    let shapes: Vec<Shapes> = windows
        .iter()
        .map(|window| {
            let mut shapes = Shapes::default();
            for request in window {
                match request {
                    Request::Point { value, .. } => shapes.points.push(value.clone()),
                    Request::Range { lo, hi, .. } => shapes.ranges.push((lo.clone(), hi.clone())),
                    Request::Query(_) => unreachable!("serve-small submits probes only"),
                }
            }
            shapes
        })
        .collect();

    let server = BatchServer::with_options(&db, OPTIONS);
    let unbatched = BatchServer::with_options(
        &db,
        ServeOptions {
            batch_max: 1,
            ..OPTIONS
        },
    );
    let disabled = BatchServer::with_metrics(&db, OPTIONS, Arc::new(Registry::disabled()));
    let mut external = Vec::new();
    let mut failed = 0u64;
    tracer
        .passes(cfg.passes(), |t, pass| -> Result<(), MmdbError> {
            for (w, Shapes { points, ranges }) in shapes.iter().enumerate() {
                t.time(r_direct, pass, w as u32, || -> Result<(), MmdbError> {
                    black_box(db.point_probe_batch("t", "k", points)?);
                    black_box(db.range_probe_batch("t", "k", ranges)?);
                    Ok(())
                })?;
            }
            for (w, window) in windows.iter().enumerate() {
                t.time(r_run_batch, pass, w as u32, || {
                    black_box(server.run_batch(window))
                });
            }
            let until = Until::Count(per_client);
            let timed_session = |t: &mut Tracer, rung, server: &BatchServer<'_, Database>| {
                let (clients, start, end) =
                    session(server, &inputs.streams, &expected, until, per_client);
                t.record(rung, pass, ALL_REQUESTS, start, end);
                clients
            };
            // Metrics on, metrics off and the one-request-per-window baseline
            // back to back, so they share whatever the host is doing.
            let clients = timed_session(t, r_session, &server);
            timed_session(t, r_disabled, &disabled);
            timed_session(t, r_unbatched, &unbatched);
            if t.recording() {
                for client in clients {
                    failed += client.failed;
                    external.extend(client.samples);
                }
                // The top rung again, as the end-to-end run does it: no span.
                let (_, start, end) =
                    session(&server, &inputs.streams, &expected, until, per_client);
                t.record(r_untraced, pass, ALL_REQUESTS, start, end);
            }
            Ok(())
        })
        .map_err(fail("traced call"))?;
    if failed > 0 {
        return Err(format!("{failed} traced requests answered wrong"));
    }

    // The primitives underneath: a queue hand-off between two threads
    // (half a ping-pong round trip) and an empty two-job pool run.
    let round_trips = cfg.rows(40_000, 500);
    let (there, back) = (BlockingQueue::new(), BlockingQueue::new());
    let ((), handoff_ns) = timed(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(token) = there.pop() {
                    back.push(token).expect("the queue is open");
                }
            });
            for token in 0..round_trips {
                there.push(token).expect("the queue is open");
                black_box(back.pop());
            }
            there.close();
        });
    });
    let pool_runs = cfg.rows(4000, 100);
    let pool = WorkerPool::new(2);
    let ((), pool_ns) = timed(|| {
        for _ in 0..pool_runs {
            black_box(pool.run(2, |job| job));
        }
    });

    let registry = server.registry();
    let histogram_p50 = |name: &str| {
        registry
            .find_histogram(name)
            .map_or(0.0, |h| h.percentile(50.0) as f64)
    };
    external.sort_unstable();
    let external_p99 = f64::from(crate::stats::percentile(&external, 99.0));
    let recorded_p99 = registry
        .find_histogram("serve.latency.ns")
        .map_or(0.0, |h| h.percentile(99.0) as f64);
    let session_ns = tracer.total_ns(r_session);
    Ok(vec![
        (
            "serve.direct_ns_per_req".into(),
            tracer.total_ns(r_direct) / requests,
        ),
        (
            "serve.run_batch_ns_per_req".into(),
            tracer.total_ns(r_run_batch) / requests,
        ),
        ("serve.session_ns_per_req".into(), session_ns / requests),
        (
            "serve.coalesce_self_ns_per_req".into(),
            tracer.self_total_ns(r_run_batch) / requests,
        ),
        (
            "serve.queue_window_self_ns_per_req".into(),
            tracer.self_total_ns(r_session) / requests,
        ),
        (
            "serve.unbatched_ns_per_req".into(),
            tracer.total_ns(r_unbatched) / requests,
        ),
        (
            "serve.window_size_p50".into(),
            histogram_p50("serve.window.size"),
        ),
        (
            // Per session: the warm-up pass ran one on this server, every
            // recorded pass two.
            "serve.windows".into(),
            registry
                .find_counter("serve.windows")
                .map_or(0.0, |c| c.get() as f64)
                / (1 + 2 * cfg.passes()) as f64,
        ),
        (
            "serve.window_wait_p50_us".into(),
            histogram_p50("serve.window.wait.ns") / 1e3,
        ),
        (
            "serve.window_exec_p50_us".into(),
            histogram_p50("serve.window.exec.ns") / 1e3,
        ),
        (
            "serve.queue_depth_high_water".into(),
            registry
                .find_gauge("serve.queue.depth")
                .map_or(0.0, |g| g.high_water() as f64),
        ),
        (
            "parallel.queue_handoff_ns".into(),
            handoff_ns as f64 / (2 * round_trips) as f64,
        ),
        (
            "parallel.pool_run_us".into(),
            pool_ns as f64 / pool_runs as f64 / 1e3,
        ),
        (
            "obs.record_overhead_pct".into(),
            (session_ns / tracer.total_ns(r_disabled) - 1.0) * 100.0,
        ),
        (
            "obs.latency_p99_skew_pct".into(),
            (recorded_p99 / external_p99 - 1.0) * 100.0,
        ),
        (
            "bench.trace_overhead_pct".into(),
            (session_ns / tracer.total_ns(r_untraced) - 1.0) * 100.0,
        ),
    ])
}
