//! The recording-overhead gate: a `BatchServer` recording every metric
//! must serve within 5 % of the throughput of the same session against a
//! `Registry::disabled()` control, whose recording paths are a single
//! branch — judged by the median on/off throughput ratio over 320
//! session pairs run in ABBA order. It is a wall-clock comparison, so it is
//! `#[ignore]`d in the default test run; run it in release:
//!
//! ```sh
//! cargo test --release -q -p ccindex-serve -- --ignored
//! ```

use ccindex_obs::Registry;
use ccindex_serve::{BatchServer, Request, ServeOptions};
use mmdb::{Database, IndexKind, TableBuilder};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 25_000;
const CLIENTS: usize = 16;
const PER_CLIENT: usize = 500;
/// Metrics-on/metrics-off session pairs, in ABBA order; about 6 s in
/// release. A pair's ratio spreads over about ±15 % on a shared two-core
/// host, so it takes this many for the median to settle within about
/// 1 %: at 80 pairs it ranged 0.94–1.00 over ten runs of one build.
const PAIRS: usize = 320;

/// One saturated session: sixteen clients pipeline point probes through
/// a tight window bound, so the queue stays ahead of the drain and every
/// recording path (latency, window size/wait/execute, queue depth) is
/// hot. Returns the session's wall-clock seconds.
fn session(db: &Database, registry: Arc<Registry>) -> f64 {
    let server = BatchServer::with_metrics(
        db,
        ServeOptions {
            batch_max: 8,
            batch_wait: Duration::from_micros(100),
        },
        registry,
    );
    let t0 = Instant::now();
    server.serve_concurrent(CLIENTS, |c, client| {
        let pending: Vec<_> = (0..PER_CLIENT)
            .map(|k| {
                let v = ((c * 2_654_435_761 + k * 48_271) % ROWS) as i64;
                client.submit(Request::point("orders", "amount", v))
            })
            .collect();
        for p in pending {
            p.wait().expect("served");
        }
    });
    t0.elapsed().as_secs_f64()
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn metric_recording_stays_within_five_percent_of_a_disabled_registry() {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("orders")
            .int_column(
                "amount",
                (0..ROWS).map(|i| ((i as u64).wrapping_mul(48_271) % (ROWS as u64 / 2)) as i64),
            )
            .build()
            .expect("equal columns"),
    )
    .expect("fresh catalog");
    db.create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");

    // Warm-up, which also proves the metrics-on side really records:
    // every request lands in the latency histogram.
    let requests = CLIENTS * PER_CLIENT;
    let registry = Arc::new(Registry::new());
    session(&db, Arc::clone(&registry));
    let latency = registry
        .find_histogram("serve.latency.ns")
        .expect("the server registers serve.latency.ns");
    assert_eq!(latency.count(), requests as u64);

    // Many short session pairs in ABBA order — metrics on first, then
    // off first, and so on — so a host that speeds up or slows down
    // across the run favours neither side, each pair judged by its own
    // on/off throughput ratio and the median pair deciding: no single
    // lucky or unlucky session decides the outcome (a best-of-five over
    // 100 ms sessions swung between 0.74 and 1.16 on a shared two-core
    // host, and totals over strictly alternating pairs failed one run in
    // three there).
    let session_secs = |metrics_on: bool| {
        let registry = if metrics_on {
            Registry::new()
        } else {
            Registry::disabled()
        };
        session(&db, Arc::new(registry))
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let on_first = pair % 2 == 0;
            let first = session_secs(on_first);
            let second = session_secs(!on_first);
            let (on_secs, off_secs) = if on_first {
                (first, second)
            } else {
                (second, first)
            };
            // Throughput on over off: the same requests, so time off
            // over time on.
            off_secs / on_secs
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[PAIRS / 2 - 1] + ratios[PAIRS / 2]) / 2.0;
    assert!(
        median >= 0.95,
        "metric recording must stay within 5% of the metrics-off control \
         (median on/off throughput over {PAIRS} pairs {median:.3}; \
         quartiles {:.3}..{:.3})",
        ratios[PAIRS / 4],
        ratios[3 * PAIRS / 4]
    );
}
