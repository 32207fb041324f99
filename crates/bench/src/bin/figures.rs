//! Regenerate every table and figure of Rao & Ross (VLDB 1999).
//!
//! ```text
//! figures [OPTIONS] <WHAT>...
//!
//! WHAT:  fig1 table1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!        fig14 warmcache interp batched engine parallel sharded distributed
//!        serve concurrent ablations slo coldstart all
//!        (anything else is a usage error: exit 2, valid names listed)
//!
//! OPTIONS:
//!   --simulate <machine>   run timing figures on the cache simulator
//!                          (ultrasparc | pentium2 | modern) instead of
//!                          host wall-clock
//!   --scale <small|paper>  problem sizes (default small: ~100x reduced;
//!                          paper: the original sizes, n up to 25M)
//!   --lookups <N>          probes per measurement (default 100000)
//! ```
//!
//! The timing subcommands (`batched engine parallel sharded serve
//! concurrent`) also flush their measurements as machine-readable
//! `BENCH_<what>.json` files (name, params, ns/op, throughput) alongside
//! the human tables, so sweeps can be tracked across commits without
//! scraping stdout.
//!
//! `fig10`/`fig11` and `fig12`/`fig13` differ only in machine model, so
//! the unsimulated run prints host measurements once and notes the
//! mapping. Every figure's expected *shape* is described in the doc
//! comment of the function that prints it, below.

use analysis::space_model::{space_direct, space_indirect, Method};
use analysis::time_model::cost_breakdown;
use analysis::{csstree_ratios, Params};
use bench::methods::{
    all_methods, batched_comparison_methods, build_bplus, build_hash, build_ttree,
};
use bench::protocol::{
    compare_sequential_vs_batched, run_lookup_protocol, simulate_lookup_protocol, Measurement,
};
use bench::report::{format_num, print_series, write_bench_json, BenchRecord, Series};
use cachesim::Machine;
use ccindex_common::{SearchIndex, SortedArray};
use css_tree::{CssVariant, DynCssTree, FullCssTree, LevelCssTree};
use workload::{KeyDistribution, KeySetBuilder, LookupStream, DEFAULT_SEED};

use std::time::Instant;

#[derive(Clone)]
struct Options {
    simulate: Option<String>,
    paper_scale: bool,
    lookups: usize,
}

impl Options {
    fn scaled(&self, paper_n: usize) -> usize {
        if self.paper_scale {
            paper_n
        } else {
            (paper_n / 20).max(10_000)
        }
    }

    fn measure(&self, index: &dyn SearchIndex<u32>, probes: &[u32]) -> Measurement {
        match &self.simulate {
            Some(name) => {
                let mut machine =
                    Machine::by_name(name).unwrap_or_else(|| panic!("unknown machine '{name}'"));
                simulate_lookup_protocol(index, probes, &mut machine)
            }
            None => run_lookup_protocol(index, probes, 3),
        }
    }

    fn time_label(&self) -> String {
        match &self.simulate {
            Some(m) => format!("simulated seconds on {m} per batch"),
            None => "host wall-clock seconds per batch".to_string(),
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        simulate: None,
        paper_scale: false,
        lookups: 100_000,
    };
    let mut what: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--simulate" => {
                opts.simulate = Some(args.next().expect("--simulate needs a machine name"));
            }
            "--scale" => {
                let v = args.next().expect("--scale needs small|paper");
                opts.paper_scale = v == "paper";
            }
            "--lookups" => {
                opts.lookups = args
                    .next()
                    .expect("--lookups needs a count")
                    .parse()
                    .expect("invalid lookup count");
            }
            other if other.starts_with("--") => panic!("unknown option {other}"),
            other => what.push(other.to_string()),
        }
    }
    if what.is_empty() {
        what.push("all".to_string());
    }
    let known = |w: &str| w == "all" || FIGURES.iter().any(|(names, _)| names.contains(&w));
    if let Some(bad) = what.iter().find(|w| !known(w)) {
        let names: Vec<&str> = FIGURES
            .iter()
            .flat_map(|(names, _)| names.iter().copied())
            .collect();
        eprintln!(
            "figures: unknown figure `{bad}`; valid names: {} all",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let all = what.iter().any(|w| w == "all");
    for (names, run) in FIGURES {
        if all || what.iter().any(|w| names.contains(&w.as_str())) {
            run(&opts);
        }
    }
}

/// One printable figure: the names that select it and what runs.
type Figure = (&'static [&'static str], fn(&Options));

/// Every figure name the command line accepts, in print order; names
/// sharing a row print one figure.
const FIGURES: &[Figure] = &[
    (&["fig1"], |_| fig1()),
    (&["table1"], |_| table1()),
    (&["fig5"], |_| fig5()),
    (&["fig6"], |_| fig6()),
    (&["fig7"], |_| fig7()),
    (&["fig8"], |_| fig8()),
    (&["fig9"], fig9),
    (&["fig10", "fig11"], fig10_11),
    (&["fig12", "fig13"], fig12_13),
    (&["fig2", "fig14"], fig14),
    (&["warmcache"], warmcache),
    (&["interp"], interp),
    (&["batched"], batched),
    (&["engine"], engine),
    (&["parallel"], parallel),
    (&["sharded"], sharded),
    (&["distributed"], distributed),
    (&["serve"], serve),
    (&["concurrent"], concurrent),
    (&["ablations"], ablations),
    (&["slo"], slo),
    (&["coldstart"], coldstart),
];

/// Flush one subcommand's measurements as `BENCH_<figure>.json` next to
/// its human table; a write failure is reported, never fatal (the table
/// already printed).
fn flush_bench(figure: &str, records: &[BenchRecord]) {
    match write_bench_json(figure, records) {
        Ok(path) => println!("  (machine-readable copy: {})", path.display()),
        Err(e) => eprintln!("  could not write BENCH_{figure}.json: {e}"),
    }
}

/// Beyond-paper: the batch-formation serving front-end — N concurrent
/// clients, each pipelining point probes through a `BatchServer`, swept
/// over client counts x batch-window sizes against the one-probe-at-a-
/// time baseline (`batch_max = 1`: every request is its own window and
/// its own index descent). Wider windows coalesce same-column probes
/// into single interleaved `lower_bound_batch` descents, so requests/s
/// should climb with the window bound; every configuration's answers
/// are asserted byte-identical to the baseline's before it is timed.
/// The sharded rows route the same traffic through a 4-shard catalog's
/// scatter entry points.
fn serve(opts: &Options) {
    use ccindex_shard::ShardedDatabase;
    use mmdb::{Database, IndexKind, TableBuilder};

    let n = opts.scaled(2_000_000);
    let per_client = (opts.lookups / 50).clamp(64, 2_000);
    let orders = || {
        TableBuilder::new("orders")
            .int_column(
                "amount",
                (0..n).map(|i| ((i as u64).wrapping_mul(48_271) % (n as u64 / 2)) as i64),
            )
            .build()
            .expect("equal columns")
    };
    let mut base = Database::new();
    base.register(orders()).expect("fresh catalog");
    base.create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");
    let mut sharded = ShardedDatabase::hash(4).expect("four shards");
    sharded.register(orders(), "amount").expect("fresh catalog");
    sharded
        .create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");

    println!(
        "\n== Batch-formation serving (host): {} rows, {} probes/client, clients x batch window ==",
        format_num(n as f64),
        per_client
    );
    println!(
        "{:>22} {:>8} {:>10} {:>9} {:>14} {:>14} {:>9}",
        "catalog", "clients", "batch_max", "windows", "seconds", "requests/s", "vs 1-at-a-time"
    );
    let mut records = Vec::new();
    serve_rows("unsharded", &base, n, per_client, &mut records);
    serve_rows("hash x4", &sharded, n, per_client, &mut records);
    println!("  (all batch-formed answers asserted byte-identical to one-probe-at-a-time serving)");
    flush_bench("serve", &records);
}

/// One catalog's sweep of the `serve` figure — generic over the snapshot
/// source (the server pins a fresh generation per window, so the probe
/// path takes no locks regardless of which catalog is behind it).
fn serve_rows<S: ccindex_serve::ServeSource>(
    label: &str,
    source: &S,
    n: usize,
    per_client: usize,
    records: &mut Vec<BenchRecord>,
) {
    use ccindex_serve::{BatchServer, Request, ServeOptions};
    use std::time::Duration;

    // Each client pipelines `per_client` point probes (a mix that hits
    // and misses) and then waits for all of them.
    let probes_of = |client: usize| -> Vec<i64> {
        (0..per_client)
            .map(|k| ((client * 2_654_435_761 + k * 48_271) % n) as i64)
            .collect()
    };
    let session = |clients: usize, batch_max: usize| {
        let server = BatchServer::with_options(
            source,
            ServeOptions {
                batch_max,
                batch_wait: Duration::from_micros(200),
            },
        );
        server.serve_concurrent(clients, |c, client| {
            let pending: Vec<_> = probes_of(c)
                .into_iter()
                .map(|v| client.submit(Request::point("orders", "amount", v)))
                .collect();
            pending
                .into_iter()
                .map(|p| p.wait().expect("served"))
                .collect::<Vec<_>>()
        })
    };

    for clients in [1usize, 4, 16] {
        let (reference, _) = session(clients, 1);
        let mut baseline_s = f64::INFINITY;
        for batch_max in [1usize, 16, 64] {
            let (answers, _) = session(clients, batch_max);
            assert_eq!(
                answers, reference,
                "batch-formed answers must be byte-identical \
                 ({label} clients={clients} batch_max={batch_max})"
            );
            let t0 = Instant::now();
            let (_, stats_timed) = session(clients, batch_max);
            let secs = t0.elapsed().as_secs_f64();
            if batch_max == 1 {
                baseline_s = secs;
            }
            println!(
                "{:>22} {:>8} {:>10} {:>9} {:>14} {:>14} {:>8.2}x",
                label,
                clients,
                batch_max,
                stats_timed.windows,
                format_num(secs),
                format_num(stats_timed.requests as f64 / secs),
                baseline_s / secs
            );
            records.push(
                BenchRecord::new("served point probes")
                    .param("catalog", label)
                    .param("clients", clients)
                    .param("batch_max", batch_max)
                    .param("windows", stats_timed.windows)
                    .timed(stats_timed.requests as f64, secs),
            );
        }
    }
}

/// Beyond-paper, the tentpole measurement of the snapshot catalog: a
/// serving session pinned to per-window snapshots while a writer thread
/// continuously commits generations through the rebuild cycle. The
/// sweep runs the same client traffic three times — no writer (the
/// read-only baseline), a paced writer, and a flat-out writer — over
/// both the unsharded and a 4-shard catalog, always through `Send`
/// reader handles so the writer keeps `&mut` access on its own thread.
///
/// The writer replaces (and rebuilds the index of) a small side table in
/// the same catalog, so generations churn at a high rate without the
/// rebuild itself monopolising the cores the clients probe on: what the
/// figure isolates is the cost of the commit/pin synchronisation, which
/// should be near zero because the probe path takes no locks (readers
/// pin an immutable generation; the writer swaps an `Arc` on commit).
///
/// On hosts with few cores the flat-out writer also steals CPU from the
/// clients, which is contention the snapshot machinery cannot remove. To
/// separate the two effects the sweep includes an *equally-loaded
/// control*: the same flat-out commit loop run against a private scratch
/// catalog that shares no commit slot with the served one. The tentpole
/// claim — served-probe throughput within ~10% — is judged against that
/// control (and against the read-only baseline directly when the host
/// has cores to spare).
///
/// Host-only: the cache simulator is single-threaded, so `--simulate`
/// is ignored here. Results are also flushed to `BENCH_concurrent.json`.
fn concurrent(opts: &Options) {
    use ccindex_shard::ShardedDatabase;
    use mmdb::{Database, IndexKind, TableBuilder, Value};

    if opts.simulate.is_some() {
        println!("\n(concurrent serving is host-only; ignoring --simulate)");
    }
    let n = opts.scaled(2_000_000);
    let clients = 4usize;
    // Long enough sessions that scheduler noise averages out — the
    // figure is a ratio of wall-clocks, so jitter shows up directly.
    let per_client = (opts.lookups / 5).clamp(256, 20_000);
    let feed_rows = 4_096usize;
    let orders = || {
        TableBuilder::new("orders")
            .int_column(
                "amount",
                (0..n).map(|i| ((i as u64).wrapping_mul(48_271) % (n as u64 / 2)) as i64),
            )
            .build()
            .expect("equal columns")
    };
    let feed = || {
        TableBuilder::new("feed")
            .int_column("value", (0..feed_rows).map(|i| (i as i64 * 7) % 1_000))
            .build()
            .expect("equal columns")
    };
    // The batch the writer commits over and over: same shape, same
    // values — every commit runs the full merge+rebuild cycle and swaps
    // a new generation in, while served answers stay byte-comparable.
    let feed_batch: Vec<Value> = (0..feed_rows)
        .map(|i| Value::Int((i as i64 * 7) % 1_000))
        .collect();
    let probes: Vec<Vec<i64>> = (0..clients)
        .map(|client| {
            (0..per_client)
                .map(|k| ((client * 2_654_435_761 + k * 48_271) % n) as i64)
                .collect()
        })
        .collect();

    println!(
        "\n== Concurrent serving vs committing writer (host): {} rows, {} clients x {} probes ==",
        format_num(n as f64),
        clients,
        per_client
    );
    println!(
        "{:>12} {:>18} {:>9} {:>12} {:>14} {:>14} {:>13}",
        "catalog", "writer", "commits", "generation", "seconds", "requests/s", "vs read-only"
    );
    let mut records = Vec::new();

    let mut base = Database::new();
    base.register(orders()).expect("fresh catalog");
    base.register(feed()).expect("fresh catalog");
    base.create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");
    base.create_index("feed", "value", IndexKind::FullCss)
        .expect("column");
    {
        let handle = base.handle();
        // The control writer's private catalog: the same feed table and
        // index, so a commit costs the same CPU, but no shared slot.
        let mut scratch = Database::new();
        scratch.register(feed()).expect("fresh catalog");
        scratch
            .create_index("feed", "value", IndexKind::FullCss)
            .expect("column");
        let mut commit = |db: &mut Database| {
            db.replace_column("feed", "value", feed_batch.clone())
                .expect("same shape");
        };
        concurrent_rows(
            "unsharded",
            &handle,
            &mut base,
            &mut scratch,
            &mut commit,
            clients,
            &probes,
            &mut records,
        );
    }

    let mut sharded = ShardedDatabase::hash(4).expect("four shards");
    sharded.register(orders(), "amount").expect("fresh catalog");
    sharded.register(feed(), "value").expect("fresh catalog");
    sharded
        .create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");
    sharded
        .create_index("feed", "value", IndexKind::FullCss)
        .expect("column");
    {
        let handle = sharded.handle();
        let mut scratch = ShardedDatabase::hash(4).expect("four shards");
        scratch.register(feed(), "value").expect("fresh catalog");
        scratch
            .create_index("feed", "value", IndexKind::FullCss)
            .expect("column");
        let mut commit = |db: &mut ShardedDatabase| {
            db.replace_column("feed", "value", feed_batch.clone())
                .expect("same shape");
        };
        concurrent_rows(
            "hash x4",
            &handle,
            &mut sharded,
            &mut scratch,
            &mut commit,
            clients,
            &probes,
            &mut records,
        );
    }

    println!("  (all writer-raced answers asserted byte-identical to the read-only baseline)");
    flush_bench("concurrent", &records);
}

/// One catalog's rows of the `concurrent` figure: the read-only
/// baseline, then the same traffic with a paced writer, the
/// equally-loaded control (the flat-out commit loop against `scratch`,
/// which shares no commit slot with the served catalog), and finally the
/// flat-out writer committing into the served catalog — all on this
/// thread while the serving session runs over the `Send + Sync` handle
/// on another. Continuous-vs-control isolates the synchronisation cost
/// of sharing the commit slot from plain CPU contention.
#[allow(clippy::too_many_arguments)]
fn concurrent_rows<S, D>(
    label: &str,
    handle: &S,
    db: &mut D,
    scratch: &mut D,
    commit: &mut dyn FnMut(&mut D),
    clients: usize,
    probes: &[Vec<i64>],
    records: &mut Vec<BenchRecord>,
) where
    S: ccindex_serve::ServeSource,
{
    use ccindex_serve::{BatchServer, Request, ServeOptions};
    use std::time::Duration;

    let mut session = |pace: Option<Option<Duration>>, db: &mut D| {
        let mut commits = 0u64;
        let (answers, stats, secs) = std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| {
                let server = BatchServer::with_options(
                    handle,
                    ServeOptions {
                        batch_max: 64,
                        batch_wait: Duration::from_micros(200),
                    },
                );
                let t0 = Instant::now();
                let (answers, stats) = server.serve_concurrent(clients, |c, client| {
                    let pending: Vec<_> = probes[c]
                        .iter()
                        .map(|&v| client.submit(Request::point("orders", "amount", v)))
                        .collect();
                    pending
                        .into_iter()
                        .map(|p| p.wait().expect("served"))
                        .collect::<Vec<_>>()
                });
                (answers, stats, t0.elapsed().as_secs_f64())
            });
            if let Some(gap) = pace {
                while !server_thread.is_finished() {
                    commit(db);
                    commits += 1;
                    if let Some(gap) = gap {
                        std::thread::sleep(gap);
                    }
                }
            }
            server_thread.join().expect("serving thread")
        });
        (answers, stats, secs, commits)
    };

    let requests = (clients * probes[0].len()) as f64;
    let mut reference = None;
    let mut baseline = f64::INFINITY;
    let mut control = f64::INFINITY;
    for (writer, pace, on_scratch) in [
        ("none", None, false),
        ("paced 500us", Some(Some(Duration::from_micros(500))), false),
        ("unshared control", Some(None), true),
        ("continuous", Some(None), false),
    ] {
        // Best of five repetitions: one-shot timings on a loaded host
        // are noisy and the figure is about ratios. Answers are checked
        // on every repetition, not just the kept one.
        let mut secs = f64::INFINITY;
        let mut best = None;
        for _ in 0..5 {
            let target = if on_scratch { &mut *scratch } else { &mut *db };
            let (answers, stats, run_secs, commits) = session(pace, target);
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(
                    &answers, r,
                    "writer-raced answers must be byte-identical ({label} writer={writer})"
                ),
            }
            if run_secs < secs {
                secs = run_secs;
                best = Some((stats, commits));
            }
        }
        let (stats, commits) = best.expect("three repetitions ran");
        if pace.is_none() {
            baseline = secs;
        }
        if on_scratch {
            control = secs;
        }
        let ratio = baseline / secs;
        println!(
            "{:>12} {:>18} {:>9} {:>12} {:>14} {:>14} {:>12.2}x",
            label,
            writer,
            commits,
            stats.snapshot.generation,
            format_num(secs),
            format_num(requests / secs),
            ratio
        );
        if writer == "continuous" {
            let vs_control = control / secs;
            println!(
                "{:>12} {:>18} at {:.1}% of read-only, {:.1}% of the equally-loaded control ({})",
                "",
                "",
                100.0 * ratio,
                100.0 * vs_control,
                if vs_control >= 0.9 {
                    "within the 10% acceptance band"
                } else {
                    "outside the 10% acceptance band on this host"
                }
            );
        }
        records.push(
            BenchRecord::new("served point probes vs writer")
                .param("catalog", label)
                .param("writer", writer)
                .param("clients", clients)
                .param("commits", commits)
                .param("generation", stats.snapshot.generation)
                .param("swaps", stats.snapshot.swaps)
                .timed(requests, secs),
        );
    }
}

/// Beyond-paper: the lookup protocol in sequential vs batched mode for
/// the baseline quartet (binary search, B+-tree, both CSS variants). The
/// CSS variants answer batches with interleaved multi-lane descents; the
/// other two take the sequential default, so their two columns bound the
/// overhead of the batch plumbing itself.
fn batched(opts: &Options) {
    let machine_label = opts.simulate.clone().unwrap_or_else(|| "host".to_string());
    let n = opts.scaled(5_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let stream = LookupStream::successful(&keys, opts.lookups, 17);
    let methods = batched_comparison_methods(&arr, 16);
    let mut machine = opts
        .simulate
        .as_ref()
        .map(|name| Machine::by_name(name).unwrap_or_else(|| panic!("unknown machine '{name}'")));
    let block = 4096usize;
    let rows = compare_sequential_vs_batched(&methods, stream.probes(), 3, block, machine.as_mut());
    println!(
        "\n== Batched lookup protocol ({machine_label}): {} probes, block {block}, n = {} ==",
        stream.len(),
        format_num(n as f64)
    );
    println!(
        "{:>22} {:>16} {:>16} {:>9}",
        "Method", "sequential (s)", "batched (s)", "delta"
    );
    let mut records = Vec::new();
    for r in rows {
        println!(
            "{:>22} {:>16} {:>16} {:>8.1}%",
            r.label,
            format_num(r.sequential.total_seconds),
            format_num(r.batched.total_seconds),
            100.0 * (r.batched.total_seconds - r.sequential.total_seconds)
                / r.sequential.total_seconds.max(1e-12)
        );
        for (mode, secs) in [
            ("sequential", r.sequential.total_seconds),
            ("batched", r.batched.total_seconds),
        ] {
            records.push(
                BenchRecord::new("lookup protocol")
                    .param("method", &r.label)
                    .param("mode", mode)
                    .param("machine", &machine_label)
                    .param("n", n)
                    .timed(stream.len() as f64, secs),
            );
        }
    }
    flush_bench("batched", &records);
}

/// Beyond-paper: the §2.2 index consumers as *whole queries* through the
/// `Database` engine — one catalog serving point selection, a range/point
/// conjunction, an indexed nested-loop join, and the full
/// select-join-group pipeline, timed per access-path kind. CSS-trees
/// should win the range-driven queries; the hash index is picked
/// automatically for equality probes wherever it is registered.
fn engine(opts: &Options) {
    use mmdb::{between, eq, on, sum, Database, IndexKind, TableBuilder};

    let n_orders = opts.scaled(2_000_000);
    let n_customers = (n_orders / 20).max(100);
    let regions = ["north", "south", "east", "west", "nw", "ne", "sw", "se"];
    let orders = TableBuilder::new("orders")
        .int_column(
            "cust",
            (0..n_orders)
                .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % n_customers as u64) as i64),
        )
        .int_column(
            "amount",
            (0..n_orders).map(|i| ((i as u64).wrapping_mul(48_271) % 10_000) as i64),
        )
        .build()
        .expect("equal columns");
    let customers = TableBuilder::new("customers")
        .int_column("id", 0..n_customers as i64)
        .str_column(
            "region",
            (0..n_customers).map(|i| regions[i % regions.len()]),
        )
        .build()
        .expect("equal columns");

    println!(
        "\n== Query engine: whole-query timings (host), {} orders x {} customers ==",
        format_num(n_orders as f64),
        format_num(n_customers as f64)
    );
    println!(
        "{:>14} {:>12} {:>14} {:>14} {:>14} {:>16}",
        "access path", "build (s)", "point (s)", "conj (s)", "join (s)", "pipeline (s)"
    );
    let mut records = Vec::new();
    for kind in [
        IndexKind::FullCss,
        IndexKind::LevelCss,
        IndexKind::BPlusTree,
        IndexKind::TTree,
        IndexKind::BinarySearch,
    ] {
        let mut db = Database::new();
        db.register(orders.clone()).expect("fresh catalog");
        db.register(customers.clone()).expect("fresh catalog");
        let t0 = Instant::now();
        db.create_index("orders", "amount", kind).expect("column");
        db.create_index("customers", "id", kind).expect("column");
        let build = t0.elapsed().as_secs_f64();

        let t = Instant::now();
        let point = db
            .query("orders")
            .filter(eq("amount", 4_999))
            .run()
            .expect("planned");
        let t_point = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let conj = db
            .query("orders")
            .filter(between("amount", 4_000, 6_000))
            .filter(between("amount", 4_990, 5_010))
            .run()
            .expect("planned");
        let t_conj = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let joined = db
            .query("orders")
            .join("customers", on("cust", "id"))
            .run()
            .expect("planned");
        let t_join = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let pipeline = db
            .query("orders")
            .filter(between("amount", 5_000, 9_999))
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
            .run()
            .expect("planned");
        let t_pipe = t.elapsed().as_secs_f64();

        assert_eq!(joined.len(), n_orders, "every order joins one customer");
        std::hint::black_box((&point, &conj, &pipeline));
        println!(
            "{:>14} {:>12} {:>14} {:>14} {:>14} {:>16}",
            format!("{kind:?}"),
            format_num(build),
            format_num(t_point),
            format_num(t_conj),
            format_num(t_join),
            format_num(t_pipe)
        );
        for (query, secs) in [
            ("build", build),
            ("point", t_point),
            ("conjunction", t_conj),
            ("join", t_join),
            ("pipeline", t_pipe),
        ] {
            records.push(
                BenchRecord::new("whole query")
                    .param("access_path", format!("{kind:?}"))
                    .param("query", query)
                    .param("orders", n_orders)
                    .timed(1.0, secs),
            );
        }
    }
    flush_bench("engine", &records);
}

/// Beyond-paper: partitioned parallel execution — the sequential baseline
/// against the scoped-worker-pool operators at thread counts 1/2/4/8, on
/// (a) batched CSS lower bounds (`lower_bound_batch_par`) and (b) whole
/// group-by pipelines through the `Database` engine
/// (`ExecOptions { threads, .. }`). At `--scale paper` the key count is
/// the acceptance target of 4 M; expect near-linear speedup up to the
/// machine's core count (this host reports its own count in the header —
/// on a single-core container every row sits near 1.0x by construction).
fn parallel(opts: &Options) {
    use ccindex_common::DEFAULT_BATCH_LANES;
    use mmdb::{between, on, sum, Database, ExecOptions, IndexKind, TableBuilder};

    let cores = ccindex_parallel::available_threads();
    let thread_counts = [1usize, 2, 4, 8];
    let repeats = 3usize;
    let best_of = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    // (a) Partitioned batched lower bounds over one full CSS-tree.
    let n = opts.scaled(4_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let css = FullCssTree::<u32, 16>::build(&keys);
    let stream = LookupStream::successful(&keys, opts.lookups, 23);
    let probes = stream.probes();
    let lanes = DEFAULT_BATCH_LANES;
    println!(
        "\n== Parallel batched lower bounds (host, {cores} core(s)): n = {}, {} probes, {lanes} lanes ==",
        format_num(n as f64),
        format_num(probes.len() as f64),
    );
    println!(
        "{:>10} {:>14} {:>18} {:>9}",
        "threads", "seconds", "probes/s", "speedup"
    );
    let mut records = Vec::new();
    let baseline = best_of(&|| {
        std::hint::black_box(css.lower_bound_batch_lanes(probes, lanes));
    });
    println!(
        "{:>10} {:>14} {:>18} {:>8.2}x",
        "seq",
        format_num(baseline),
        format_num(probes.len() as f64 / baseline),
        1.0
    );
    records.push(
        BenchRecord::new("batched lower bounds")
            .param("threads", "seq")
            .param("n", n)
            .timed(probes.len() as f64, baseline),
    );
    let reference = css.lower_bound_batch_lanes(probes, lanes);
    for threads in thread_counts {
        assert_eq!(
            css.lower_bound_batch_par(probes, lanes, threads),
            reference,
            "parallel lower bounds must be byte-identical"
        );
        let t = best_of(&|| {
            std::hint::black_box(css.lower_bound_batch_par(probes, lanes, threads));
        });
        println!(
            "{:>10} {:>14} {:>18} {:>8.2}x",
            threads,
            format_num(t),
            format_num(probes.len() as f64 / t),
            baseline / t
        );
        records.push(
            BenchRecord::new("batched lower bounds")
                .param("threads", threads)
                .param("n", n)
                .timed(probes.len() as f64, t),
        );
    }

    // (b) Whole group-by pipelines through the engine.
    let n_orders = n;
    let n_customers = (n_orders / 20).max(100);
    let regions = ["north", "south", "east", "west", "nw", "ne", "sw", "se"];
    let mut db = Database::new();
    db.register(
        TableBuilder::new("orders")
            .int_column(
                "cust",
                (0..n_orders)
                    .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % n_customers as u64) as i64),
            )
            .int_column(
                "amount",
                (0..n_orders).map(|i| ((i as u64).wrapping_mul(48_271) % 10_000) as i64),
            )
            .build()
            .expect("equal columns"),
    )
    .expect("fresh catalog");
    db.register(
        TableBuilder::new("customers")
            .int_column("id", 0..n_customers as i64)
            .str_column(
                "region",
                (0..n_customers).map(|i| regions[i % regions.len()]),
            )
            .build()
            .expect("equal columns"),
    )
    .expect("fresh catalog");
    db.create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");
    db.create_index("customers", "id", IndexKind::FullCss)
        .expect("column");
    println!(
        "\n== Parallel group-by pipeline (host, {cores} core(s)): {} orders, filter+join+group ==",
        format_num(n_orders as f64)
    );
    println!(
        "{:>10} {:>14} {:>18} {:>9}",
        "threads", "seconds", "rows/s", "speedup"
    );
    let run_pipeline = |db: &Database| -> Vec<mmdb::GroupRow> {
        db.query("orders")
            .filter(between("amount", 2_000, 8_000))
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
            .run()
            .expect("planned")
            .groups()
            .to_vec()
    };
    db.set_exec_options(ExecOptions::default());
    let reference = run_pipeline(&db);
    let baseline = best_of(&|| {
        std::hint::black_box(run_pipeline(&db));
    });
    println!(
        "{:>10} {:>14} {:>18} {:>8.2}x",
        "seq",
        format_num(baseline),
        format_num(n_orders as f64 / baseline),
        1.0
    );
    records.push(
        BenchRecord::new("group-by pipeline")
            .param("threads", "seq")
            .param("orders", n_orders)
            .timed(n_orders as f64, baseline),
    );
    for threads in thread_counts {
        db.set_exec_options(ExecOptions {
            threads,
            lanes: DEFAULT_BATCH_LANES,
            ..ExecOptions::default()
        });
        assert_eq!(
            run_pipeline(&db),
            reference,
            "parallel pipeline must be byte-identical"
        );
        let t = best_of(&|| {
            std::hint::black_box(run_pipeline(&db));
        });
        println!(
            "{:>10} {:>14} {:>18} {:>8.2}x",
            threads,
            format_num(t),
            format_num(n_orders as f64 / t),
            baseline / t
        );
        records.push(
            BenchRecord::new("group-by pipeline")
                .param("threads", threads)
                .param("orders", n_orders)
                .timed(n_orders as f64, t),
        );
    }
    flush_bench("parallel", &records);
}

/// Beyond-paper: sharded scatter-gather execution — the unsharded
/// `Database` baseline against `ShardedDatabase` catalogs at shard
/// counts 1/2/4/8 under **both** partitioners, on the acceptance
/// pipelines (shard-key point select, range select, filter+join, and
/// filter+join+group). Every sharded run is asserted **byte-identical**
/// to the unsharded baseline before it is timed; the printed delta is
/// the routing/merge overhead (or win, once shards span NUMA domains or
/// nodes — on one node the point is capacity, not speed).
fn sharded(opts: &Options) {
    use ccindex_shard::{RangePartitioner, ShardedDatabase};
    use mmdb::{between, eq, on, sum, Database, IndexKind, ResultRows, TableBuilder};

    let n_orders = opts.scaled(1_000_000);
    let n_customers = (n_orders / 20).max(100);
    let regions = ["north", "south", "east", "west"];
    let orders = || {
        TableBuilder::new("orders")
            .int_column(
                "cust",
                (0..n_orders)
                    .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % n_customers as u64) as i64),
            )
            .int_column(
                "amount",
                (0..n_orders).map(|i| ((i as u64).wrapping_mul(48_271) % 10_000) as i64),
            )
            .build()
            .expect("equal columns")
    };
    let customers = || {
        TableBuilder::new("customers")
            .int_column("id", 0..n_customers as i64)
            .str_column(
                "region",
                (0..n_customers).map(|i| regions[i % regions.len()]),
            )
            .build()
            .expect("equal columns")
    };

    // Unsharded baseline.
    let mut base = Database::new();
    base.register(orders()).expect("fresh catalog");
    base.register(customers()).expect("fresh catalog");
    base.create_index("orders", "cust", IndexKind::Hash)
        .expect("column");
    base.create_index("orders", "cust", IndexKind::FullCss)
        .expect("column");
    base.create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");
    base.create_index("customers", "id", IndexKind::FullCss)
        .expect("column");

    let queries = |rows: &mut Vec<ResultRows>, run: &dyn Fn(usize) -> ResultRows| {
        rows.clear();
        for q in 0..4 {
            rows.push(run(q));
        }
    };
    // Both catalogs expose the same builder surface, so one macro drives
    // the identical pipeline through either (edits apply to both sides
    // of the byte-identical assertion by construction).
    macro_rules! run_pipeline {
        ($db:expr, $q:expr) => {
            match $q {
                0 => $db
                    .query("orders")
                    .filter(eq("cust", 17))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                1 => $db
                    .query("orders")
                    .filter(between("cust", 100, 900))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                2 => $db
                    .query("orders")
                    .filter(between("amount", 2_000, 4_000))
                    .join("customers", on("cust", "id"))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                _ => $db
                    .query("orders")
                    .filter(between("amount", 2_000, 8_000))
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount"))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
            }
        };
    }
    let base_run = |q: usize| -> ResultRows { run_pipeline!(base, q) };
    let mut reference: Vec<ResultRows> = Vec::new();
    queries(&mut reference, &base_run);
    let repeats = 3usize;
    let best_of = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let baseline = best_of(&|| {
        let mut rows = Vec::new();
        queries(&mut rows, &base_run);
        std::hint::black_box(rows);
    });

    println!(
        "\n== Sharded scatter-gather (host): {} orders x {} customers, point/range/join/group ==",
        format_num(n_orders as f64),
        format_num(n_customers as f64)
    );
    println!(
        "{:>22} {:>14} {:>18} {:>9}",
        "catalog", "seconds", "queries/s", "vs base"
    );
    println!(
        "{:>22} {:>14} {:>18} {:>8.2}x",
        "unsharded",
        format_num(baseline),
        format_num(4.0 / baseline),
        1.0
    );
    let mut records = vec![BenchRecord::new("scatter-gather queries")
        .param("catalog", "unsharded")
        .param("orders", n_orders)
        .timed(4.0, baseline)];

    for shards in [1usize, 2, 4, 8] {
        for hash in [true, false] {
            let mut db = if hash {
                ShardedDatabase::hash(shards).expect("at least one shard")
            } else {
                ShardedDatabase::new(
                    RangePartitioner::int_spans(0, n_customers as i64 - 1, shards)
                        .expect("valid span"),
                )
                .expect("at least one shard")
            };
            db.register(orders(), "cust").expect("keys in range");
            db.register(customers(), "id").expect("keys in range");
            db.create_index("orders", "cust", IndexKind::Hash)
                .expect("column");
            db.create_index("orders", "cust", IndexKind::FullCss)
                .expect("column");
            db.create_index("orders", "amount", IndexKind::FullCss)
                .expect("column");
            db.create_index("customers", "id", IndexKind::FullCss)
                .expect("column");
            let db_run = |q: usize| -> ResultRows { run_pipeline!(db, q) };
            // The acceptance gate: byte-identical rows per query, per
            // shard count, per partitioner.
            let mut rows = Vec::new();
            queries(&mut rows, &db_run);
            assert_eq!(
                rows, reference,
                "sharded results must be byte-identical (shards={shards} hash={hash})"
            );
            let t = best_of(&|| {
                let mut rows = Vec::new();
                queries(&mut rows, &db_run);
                std::hint::black_box(rows);
            });
            let label = format!("{} x{shards}", if hash { "hash" } else { "range" });
            println!(
                "{:>22} {:>14} {:>18} {:>8.2}x",
                label,
                format_num(t),
                format_num(4.0 / t),
                baseline / t
            );
            records.push(
                BenchRecord::new("scatter-gather queries")
                    .param("catalog", &label)
                    .param("orders", n_orders)
                    .timed(4.0, t),
            );
        }
    }
    println!("  (all sharded rows asserted byte-identical to the unsharded baseline)");
    flush_bench("sharded", &records);
}

/// Beyond-paper: the transport-generic scatter-gather — the *same*
/// coordinator running its shards in-process (`LocalShard`) versus as
/// remote `ShardServer` processes behind loopback TCP (`RemoteShard`),
/// at shard counts 1/2/4/8 on the acceptance pipelines. Every
/// distributed run is asserted byte-identical to its in-process twin
/// before it is timed. The printed factor is the wire tax: framing +
/// checksum + syscalls + value shipping for the join/group paths, which
/// loopback pays without any of a real network's latency — so it is the
/// *floor* of distribution overhead, and the capacity story (shards on
/// separate machines) is what buying it back looks like.
fn distributed(opts: &Options) {
    use ccindex_serve::ShardServer;
    use ccindex_shard::ShardedDatabase;
    use mmdb::{between, eq, on, sum, Database, IndexKind, ResultRows, TableBuilder};

    let n_orders = opts.scaled(200_000);
    let n_customers = (n_orders / 20).max(100);
    let regions = ["north", "south", "east", "west"];
    let orders = || {
        TableBuilder::new("orders")
            .int_column(
                "cust",
                (0..n_orders)
                    .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % n_customers as u64) as i64),
            )
            .int_column(
                "amount",
                (0..n_orders).map(|i| ((i as u64).wrapping_mul(48_271) % 10_000) as i64),
            )
            .build()
            .expect("equal columns")
    };
    let customers = || {
        TableBuilder::new("customers")
            .int_column("id", 0..n_customers as i64)
            .str_column(
                "region",
                (0..n_customers).map(|i| regions[i % regions.len()]),
            )
            .build()
            .expect("equal columns")
    };
    let index_all = |create: &mut dyn FnMut(&str, &str, IndexKind)| {
        create("orders", "cust", IndexKind::Hash);
        create("orders", "cust", IndexKind::FullCss);
        create("orders", "amount", IndexKind::FullCss);
        create("customers", "id", IndexKind::FullCss);
    };

    macro_rules! run_pipeline {
        ($db:expr, $q:expr) => {
            match $q {
                0 => $db
                    .query("orders")
                    .filter(eq("cust", 17))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                1 => $db
                    .query("orders")
                    .filter(between("cust", 100, 900))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                2 => $db
                    .query("orders")
                    .filter(between("amount", 2_000, 4_000))
                    .join("customers", on("cust", "id"))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                _ => $db
                    .query("orders")
                    .filter(between("amount", 2_000, 8_000))
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount"))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
            }
        };
    }

    let repeats = 3usize;
    let best_of = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    println!(
        "\n== Distributed scatter-gather (loopback TCP): {} orders x {} customers, point/range/join/group ==",
        format_num(n_orders as f64),
        format_num(n_customers as f64)
    );
    println!(
        "{:>12} {:>14} {:>14} {:>18} {:>11}",
        "shards", "transport", "seconds", "queries/s", "wire tax"
    );
    let mut records = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        // In-process coordinator: the LocalShard baseline.
        let mut local = ShardedDatabase::hash(shards).expect("at least one shard");
        local.register(orders(), "cust").expect("fresh catalog");
        local.register(customers(), "id").expect("fresh catalog");
        index_all(&mut |t, c, k| local.create_index(t, c, k).expect("column"));
        let local_run = |q: usize| -> ResultRows { run_pipeline!(local, q) };
        let reference: Vec<ResultRows> = (0..4).map(local_run).collect();

        // The same coordinator over RemoteShard clients: one ShardServer
        // per shard, every operation crossing loopback TCP.
        let servers: Vec<ShardServer> = (0..shards)
            .map(|_| ShardServer::spawn(Database::new()).expect("loopback bind"))
            .collect();
        let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
        let mut remote = ShardedDatabase::connect(
            ccindex_shard::HashPartitioner::new(shards).expect("at least one shard"),
            &addrs,
        )
        .expect("handshake");
        remote.register(orders(), "cust").expect("fresh catalog");
        remote.register(customers(), "id").expect("fresh catalog");
        index_all(&mut |t, c, k| remote.create_index(t, c, k).expect("column"));
        let remote_run = |q: usize| -> ResultRows { run_pipeline!(remote, q) };

        // The acceptance gate: distributed answers are byte-identical.
        let got: Vec<ResultRows> = (0..4).map(remote_run).collect();
        assert_eq!(
            got, reference,
            "distributed results must be byte-identical (shards={shards})"
        );

        let t_local = best_of(&|| {
            std::hint::black_box((0..4).map(local_run).collect::<Vec<_>>());
        });
        let t_remote = best_of(&|| {
            std::hint::black_box((0..4).map(remote_run).collect::<Vec<_>>());
        });
        let factor = t_remote / t_local;
        println!(
            "{:>12} {:>14} {:>14} {:>18} {:>10.2}x",
            shards,
            "in-process",
            format_num(t_local),
            format_num(4.0 / t_local),
            1.0
        );
        println!(
            "{:>12} {:>14} {:>14} {:>18} {:>10.2}x",
            shards,
            "loopback tcp",
            format_num(t_remote),
            format_num(4.0 / t_remote),
            factor
        );
        records.push(
            BenchRecord::new("distributed scatter-gather queries")
                .param("shards", shards)
                .param("transport", "in-process")
                .param("orders", n_orders)
                .timed(4.0, t_local),
        );
        records.push(
            BenchRecord::new("distributed scatter-gather queries")
                .param("shards", shards)
                .param("transport", "loopback-tcp")
                .param("orders", n_orders)
                .param("wire_tax_vs_in_process", format!("{factor:.2}"))
                .timed(4.0, t_remote),
        );
        for server in servers {
            server.shutdown();
        }
    }
    println!(
        "  (all distributed rows asserted byte-identical to the in-process coordinator;\n   \
         the wire-tax factor is loopback framing/checksum/syscall overhead — the floor of\n   \
         distribution cost, bought back as capacity when shards span machines)"
    );
    flush_bench("distributed", &records);
}

/// Beyond-figure ablations: \[LC86a\]-vs-\[LC86b\] T-tree descents (bytes
/// touched per probe) and sequential-vs-interleaved batched CSS lookups.
fn ablations(opts: &Options) {
    use ccindex_common::CountingTracer;
    use ttree::TTree;

    let n = opts.scaled(5_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let stream = LookupStream::successful(&keys, opts.lookups.min(20_000), 13);

    // T-tree: bytes read per probe, classic vs improved.
    let tt = TTree::<u32, 16>::build(&keys);
    let (mut classic, mut improved) = (0u64, 0u64);
    for &p in stream.probes() {
        let mut a = CountingTracer::new();
        tt.search_classic_with(p, &mut a);
        classic += a.bytes_read;
        let mut b = CountingTracer::new();
        tt.search_with(p, &mut b);
        improved += b.bytes_read;
    }
    let per = stream.len() as f64;
    println!("\n== Ablation: T-tree descent ([LC86a] classic vs [LC86b] improved) ==");
    println!(
        "bytes touched per probe: classic {} vs improved {} ({:.1}% saved)",
        format_num(classic as f64 / per),
        format_num(improved as f64 / per),
        100.0 * (1.0 - improved as f64 / classic as f64)
    );

    // CSS batched lookups: sequential vs 8-way interleaved wall clock.
    let css = FullCssTree::<u32, 16>::build(&keys);
    let t0 = Instant::now();
    let seq = css.lower_bound_batch_sequential(stream.probes());
    let t_seq = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let inter = css.lower_bound_batch_lanes(stream.probes(), 8);
    let t_inter = t1.elapsed().as_secs_f64();
    assert_eq!(seq, inter);
    println!(
        "\n== Ablation: batched CSS lookups ({} probes) ==",
        stream.len()
    );
    println!(
        "sequential {} s, 8-way interleaved {} s ({:+.1}%)",
        format_num(t_seq),
        format_num(t_inter),
        100.0 * (t_inter - t_seq) / t_seq
    );
}

/// Fig. 1 (after \[CLH98\]): the processor-memory performance imbalance
/// that motivates the whole paper — CPU speeds growing 60 %/year against
/// DRAM's 10 %/year, so the relative cost of a cache miss grew by two
/// orders of magnitude between \[LC86b\] (1986) and the paper (1998).
fn fig1() {
    let mut cpu = Series::new("CPU (60%/yr)");
    let mut dram = Series::new("DRAM (10%/yr)");
    let mut gap = Series::new("relative gap");
    for year in (1980..=2000).step_by(2) {
        let t = (year - 1980) as f64;
        let c = 1.6f64.powf(t);
        let d = 1.1f64.powf(t);
        cpu.push(year as f64, c);
        dram.push(year as f64, d);
        gap.push(year as f64, c / d);
    }
    print_series(
        "Figure 1: processor-memory performance imbalance (normalised to 1980)",
        "year",
        "relative performance",
        &[cpu, dram, gap],
    );
    let g86 = 1.6f64.powf(6.0) / 1.1f64.powf(6.0);
    let g98 = 1.6f64.powf(18.0) / 1.1f64.powf(18.0);
    println!(
        "gap growth 1986 -> 1998: {:.0}x (the paper's 'two orders of magnitude')",
        g98 / g86
    );
}

/// Table 1: parameters and their typical values.
fn table1() {
    let p = Params::default();
    println!("\n== Table 1: Parameters and Their Typical Values ==");
    println!("{:>10}  {:>14}", "Parameter", "Typical Value");
    println!("{:>10}  {:>14}", "R", format!("{} bytes", p.r));
    println!("{:>10}  {:>14}", "K", format!("{} bytes", p.k));
    println!("{:>10}  {:>14}", "P", format!("{} bytes", p.p));
    println!("{:>10}  {:>14}", "n", format_num(p.n as f64));
    println!("{:>10}  {:>14}", "h", format!("{}", p.h));
    println!("{:>10}  {:>14}", "c", format!("{} bytes", p.c));
    println!("{:>10}  {:>14}", "s", format!("{} cache line(s)", p.s));
}

/// Fig. 5: level/full comparison and cache-access ratios vs m.
fn fig5() {
    let pts = csstree_ratios::figure5_series(10, 60);
    let mut cmp = Series::new("comparison ratio");
    let mut acc = Series::new("cache access ratio");
    for p in pts {
        cmp.push(p.m as f64, p.comparison_ratio);
        acc.push(p.m as f64, p.cache_access_ratio);
    }
    print_series(
        "Figure 5: level vs full CSS-tree ratios",
        "m",
        "ratio (level / full)",
        &[cmp, acc],
    );
}

/// Fig. 6: the analytic cost model at Table 1 values.
fn fig6() {
    let p = Params::default();
    println!(
        "\n== Figure 6: Time analysis (n = {}, m = {}) ==",
        format_num(p.n as f64),
        p.m()
    );
    println!(
        "{:>22} {:>10} {:>8} {:>12} {:>10} {:>12}",
        "Method", "branching", "levels", "comparisons", "moves", "cache misses"
    );
    for m in [
        Method::BinarySearch,
        Method::TTree,
        Method::BPlusTree,
        Method::FullCss,
        Method::LevelCss,
    ] {
        let b = cost_breakdown(m, &p).expect("modelled method");
        println!(
            "{:>22} {:>10} {:>8} {:>12} {:>10} {:>12}",
            m.name(),
            format_num(b.branching),
            format_num(b.levels),
            format_num(b.total_comparisons),
            format_num(b.moves),
            format_num(b.cache_misses)
        );
    }
}

/// Fig. 7: space formulas at typical values.
fn fig7() {
    let p = Params::default();
    println!(
        "\n== Figure 7: Space analysis (n = {}) ==",
        format_num(p.n as f64)
    );
    println!(
        "{:>22} {:>16} {:>16} {:>10}",
        "Method", "indirect (MB)", "direct (MB)", "RID-order"
    );
    for m in Method::ALL {
        if m == Method::BinaryTree {
            continue; // not part of Fig. 7
        }
        println!(
            "{:>22} {:>16} {:>16} {:>10}",
            m.name(),
            format_num(space_indirect(m, &p) / 1e6),
            format_num(space_direct(m, &p) / 1e6),
            if m.rid_ordered_access() { "Y" } else { "N" }
        );
    }
}

/// Fig. 8: space vs n under the typical configuration.
fn fig8() {
    let p = Params::default();
    let ns: Vec<usize> = (1..=9).map(|i| i * 10_000_000).collect();
    for (direct, title) in [
        (false, "Figure 8(a): space (indirect)"),
        (true, "Figure 8(b): space (direct)"),
    ] {
        let mut series = Vec::new();
        for m in Method::ALL {
            if m == Method::BinaryTree {
                continue;
            }
            let mut s = Series::new(m.name());
            for (n, bytes) in analysis::space_model::sweep_n(m, &p, ns.iter().copied(), direct) {
                s.push(n as f64, bytes);
            }
            series.push(s);
        }
        print_series(title, "n", "bytes", &series);
    }
}

/// Fig. 9: CSS-tree build time vs sorted-array size.
fn fig9(opts: &Options) {
    let max = opts.scaled(25_000_000);
    let steps = 6usize;
    let mut full = Series::new("full CSS-tree");
    let mut level = Series::new("level CSS-tree");
    for i in 1..=steps {
        let n = max * i / steps;
        let keys: Vec<u32> = KeySetBuilder::new(n).build();
        let arr = SortedArray::from_slice(&keys);
        let t0 = Instant::now();
        let f = FullCssTree::<u32, 16>::from_shared(arr.clone());
        let tf = t0.elapsed().as_secs_f64();
        std::hint::black_box(&f);
        let t1 = Instant::now();
        let l = LevelCssTree::<u32, 16>::from_shared(arr);
        let tl = t1.elapsed().as_secs_f64();
        std::hint::black_box(&l);
        full.push(n as f64, tf);
        level.push(n as f64, tl);
    }
    print_series(
        "Figure 9: CSS-tree build time (host)",
        "array size",
        "build seconds",
        &[full, level],
    );
}

/// Figs. 10 & 11: search time vs array size, node sizes 8 and 16 ints.
fn fig10_11(opts: &Options) {
    let machine = opts.simulate.clone().unwrap_or_else(|| "host".to_string());
    let max = opts.scaled(10_000_000);
    let mut sizes: Vec<usize> = vec![100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
    sizes.retain(|&s| s <= max.max(100));
    for node_ints in [8usize, 16] {
        let mut series: Vec<Series> = Vec::new();
        for n in &sizes {
            let keys: Vec<u32> = KeySetBuilder::new(*n).build();
            let arr = SortedArray::from_slice(&keys);
            let stream = LookupStream::successful(&keys, opts.lookups, DEFAULT_SEED ^ *n as u64);
            for m in all_methods(&arr, node_ints) {
                let meas = opts.measure(m.index.as_ref(), stream.probes());
                if let Some(s) = series.iter_mut().find(|s| s.name == m.label) {
                    s.push(*n as f64, meas.total_seconds);
                } else {
                    let mut s = Series::new(m.label.clone());
                    s.push(*n as f64, meas.total_seconds);
                    series.push(s);
                }
            }
        }
        print_series(
            &format!(
                "Figures 10/11 ({machine}): varying array size, {node_ints} integers per node"
            ),
            "array size",
            &opts.time_label(),
            &series,
        );
    }
}

/// Figs. 12 & 13: search time vs node size at fixed n (5 M and 10 M rows).
fn fig12_13(opts: &Options) {
    let machine = opts.simulate.clone().unwrap_or_else(|| "host".to_string());
    for paper_n in [5_000_000usize, 10_000_000] {
        let n = opts.scaled(paper_n);
        let keys: Vec<u32> = KeySetBuilder::new(n).build();
        let arr = SortedArray::from_slice(&keys);
        let stream = LookupStream::successful(&keys, opts.lookups, DEFAULT_SEED ^ n as u64);

        let node_sizes = [4usize, 8, 16, 24, 32, 48, 64, 128];
        let mut ttree = Series::new("T-tree");
        let mut bplus = Series::new("B+-tree");
        let mut full = Series::new("full CSS-tree");
        let mut level = Series::new("level CSS-tree");
        for &m in &node_sizes {
            let t = build_ttree(&arr, m);
            ttree.push(
                m as f64,
                opts.measure(t.as_ref(), stream.probes()).total_seconds,
            );
            let b = build_bplus(&arr, m);
            bplus.push(
                m as f64,
                opts.measure(b.as_ref(), stream.probes()).total_seconds,
            );
            let f = DynCssTree::build(CssVariant::Full, m, arr.clone());
            full.push(m as f64, opts.measure(&f, stream.probes()).total_seconds);
            if m.is_power_of_two() {
                let l = DynCssTree::build(CssVariant::Level, m, arr.clone());
                level.push(m as f64, opts.measure(&l, stream.probes()).total_seconds);
            }
        }
        // Hash directory sweep (the hash points of Fig. 12).
        let mut hash = Series::new("hash (dir sweep)");
        let mut dir = (n / 4).next_power_of_two().max(64);
        for _ in 0..5 {
            let h = build_hash(&arr, dir);
            hash.push(
                dir as f64,
                opts.measure(h.as_ref(), stream.probes()).total_seconds,
            );
            dir /= 2;
        }
        print_series(
            &format!(
                "Figures 12/13 ({machine}): varying node size, {} rows",
                format_num(n as f64)
            ),
            "entries/node",
            &opts.time_label(),
            &[ttree, bplus, full, level],
        );
        print_series(
            &format!(
                "Figure 12 hash sweep ({machine}), {} rows",
                format_num(n as f64)
            ),
            "directory size",
            &opts.time_label(),
            &[hash],
        );
    }
}

/// Figs. 2/14: the space/time trade-off frontier.
fn fig14(opts: &Options) {
    let machine = opts.simulate.clone().unwrap_or_else(|| "host".to_string());
    let n = opts.scaled(5_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let stream = LookupStream::successful(&keys, opts.lookups, DEFAULT_SEED);

    println!(
        "\n== Figures 2/14 ({machine}): space/time trade-offs, n = {} ==",
        format_num(n as f64)
    );
    println!(
        "{:>28} {:>16} {:>16}",
        "Method (config)", "time (s/batch)", "space direct (B)"
    );
    let mut rows: Vec<(String, f64, usize)> = Vec::new();

    // Zero-space methods.
    for m in all_methods(&arr, 16) {
        if m.label == "array binary search" || m.label == "interpolation search" {
            let meas = opts.measure(m.index.as_ref(), stream.probes());
            rows.push((
                m.label.clone(),
                meas.total_seconds,
                m.index.space().direct_bytes,
            ));
        }
    }
    // Node-size sweeps.
    for m in [8usize, 16, 32, 64, 128] {
        let t = build_ttree(&arr, m);
        rows.push((
            format!("T-tree m={m}"),
            opts.measure(t.as_ref(), stream.probes()).total_seconds,
            t.space().direct_bytes,
        ));
        let b = build_bplus(&arr, m);
        rows.push((
            format!("B+-tree m={m}"),
            opts.measure(b.as_ref(), stream.probes()).total_seconds,
            b.space().direct_bytes,
        ));
        let f = DynCssTree::build(CssVariant::Full, m, arr.clone());
        rows.push((
            format!("full CSS m={m}"),
            opts.measure(&f, stream.probes()).total_seconds,
            f.space().direct_bytes,
        ));
        let l = DynCssTree::build(CssVariant::Level, m, arr.clone());
        rows.push((
            format!("level CSS m={m}"),
            opts.measure(&l, stream.probes()).total_seconds,
            l.space().direct_bytes,
        ));
    }
    // Hash directory sweep.
    let mut dir = (n / 2).next_power_of_two().max(64);
    for _ in 0..4 {
        let h = build_hash(&arr, dir);
        rows.push((
            format!("hash dir={dir}"),
            opts.measure(h.as_ref(), stream.probes()).total_seconds,
            h.space().direct_bytes,
        ));
        dir /= 4;
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (label, t, space) in rows {
        println!(
            "{:>28} {:>16} {:>16}",
            label,
            format_num(t),
            format_num(space as f64)
        );
    }
}

/// §5.1's warm-cache observation: hot-key (Zipf) streams vs uniform.
fn warmcache(opts: &Options) {
    let n = opts.scaled(5_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let machine_name = opts.simulate.clone().unwrap_or_else(|| "ultrasparc".into());
    let mut machine = Machine::by_name(&machine_name).expect("machine");
    println!("\n== Warm cache: uniform vs Zipf-skewed probes (simulated {machine_name}) ==");
    println!(
        "{:>22} {:>16} {:>16}",
        "Method", "uniform L2/miss", "zipf L2/miss"
    );
    let uniform = LookupStream::successful(&keys, opts.lookups, 1);
    let zipf = LookupStream::zipf(&keys, opts.lookups, 1.0, 1);
    for m in all_methods(&arr, 16) {
        let u = simulate_lookup_protocol(m.index.as_ref(), uniform.probes(), &mut machine);
        let z = simulate_lookup_protocol(m.index.as_ref(), zipf.probes(), &mut machine);
        let lvl = u.misses_per_lookup.len() - 1;
        println!(
            "{:>22} {:>16} {:>16}",
            m.label,
            format_num(u.misses_per_lookup[lvl]),
            format_num(z.misses_per_lookup[lvl])
        );
    }
}

/// §6.3's interpolation-search claim: great on linear data, worse than
/// binary search on non-uniform data.
fn interp(opts: &Options) {
    let n = opts.scaled(5_000_000);
    println!("\n== Interpolation search vs distribution (host) ==");
    println!(
        "{:>14} {:>18} {:>18}",
        "distribution", "interp (s)", "binary (s)"
    );
    for (name, dist) in [
        ("linear", KeyDistribution::EvenlySpaced { gap: 10 }),
        (
            "jittered",
            KeyDistribution::JitteredSpaced {
                gap: 100,
                jitter: 40,
            },
        ),
        ("random", KeyDistribution::UniformRandom),
        ("polynomial", KeyDistribution::Polynomial { exponent: 4 }),
    ] {
        let keys: Vec<u32> = KeySetBuilder::new(n).distribution(dist).build();
        let arr = SortedArray::from_slice(&keys);
        let stream = LookupStream::successful(&keys, opts.lookups, 3);
        let methods = all_methods(&arr, 16);
        let interp = methods
            .iter()
            .find(|m| m.label == "interpolation search")
            .expect("present");
        let binary = methods
            .iter()
            .find(|m| m.label == "array binary search")
            .expect("present");
        let ti = run_lookup_protocol(interp.index.as_ref(), stream.probes(), 3);
        let tb = run_lookup_protocol(binary.index.as_ref(), stream.probes(), 3);
        println!(
            "{:>14} {:>18} {:>18}",
            name,
            format_num(ti.total_seconds),
            format_num(tb.total_seconds)
        );
    }
}

/// Beyond-paper: the observability layer under saturation. Sixteen
/// clients drive point probes through a `BatchServer` faster than each
/// batch window drains, so queueing is visible; every measurement
/// window reports its own p50/p99 end-to-end latency straight from the
/// server's `serve.latency.ns` histogram — the numbers an operator
/// would scrape, not an external timer. The cost of recording is then
/// asserted away against a `Registry::disabled` control (best-of-3
/// each, throughput within 5%), and one remote query renders the
/// cross-process latency tree the wire's trace field carried back from
/// the server.
fn slo(opts: &Options) {
    use ccindex_obs::{format_ns, Registry, Span};
    use ccindex_serve::{BatchServer, QuerySpec, Request, ServeOptions, ServeStats, ShardServer};
    use ccindex_shard::RemoteShard;
    use mmdb::{eq, Database, IndexKind, TableBuilder};
    use std::sync::Arc;
    use std::time::Duration;

    let n = opts.scaled(500_000);
    let per_client = (opts.lookups / 50).clamp(64, 2_000);
    let clients = 16usize;
    let batch_max = 8usize;
    let orders = || {
        TableBuilder::new("orders")
            .int_column(
                "amount",
                (0..n).map(|i| ((i as u64).wrapping_mul(48_271) % (n as u64 / 2)) as i64),
            )
            .build()
            .expect("equal columns")
    };
    let mut db = Database::new();
    db.register(orders()).expect("fresh catalog");
    db.create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");

    // One saturated serving session against the supplied registry; the
    // tight window bound keeps the queue ahead of the drain so the
    // latency histogram sees real waiting, not just execute time.
    let session = |registry: Arc<Registry>| -> (f64, ServeStats) {
        let server = BatchServer::with_metrics(
            &db,
            ServeOptions {
                batch_max,
                batch_wait: Duration::from_micros(100),
            },
            Arc::clone(&registry),
        );
        let t0 = Instant::now();
        let (_, stats) = server.serve_concurrent(clients, |c, client| {
            let pending: Vec<_> = (0..per_client)
                .map(|k| {
                    let v = ((c * 2_654_435_761 + k * 48_271) % n) as i64;
                    client.submit(Request::point("orders", "amount", v))
                })
                .collect();
            for p in pending {
                p.wait().expect("served");
            }
            per_client
        });
        (t0.elapsed().as_secs_f64(), stats)
    };

    println!(
        "\n== SLO windows: {} rows, {} clients x {} probes, batch_max {} ==",
        format_num(n as f64),
        clients,
        per_client,
        batch_max
    );
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>12} {:>12} {:>9}",
        "window", "requests", "seconds", "requests/s", "p50", "p99", "depth hw"
    );
    let mut records = Vec::new();
    let requests = (clients * per_client) as f64;
    for window in 0..4usize {
        // A fresh registry per window makes each percentile pair that
        // window's own, not a lifetime blend.
        let registry = Arc::new(Registry::new());
        let (secs, stats) = session(Arc::clone(&registry));
        let latency = registry
            .find_histogram("serve.latency.ns")
            .expect("the server registers serve.latency.ns")
            .snapshot();
        let (p50, p99) = (latency.percentile(50.0), latency.percentile(99.0));
        println!(
            "{:>8} {:>10} {:>12} {:>14} {:>12} {:>12} {:>9}",
            window,
            requests as u64,
            format_num(secs),
            format_num(requests / secs),
            format_ns(p50),
            format_ns(p99),
            stats.queue_depth_high_water
        );
        records.push(
            BenchRecord::new("slo window")
                .param("window", window)
                .param("clients", clients)
                .param("batch_max", batch_max)
                .param("p50_ns", p50)
                .param("p99_ns", p99)
                .param("queue_depth_high_water", stats.queue_depth_high_water)
                .timed(requests, secs),
        );
    }

    // The overhead gate: the same session with recording on versus a
    // disabled registry (every record() call an early-out). The runs
    // interleave and each side keeps its best of five, so warmup drift
    // cannot masquerade as recording cost.
    session(Arc::new(Registry::disabled()));
    let mut on_secs = f64::INFINITY;
    let mut off_secs = f64::INFINITY;
    for _ in 0..5 {
        on_secs = on_secs.min(session(Arc::new(Registry::new())).0);
        off_secs = off_secs.min(session(Arc::new(Registry::disabled())).0);
    }
    let (on, off) = (requests / on_secs, requests / off_secs);
    println!(
        "  recording overhead: metrics-on {} req/s vs metrics-off {} req/s ({:.1}% of control)",
        format_num(on),
        format_num(off),
        100.0 * on / off
    );
    assert!(
        on >= 0.95 * off,
        "metric recording must stay within 5% of the metrics-off control \
         (on {on:.0} req/s, off {off:.0} req/s)"
    );
    records.push(
        BenchRecord::new("slo control")
            .param("metrics", "on")
            .timed(requests, on_secs),
    );
    records.push(
        BenchRecord::new("slo control")
            .param("metrics", "off")
            .timed(requests, off_secs),
    );

    // One traced query across loopback TCP: the request frame carries
    // the client's span id, the response frame carries the server's
    // decode/execute breakdown, and the client renders one tree.
    let mut server_db = Database::new();
    server_db.register(orders()).expect("fresh catalog");
    server_db
        .create_index("orders", "amount", IndexKind::FullCss)
        .expect("column");
    let server = ShardServer::spawn(server_db).expect("loopback bind");
    let shard = RemoteShard::connect(server.addr());
    let shard = shard.expect("handshake");
    let spec = QuerySpec::table("orders").filter(eq("amount", 42));
    let mut span = Span::root("client");
    let rows = shard
        .run_spec_traced(&spec, &mut span)
        .expect("remote query");
    let matched = match &rows {
        mmdb::ResultRows::Rids(r) => r.len(),
        mmdb::ResultRows::Joined(r) => r.len(),
        mmdb::ResultRows::Groups(r) => r.len(),
    };
    let tree = span.finish();
    println!("  cross-process latency tree ({matched} matching row(s)):");
    for line in tree.render().lines() {
        println!("    {line}");
    }
    assert!(
        tree.find("decode").is_some() && tree.find("execute").is_some(),
        "the server's span children must propagate back over the wire:\n{}",
        tree.render()
    );
    records.push(
        BenchRecord::new("slo traced query")
            .param("transport", "loopback tcp")
            .timed(1.0, tree.elapsed_ns as f64 / 1e9),
    );
    flush_bench("slo", &records);
}

/// Beyond-paper: cold start from the paged on-disk catalog versus a
/// full rebuild from rows. The rebuild path re-sorts every RID list and
/// re-builds every index; the open path decodes validated pages — the
/// CSS directory levels load as stored, no per-key work — so opening
/// should beat rebuilding by a wide margin (the acceptance bar is 5x at
/// the 4M-key paper scale). Before anything is timed, the three
/// catalogs — live, reopened from disk, and snapshot-transferred over
/// loopback TCP — are asserted to answer the probe battery
/// byte-identically.
fn coldstart(opts: &Options) {
    use ccindex_serve::ShardServer;
    use ccindex_shard::{RemoteShard, ShardRead};
    use mmdb::{between, eq, sum, Database, IndexKind, ResultRows, TableBuilder};

    let n = opts.scaled(4_000_000);
    let orders = || {
        TableBuilder::new("orders")
            .int_column(
                "amount",
                (0..n).map(|i| ((i as u64).wrapping_mul(48_271) % (n as u64)) as i64),
            )
            .str_column("day", (0..n).map(|i| ["mon", "tue", "wed", "thu"][i % 4]))
            .build()
            .expect("equal columns")
    };
    let build = || {
        let mut db = Database::new();
        db.register(orders()).expect("fresh catalog");
        db.create_index("orders", "amount", IndexKind::FullCss)
            .expect("column");
        db.create_index("orders", "amount", IndexKind::LevelCss)
            .expect("column");
        db.create_index("orders", "amount", IndexKind::Hash)
            .expect("column");
        db.create_index("orders", "day", IndexKind::Hash)
            .expect("column");
        db
    };
    let battery = |db: &Database| -> Vec<ResultRows> {
        vec![
            db.query("orders")
                .filter(eq("amount", (n / 3) as i64))
                .run()
                .expect("point")
                .rows()
                .clone(),
            db.query("orders")
                .filter(between("amount", (n / 4) as i64, (n / 2) as i64))
                .using(IndexKind::FullCss)
                .run()
                .expect("range")
                .rows()
                .clone(),
            db.query("orders")
                .filter(between("amount", 0, (n / 5) as i64))
                .group_by("day", sum("amount"))
                .run()
                .expect("group")
                .rows()
                .clone(),
        ]
    };

    println!(
        "\n== Cold start: open-from-disk vs rebuild-from-rows, {} keys ==",
        format_num(n as f64)
    );

    // The reference build (also the first rebuild timing sample).
    let t0 = Instant::now();
    let live = build();
    let rebuild_secs = t0.elapsed().as_secs_f64();
    let reference = battery(&live);

    // Save once; the open path is what cold start measures.
    let dir = std::env::temp_dir().join(format!("ccindex-coldstart-{}", std::process::id()));
    let created = std::fs::create_dir_all(&dir);
    created.expect("temp dir");
    let path = dir.join("catalog.ccsp");
    let t0 = Instant::now();
    live.save_to(&path).expect("save");
    let save_secs = t0.elapsed().as_secs_f64();
    let saved_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let t0 = Instant::now();
    let reopened = Database::open_from(&path).expect("open");
    let open_secs = t0.elapsed().as_secs_f64();
    assert_eq!(battery(&reopened), reference, "reopened catalog diverged");

    // Snapshot transfer: a fresh server bootstrapped over loopback TCP
    // from the reopened catalog's serialized pages, in CRC-checked
    // chunks — the path a rebalanced shard takes.
    let server = ShardServer::spawn(reopened).expect("server");
    let client = RemoteShard::connect(server.addr().as_str());
    let client = client.expect("connect");
    let t0 = Instant::now();
    let fetched = client.fetch_snapshot().expect("fetch");
    let transferred = Database::open_from_bytes(fetched, "snapshot").expect("decode");
    let transfer_secs = t0.elapsed().as_secs_f64();
    server.shutdown();
    assert_eq!(
        battery(&transferred),
        reference,
        "snapshot-transferred catalog diverged"
    );
    std::fs::remove_dir_all(&dir).ok();

    let speedup = rebuild_secs / open_secs.max(1e-9);
    println!("{:>22} {:>12} {:>14}", "path", "seconds", "keys/s");
    for (label, secs) in [
        ("rebuild from rows", rebuild_secs),
        ("save to disk", save_secs),
        ("open from disk", open_secs),
        ("snapshot transfer", transfer_secs),
    ] {
        println!(
            "{:>22} {:>12} {:>14}",
            label,
            format_num(secs),
            format_num(n as f64 / secs.max(1e-9))
        );
    }
    println!(
        "  open-from-disk speedup over rebuild: {:.1}x  (container: {} bytes)",
        speedup, saved_bytes
    );
    if opts.paper_scale && speedup < 5.0 {
        println!("  WARNING: below the 5x acceptance bar at paper scale");
    }

    let records = vec![
        BenchRecord::new("cold start")
            .param("path", "rebuild_from_rows")
            .param("keys", n)
            .timed(n as f64, rebuild_secs),
        BenchRecord::new("cold start")
            .param("path", "save_to_disk")
            .param("keys", n)
            .param("container_bytes", saved_bytes)
            .timed(n as f64, save_secs),
        BenchRecord::new("cold start")
            .param("path", "open_from_disk")
            .param("keys", n)
            .param("speedup_vs_rebuild", format!("{speedup:.2}"))
            .timed(n as f64, open_secs),
        BenchRecord::new("cold start")
            .param("path", "snapshot_transfer")
            .param("keys", n)
            .timed(n as f64, transfer_secs),
    ];
    flush_bench("coldstart", &records);
}
