//! `dss-tcp` — decision-support queries over loopback shards.
//!
//! *Why:* `wire`, `serve::ShardServer` and `shard` scatter/gather
//! dominate here. One coordinator thread runs single
//! `ShardedQuery::run()` calls over `ShardedDatabase::connect` to two
//! `ShardServer::spawn` shards (two connections, same process): `orders`
//! 400k rows sharded on `cust`, `customers` 20k. The mix by count is
//! point 70 / range 20 / join 7 / group 3, so `p50_us` is the point
//! query's round trip and `p99_us` the group-by's fan-out — round-trip
//! work and operator work move different metrics. ROADMAP item 4's
//! generation-addressed reads and the parked pipelined-wire item are
//! judged here.
//!
//! The whole process is pinned to one CPU ([`pin_to_one_cpu`]): with one
//! request outstanding and `threads: 1`, coordinator and shard threads
//! never run at once, so a second core would add only the host's
//! cross-core wake-up — which on a 2-vCPU virtual machine flips the point
//! query between ~25 µs and ~115 µs with the scheduler's mood, mid-run.
//!
//! op = one query; `setup_s` = spawn + connect + table encoding +
//! `register` + `create_index` **over the wire** (the remote mutation
//! path). Reference: the same queries on an unsharded in-process
//! `Database`.

use super::dss::{amount_band, build_query, spread, Rows, Shape};
use crate::harness::*;
use crate::trace::{Rung, Tracer};
use ccindex::prelude::*;
use std::hint::black_box;

const ORDERS: usize = 400_000;
const CUSTOMERS: usize = 20_000;
const SHARDS: usize = 2;
/// `between(cust, a, a + RANGE_CUSTS)`
const RANGE_CUSTS: i64 = 20;
const JOIN_BAND: i64 = 20;
const GROUP_BAND: i64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Point,
    Range,
    Join,
    Group,
}

/// Per class: its name in metric names, and its three rungs' span names
/// — over the wire, across in-process shards, on the unsharded catalog.
const CLASSES: [(Class, &str, [&str; 3]); 4] = [
    (
        Class::Point,
        "point",
        [
            "wire.query.run.point",
            "shard.query.run.point",
            "mmdb.query.run.point",
        ],
    ),
    (
        Class::Range,
        "range",
        [
            "wire.query.run.range",
            "shard.query.run.range",
            "mmdb.query.run.range",
        ],
    ),
    (
        Class::Join,
        "join",
        [
            "wire.query.run.join",
            "shard.query.run.join",
            "mmdb.query.run.join",
        ],
    ),
    (
        Class::Group,
        "group",
        [
            "wire.query.run.group",
            "shard.query.run.group",
            "mmdb.query.run.group",
        ],
    ),
];

/// Queries per class in one turn of the mix (a hundred queries).
const MIX: [(Class, usize); 4] = [
    (Class::Point, 70),
    (Class::Range, 20),
    (Class::Join, 7),
    (Class::Group, 3),
];
/// Turns of the mix per lap of the stream.
const TURNS: usize = 40;
/// Turns the traced ladder replays per pass.
const TRACE_TURNS: usize = 10;
/// Values per traced `point_probe_batch` (the scatter/gather rung).
const PROBE_BATCH: usize = 64;

fn queries(cfg: &Config, rows: &Rows, turns: usize) -> Vec<(Class, Shape)> {
    let mut rng = Rng::new(cfg.seed, 400);
    let customers = rows.customers as u64;
    let turn = spread(&MIX);
    (0..turns * turn.len())
        .map(|i| {
            let class = turn[i % turn.len()];
            let shape = match class {
                Class::Point => Shape::Point {
                    cust: rng.below(customers) as i64,
                },
                Class::Range => {
                    let lo = rng.below(customers) as i64;
                    Shape::Range {
                        lo,
                        hi: lo + RANGE_CUSTS,
                    }
                }
                Class::Join => {
                    let (lo, hi) = amount_band(&mut rng, JOIN_BAND);
                    Shape::Join { lo, hi }
                }
                Class::Group => {
                    let (lo, hi) = amount_band(&mut rng, GROUP_BAND);
                    Shape::Group { lo, hi }
                }
            };
            (class, shape)
        })
        .collect()
}

const INDEXES: [(&str, &str); 3] = [
    ("orders", "cust"),
    ("orders", "amount"),
    ("customers", "id"),
];

/// Load both tables into a sharded catalog — in-process or remote, the
/// surface is the same. Returns the seconds spent inside `register`.
fn load(db: &mut ShardedDatabase, rows: &Rows) -> Result<f64, String> {
    db.set_exec_options(Config::EXEC)
        .map_err(fail("set_exec_options"))?;
    let (orders, customers) = rows.tables()?;
    let (registered, register_ns) = timed(|| {
        db.register(orders, "cust")?;
        db.register(customers, "id")
    });
    registered.map_err(fail("register"))?;
    for (table, column) in INDEXES {
        db.create_index(table, column, IndexKind::FullCss)
            .map_err(fail("create_index"))?;
    }
    Ok(register_ns as f64 / 1e9)
}

/// A coordinator and the loopback shard servers it is connected to. The
/// coordinator is declared first so its connections close before the
/// servers stop.
struct Cluster {
    db: ShardedDatabase,
    servers: Vec<ShardServer>,
    register_s: f64,
}

fn cluster(rows: &Rows) -> Result<Cluster, String> {
    let servers: Vec<ShardServer> = (0..SHARDS)
        .map(|_| ShardServer::spawn(Database::new()))
        .collect::<Result<_, _>>()
        .map_err(fail("spawn shard server"))?;
    let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
    let partitioner = HashPartitioner::new(SHARDS).map_err(fail("partitioner"))?;
    let mut db = ShardedDatabase::connect(partitioner, &addrs).map_err(fail("connect"))?;
    let register_s = load(&mut db, rows)?;
    Ok(Cluster {
        db,
        servers,
        register_s,
    })
}

pub fn run(cfg: &Config) -> Result<EndToEnd, String> {
    pin_to_one_cpu()?;
    let rows = Rows::generate(cfg, cfg.rows(ORDERS, 4000), cfg.rows(CUSTOMERS, 200));
    let queries = queries(cfg, &rows, cfg.rows(TURNS, 1));

    // Reference answers first; the reference catalog is dropped before
    // the cluster is built.
    let (expected, gate_want) = {
        let reference = rows.database(&INDEXES)?;
        let mut answers: Vec<ResultRows> = queries
            .iter()
            .map(|(_, shape)| Ok(build_query!(reference, shape).run()?.rows().clone()))
            .collect::<Result<_, MmdbError>>()
            .map_err(fail("reference"))?;
        let expected: Vec<Expected> = answers.iter().map(digest_rows).collect();
        answers.truncate(GATE_OPS);
        (expected, answers)
    };

    let (cluster, setups_s) = repeat_setup(cfg.setup_reps(3), || cluster(&rows))?;
    let db = &cluster.db;

    let gate_got: Vec<ResultRows> = queries[..gate_want.len()]
        .iter()
        .map(|(_, shape)| Ok(build_query!(db, shape).run()?.rows().clone()))
        .collect::<Result<_, MmdbError>>()
        .map_err(fail("gate"))?;
    gate("a sharded query over TCP", &gate_got, &gate_want)?;

    let out = closed_loop(
        &expected,
        cfg.seconds,
        // One turn of the mix per throughput chunk.
        MIX.iter().map(|&(_, n)| n).sum(),
        |_| 1,
        |i| {
            let shape = black_box(&queries[i].1);
            let (result, ns) = timed(|| build_query!(db, shape).run());
            Timed {
                ns,
                answer: result.ok().map(|set| digest_rows(set.rows())),
            }
        },
    );

    Ok(EndToEnd::of_loop(out, setups_s, &expected))
}

/// The distribution ladder: every query on the unsharded catalog, on two
/// in-process shards, and on two loopback shards — so the scatter-gather
/// tax and the wire tax are separate numbers per query class.
pub fn trace(cfg: &Config, tracer: &mut Tracer) -> Result<Layers, String> {
    pin_to_one_cpu()?;
    let rows = Rows::generate(cfg, cfg.rows(ORDERS, 4000), cfg.rows(CUSTOMERS, 200));
    let queries = queries(cfg, &rows, cfg.rows(TRACE_TURNS, 1));

    let direct = rows.database(&INDEXES)?;
    let mut local = ShardedDatabase::hash(SHARDS).map_err(fail("local shards"))?;
    load(&mut local, &rows)?;
    // Declared before the probe connection below, so that closes first.
    let mut cluster = cluster(&rows)?;

    // Three rungs per class; the wire rung's child is the in-process
    // sharded rung, whose child is the unsharded one.
    struct ClassRungs {
        class: Class,
        name: &'static str,
        wire: Rung,
        shard: Rung,
        mmdb: Rung,
    }
    let rungs: Vec<ClassRungs> = CLASSES
        .iter()
        .map(|&(class, name, [wire, shard, mmdb])| {
            let wire = tracer.rung(wire, None);
            let shard = tracer.rung(shard, Some(wire));
            let mmdb = tracer.rung(mmdb, Some(shard));
            ClassRungs {
                class,
                name,
                wire,
                shard,
                mmdb,
            }
        })
        .collect();
    let rung_of = |class: Class| {
        rungs
            .iter()
            .find(|r| r.class == class)
            .expect("every class has rungs")
    };
    let r_probe = tracer.rung("shard.point_probe_batch", None);

    // The scatter/gather rung: the point queries' customers as batches of
    // shard-key probes through the in-process shards.
    let probe_batches: Vec<Vec<Value>> = queries
        .iter()
        .filter_map(|(_, shape)| match shape {
            Shape::Point { cust } => Some(Value::Int(*cust)),
            _ => None,
        })
        .collect::<Vec<_>>()
        .chunks(PROBE_BATCH)
        .map(<[Value]>::to_vec)
        .collect();

    let server_requests = |cluster: &Cluster| -> u64 {
        cluster
            .servers
            .iter()
            .filter_map(|s| s.registry().find_counter("server.requests"))
            .map(|c| c.get())
            .sum()
    };

    let mut untraced_ns = 0u64;
    let mut wire_requests = 0u64;
    let db = &cluster.db;
    let each = || {
        queries
            .iter()
            .enumerate()
            .map(|(i, (c, s))| (i as u32, *c, s))
    };
    tracer
        .passes(cfg.passes(), |t, pass| -> Result<(), MmdbError> {
            // Rung by rung, so no rung runs on a cache the rung below
            // just warmed with the same query.
            for (request, class, shape) in each() {
                t.time(rung_of(class).mmdb, pass, request, || {
                    build_query!(direct, shape)
                        .run()
                        .map(|r| black_box(r.len()))
                })?;
            }
            for (request, class, shape) in each() {
                t.time(rung_of(class).shard, pass, request, || {
                    build_query!(local, shape).run().map(|r| black_box(r.len()))
                })?;
            }
            let before = server_requests(&cluster);
            for (request, class, shape) in each() {
                t.time(rung_of(class).wire, pass, request, || {
                    build_query!(db, shape).run().map(|r| black_box(r.len()))
                })?;
            }
            if t.recording() {
                wire_requests += server_requests(&cluster) - before;
                for (_, _, shape) in each() {
                    untraced_ns += timed(|| build_query!(db, shape).run().map(|r| r.len())).1;
                }
            }
            for (b, batch) in probe_batches.iter().enumerate() {
                t.time(r_probe, pass, b as u32, || {
                    local
                        .point_probe_batch("orders", "cust", batch)
                        .map(black_box)
                })?;
            }
            Ok(())
        })
        .map_err(fail("traced call"))?;

    // Exact: the share of the stream's queries whose plan pruned the
    // scatter set below every shard.
    let pruned = queries
        .iter()
        .map(|(_, shape)| {
            build_query!(local, shape)
                .plan()
                .map(|p| p.routing.selected.len() < SHARDS)
        })
        .collect::<Result<Vec<bool>, _>>()
        .map_err(fail("plan"))?;
    let pruned_share = pruned.iter().filter(|&&p| p).count() as f64 / pruned.len() as f64;

    // One round trip on a connection of its own.
    let probe = RemoteShard::connect(cluster.servers[0].addr()).map_err(fail("connect"))?;
    let round_trips = cfg.rows(2000, 50);
    let (stats, rtt_ns) = timed(|| {
        (0..round_trips).try_for_each(|_| probe.stats().map(|json| drop(black_box(json))))
    });
    stats.map_err(fail("stats round trip"))?;

    // The mutation path: the same column replacement (with the values the
    // column already holds, so the catalogs stay identical) in-process
    // and over the wire.
    let amount: Vec<Value> = rows.amount.iter().map(|&a| Value::Int(a)).collect();
    let mut local_ms = Vec::new();
    let mut wire_ms = Vec::new();
    for _ in 0..cfg.passes() {
        let (r, ns) = timed(|| local.replace_column("orders", "amount", amount.clone()));
        r.map_err(fail("local replace_column"))?;
        local_ms.push(ns as f64 / 1e6);
        let (r, ns) = timed(|| {
            cluster
                .db
                .replace_column("orders", "amount", amount.clone())
        });
        r.map_err(fail("remote replace_column"))?;
        wire_ms.push(ns as f64 / 1e6);
    }

    let execute = cluster
        .servers
        .iter()
        .filter_map(|s| s.registry().find_histogram("server.execute.ns"))
        .map(|h| h.snapshot())
        .reduce(|mut merged, h| {
            merged.merge(&h);
            merged
        });
    let local_p50_us = |name: &str| {
        local
            .registry()
            .find_histogram(name)
            .map_or(0.0, |h| h.percentile(50.0) as f64 / 1e3)
    };

    let mut layers: Layers = Vec::new();
    let mut wire_total = 0.0;
    for r in &rungs {
        let count = queries.iter().filter(|(c, _)| *c == r.class).count() as f64;
        let us = |rung| tracer.total_ns(rung) / count / 1e3;
        let name = r.name;
        layers.push((format!("mmdb.direct_us.{name}"), us(r.mmdb)));
        layers.push((format!("shard.local_us.{name}"), us(r.shard)));
        layers.push((format!("wire.remote_us.{name}"), us(r.wire)));
        layers.push((format!("shard.tax_x.{name}"), us(r.shard) / us(r.mmdb)));
        layers.push((format!("wire.tax_x.{name}"), us(r.wire) / us(r.shard)));
        wire_total += tracer.total_ns(r.wire);
    }
    let per_pass = queries.len() as f64;
    let untraced_per_pass = untraced_ns as f64 / cfg.passes() as f64;
    layers.extend([
        ("shard.route_pruned_share".to_owned(), pruned_share),
        (
            "shard.scatter_p50_us".to_owned(),
            local_p50_us("shard.scatter.ns"),
        ),
        (
            "shard.gather_p50_us".to_owned(),
            local_p50_us("shard.gather.ns"),
        ),
        (
            "shard.replace_column_ms".to_owned(),
            crate::stats::median(&local_ms),
        ),
        (
            "wire.replace_column_ms".to_owned(),
            crate::stats::median(&wire_ms),
        ),
        (
            "wire.rtt_us".to_owned(),
            rtt_ns as f64 / round_trips as f64 / 1e3,
        ),
        (
            "wire.register_mb_per_s".to_owned(),
            rows.user_bytes() as f64 / 1e6 / cluster.register_s,
        ),
        (
            "serve.net_requests_per_query".to_owned(),
            wire_requests as f64 / (per_pass * cfg.passes() as f64),
        ),
        (
            "serve.net_execute_p50_us".to_owned(),
            execute.map_or(0.0, |h| h.percentile(50.0) as f64 / 1e3),
        ),
        (
            "bench.trace_overhead_pct".to_owned(),
            (wire_total / untraced_per_pass - 1.0) * 100.0,
        ),
    ]);
    Ok(layers)
}
