//! `engine-mix` — in-process decision support on a table larger than
//! cache.
//!
//! *Why:* here `mmdb` (domain encoding, operators, planner, RID
//! intersection, aggregation) does most of the work and the index less
//! than half, so this is where a `Domain` or `Plan` change shows and where
//! ROADMAP item 3's deletions must stay flat. `orders` has 2M rows
//! (FullCss on `key`, `cust`, `amount`), `customers` 100k (FullCss on
//! `id`). One thread cycles four call classes, weighted by [`MIX`] so
//! each takes between a sixth and a third of the time:
//!
//! * `point-batch` — `point_probe_batch` of 1024 values, ~50 % hits;
//! * `range-batch` — `range_probe_batch` of 256 ranges ≈ 8 keys wide;
//! * `select` — `eq(cust) ∧ between(amount)` through `query().run()`;
//! * `join-group` — `between(amount, lo, lo+50) ⋈ customers group by
//!   region, sum(amount)`.
//!
//! op = one call; `setup_s` = table encoding + `register` +
//! `create_index` from rows. Reference: one sequential
//! `Database::query().run()` per probe value.

use super::dss::{amount_band, build_query, spread, Rows, Shape, AMOUNTS};
use crate::harness::*;
use crate::trace::Tracer;
use ccindex::prelude::*;
use std::hint::black_box;

const ORDERS: usize = 2_000_000;
const CUSTOMERS: usize = 100_000;
const POINT_BATCH: usize = 1024;
const RANGE_BATCH: usize = 256;
/// Width of a `range-batch` range in key space: `key` is uniform in
/// `[0, 2n)`, so 16 values of key space hold about 8 rows.
const RANGE_WIDTH: i64 = 16;
/// `select`'s amount band: a tenth of the amount domain.
const SELECT_BAND: i64 = AMOUNTS / 10;
const GROUP_BAND: i64 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    PointBatch,
    RangeBatch,
    Select,
    JoinGroup,
}

/// Calls per class in one turn of the mix. At this commit a call costs
/// ≈ 0.43, 0.37, 3.4 and 6.2 ms, so the classes take about 33, 17, 26 and
/// 24 % of the time. Point batches outnumber range batches on purpose:
/// with equal counts the median call sits on the boundary between the two
/// populations and `p50_us` flips between them from run to run; at 20:12
/// it sits inside the point batches (their 28th percentile), and `p99_us`
/// inside the join-groups.
const MIX: [(Class, usize); 4] = [
    (Class::PointBatch, 20),
    (Class::RangeBatch, 12),
    (Class::Select, 2),
    (Class::JoinGroup, 1),
];
/// Turns of the mix per lap of the stream.
const TURNS: usize = 16;
/// Turns the traced ladder replays per pass.
const TRACE_TURNS: usize = 2;

enum Call {
    PointBatch(Vec<Value>),
    RangeBatch(Vec<(Value, Value)>),
    Query(Shape),
}

fn calls(cfg: &Config, rows: &Rows, turns: usize) -> Vec<Call> {
    let mut rng = Rng::new(cfg.seed, 200);
    let key_space = 2 * rows.orders() as u64;
    let mut draw = |class: Class| match class {
        Class::PointBatch => Call::PointBatch(
            (0..POINT_BATCH)
                .map(|_| Value::Int(rng.below(key_space) as i64))
                .collect(),
        ),
        Class::RangeBatch => Call::RangeBatch(
            (0..RANGE_BATCH)
                .map(|_| {
                    let lo = rng.below(key_space) as i64;
                    (Value::Int(lo), Value::Int(lo + RANGE_WIDTH))
                })
                .collect(),
        ),
        Class::Select => {
            let (lo, hi) = amount_band(&mut rng, SELECT_BAND);
            Call::Query(Shape::Select {
                cust: rng.below(rows.customers as u64) as i64,
                lo,
                hi,
            })
        }
        Class::JoinGroup => {
            let (lo, hi) = amount_band(&mut rng, GROUP_BAND);
            Call::Query(Shape::Group { lo, hi })
        }
    };
    let turn = spread(&MIX);
    (0..turns * turn.len())
        .map(|i| draw(turn[i % turn.len()]))
        .collect()
}

const INDEXES: [(&str, &str); 4] = [
    ("orders", "key"),
    ("orders", "cust"),
    ("orders", "amount"),
    ("customers", "id"),
];

/// The answer to one call, in a shape both paths can be compared in.
#[derive(Debug, PartialEq)]
enum Answer {
    Sets(Vec<Vec<u32>>),
    Rows(ResultRows),
}

impl Answer {
    fn digest(&self) -> Expected {
        match self {
            Answer::Sets(sets) => digest_rid_sets(sets),
            Answer::Rows(rows) => digest_rows(rows),
        }
    }
}

/// The path under test: the batch entry points and the query builder.
fn answer(db: &Database, call: &Call) -> Result<Answer, MmdbError> {
    Ok(match call {
        Call::PointBatch(values) => Answer::Sets(db.point_probe_batch("orders", "key", values)?),
        Call::RangeBatch(ranges) => Answer::Sets(db.range_probe_batch("orders", "key", ranges)?),
        Call::Query(shape) => Answer::Rows(build_query!(db, shape).run()?.rows().clone()),
    })
}

/// The reference: every probe value alone through `query().run()`.
fn reference(db: &Database, call: &Call) -> Result<Answer, MmdbError> {
    let one = |p| -> Result<Vec<u32>, MmdbError> {
        Ok(db.query("orders").filter(p).run()?.rids().to_vec())
    };
    Ok(match call {
        Call::PointBatch(values) => Answer::Sets(
            values
                .iter()
                .map(|v| one(eq("key", v.clone())))
                .collect::<Result<_, _>>()?,
        ),
        Call::RangeBatch(ranges) => Answer::Sets(
            ranges
                .iter()
                .map(|(lo, hi)| one(between("key", lo.clone(), hi.clone())))
                .collect::<Result<_, _>>()?,
        ),
        Call::Query(_) => answer(db, call)?,
    })
}

pub fn run(cfg: &Config) -> Result<EndToEnd, String> {
    let rows = Rows::generate(cfg, cfg.rows(ORDERS, 10_000), cfg.rows(CUSTOMERS, 500));
    let calls = calls(cfg, &rows, cfg.rows(TURNS, 2));

    let (db, setups_s) = repeat_setup(cfg.setup_reps(3), || rows.database(&INDEXES))?;

    let mut expected = Vec::with_capacity(calls.len());
    for (i, call) in calls.iter().enumerate() {
        let want = reference(&db, call).map_err(fail("reference"))?;
        if i < GATE_OPS {
            gate(
                "an engine-mix call",
                &answer(&db, call).map_err(fail("gate"))?,
                &want,
            )?;
        }
        expected.push(want.digest());
    }

    let out = closed_loop(
        &expected,
        cfg.seconds,
        // One turn of the mix per throughput chunk.
        MIX.iter().map(|&(_, n)| n).sum(),
        |_| 1,
        |i| {
            // The timed interval is the call into the program; cloning
            // the rows out of a result set and digesting are not in it.
            let call = black_box(&calls[i]);
            let (digest, ns) = match call {
                Call::PointBatch(values) => {
                    let (r, ns) = timed(|| db.point_probe_batch("orders", "key", values));
                    (r.ok().map(|s| digest_rid_sets(&s)), ns)
                }
                Call::RangeBatch(ranges) => {
                    let (r, ns) = timed(|| db.range_probe_batch("orders", "key", ranges));
                    (r.ok().map(|s| digest_rid_sets(&s)), ns)
                }
                Call::Query(shape) => {
                    let (r, ns) = timed(|| build_query!(db, shape).run());
                    (r.ok().map(|set| digest_rows(set.rows())), ns)
                }
            };
            Timed { ns, answer: digest }
        },
    );

    Ok(EndToEnd::of_loop(out, setups_s, &expected))
}

/// The ladder under a point batch — domain encoding, the index descent,
/// the operator around them — plus the batch, planner and query rungs.
pub fn trace(cfg: &Config, tracer: &mut Tracer) -> Result<Layers, String> {
    let rows = Rows::generate(cfg, cfg.rows(ORDERS, 10_000), cfg.rows(CUSTOMERS, 500));
    let calls = calls(cfg, &rows, cfg.rows(TRACE_TURNS, 1));
    let db = rows.database(&INDEXES)?;

    let r_point = tracer.rung("mmdb.point_probe_batch", None);
    let r_encode = tracer.rung("mmdb.Domain.encode_batch", Some(r_point));
    let r_descent = tracer.rung("css-tree.lower_bound_batch", Some(r_point));
    let r_range = tracer.rung("mmdb.range_probe_batch", None);
    let r_select = tracer.rung("mmdb.query.run.select", None);
    let r_group = tracer.rung("mmdb.query.run.join_group", None);
    let r_plan = tracer.rung("mmdb.query.plan", None);

    let key = db
        .table("orders")
        .map_err(fail("orders"))?
        .column("key")
        .ok_or("orders.key is missing")?;
    let index = db
        .index("orders", "key", IndexKind::FullCss)
        .map_err(fail("orders.key index"))?
        .as_ordered()
        .ok_or("FullCss is ordered")?;

    let count = |class: fn(&Call) -> bool| calls.iter().filter(|c| class(c)).count();
    let points = count(|c| matches!(c, Call::PointBatch(_)));
    let ranges = count(|c| matches!(c, Call::RangeBatch(_)));
    let selects = count(|c| matches!(c, Call::Query(Shape::Select { .. })));
    let groups = count(|c| matches!(c, Call::Query(Shape::Group { .. })));

    // Rung by rung within a pass, not request by request: by the time a
    // parent rung replays a request, its children's cache lines are long
    // evicted, so no rung runs on a cache another rung warmed for it.
    // What the untraced loop pays for the top-rung calls is timed too.
    let mut untraced_ns = 0u64;
    let requests = || calls.iter().enumerate().map(|(i, c)| (i as u32, c));
    tracer
        .passes(cfg.passes(), |t, pass| -> Result<(), MmdbError> {
            let mut probe_lists = Vec::new();
            for (request, call) in requests() {
                if let Call::PointBatch(values) = call {
                    let ids = t.time(r_encode, pass, request, || {
                        key.domain().encode_batch(values)
                    });
                    // Both ends of every in-domain value's duplicate run:
                    // the probe list `point_probe_batch` hands the index.
                    let probes: Vec<u32> = ids
                        .iter()
                        .flatten()
                        .flat_map(|&id| [Some(id), id.checked_add(1)])
                        .flatten()
                        .collect();
                    probe_lists.push((request, probes));
                }
            }
            for (request, probes) in &probe_lists {
                t.time(r_descent, pass, *request, || {
                    black_box(index.lower_bound_batch_lanes(probes, Config::EXEC.lanes))
                });
            }
            for (request, call) in requests() {
                if let Call::PointBatch(values) = call {
                    t.time(r_point, pass, request, || {
                        db.point_probe_batch("orders", "key", values).map(black_box)
                    })?;
                }
            }
            for (_, call) in requests() {
                if let (Call::PointBatch(values), true) = (call, t.recording()) {
                    untraced_ns += timed(|| db.point_probe_batch("orders", "key", values)).1;
                }
            }
            for (request, call) in requests() {
                match call {
                    Call::PointBatch(_) => {}
                    Call::RangeBatch(batch) => {
                        t.time(r_range, pass, request, || {
                            db.range_probe_batch("orders", "key", batch).map(black_box)
                        })?;
                    }
                    Call::Query(shape) => {
                        t.time(r_plan, pass, request, || {
                            build_query!(db, shape).plan().map(black_box)
                        })?;
                        let rung = match shape {
                            Shape::Select { .. } => r_select,
                            _ => r_group,
                        };
                        t.time(rung, pass, request, || {
                            build_query!(db, shape).run().map(|r| black_box(r.len()))
                        })?;
                    }
                }
            }
            Ok(())
        })
        .map_err(fail("traced call"))?;

    let point_probes = (points * POINT_BATCH) as f64;
    let point_ns = tracer.total_ns(r_point) / point_probes;
    let untraced_point_ns = untraced_ns as f64 / (point_probes * cfg.passes() as f64);
    Ok(vec![
        (
            "mmdb.encode_ns_per_probe".into(),
            tracer.total_ns(r_encode) / point_probes,
        ),
        ("mmdb.point_batch_ns_per_probe".into(), point_ns),
        (
            "mmdb.operator_self_ns_per_probe".into(),
            tracer.self_total_ns(r_point) / point_probes,
        ),
        (
            "mmdb.range_batch_ns_per_range".into(),
            tracer.total_ns(r_range) / (ranges * RANGE_BATCH) as f64,
        ),
        (
            "mmdb.plan_us_per_query".into(),
            tracer.total_ns(r_plan) / (selects + groups) as f64 / 1e3,
        ),
        (
            "mmdb.select_us_per_query".into(),
            tracer.total_ns(r_select) / selects as f64 / 1e3,
        ),
        (
            "mmdb.join_group_us_per_query".into(),
            tracer.total_ns(r_group) / groups as f64 / 1e3,
        ),
        (
            "bench.trace_overhead_pct".into(),
            (point_ns / untraced_point_ns - 1.0) * 100.0,
        ),
    ])
}
