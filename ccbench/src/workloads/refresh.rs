//! `refresh` — the write side, beside reads.
//!
//! *Why:* the ATLAS control system's consoles (PAPERS.md) read a live
//! catalog while it is rewritten. The same `css-tree`/`mmdb` code as the
//! read workloads is used differently here — build, sort, commit, pin —
//! so a search-side gain paid for in build time, a commit that stalls
//! readers, or extra work in `open_from` (the parked mmap item) shows here
//! and in no other workload.
//!
//! A 2M-row `orders.key` column carries a FullCss and a Hash index. The
//! fixture is built from rows and `save_to` a file untimed; `setup_s` is
//! the **cold start**: `Database::open_from` plus a verified probe
//! battery. Then a writer runs `replace_column` cycles (values generated
//! beforehand; each cycle re-encodes the column, re-sorts the RID list,
//! rebuilds both indexes and commits one generation) while one reader
//! thread loops `DatabaseHandle::snapshot()` + `point_probe_batch` of 256
//! values. op = one row refreshed, over the time inside `replace_column`;
//! `p50_us`/`p99_us` are the reader's per-call latency *during* refresh.
//! Reference: `Database::query().run()` per probe value, on a catalog
//! holding the generation's column.

use crate::harness::*;
use crate::trace::Tracer;
use ccindex::prelude::*;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const ROWS: usize = 2_000_000;
/// The writer alternates between this many pre-generated columns.
const VARIANTS: usize = 2;
const READ_BATCH: usize = 256;
/// Reader calls per lap of its stream.
const READ_CALLS: usize = 2048;
/// Reader calls the traced ladder replays per pass.
const TRACE_READ_CALLS: usize = 512;
const KINDS: [IndexKind; 2] = [IndexKind::FullCss, IndexKind::Hash];

struct Inputs {
    /// `orders.key` per variant: uniform in `[0, 2n)`.
    variants: Vec<Vec<i64>>,
    /// The reader's stream: batches of probe values from the same range,
    /// so some hit in every variant and some in none.
    reads: Vec<Vec<Value>>,
}

impl Inputs {
    fn generate(cfg: &Config, read_calls: usize) -> Inputs {
        let rows = cfg.rows(ROWS, 10_000);
        let key_space = 2 * rows as u64;
        let variants = (0..VARIANTS as u64)
            .map(|v| {
                let mut rng = Rng::new(cfg.seed, 500 + v);
                (0..rows).map(|_| rng.below(key_space) as i64).collect()
            })
            .collect();
        let mut rng = Rng::new(cfg.seed, 510);
        let reads = (0..read_calls)
            .map(|_| {
                (0..READ_BATCH)
                    .map(|_| Value::Int(rng.below(key_space) as i64))
                    .collect()
            })
            .collect();
        Inputs { variants, reads }
    }

    fn rows(&self) -> usize {
        self.variants[0].len()
    }

    fn column(&self, variant: usize) -> Vec<Value> {
        self.variants[variant]
            .iter()
            .map(|&k| Value::Int(k))
            .collect()
    }
}

fn build(inputs: &Inputs) -> Result<Database, String> {
    let mut db = Database::new();
    db.set_exec_options(Config::EXEC);
    db.register(
        TableBuilder::new("orders")
            .column("key", inputs.column(0))
            .build()
            .map_err(fail("orders table"))?,
    )
    .map_err(fail("register"))?;
    for kind in KINDS {
        db.create_index("orders", "key", kind)
            .map_err(fail("create_index"))?;
    }
    Ok(db)
}

/// The reference answer to one reader call on `db`'s current column: one
/// `query().run()` per probe value.
fn reference_sets(db: &Database, values: &[Value]) -> Result<Vec<Vec<u32>>, String> {
    values
        .iter()
        .map(|v| {
            let rows = db.query("orders").filter(eq("key", v.clone())).run()?;
            Ok(rows.rids().to_vec())
        })
        .collect::<Result<_, MmdbError>>()
        .map_err(fail("reference"))
}

/// The reference digests of the reader's whole stream.
fn reference(db: &Database, reads: &[Vec<Value>]) -> Result<Vec<Expected>, String> {
    reads
        .iter()
        .map(|values| reference_sets(db, values).map(|sets| digest_rid_sets(&sets)))
        .collect()
}

/// The saved catalog, removed again when the run ends.
struct Fixture {
    path: PathBuf,
    /// Reference answers per variant, per reader call.
    expected: Vec<Vec<Expected>>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Best effort: a leftover file is in an ignored directory.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Fixture {
    /// Build the catalog from rows, save it, and — while the built
    /// catalog is at hand — take the reference answers for every variant.
    /// The built catalog is dropped before anything is opened.
    fn prepare(inputs: &Inputs) -> Result<Fixture, String> {
        std::fs::create_dir_all(crate::OUT_DIR).map_err(fail("creating the output directory"))?;
        let path =
            PathBuf::from(crate::OUT_DIR).join(format!("refresh-{}.ccdb", std::process::id()));
        let mut db = build(inputs)?;
        db.save_to(&path).map_err(fail("save_to"))?;
        let mut fixture = Fixture {
            path,
            expected: vec![reference(&db, &inputs.reads)?],
        };
        for variant in 1..VARIANTS {
            db.replace_column("orders", "key", inputs.column(variant))
                .map_err(fail("replace_column"))?;
            fixture.expected.push(reference(&db, &inputs.reads)?);
        }
        Ok(fixture)
    }

    /// Cold start: open the saved catalog and check a probe battery (the
    /// reader's first call) against the reference.
    fn open(&self, inputs: &Inputs) -> Result<Database, String> {
        let mut db = Database::open_from(&self.path).map_err(fail("open_from"))?;
        db.set_exec_options(Config::EXEC);
        let battery = db
            .point_probe_batch("orders", "key", &inputs.reads[0])
            .map_err(fail("probe battery"))?;
        gate(
            "the opened catalog's probe battery",
            &digest_rid_sets(&battery),
            &self.expected[0][0],
        )?;
        Ok(db)
    }
}

#[derive(Default)]
struct Reads {
    failed: u64,
    /// Nanoseconds inside each call, in order.
    samples: Vec<u32>,
}

/// The reader: pin the current generation, probe it, check the answer
/// against the reference for *that generation's* column, repeat.
/// `base` is the generation that holds variant 0.
fn read_until(
    handle: &DatabaseHandle,
    inputs: &Inputs,
    expected: &[Vec<Expected>],
    base: u64,
    stop: &AtomicBool,
    samples_capacity: usize,
) -> Reads {
    let mut out = Reads {
        samples: Vec::with_capacity(samples_capacity),
        ..Reads::default()
    };
    let mut i = 0;
    // ORDERING: Relaxed — the flag publishes nothing; the scope's join
    // orders the reader's results before the writer reads them.
    while !stop.load(Ordering::Relaxed) {
        let ((snapshot, answer), ns) = timed(|| {
            let snapshot = handle.snapshot();
            let answer = snapshot.point_probe_batch("orders", "key", &inputs.reads[i]);
            (snapshot, answer)
        });
        let variant = ((snapshot.generation() - base) % VARIANTS as u64) as usize;
        if answer.ok().map(|sets| digest_rid_sets(&sets)) != Some(expected[variant][i]) {
            out.failed += 1;
        }
        out.samples.push(sample_ns(ns));
        i = (i + 1) % inputs.reads.len();
    }
    out
}

pub fn run(cfg: &Config) -> Result<EndToEnd, String> {
    let inputs = Inputs::generate(cfg, cfg.rows(READ_CALLS, 64));
    let fixture = Fixture::prepare(&inputs)?;
    let (mut db, setups_s) = repeat_setup(cfg.setup_reps(5), || fixture.open(&inputs))?;

    let handle = db.handle();
    let base = db.generation();

    // The gate: the reader's first ops against the opened catalog, whole
    // answers compared with one reference query per value.
    let gate_calls = (GATE_OPS / READ_BATCH).clamp(1, inputs.reads.len());
    for values in &inputs.reads[..gate_calls] {
        let got = db
            .point_probe_batch("orders", "key", values)
            .map_err(fail("gate"))?;
        let want = reference_sets(&db, values)?;
        gate("point_probe_batch on the opened catalog", &got, &want)?;
    }
    // Warm-up: 5 % of the reader's stream.
    for values in &inputs.reads[..warmup_len(inputs.reads.len())] {
        black_box(handle.snapshot().point_probe_batch("orders", "key", values))
            .map_err(fail("warm-up"))?;
    }

    let rows = inputs.rows() as u64;
    let stop = AtomicBool::new(false);
    let mut out = EndToEnd {
        setups_s,
        ..EndToEnd::default()
    };
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            read_until(
                &handle,
                &inputs,
                &fixture.expected,
                base,
                &stop,
                (cfg.seconds * 100_000.0) as usize,
            )
        });
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        let mut cycle = 0;
        loop {
            cycle += 1;
            let values = inputs.column(cycle % VARIANTS);
            let (report, ns) = timed(|| db.replace_column("orders", "key", values));
            // One cycle is one throughput chunk.
            out.rates.push(rate(rows, ns));
            out.ops += rows;
            if report.is_err() {
                out.failed += rows;
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.join()
    })
    .map_err(|_| "the reader thread panicked")?;

    // A wrong read fails the run; it is charged as one failed op so the
    // counts stay in rows.
    out.failed += reads.failed;
    out.samples = vec![reads.samples];
    (out.lap_rows, out.lap_checksum) = lap_digest(&fixture.expected.concat());
    Ok(out)
}

/// Where a refresh cycle's time goes, what a pin costs, what the reader
/// loses to a running refresh, and the storage path cut into its encode,
/// decode and file halves.
pub fn trace(cfg: &Config, tracer: &mut Tracer) -> Result<Layers, String> {
    let inputs = Inputs::generate(cfg, cfg.rows(TRACE_READ_CALLS, 32));
    let fixture = Fixture::prepare(&inputs)?;
    let rows = inputs.rows() as f64;
    let ms = |ns: u64| ns as f64 / 1e6;

    // ---- storage: bytes and file variants of save and open ----
    let mut db = fixture.open(&inputs)?;
    let (mut encode, mut save, mut decode, mut open) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut image_bytes = 0;
    let scratch = fixture.path.with_extension("trace.ccdb");
    for _ in 0..cfg.passes() {
        let (image, ns) = timed(|| db.save_to_bytes());
        encode.push(ms(ns));
        image_bytes = image.len();
        let (saved, ns) = timed(|| db.save_to(&scratch));
        saved.map_err(fail("save_to"))?;
        save.push(ms(ns));
        let (opened, ns) = timed(|| Database::open_from_bytes(image, "image"));
        drop(opened.map_err(fail("open_from_bytes"))?);
        decode.push(ms(ns));
        let (opened, ns) = timed(|| Database::open_from(&scratch));
        drop(opened.map_err(fail("open_from"))?);
        open.push(ms(ns));
    }
    let _ = std::fs::remove_file(&scratch);
    let median = crate::stats::median;

    // ---- the reader alone: pin cost and idle rate ----
    let handle = db.handle();
    let base = db.generation();
    let pins = cfg.rows(200_000, 2000);
    let ((), pin_ns) = timed(|| (0..pins).for_each(|_| drop(black_box(handle.snapshot()))));

    let r_read = tracer.rung("mmdb.snapshot+point_probe_batch", None);
    let r_refresh = tracer.rung("mmdb.replace_column", None);
    let mut untraced_ns = 0u64;
    tracer
        .passes(cfg.passes(), |t, pass| -> Result<(), MmdbError> {
            for (i, values) in inputs.reads.iter().enumerate() {
                t.time(r_read, pass, i as u32, || {
                    handle
                        .snapshot()
                        .point_probe_batch("orders", "key", values)
                        .map(black_box)
                })?;
            }
            if t.recording() {
                // The same calls as the end-to-end reader makes them:
                // one clock read around the whole pass, no spans.
                untraced_ns += timed(|| {
                    inputs.reads.iter().try_for_each(|values| {
                        handle
                            .snapshot()
                            .point_probe_batch("orders", "key", values)
                            .map(|r| drop(black_box(r)))
                    })
                })
                .1;
            }
            Ok(())
        })
        .map_err(fail("traced read"))?;
    let read_values = (inputs.reads.len() * READ_BATCH) as f64;
    let idle_rate = read_values / (tracer.total_ns(r_read) / 1e9);

    // ---- refresh cycles, with the reader running beside them ----
    let stop = AtomicBool::new(false);
    let (mut sort, mut encode_column, mut css, mut hash) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let reads = std::thread::scope(|scope| -> Result<Reads, String> {
        let reader =
            scope.spawn(|| read_until(&handle, &inputs, &fixture.expected, base, &stop, 1 << 16));
        let cycles = (1..=cfg.passes()).try_for_each(|cycle| -> Result<(), String> {
            let values = inputs.column(cycle % VARIANTS);
            let start = Instant::now();
            let report = db.replace_column("orders", "key", values);
            let end = Instant::now();
            tracer.record(r_refresh, cycle - 1, 0, start, end);
            let report = report.map_err(fail("replace_column"))?;
            let rebuilt = |kind| {
                report
                    .rebuilds
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3)
            };
            let total = (end - start).as_secs_f64() * 1e3;
            let sorted = report.sort_time.as_secs_f64() * 1e3;
            sort.push(sorted);
            css.push(rebuilt(IndexKind::FullCss));
            hash.push(rebuilt(IndexKind::Hash));
            // What is left of the cycle: re-encoding the column into its
            // domain, and the commit.
            encode_column
                .push(total - sorted - rebuilt(IndexKind::FullCss) - rebuilt(IndexKind::Hash));
            Ok(())
        });
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().map_err(|_| "the reader thread panicked")?;
        cycles.map(|()| reads)
    })?;
    if reads.failed > 0 {
        return Err(format!("{} traced reads answered wrong", reads.failed));
    }

    let traced_read_ns = tracer.total_ns(r_read);
    Ok(vec![
        ("mmdb.pin_ns".into(), pin_ns as f64 / pins as f64),
        ("mmdb.refresh_encode_ms".into(), median(&encode_column)),
        ("mmdb.refresh_sort_ms".into(), median(&sort)),
        ("css-tree.refresh_build_ms".into(), median(&css)),
        ("hashindex.refresh_build_ms".into(), median(&hash)),
        ("mmdb.reader_ops_per_s_idle".into(), idle_rate),
        (
            // Like the idle rate, over the time inside the calls.
            "mmdb.reader_ops_per_s_refresh".into(),
            rate(
                (reads.samples.len() * READ_BATCH) as u64,
                reads.samples.iter().map(|&ns| u64::from(ns)).sum(),
            ),
        ),
        ("mmdb.catalog_encode_ms".into(), median(&encode)),
        ("mmdb.catalog_decode_ms".into(), median(&decode)),
        ("store.save_ms".into(), median(&save) - median(&encode)),
        ("store.open_ms".into(), median(&open) - median(&decode)),
        ("store.bytes_per_row".into(), image_bytes as f64 / rows),
        (
            "bench.trace_overhead_pct".into(),
            (traced_read_ns / (untraced_ns as f64 / cfg.passes() as f64) - 1.0) * 100.0,
        ),
    ])
}
