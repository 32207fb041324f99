//! Snapshot-catalog equivalence under concurrency: reader threads race
//! a writer committing generations through `replace_column` (including
//! shard-key replacements that re-partition the sharded catalogs), the
//! `rebuild_column` batch-update cycle and — on the unsharded
//! `Database` — two-mutation `apply` batches that replace both columns
//! at once. Every answer a reader gets must be **byte-identical** to the
//! answers of the committed generation it pinned — never a torn mix of
//! two generations, nor half of a batch — across the unsharded
//! `Database` and 4-shard catalogs under both partitioners.
//!
//! The writer's op schedule is deterministic and each op commits exactly
//! one generation (a batch included), so a reader can map the generation
//! number of its pinned snapshot to the exact value sets that generation
//! must serve.
//! Every race runs with sequential and with 8-worker execution. CI
//! re-runs this suite with `CCINDEX_WRITER_COMMITS` raised to lengthen
//! the race window; the batches scale with it (one per three commits).

use ccindex::db::domain::Value;
use ccindex::db::{
    between, eq, on, sum, Database, ExecOptions, IndexKind, Mutation, ResultRows, TableBuilder,
};
use ccindex::shard::{HashPartitioner, Partitioner, RangePartitioner, ShardedDatabase};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const ROWS: usize = 240;
const CUSTOMERS: usize = 40;
const READERS: usize = 4;
/// Worker threads each race runs with: sequential, and partitioned.
const THREADS: [usize; 2] = [1, 8];

/// One committed generation's worth of work. `Amount` and `Cust` replace
/// a column wholesale (non-key and shard-key respectively — the latter
/// re-partitions the sharded catalogs); `Rebuild` runs the batch-update
/// rebuild cycle with unchanged values, committing a generation whose
/// answers equal its predecessor's; `Both` replaces both columns in one
/// two-mutation `apply` batch (unsharded only: it is the batch's
/// all-or-nothing the readers check).
#[derive(Clone, Copy)]
enum Op {
    Amount(usize),
    Cust(usize),
    Rebuild,
    Both(usize),
}

/// How many `Amount` commits the writer makes — `CCINDEX_WRITER_COMMITS`
/// lets CI lengthen the schedule without touching the test.
fn writer_commits() -> usize {
    std::env::var("CCINDEX_WRITER_COMMITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(6)
}

/// The writer's ops; `batches` adds a `Both(k)` ahead of every
/// `k ≡ 2 (mod 3)`'s `Amount(k)`, so both columns move at once.
fn schedule(commits: usize, batches: bool) -> Vec<Op> {
    let mut ops = Vec::new();
    for k in 1..=commits {
        if batches && k % 3 == 2 {
            ops.push(Op::Both(k));
        }
        ops.push(Op::Amount(k));
        ops.push(Op::Rebuild);
        if k % 3 == 0 {
            ops.push(Op::Cust(k));
        }
    }
    ops
}

/// The `(amount_set, cust_set)` value sets committed after the first `d`
/// ops, for every `d` in `0..=ops.len()` — the map a reader uses to turn
/// a pinned generation number into the answers it must serve.
fn states_after(ops: &[Op]) -> Vec<(usize, usize)> {
    let mut states = vec![(0usize, 0usize)];
    let (mut a, mut c) = (0usize, 0usize);
    for op in ops {
        match *op {
            Op::Amount(k) => a = k,
            Op::Cust(k) => c = k,
            Op::Rebuild => {}
            Op::Both(k) => (a, c) = (k, k),
        }
        states.push((a, c));
    }
    states
}

fn amount_of(i: usize, set: usize) -> i64 {
    (i as i64) * (3 + 2 * set as i64) % 500
}

fn cust_of(i: usize, set: usize) -> i64 {
    ((i as i64) * 13 + 7 * set as i64) % CUSTOMERS as i64
}

fn amount_values(set: usize) -> Vec<Value> {
    (0..ROWS).map(|i| Value::Int(amount_of(i, set))).collect()
}

fn cust_values(set: usize) -> Vec<Value> {
    (0..ROWS).map(|i| Value::Int(cust_of(i, set))).collect()
}

fn sales_at(a: usize, c: usize) -> ccindex::db::Table {
    TableBuilder::new("sales")
        .int_column("cust", (0..ROWS).map(|i| cust_of(i, c)))
        .int_column("amount", (0..ROWS).map(|i| amount_of(i, a)))
        .build()
        .expect("equal columns")
}

fn customers() -> ccindex::db::Table {
    TableBuilder::new("customers")
        .int_column("id", 0..CUSTOMERS as i64)
        .str_column(
            "region",
            (0..CUSTOMERS).map(|i| ["e", "w", "n", "s"][i % 4]),
        )
        .build()
        .expect("equal columns")
}

/// The probe mix every reader replays against its pinned snapshot: a
/// point and a range on the churning column, a point on the shard key,
/// and a full filter+join+group pipeline. Works verbatim against every
/// catalog and snapshot type (they share the query-builder surface).
macro_rules! probe_all {
    ($cat:expr) => {{
        let rows = |q: &str| -> ResultRows {
            match q {
                "point" => $cat
                    .query("sales")
                    .filter(eq("amount", 68))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                "range" => $cat
                    .query("sales")
                    .filter(between("amount", 100, 300))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                "key" => $cat
                    .query("sales")
                    .filter(eq("cust", 9))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
                _ => $cat
                    .query("sales")
                    .filter(between("amount", 50, 400))
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount"))
                    .run()
                    .expect("planned")
                    .rows()
                    .clone(),
            }
        };
        vec![rows("point"), rows("range"), rows("key"), rows("pipeline")]
    }};
}

/// The answers generation `(a, c)` must serve, computed on a scratch
/// unsharded catalog built directly at that state (sharded execution is
/// byte-identical to unsharded by the scatter-gather equivalence suite).
fn reference_answers(a: usize, c: usize) -> Vec<ResultRows> {
    let mut db = Database::new();
    db.register(sales_at(a, c)).expect("fresh catalog");
    db.register(customers()).expect("fresh catalog");
    index_catalog(&mut db);
    probe_all!(db)
}

/// Both catalog types expose the same `create_index` surface; a macro
/// (not a trait bound) keeps the sharded/unsharded seeding identical.
macro_rules! index_catalog {
    ($db:expr) => {
        $db.create_index("sales", "cust", IndexKind::Hash).unwrap();
        $db.create_index("sales", "cust", IndexKind::FullCss)
            .unwrap();
        $db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        $db.create_index("customers", "id", IndexKind::LevelCss)
            .unwrap();
    };
}

fn index_catalog(db: &mut Database) {
    index_catalog!(db);
}

/// Replace `amount` and `cust` with value set `k` in one `apply`: one
/// generation, so no reader may see one column moved without the other.
fn apply_both(db: &mut Database, k: usize) {
    let column = |c: &str, values| Mutation::ReplaceColumn("sales".into(), c.into(), values);
    let batch = vec![
        column("amount", amount_values(k)),
        column("cust", cust_values(k)),
    ];
    assert_eq!(db.apply(batch).expect("same shape").len(), 2);
}

/// Race `READERS` snapshot-pinning readers against one committing writer
/// and assert every pinned generation serves exactly its own answers.
/// `$batch` is the writer's `Op::Both` step, `None` for a catalog that
/// has no batch `apply` (its schedule then has no `Both`).
macro_rules! race_readers_against_writer {
    ($db:expr, $label:expr, $batch:expr) => {{
        let batch = $batch;
        let ops = schedule(writer_commits(), batch.is_some());
        let expected: Vec<Vec<ResultRows>> = states_after(&ops)
            .into_iter()
            .map(|(a, c)| reference_answers(a, c))
            .collect();
        let g0 = $db.generation();
        let handle = $db.handle();
        // Pinned before the race: must stay byte-stable through every
        // commit and keep exactly one snapshot pinned when the dust
        // settles.
        let early = $db.snapshot();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for reader in 0..READERS {
                let handle = handle.clone();
                let (done, expected) = (&done, &expected);
                s.spawn(move || {
                    let mut last_gen = 0u64;
                    for iter in 0usize.. {
                        let snap = handle.snapshot();
                        let g = snap.generation();
                        assert!(
                            g >= last_gen,
                            "{}: reader {reader} saw generations move backwards ({last_gen} -> {g})",
                            $label
                        );
                        last_gen = g;
                        let d = (g - g0) as usize;
                        assert!(
                            d < expected.len(),
                            "{}: pinned generation {g} was never committed",
                            $label
                        );
                        assert_eq!(
                            probe_all!(snap),
                            expected[d],
                            "{}: reader {reader} got answers from a torn generation {g}",
                            $label
                        );
                        if done.load(Ordering::Relaxed) && iter >= 4 {
                            break;
                        }
                        assert!(iter < 100_000, "{}: the writer never finished", $label);
                    }
                });
            }
            let (db, ops, done) = (&mut $db, &ops, &done);
            s.spawn(move || {
                for op in ops {
                    match *op {
                        Op::Amount(k) => {
                            db.replace_column("sales", "amount", amount_values(k))
                                .expect("same shape");
                        }
                        Op::Cust(k) => {
                            db.replace_column("sales", "cust", cust_values(k))
                                .expect("same shape");
                        }
                        Op::Rebuild => {
                            db.rebuild_column("sales", "amount").expect("indexed");
                        }
                        Op::Both(k) => batch.expect("scheduled with a batch step")(db, k),
                    }
                    // A breath between commits so reader pins interleave
                    // with many different generations, not just the last.
                    std::thread::sleep(Duration::from_micros(300));
                }
                done.store(true, Ordering::Relaxed);
            });
        });
        assert_eq!(
            $db.generation(),
            g0 + ops.len() as u64,
            "{}: every op commits exactly one generation",
            $label
        );
        assert_eq!(
            probe_all!(early),
            expected[0],
            "{}: the pre-race snapshot must stay byte-stable",
            $label
        );
        assert_eq!(
            $db.pinned_snapshots(),
            1,
            "{}: only the pre-race snapshot is still pinned",
            $label
        );
        drop(early);
        assert_eq!(
            $db.pinned_snapshots(),
            0,
            "{}: dropping the last pin reclaims the old generations",
            $label
        );
    }};
}

#[test]
fn unsharded_readers_race_the_writer() {
    for threads in THREADS {
        let mut db = Database::new();
        db.register(sales_at(0, 0)).unwrap();
        db.register(customers()).unwrap();
        index_catalog(&mut db);
        db.set_exec_options(ExecOptions::threads(threads));
        race_readers_against_writer!(
            db,
            format!("unsharded, {threads} thread(s)"),
            Some(apply_both)
        );
    }
}

fn seed_sharded<P: Partitioner + 'static>(p: P, threads: usize) -> ShardedDatabase {
    let mut db = ShardedDatabase::new(p).unwrap();
    db.register(sales_at(0, 0), "cust").unwrap();
    db.register(customers(), "id").unwrap();
    index_catalog!(db);
    db.set_exec_options(ExecOptions::threads(threads)).unwrap();
    db
}

#[test]
fn hash_sharded_readers_race_the_writer() {
    for threads in THREADS {
        let mut db = seed_sharded(HashPartitioner::new(4).unwrap(), threads);
        race_readers_against_writer!(
            db,
            format!("hash x4, {threads} thread(s)"),
            None::<fn(&mut ShardedDatabase, usize)>
        );
    }
}

#[test]
fn range_sharded_readers_race_the_writer() {
    for threads in THREADS {
        let p = RangePartitioner::int_spans(0, CUSTOMERS as i64 - 1, 4).unwrap();
        let mut db = seed_sharded(p, threads);
        race_readers_against_writer!(
            db,
            format!("range x4, {threads} thread(s)"),
            None::<fn(&mut ShardedDatabase, usize)>
        );
    }
}
