//! Conjunctions, and the physical operators under them, against a
//! row-scan oracle. Every case that runs at the catalog's options runs
//! under each of `CATALOG_EXECS`; the others sweep threads and lanes
//! themselves.
//!
//! Random tables with `Int`, `Str` and mixed columns (duplicates the
//! rule), one to three `eq`/`between` filters (absent values, inverted
//! and empty ranges, two filters on one column, `Str` bounds on an `Int`
//! column), every index kind forced through `using`, and the same
//! selections feeding a join and a grouping. The executor drives each
//! conjunction from its shortest run and tests the other filters on the
//! column's domain IDs; the oracle compares decoded values row by row.
//!
//! The same generator feeds `point_select_many`, `range_select_many` and
//! `indexed_nested_loop_join` directly, under every thread count and
//! lane count, over columns whose runs are short, have length 1, or span
//! the whole column.
//!
//! Every run is addressed by domain ID, so the domains that matter most
//! are the ones wider than their rows: columns built with
//! `Column::from_parts` over domains holding values no row carries, whose
//! IDs have empty runs, checked through conjunctions, joins on both
//! sides and the operators, plus one batch of range endpoints at both
//! ends of `i64` and past them.
//!
//! Grouping is checked the same way: every aggregate over a measure of
//! both signs, grouped alone, after a selection and across a join, at
//! every thread count, plus groupings of a few rows over a domain far
//! wider than the rows selected.
//!
//! An integer domain is dense when it holds every integer of its range,
//! else ranked when its rank lines fit in the bytes of the CSS directory
//! they replace, so columns over domains at density 1 (from two `min`s),
//! 1/4 and 1/20, and a generic one, select, join and group between every
//! pair of those arms. The dense arm's edges — one value, spans ending
//! at either end of `i64`, one value short of dense — run the same
//! checks, and through save → open and a snapshot transfer.
//!
//! The join's translation searches the inner domain once per distinct
//! carried value, in one batch, so joins and grouped joins run over
//! selections carrying from a thousandth to all of the outer domain, at
//! every lane and thread count; the release-only cases
//! repeat the selection and the join-group at `engine-mix`'s 2M × 100k
//! scale.

use mmdb::{
    between, count, eq, group_aggregate_pairs, indexed_nested_loop_join, max, min, on,
    point_select_many, range_select_many, sum, Agg, AggFn, CatalogRead, Column, Database, Domain,
    ExecOptions, GroupRow, IndexKind, JoinRow, Measure, MmdbError, Predicate, QuerySpec,
    ResultRows, RidList, Table, TableBuilder, Value,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// The outer table `t`'s columns: a small-range `Int`, a `Str`, a mixed
/// column and a wider `Int`.
const COLUMNS: [&str; 4] = ["i", "s", "m", "j"];
const LETTERS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
/// `Str` literals: present letters, absent ones, mixed-column strings,
/// and strings that sort around them.
const STR_LITERALS: [&str; 11] = ["", "a", "c", "f", "g", "m", "m6", "m9", "m11", "n", "zz"];
const REGIONS: [&str; 3] = ["east", "west", "north"];
/// The catalog `(threads, lanes)` every case that runs through the engine
/// at the catalog's options is checked under: sequential at the default
/// lanes, and 8 workers at 3 lanes, which leave ragged final rounds and
/// lookahead tails in every batched descent and gather.
const CATALOG_EXECS: [(usize, usize); 2] = [(1, 8), (8, 3)];

/// `(threads, lanes)` as catalog options.
fn exec_at((threads, lanes): (usize, usize)) -> ExecOptions {
    ExecOptions {
        threads,
        lanes,
        ..ExecOptions::default()
    }
}

type Row = [Value; 4];

/// `t.n`, the grouping measure: both signs, and not a function of any
/// one column.
fn measure(row: &Row) -> i64 {
    match (&row[0], &row[3]) {
        (Value::Int(i), Value::Int(j)) => 7 * i - j,
        _ => unreachable!("`i` and `j` are Int columns"),
    }
}

fn row((i, s, m, j): (i64, u8, i64, i64)) -> Row {
    [
        Value::Int(i),
        Value::Str(LETTERS[s as usize].to_owned()),
        if m < 6 {
            Value::Int(m)
        } else {
            Value::Str(format!("m{m}"))
        },
        Value::Int(j),
    ]
}

/// A literal for `column` from a seed: mostly one of the column's own
/// values, else a `Str` that may be absent or of the other type, or an
/// `Int` reaching past both ends of every column.
fn literal(column: usize, (kind, x): (u8, i64)) -> Value {
    match kind {
        0 => Value::Str(STR_LITERALS[x as usize % STR_LITERALS.len()].to_owned()),
        1 => Value::Int(x - 2),
        _ => row((x % 6, (x % 6) as u8, x % 12, x % 24))[column].clone(),
    }
}

/// One filter, as the engine sees it and as the oracle evaluates it.
#[derive(Debug, Clone)]
enum Filter {
    Eq(usize, Value),
    Between(usize, Value, Value),
}

impl Filter {
    /// `op` 0 is an equality, 1 a range with its bounds in order, 2 a
    /// range as drawn (inverted half the time); `literal` draws the
    /// bounds.
    fn from_seed(
        (column, op, a, b): (usize, u8, (u8, i64), (u8, i64)),
        literal: fn(usize, (u8, i64)) -> Value,
    ) -> Self {
        let (a, b) = (literal(column, a), literal(column, b));
        match op {
            0 => Filter::Eq(column, a),
            1 if a > b => Filter::Between(column, b, a),
            _ => Filter::Between(column, a, b),
        }
    }

    /// The predicate on the column `names[column]`.
    fn predicate(&self, names: &[&str]) -> Predicate {
        match self {
            Filter::Eq(c, v) => eq(names[*c], v.clone()),
            Filter::Between(c, lo, hi) => between(names[*c], lo.clone(), hi.clone()),
        }
    }

    fn holds(&self, row: &[Value]) -> bool {
        match self {
            Filter::Eq(c, v) => row[*c] == *v,
            Filter::Between(c, lo, hi) => *lo <= row[*c] && row[*c] <= *hi,
        }
    }
}

/// `t` from `rows` and `u(k, g)` from `inner`, with every index kind on
/// every column a query probes.
fn database(rows: &[Row], inner: &[(i64, u8)]) -> Database {
    let mut outer = TableBuilder::new("t");
    for (c, name) in COLUMNS.iter().enumerate() {
        outer = outer.column(*name, rows.iter().map(|r| r[c].clone()).collect());
    }
    outer = outer.int_column("n", rows.iter().map(measure));
    let mut db = Database::new();
    db.register(outer.build().unwrap()).unwrap();
    db.register(
        TableBuilder::new("u")
            .int_column("k", inner.iter().map(|&(k, _)| k))
            .str_column("g", inner.iter().map(|&(_, g)| REGIONS[g as usize]))
            .build()
            .unwrap(),
    )
    .unwrap();
    for kind in IndexKind::ALL {
        for name in COLUMNS {
            db.create_index("t", name, kind).unwrap();
        }
        db.create_index("u", "k", kind).unwrap();
    }
    db
}

/// The three shapes every selection runs in — alone, joined to `u`, and
/// joined then grouped by `u.g` summing `t.j` — each with the oracle's
/// answer.
fn shapes(
    select: QuerySpec,
    rows: &[Row],
    inner: &[(i64, u8)],
    filters: &[Filter],
) -> Vec<(QuerySpec, ResultRows)> {
    let selected: Vec<u32> = (0u32..)
        .zip(rows)
        .filter(|(_, row)| filters.iter().all(|f| f.holds(&row[..])))
        .map(|(rid, _)| rid)
        .collect();
    let joined: Vec<JoinRow> = selected
        .iter()
        .flat_map(|&outer_rid| {
            (0u32..)
                .zip(inner)
                .filter(move |(_, &(k, _))| rows[outer_rid as usize][0] == Value::Int(k))
                .map(move |(inner_rid, _)| JoinRow {
                    outer_rid,
                    inner_rid,
                })
        })
        .collect();
    let groups = fold_scan(
        AggFn::Sum,
        joined.iter().map(|j| {
            let Value::Int(measure) = rows[j.outer_rid as usize][3] else {
                unreachable!("`j` is an Int column")
            };
            let region = Value::Str(REGIONS[inner[j.inner_rid as usize].1 as usize].to_owned());
            (region, measure)
        }),
    );
    let join = select.clone().join("u", on("i", "k"));
    vec![
        (select, ResultRows::Rids(selected)),
        (join.clone(), ResultRows::Joined(joined)),
        (join.group_by("g", sum("j")), ResultRows::Groups(groups)),
    ]
}

/// What compiling `filters` under a forced `kind` must fail with: a
/// range under the unordered hash kind, named by its first such filter.
fn forced_error(filters: &[Filter], kind: Option<IndexKind>) -> Option<MmdbError> {
    if kind != Some(IndexKind::Hash) {
        return None;
    }
    filters.iter().find_map(|f| match f {
        Filter::Between(c, ..) => Some(MmdbError::NoOrderedIndex {
            table: "t".into(),
            column: COLUMNS[*c].into(),
        }),
        Filter::Eq(..) => None,
    })
}

/// The operators' columns over the rows of `t`: the four generated
/// columns, one whose runs all have length 1, and one whose single run
/// spans the whole column.
fn operator_columns(rows: &[Row]) -> Vec<Vec<Value>> {
    let mut columns: Vec<Vec<Value>> = (0..COLUMNS.len())
        .map(|c| rows.iter().map(|r| r[c].clone()).collect())
        .collect();
    columns.push((0..rows.len() as i64).map(Value::Int).collect());
    columns.push(vec![Value::Int(3); rows.len()]);
    columns
}

/// The ascending RIDs of the rows whose value passes `keep`.
fn scan(values: &[Value], keep: impl Fn(&Value) -> bool) -> Vec<u32> {
    (0u32..)
        .zip(values)
        .filter(|(_, v)| keep(v))
        .map(|(rid, _)| rid)
        .collect()
}

/// The join of the `outer` rows in `stream` order with the equal `inner`
/// rows, ascending.
fn join_scan(outer: &[Value], stream: &[u32], inner: &[Value]) -> Vec<JoinRow> {
    stream
        .iter()
        .flat_map(|&outer_rid| {
            scan(inner, |v| *v == outer[outer_rid as usize])
                .into_iter()
                .map(move |inner_rid| JoinRow {
                    outer_rid,
                    inner_rid,
                })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conjunctions_match_a_row_scan_under_every_kind(
        seeds in vec((0i64..6, 0u8..6, 0i64..12, 0i64..24), 0..48),
        inner in vec((-1i64..7, 0u8..3), 0..12),
        filter_seeds in vec((0usize..4, 0u8..3, (0u8..6, 0i64..26), (0u8..6, 0i64..26)), 1..=3),
    ) {
        let rows: Vec<Row> = seeds.into_iter().map(row).collect();
        let filters: Vec<Filter> = filter_seeds
            .into_iter()
            .map(|seed| Filter::from_seed(seed, literal))
            .collect();
        let mut db = database(&rows, &inner);
        let select = QuerySpec {
            filters: filters.iter().map(|f| f.predicate(&COLUMNS)).collect(),
            ..QuerySpec::table("t")
        };
        for exec in CATALOG_EXECS {
            db.set_exec_options(exec_at(exec));
            for kind in std::iter::once(None).chain(IndexKind::ALL.map(Some)) {
                let forced = |spec: QuerySpec| match kind {
                    Some(k) => spec.using(k),
                    None => spec,
                };
                for (spec, want) in shapes(forced(select.clone()), &rows, &inner, &filters) {
                    let got = db.run_spec(&spec);
                    match forced_error(&filters, kind) {
                        Some(err) => prop_assert_eq!(got, Err(err), "{:?} {:?}", exec, spec),
                        None => {
                            let got = got.map_err(|e| TestCaseError::fail(format!("{exec:?} {spec:?}: {e}")))?;
                            if let ResultRows::Rids(rids) = &got {
                                prop_assert!(
                                    rids.windows(2).all(|w| w[0] < w[1]),
                                    "not ascending: {:?} for {:?} {:?}", rids, exec, spec
                                );
                            }
                            prop_assert_eq!(got, want, "{:?} {:?}", exec, spec);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn operators_match_a_row_scan_under_every_thread_and_lane_count(
        seeds in vec((0i64..6, 0u8..6, 0i64..12, 0i64..24), 0..48),
        inner in vec((-1i64..7, 0u8..3), 0..12),
        literal_seeds in vec((0u8..6, 0i64..26), 0..8),
        stream_seeds in vec(0usize..1_000, 0..40),
    ) {
        let rows: Vec<Row> = seeds.into_iter().map(row).collect();
        let columns = operator_columns(&rows);
        // Unsorted, with repeats; also always the empty stream.
        let stream: Vec<u32> = match rows.len() {
            0 => Vec::new(),
            n => stream_seeds.iter().map(|s| (s % n) as u32).collect(),
        };
        // Inner sides: `u.k`, then runs of length 1 and one whole-column run.
        let inner_sides: Vec<(Column, RidList, Vec<Value>)> = [
            inner.iter().map(|&(k, _)| Value::Int(k)).collect(),
            columns[4].clone(),
            columns[5].clone(),
        ]
        .into_iter()
        .map(|values: Vec<Value>| {
            let column = Column::from_values(&values);
            let rids = RidList::for_column(&column);
            (column, rids, values)
        })
        .collect();
        for (c, values) in columns.iter().enumerate() {
            let column = Column::from_values(values);
            let rids = RidList::for_column(&column);
            // Drawn literals (absent ones among them), then the values at
            // both ends of the domain.
            let mut probes: Vec<Value> = literal_seeds
                .iter()
                .map(|&seed| literal(c % COLUMNS.len(), seed))
                .collect();
            let domain = column.domain();
            let ends = (!domain.is_empty())
                .then(|| (domain.decode(0), domain.decode(domain.len() as u32 - 1)));
            probes.extend(ends.iter().flat_map(|(lo, hi)| [lo.clone(), hi.clone()]));
            // Neighbouring probes as drawn (inverted about half the time;
            // the last pair is the whole domain), every probe alone, and
            // the whole domain inverted.
            let mut ranges: Vec<(Value, Value)> = probes
                .windows(2)
                .map(|w| (w[0].clone(), w[1].clone()))
                .collect();
            ranges.extend(probes.iter().map(|v| (v.clone(), v.clone())));
            ranges.extend(ends.map(|(lo, hi)| (hi, lo)));
            let want_points: Vec<Vec<u32>> =
                probes.iter().map(|p| scan(values, |v| v == p)).collect();
            let want_ranges: Vec<Vec<u32>> = ranges
                .iter()
                .map(|(lo, hi)| scan(values, |v| lo <= v && v <= hi))
                .collect();
            for threads in [1, 2, 0] {
                for lanes in [1, 3, 8] {
                    let at = format!("column {c} threads={threads} lanes={lanes}");
                    let got = point_select_many(&column, &rids, &probes, lanes, threads);
                    prop_assert_eq!(&got, &want_points, "points, {}", at);
                    let got = range_select_many(&column, &rids, &ranges, lanes, threads);
                    prop_assert_eq!(&got, &want_ranges, "ranges, {}", at);
                    for (inner_col, inner_rids, inner_values) in &inner_sides {
                        for stream in [&stream[..], &[]] {
                            let got = indexed_nested_loop_join(
                                &column,
                                stream,
                                inner_col,
                                inner_rids,
                                lanes,
                                threads,
                            );
                            let want = join_scan(values, stream, inner_values);
                            prop_assert_eq!(got, want, "join, {}", at);
                        }
                    }
                }
            }
        }
    }
}

/// The gapped table `g`'s columns: `a` over the `Int`s `GAPPED_INTS`, of
/// which rows carry only even values below 12, and `s` over the letters
/// `GAPPED_LETTERS`, of which rows carry only the first six.
const GAPPED: [&str; 2] = ["a", "s"];
const GAPPED_INTS: Range<i64> = -2..24;
const GAPPED_LETTERS: [&str; 12] = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];

/// Column `column` of `g` (or `u.k`, over `a`'s domain) holding
/// `values`: its domain is the whole of the column's, whatever the rows
/// carry, so the IDs no row carries have empty runs.
fn gapped_column(column: usize, values: &[Value]) -> Column {
    let domain: Vec<Value> = match column {
        0 => GAPPED_INTS.map(Value::Int).collect(),
        _ => GAPPED_LETTERS.map(Value::from).to_vec(),
    };
    let ids = values
        .iter()
        .map(|v| domain.binary_search(v).expect("a domain value") as u32)
        .collect();
    Column::from_parts(Domain::from_values(domain), ids)
}

/// A literal for column `column` of `g`: `i64::MIN` or `i64::MAX`, an
/// `Int` around `a`'s domain, or a `Str` around `s`'s.
fn gapped_literal(column: usize, (kind, x): (u8, i64)) -> Value {
    match (kind, column) {
        (0, _) => Value::Int(if x % 2 == 0 { i64::MIN } else { i64::MAX }),
        (1, 0) | (2, 1) => Value::Int(x - 4),
        _ => Value::Str(["", "a", "c", "f", "g", "k", "l", "zz"][x as usize % 8].to_owned()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Domains wider than their rows: 1–3-filter conjunctions and joins
    /// through the engine, and the operators with the gapped column on
    /// either side of a join, at every thread and lane count.
    #[test]
    fn empty_runs_match_a_row_scan_at_every_thread_and_lane_count(
        seeds in vec((0i64..6, 0usize..6), 0..40),
        inner in vec(0i64..9, 0..12),
        filter_seeds in vec((0usize..2, 0u8..3, (0u8..3, 0i64..30), (0u8..3, 0i64..30)), 1..=3),
        stream_seeds in vec(0usize..1_000, 0..30),
    ) {
        let rows: Vec<[Value; 2]> = seeds
            .iter()
            .map(|&(x, y)| [Value::Int(2 * x), Value::from(GAPPED_LETTERS[y])])
            .collect();
        let values: Vec<Vec<Value>> = (0..2)
            .map(|c| rows.iter().map(|r| r[c].clone()).collect())
            .collect();
        let columns: Vec<Column> = (0..2).map(|c| gapped_column(c, &values[c])).collect();
        // `u.k` carries -2, 1, .., 22 of `a`'s domain.
        let k_values: Vec<Value> = inner.iter().map(|&z| Value::Int(3 * z - 2)).collect();
        let k = gapped_column(0, &k_values);
        let mut db = Database::new();
        let named = GAPPED.map(String::from).into_iter().zip(columns.iter().cloned()).collect();
        db.register(Table::from_parts("g", named).unwrap()).unwrap();
        db.register(Table::from_parts("u", vec![("k".into(), k.clone())]).unwrap()).unwrap();
        for kind in IndexKind::ALL {
            for (table, column) in [("g", "a"), ("g", "s"), ("u", "k")] {
                db.create_index(table, column, kind).unwrap();
            }
        }
        let filters: Vec<Filter> = filter_seeds
            .into_iter()
            .map(|seed| Filter::from_seed(seed, gapped_literal))
            .collect();
        let selected: Vec<u32> = (0u32..)
            .zip(&rows)
            .filter(|(_, row)| filters.iter().all(|f| f.holds(&row[..])))
            .map(|(rid, _)| rid)
            .collect();
        let select = QuerySpec {
            filters: filters.iter().map(|f| f.predicate(&GAPPED)).collect(),
            ..QuerySpec::table("g")
        };
        let join = select.clone().join("u", on("a", "k"));
        let want_join = join_scan(&values[0], &selected, &k_values);
        // Per column: every literal the generator draws, alone and as
        // neighbouring ranges, with the row scan's answers.
        let cases: Vec<_> = (0..2)
            .map(|c| {
                let probes: Vec<Value> = (0u8..3)
                    .flat_map(|kind| (0..30).map(move |x| gapped_literal(c, (kind, x))))
                    .collect();
                let ranges: Vec<(Value, Value)> = probes
                    .windows(2)
                    .map(|w| (w[0].clone(), w[1].clone()))
                    .collect();
                let points: Vec<Vec<u32>> =
                    probes.iter().map(|p| scan(&values[c], |v| v == p)).collect();
                let bands: Vec<Vec<u32>> = ranges
                    .iter()
                    .map(|(lo, hi)| scan(&values[c], |v| lo <= v && v <= hi))
                    .collect();
                (RidList::for_column(&columns[c]), probes, points, ranges, bands)
            })
            .collect();
        let stream: Vec<u32> = match rows.len() {
            0 => Vec::new(),
            n => stream_seeds.iter().map(|s| (s % n) as u32).collect(),
        };
        let k_stream: Vec<u32> = (0..k_values.len() as u32).rev().collect();
        let k_rids = RidList::for_column(&k);
        let want_a_k = join_scan(&values[0], &stream, &k_values);
        let want_k_a = join_scan(&k_values, &k_stream, &values[0]);
        for threads in [1, 2, 0] {
            for lanes in [1, 3, 8] {
                let at = format!("threads={threads} lanes={lanes}");
                let exec = ExecOptions { threads, lanes, ..ExecOptions::default() };
                let got = db.run_spec(&select.clone().exec(exec));
                prop_assert_eq!(got, Ok(ResultRows::Rids(selected.clone())), "{} {:?}", at, select);
                let got = db.run_spec(&join.clone().exec(exec));
                prop_assert_eq!(got, Ok(ResultRows::Joined(want_join.clone())), "{} {:?}", at, join);
                for (c, (rids, probes, points, ranges, bands)) in cases.iter().enumerate() {
                    let got = point_select_many(&columns[c], rids, probes, lanes, threads);
                    prop_assert_eq!(&got, points, "points on {}, {}", GAPPED[c], at);
                    let got = range_select_many(&columns[c], rids, ranges, lanes, threads);
                    prop_assert_eq!(&got, bands, "ranges on {}, {}", GAPPED[c], at);
                }
                let got = indexed_nested_loop_join(&columns[0], &stream, &k, &k_rids, lanes, threads);
                prop_assert_eq!(&got, &want_a_k, "g.a joins u.k, {}", at);
                let got = indexed_nested_loop_join(&k, &k_stream, &columns[0], &cases[0].0, lanes, threads);
                prop_assert_eq!(&got, &want_k_a, "u.k joins g.a, {}", at);
            }
        }
    }
}

/// The cross-arm tables' columns: one domain on each arm, the dense one
/// twice.
const ARMS: [&str; 5] = ["d1", "s1", "d4", "d20", "gen"];
/// Each integer arm's `(stride, min)`.
const ARM_STRIDES: [(i64, i64); 4] = [(1, -40), (1, -10), (4, -40), (20, -40)];

/// Column `arm`'s domain: 64 integers at stride 1 from -40 and from -10,
/// or from -40 at stride 4 or 20 — every integer of their range (twice,
/// overlapping in `[-10, 23]`), a quarter and a twentieth of it, so
/// dense, dense, ranked and under a CSS directory (`domain.rs` pins which
/// arm each takes) — or the stride-1 integers from -40 beside two `Str`s,
/// generic.
fn arm_domain(arm: usize) -> Vec<Value> {
    let (stride, min) = ARM_STRIDES.get(arm).copied().unwrap_or((1, -40));
    let ints = (0..64).map(|x| Value::Int(x * stride + min));
    match arm {
        4 => ints.chain(["m", "z"].map(Value::from)).collect(),
        _ => ints.collect(),
    }
}

/// Column `arm` over the whole of its domain, each row at its pick of it,
/// with the rows' values.
fn arm_column(arm: usize, picks: &[usize]) -> (Column, Vec<Value>) {
    let domain = arm_domain(arm);
    let ids: Vec<u32> = picks.iter().map(|&p| (p % domain.len()) as u32).collect();
    let values = ids.iter().map(|&id| domain[id as usize].clone()).collect();
    (Column::from_parts(Domain::from_values(domain), ids), values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Domains at density 1 (from two `min`s), 1/4 and 1/20 and a
    /// generic one: points and ranges on each, and joins between every
    /// pair of them — dense to dense shifted both ways, dense to ranked,
    /// CSS and generic, ranked to CSS, ranked to generic and back —
    /// through the operators at every lane count and through the engine
    /// after a band on the outer side, joined and grouped by every
    /// aggregate.
    #[test]
    fn every_pair_of_domain_arms_selects_and_joins_like_a_row_scan(
        outer in vec(0usize..66, 0..60),
        inner in vec(0usize..66, 0..60),
        literals in vec(-100i64..1_300, 0..12),
    ) {
        let side = |picks: &[usize]| -> Vec<(Column, Vec<Value>)> {
            (0..ARMS.len()).map(|arm| arm_column(arm, picks)).collect()
        };
        let (outer_side, inner_side) = (side(&outer), side(&inner));
        let mut probes: Vec<Value> = literals.into_iter().map(Value::Int).collect();
        probes.extend([-41, -40, 23, 1_220, i64::MIN, i64::MAX].map(Value::Int));
        probes.extend(["m", "zz"].map(Value::from));
        let mut ranges: Vec<(Value, Value)> = probes
            .windows(2)
            .map(|w| (w[0].clone(), w[1].clone()))
            .collect();
        ranges.extend(probes.iter().map(|v| (v.clone(), Value::Int(i64::MAX))));
        let stream: Vec<u32> = (0..outer.len() as u32).rev().collect();
        for (arm, (column, values)) in outer_side.iter().enumerate() {
            let rids = RidList::for_column(column);
            let points: Vec<Vec<u32>> = probes.iter().map(|p| scan(values, |v| v == p)).collect();
            let bands: Vec<Vec<u32>> = ranges
                .iter()
                .map(|(lo, hi)| scan(values, |v| lo <= v && v <= hi))
                .collect();
            for lanes in [1, 3, 8] {
                let got = point_select_many(column, &rids, &probes, lanes, 1);
                prop_assert_eq!(&got, &points, "points on {} lanes={}", ARMS[arm], lanes);
                let got = range_select_many(column, &rids, &ranges, lanes, 1);
                prop_assert_eq!(&got, &bands, "ranges on {} lanes={}", ARMS[arm], lanes);
                for (to, (inner_col, inner_values)) in inner_side.iter().enumerate() {
                    let inner_rids = RidList::for_column(inner_col);
                    let got = indexed_nested_loop_join(column, &stream, inner_col, &inner_rids, lanes, 1);
                    let want = join_scan(values, &stream, inner_values);
                    prop_assert_eq!(got, want, "{} joins {} lanes={}", ARMS[arm], ARMS[to], lanes);
                }
            }
        }
        let table = |name: &str, side: &[(Column, Vec<Value>)]| {
            let named = ARMS.iter().map(|a| a.to_string()).zip(side.iter().map(|(c, _)| c.clone()));
            Table::from_parts(name, named.collect()).unwrap()
        };
        let mut db = Database::new();
        db.register(table("x", &outer_side)).unwrap();
        db.register(table("y", &inner_side)).unwrap();
        for (name, column) in ["x", "y"].into_iter().flat_map(|t| ARMS.map(|a| (t, a))) {
            db.create_index(name, column, IndexKind::FullCss).unwrap();
        }
        for exec in CATALOG_EXECS {
            db.set_exec_options(exec_at(exec));
            for (arm, (_, values)) in outer_side.iter().enumerate() {
                let band = |v: &Value| Value::Int(-40) <= *v && *v <= Value::Int(200);
                let selected = scan(values, band);
                for (to, (_, inner_values)) in inner_side.iter().enumerate() {
                    let spec = QuerySpec::table("x")
                        .filter(between(ARMS[arm], -40, 200))
                        .join("y", on(ARMS[arm], ARMS[to]));
                    let want = join_scan(values, &selected, inner_values);
                    // Grouped by the outer generic column over the outer
                    // stride-4 one: the band spans many IDs, so the fold
                    // reads its run in `(id, rid)` order.
                    let (gen, d4) = (&outer_side[4].1, &outer_side[2].1);
                    for agg in AGGS {
                        let grouped = spec.clone().group_by("gen", agg_of(agg, "d4"));
                        let rows = want.iter().map(|j| {
                            let Value::Int(m) = d4[j.outer_rid as usize] else { unreachable!("d4 is an Int column") };
                            (gen[j.outer_rid as usize].clone(), m)
                        });
                        let groups = fold_scan(agg, rows);
                        prop_assert_eq!(db.run_spec(&grouped), Ok(ResultRows::Groups(groups)), "{:?} {:?}", exec, grouped);
                    }
                    prop_assert_eq!(db.run_spec(&spec), Ok(ResultRows::Joined(want)), "{:?} {:?}", exec, spec);
                }
            }
        }
    }
}

/// Columns on the dense arm's edges, each built from its 300 rows: one
/// value; every integer of a span ending at `i64::MIN`, of one ending at
/// `i64::MAX`, and of one from a negative `min`; and a span one value
/// short of dense, which stays ranked. Points and ranges (endpoints
/// inside, between and past both ends), joins between every pair —
/// dense to dense at shifts that wrap, dense to ranked and back — and a
/// grouped join, against a row scan: through the operators, and through
/// the engine at each `CATALOG_EXECS` entry before and after a save →
/// open and a snapshot transfer, which keep each arm and its bytes.
#[test]
fn dense_domain_edges_match_a_row_scan_through_save_and_transfer() {
    const ROWS: i64 = 300;
    let spread = |r: i64, m: i64| r * 7 % m;
    let columns: Vec<(&str, Vec<Value>)> = vec![
        ("one", vec![Value::Int(5); ROWS as usize]),
        (
            "low",
            (0..ROWS)
                .map(|r| Value::Int(i64::MIN + spread(r, 100)))
                .collect(),
        ),
        (
            "high",
            (0..ROWS)
                .map(|r| Value::Int(i64::MAX - spread(r, 100)))
                .collect(),
        ),
        (
            "mid",
            (0..ROWS).map(|r| Value::Int(spread(r, 100) - 50)).collect(),
        ),
        // Every integer of `[0, 100]` but 50, whose rows hold 51.
        (
            "short",
            (0..ROWS)
                .map(|r| Value::Int(Some(spread(r, 101)).filter(|&v| v != 50).unwrap_or(51)))
                .collect(),
        ),
    ];
    let mut probes: Vec<Value> = [
        i64::MIN,
        i64::MIN + 1,
        i64::MIN + 99,
        i64::MIN + 100,
        -51,
        -50,
        0,
        4,
        5,
        6,
        49,
        50,
        51,
        100,
        101,
        i64::MAX - 100,
        i64::MAX - 99,
        i64::MAX - 1,
        i64::MAX,
    ]
    .map(Value::Int)
    .to_vec();
    probes.push(Value::from("a"));
    let ranges: Vec<(Value, Value)> = probes
        .iter()
        .flat_map(|lo| probes.iter().map(move |hi| (lo.clone(), hi.clone())))
        .collect();
    let built: Vec<(Column, RidList)> = columns
        .iter()
        .map(|(_, values)| {
            let column = Column::from_values(values);
            let rids = RidList::for_column(&column);
            (column, rids)
        })
        .collect();
    // Every domain but the last stores nothing: it is dense.
    let stored: Vec<usize> = built.iter().map(|(c, _)| c.domain().size_bytes()).collect();
    assert_eq!(stored[..4], [0; 4]);
    assert!(stored[4] > 0, "one short of dense stays ranked");
    let stream: Vec<u32> = (0..ROWS as u32).map(|i| i * 7 % ROWS as u32).collect();
    for threads in [1, 2] {
        for lanes in [1, 3, 8] {
            let at = format!("threads={threads} lanes={lanes}");
            for ((name, values), (column, rids)) in columns.iter().zip(&built) {
                let points: Vec<Vec<u32>> =
                    probes.iter().map(|p| scan(values, |v| v == p)).collect();
                let got = point_select_many(column, rids, &probes, lanes, threads);
                assert_eq!(got, points, "points on {name}, {at}");
                let bands: Vec<Vec<u32>> = ranges
                    .iter()
                    .map(|(lo, hi)| scan(values, |v| lo <= v && v <= hi))
                    .collect();
                let got = range_select_many(column, rids, &ranges, lanes, threads);
                assert_eq!(got, bands, "ranges on {name}, {at}");
                for ((to, inner_values), (inner, inner_rids)) in columns.iter().zip(&built) {
                    let got = indexed_nested_loop_join(
                        column, &stream, inner, inner_rids, lanes, threads,
                    );
                    let want = join_scan(values, &stream, inner_values);
                    assert_eq!(got, want, "{name} joins {to}, {at}");
                }
            }
        }
    }
    let table = |name: &str| {
        let named = columns
            .iter()
            .zip(&built)
            .map(|((c, _), (column, _))| (c.to_string(), column.clone()));
        Table::from_parts(name, named.collect()).unwrap()
    };
    let mut db = Database::new();
    db.register(table("e")).unwrap();
    db.register(table("f")).unwrap();
    for (t, (c, _)) in ["e", "f"]
        .into_iter()
        .flat_map(|t| columns.iter().map(move |c| (t, c)))
    {
        db.create_index(t, c, IndexKind::FullCss).unwrap();
    }
    let image = db.save_to_bytes();
    let opened = Database::open_from_bytes(image.clone(), "dense").unwrap();
    let mut transferred = Database::new();
    transferred.restore_from_bytes(&image, "transfer").unwrap();
    let (mid, short) = (&columns[3].1, &columns[4].1);
    for mut db in [db, opened, transferred] {
        assert_eq!(db.save_to_bytes(), image);
        for exec in CATALOG_EXECS {
            db.set_exec_options(exec_at(exec));
            for ((name, values), (column, _)) in columns.iter().zip(&built) {
                let e = db.table("e").unwrap().column(name).unwrap();
                assert_eq!(
                    e.domain().size_bytes(),
                    column.domain().size_bytes(),
                    "{name}"
                );
                let points: Vec<Vec<u32>> =
                    probes.iter().map(|p| scan(values, |v| v == p)).collect();
                assert_eq!(
                    db.point_probe_batch("e", name, &probes).unwrap(),
                    points,
                    "{name} {exec:?}"
                );
                let bands: Vec<Vec<u32>> = ranges
                    .iter()
                    .map(|(lo, hi)| scan(values, |v| lo <= v && v <= hi))
                    .collect();
                assert_eq!(
                    db.range_probe_batch("e", name, &ranges).unwrap(),
                    bands,
                    "{name} {exec:?}"
                );
                // Every row, in a band spanning every ID.
                let every: Vec<u32> = (0..ROWS as u32).collect();
                for (to, inner_values) in &columns {
                    let spec = QuerySpec::table("e")
                        .filter(between(name, i64::MIN, i64::MAX))
                        .join("f", on(name, to));
                    let want = join_scan(values, &every, inner_values);
                    let groups = fold_scan(
                        AggFn::Sum,
                        want.iter().map(|j| {
                            let Value::Int(m) = mid[j.outer_rid as usize] else {
                                unreachable!("`mid` is an Int column")
                            };
                            (short[j.outer_rid as usize].clone(), m)
                        }),
                    );
                    let grouped = spec.clone().group_by("short", sum("mid"));
                    assert_eq!(
                        db.run_spec(&grouped),
                        Ok(ResultRows::Groups(groups)),
                        "{grouped:?}"
                    );
                    assert_eq!(db.run_spec(&spec), Ok(ResultRows::Joined(want)), "{spec:?}");
                }
            }
        }
    }
}

/// One batch of range endpoints on a typed domain holding both ends of
/// `i64`, where no row carries `-7` or `5`: `i64::MIN`/`i64::MAX` bounds,
/// `Str` bounds (after every `Int`), mixed and inverted pairs — through
/// the operator at every thread and lane count, the engine's range batch,
/// and `between`.
#[test]
fn range_endpoint_batches_resolve_both_ends_of_i64_and_str_bounds() {
    let domain: Vec<Value> = [i64::MIN, -7, 0, 5, 9, i64::MAX].map(Value::Int).to_vec();
    let values: Vec<Value> = [i64::MAX, 0, i64::MIN, 0, 9, 9].map(Value::Int).to_vec();
    let ids = values
        .iter()
        .map(|v| domain.binary_search(v).expect("a domain value") as u32)
        .collect();
    let column = Column::from_parts(Domain::from_values(domain), ids);
    let bounds: Vec<Value> = [
        i64::MIN,
        i64::MIN + 1,
        -8,
        -7,
        0,
        4,
        5,
        9,
        i64::MAX - 1,
        i64::MAX,
    ]
    .map(Value::Int)
    .into_iter()
    .chain(["", "a"].map(Value::from))
    .collect();
    let ranges: Vec<(Value, Value)> = bounds
        .iter()
        .flat_map(|lo| bounds.iter().map(move |hi| (lo.clone(), hi.clone())))
        .collect();
    let want: Vec<Vec<u32>> = ranges
        .iter()
        .map(|(lo, hi)| scan(&values, |v| lo <= v && v <= hi))
        .collect();
    let rids = RidList::for_column(&column);
    for threads in [1, 2, 0] {
        for lanes in [1, 3, 8] {
            let got = range_select_many(&column, &rids, &ranges, lanes, threads);
            assert_eq!(got, want, "threads={threads} lanes={lanes}");
        }
    }
    let mut db = Database::new();
    db.register(Table::from_parts("e", vec![("v".into(), column)]).unwrap())
        .unwrap();
    db.create_index("e", "v", IndexKind::FullCss).unwrap();
    for exec in CATALOG_EXECS {
        db.set_exec_options(exec_at(exec));
        assert_eq!(
            db.range_probe_batch("e", "v", &ranges).unwrap(),
            want,
            "{exec:?}"
        );
        for ((lo, hi), want) in ranges.iter().zip(&want) {
            let spec = QuerySpec::table("e").filter(between("v", lo.clone(), hi.clone()));
            let got = db.run_spec(&spec).unwrap();
            assert_eq!(
                got,
                ResultRows::Rids(want.clone()),
                "{exec:?} [{lo:?}, {hi:?}]"
            );
        }
    }
}

const AGGS: [AggFn; 4] = [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max];

/// `agg` over `column` as the query builder spells it.
fn agg_of(agg: AggFn, column: &str) -> Agg {
    match agg {
        AggFn::Count => count(),
        AggFn::Sum => sum(column),
        AggFn::Min => min(column),
        AggFn::Max => max(column),
    }
}

/// The row-scan grouping: each `(group, value)` folded by value order of
/// the group, written out per aggregate rather than through
/// `AggFn::combine`.
fn fold_scan(agg: AggFn, rows: impl IntoIterator<Item = (Value, i64)>) -> Vec<GroupRow> {
    let mut groups: BTreeMap<Value, i64> = BTreeMap::new();
    for (group, v) in rows {
        let slot = groups.entry(group);
        match agg {
            AggFn::Count => *slot.or_insert(0) += 1,
            AggFn::Sum => *slot.or_insert(0) += v,
            AggFn::Min => {
                let a = slot.or_insert(v);
                *a = (*a).min(v);
            }
            AggFn::Max => {
                let a = slot.or_insert(v);
                *a = (*a).max(v);
            }
        }
    }
    groups
        .into_iter()
        .map(|(group, value)| GroupRow { group, value })
        .collect()
}

fn with_threads(spec: QuerySpec, threads: usize) -> QuerySpec {
    spec.exec(ExecOptions {
        threads,
        ..ExecOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every aggregate over `t.n` (both signs), grouped by each of `t`'s
    /// columns alone (no filter) or after a selection, and across the
    /// join to `u` — grouped by `u.g` over `t.n`, and by `t.s` over the
    /// inner `u.k` — at threads 1, 2 and adaptive.
    #[test]
    fn groupings_match_a_row_scan_for_every_aggregate_and_thread_count(
        seeds in vec((0i64..6, 0u8..6, 0i64..12, 0i64..24), 0..48),
        inner in vec((-1i64..7, 0u8..3), 0..12),
        filter_seeds in vec((0usize..4, 0u8..3, (0u8..6, 0i64..26), (0u8..6, 0i64..26)), 0..=2),
    ) {
        let rows: Vec<Row> = seeds.into_iter().map(row).collect();
        let filters: Vec<Filter> = filter_seeds
            .into_iter()
            .map(|seed| Filter::from_seed(seed, literal))
            .collect();
        let db = database(&rows, &inner);
        let select = QuerySpec {
            filters: filters.iter().map(|f| f.predicate(&COLUMNS)).collect(),
            ..QuerySpec::table("t")
        };
        let selected: Vec<&Row> = rows.iter().filter(|r| filters.iter().all(|f| f.holds(&r[..]))).collect();
        let joined: Vec<(&Row, &(i64, u8))> = selected
            .iter()
            .flat_map(|&r| inner.iter().filter(move |&&(k, _)| r[0] == Value::Int(k)).map(move |u| (r, u)))
            .collect();
        for agg in AGGS {
            let mut cases: Vec<(QuerySpec, Vec<GroupRow>)> = COLUMNS
                .iter()
                .enumerate()
                .map(|(c, name)| {
                    let spec = select.clone().group_by(name, agg_of(agg, "n"));
                    let want = fold_scan(agg, selected.iter().map(|r| (r[c].clone(), measure(r))));
                    (spec, want)
                })
                .collect();
            let join = select.clone().join("u", on("i", "k"));
            let region = |g: u8| Value::Str(REGIONS[g as usize].to_owned());
            cases.push((
                join.clone().group_by("g", agg_of(agg, "n")),
                fold_scan(agg, joined.iter().map(|(r, &(_, g))| (region(g), measure(r)))),
            ));
            cases.push((
                join.group_by("s", agg_of(agg, "k")),
                fold_scan(agg, joined.iter().map(|(r, &(k, _))| (r[1].clone(), k))),
            ));
            for (spec, want) in cases {
                for threads in [1, 2, 0] {
                    let spec = with_threads(spec.clone(), threads);
                    let got = db.run_spec(&spec);
                    prop_assert_eq!(got, Ok(ResultRows::Groups(want.clone())), "{:?}", spec);
                }
            }
        }
    }
}

/// A group column whose domain is far wider than the rows a selection
/// keeps: bands of at most 100 rows of a 120k-row table, grouped by a
/// 40k-value column (three consecutive rows per group, scattered over the
/// domain), for every aggregate at every thread count — through the
/// engine and through the operator over the same rows.
#[test]
fn sparse_groupings_over_a_wide_domain_match_a_row_scan() {
    const ROWS: i64 = 120_000;
    let g = |r: i64| (r / 3) * 7_919 % (ROWS / 3);
    let n = |r: i64| (r * 37) % 23 - 11;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .int_column("k", 0..ROWS)
            .int_column("g", (0..ROWS).map(g))
            .int_column("n", (0..ROWS).map(n))
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_index("t", "k", IndexKind::FullCss).unwrap();
    let t = db.table("t").unwrap();
    let (g_col, n_col) = (t.column("g").unwrap(), t.column("n").unwrap());
    assert_eq!(g_col.domain().len(), (ROWS / 3) as usize);
    for (lo, width) in [
        (0, 99),
        (61_234, 99),
        (ROWS - 40, 99),
        (5_000, 0),
        (77_777, 31),
    ] {
        let band: Vec<i64> = (lo..=(lo + width).min(ROWS - 1)).collect();
        let rids: Vec<u32> = band.iter().map(|&r| r as u32).collect();
        for agg in AGGS {
            let want = fold_scan(agg, band.iter().map(|&r| (Value::Int(g(r)), n(r))));
            let m = Measure::resolve(agg, Some(("t", "n", n_col))).unwrap();
            for threads in [1, 2, 0] {
                let spec = QuerySpec::table("t")
                    .filter(between("k", lo, lo + width))
                    .group_by("g", agg_of(agg, "n"));
                let spec = with_threads(spec, threads);
                let got = db.run_spec(&spec).unwrap();
                assert_eq!(got, ResultRows::Groups(want.clone()), "{spec:?}");
                let pair = |i: usize| (rids[i], m.at(rids[i]));
                let got = group_aggregate_pairs(g_col, rids.len(), pair, agg, threads);
                assert_eq!(
                    got, want,
                    "operator {agg:?} threads={threads} band {lo}+{width}"
                );
            }
        }
    }
}

#[test]
fn a_stale_plan_fails_typed_even_when_its_first_filter_matches_nothing() {
    let rows: Vec<Row> = (0..40).map(|r| row((r % 6, 0, r % 12, r % 24))).collect();
    for exec in CATALOG_EXECS {
        let mut db = database(&rows, &[(1, 0)]);
        db.set_exec_options(exec_at(exec));
        let plan = db
            .query("t")
            .filter(eq("i", 999))
            .filter(between("j", 0, 5))
            .plan()
            .unwrap();
        for kind in IndexKind::ALL {
            db.drop_index("t", "j", kind).unwrap();
        }
        assert_eq!(
            plan.execute(&db).unwrap_err(),
            MmdbError::NoIndex {
                table: "t".into(),
                column: "j".into(),
            },
            "{exec:?}"
        );
    }
}

/// The join's translation over selections carrying from 0.1 % to all of
/// the outer domain: one batch of a few scattered values up to one of
/// every value. Each selection joins to `u` and, grouped by `u.g` summing
/// `t.m`, at lanes 1, 3 and 8 and threads 1, 2 and adaptive, against a
/// scan.
#[test]
fn joins_carrying_a_thousandth_to_all_of_the_outer_domain_match_a_row_scan() {
    const DOMAIN: i64 = 4_000;
    const ROWS: i64 = 2 * DOMAIN;
    // Each outer value on two rows far apart, so a band of rows carries
    // scattered values; the inner side holds every third value (some
    // twice) and values the outer side never has.
    let c = |r: i64| (r * 1_237) % DOMAIN;
    let m = |r: i64| (r * 31) % 17 - 8;
    let inner: Vec<(i64, &str)> = (-10..DOMAIN / 3 + 10)
        .flat_map(|i| {
            let k = i * 3;
            let copies = if i % 7 == 0 { 2 } else { 1 };
            std::iter::repeat_n((k, REGIONS[(i.rem_euclid(3)) as usize]), copies)
        })
        .collect();
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .int_column("a", 0..ROWS)
            .int_column("c", (0..ROWS).map(c))
            .int_column("m", (0..ROWS).map(m))
            .build()
            .unwrap(),
    )
    .unwrap();
    db.register(
        TableBuilder::new("u")
            .int_column("k", inner.iter().map(|&(k, _)| k))
            .str_column("g", inner.iter().map(|&(_, g)| g))
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_index("t", "a", IndexKind::FullCss).unwrap();
    db.create_index("u", "k", IndexKind::FullCss).unwrap();
    let mut matches: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
    for (rid, &(k, _)) in (0u32..).zip(&inner) {
        matches.entry(k).or_default().push(rid);
    }
    // Bands of rows carrying 4, 40, 400 and 2,000 of the 4,000 values,
    // and every row.
    for (lo, rows) in [
        (17, 4),
        (3_001, 40),
        (1_234, 400),
        (5_000, 2_000),
        (0, ROWS),
    ] {
        let band = lo..lo + rows;
        let carried: std::collections::BTreeSet<i64> = band.clone().map(c).collect();
        assert_eq!(carried.len() as i64, rows.min(DOMAIN), "{band:?}");
        let joined: Vec<JoinRow> = band
            .clone()
            .flat_map(|r| {
                let inner_rids = matches.get(&c(r)).map_or(&[][..], Vec::as_slice);
                inner_rids.iter().map(move |&inner_rid| JoinRow {
                    outer_rid: r as u32,
                    inner_rid,
                })
            })
            .collect();
        let groups = fold_scan(
            AggFn::Sum,
            joined.iter().map(|j| {
                let region = inner[j.inner_rid as usize].1;
                (Value::from(region), m(i64::from(j.outer_rid)))
            }),
        );
        let join = QuerySpec::table("t")
            .filter(between("a", band.start, band.end - 1))
            .join("u", on("c", "k"));
        let cases = [
            (join.clone(), ResultRows::Joined(joined)),
            (join.group_by("g", sum("m")), ResultRows::Groups(groups)),
        ];
        for (spec, want) in cases {
            for lanes in [1, 3, 8] {
                for threads in [1, 2, 0] {
                    let spec = spec.clone().exec(ExecOptions {
                        threads,
                        lanes,
                        ..ExecOptions::default()
                    });
                    assert_eq!(db.run_spec(&spec).unwrap(), want, "{spec:?}");
                }
            }
        }
    }
}

/// `engine-mix`'s select at its own scale: an equality on a 100k-value
/// column beside a band a tenth of a 10k-value column wide, plus driving
/// ranges whose runs span many IDs.
#[test]
#[ignore = "2M rows; run with `cargo test --release -p mmdb -- --ignored`"]
fn engine_mix_shaped_conjunctions_match_a_row_scan_at_two_million_rows() {
    const ROWS: u32 = 2_000_000;
    let cust = |r: u32| i64::from(r.wrapping_mul(2_654_435_761) % 100_000);
    let amount = |r: u32| i64::from(r.wrapping_mul(40_503).rotate_left(7) % 10_000);
    let mut db = Database::new();
    db.register(
        TableBuilder::new("orders")
            .int_column("cust", (0..ROWS).map(cust))
            .int_column("amount", (0..ROWS).map(amount))
            .build()
            .unwrap(),
    )
    .unwrap();
    for (column, kind) in [
        ("cust", IndexKind::FullCss),
        ("cust", IndexKind::Hash),
        ("amount", IndexKind::FullCss),
    ] {
        db.create_index("orders", column, kind).unwrap();
    }
    let mut matched = 0;
    for q in 0..6i64 {
        let (c, lo) = (q * 16_661 % 100_000, q * 1_409 % 9_000);
        // Each filter set with the `cust` and `amount` intervals it keeps.
        let cases = [
            (
                vec![eq("cust", c), between("amount", lo, lo + 999)],
                c..=c,
                lo..=lo + 999,
            ),
            (
                vec![
                    between("amount", lo, lo + 999),
                    between("cust", c, c + 50 * q),
                ],
                c..=c + 50 * q,
                lo..=lo + 999,
            ),
            (
                vec![between("amount", lo, lo + 30 * q)],
                i64::MIN..=i64::MAX,
                lo..=lo + 30 * q,
            ),
        ];
        for (filters, custs, amounts) in cases {
            let want: Vec<u32> = (0..ROWS)
                .filter(|&r| custs.contains(&cust(r)) && amounts.contains(&amount(r)))
                .collect();
            matched += want.len();
            let spec = QuerySpec {
                filters,
                ..QuerySpec::table("orders")
            };
            for spec in [spec.clone(), spec.using(IndexKind::FullCss)] {
                let got = db.run_spec(&spec).unwrap();
                assert_eq!(got, ResultRows::Rids(want.clone()), "{spec:?}");
            }
        }
    }
    // The single bands alone hold about 456 / 10,000 of the rows.
    assert!(matched > 50_000, "the bands select rows: {matched}");
}

/// `engine-mix`'s join-group at its own scale: 2M `orders` joined on
/// `cust` to 100k `customers` and grouped by their region summing
/// `amount`, after bands of `amount` 50 values wide (about 10k rows
/// carrying about a tenth of the customers) and wider ones, at lanes 1,
/// 3 and 8 — against a scan of every row. The joined rows are checked
/// too, by count and by one pass over them.
#[test]
#[ignore = "2M rows; run with `cargo test --release -p mmdb -- --ignored`"]
fn engine_mix_shaped_join_groups_match_a_row_scan_at_two_million_rows() {
    const ROWS: u32 = 2_000_000;
    const CUSTOMERS: i64 = 100_000;
    let cust = |r: u32| i64::from(r.wrapping_mul(2_654_435_761) % 100_000);
    let amount = |r: u32| i64::from(r.wrapping_mul(40_503).rotate_left(7) % 10_000);
    let region = |c: i64| REGIONS[(c % 3) as usize];
    let mut db = Database::new();
    db.register(
        TableBuilder::new("orders")
            .int_column("cust", (0..ROWS).map(cust))
            .int_column("amount", (0..ROWS).map(amount))
            .build()
            .unwrap(),
    )
    .unwrap();
    db.register(
        TableBuilder::new("customers")
            .int_column("id", 0..CUSTOMERS)
            .str_column("region", (0..CUSTOMERS).map(region))
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_index("orders", "amount", IndexKind::FullCss)
        .unwrap();
    db.create_index("customers", "id", IndexKind::FullCss)
        .unwrap();
    for (lo, width) in [(0, 50), (4_321, 50), (9_949, 50), (2_000, 2_500)] {
        let band = lo..=lo + width;
        let selected: Vec<u32> = (0..ROWS).filter(|&r| band.contains(&amount(r))).collect();
        let want = fold_scan(
            AggFn::Sum,
            selected
                .iter()
                .map(|&r| (Value::from(region(cust(r))), amount(r))),
        );
        let join = QuerySpec::table("orders")
            .filter(between("amount", lo, lo + width))
            .join("customers", on("cust", "id"));
        for lanes in [1, 3, 8] {
            let exec = ExecOptions {
                lanes,
                ..ExecOptions::default()
            };
            let grouped = join.clone().group_by("region", sum("amount")).exec(exec);
            assert_eq!(
                db.run_spec(&grouped).unwrap(),
                ResultRows::Groups(want.clone()),
                "{grouped:?}"
            );
            let ResultRows::Joined(rows) = db.run_spec(&join.clone().exec(exec)).unwrap() else {
                panic!("a join answers joined rows");
            };
            assert_eq!(rows.len(), selected.len(), "{band:?} lanes={lanes}");
            assert!(rows.iter().zip(&selected).all(|(row, &rid)| {
                row.outer_rid == rid && i64::from(row.inner_rid) == cust(rid)
            }));
        }
    }
}
