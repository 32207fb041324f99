//! Conjunctions, and the physical operators under them, against a
//! row-scan oracle.
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
        let db = database(&rows, &inner);
        let select = QuerySpec {
            filters: filters.iter().map(|f| f.predicate(&COLUMNS)).collect(),
            ..QuerySpec::table("t")
        };
        for kind in std::iter::once(None).chain(IndexKind::ALL.map(Some)) {
            let forced = |spec: QuerySpec| match kind {
                Some(k) => spec.using(k),
                None => spec,
            };
            for (spec, want) in shapes(forced(select.clone()), &rows, &inner, &filters) {
                let got = db.run_spec(&spec);
                match forced_error(&filters, kind) {
                    Some(err) => prop_assert_eq!(got, Err(err), "{:?}", spec),
                    None => {
                        let got = got.map_err(|e| TestCaseError::fail(format!("{spec:?}: {e}")))?;
                        if let ResultRows::Rids(rids) = &got {
                            prop_assert!(
                                rids.windows(2).all(|w| w[0] < w[1]),
                                "not ascending: {:?} for {:?}", rids, spec
                            );
                        }
                        prop_assert_eq!(got, want, "{:?}", spec);
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
    assert_eq!(db.range_probe_batch("e", "v", &ranges).unwrap(), want);
    for ((lo, hi), want) in ranges.iter().zip(&want) {
        let spec = QuerySpec::table("e").filter(between("v", lo.clone(), hi.clone()));
        let got = db.run_spec(&spec).unwrap();
        assert_eq!(got, ResultRows::Rids(want.clone()), "[{lo:?}, {hi:?}]");
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
    let mut db = database(&rows, &[(1, 0)]);
    let plan = db
        .query("t")
        .filter(eq("i", 999))
        .filter(between("j", 0, 5))
        .plan()
        .unwrap();
    let kind = plan.probes[1].kind;
    // Other kinds stay on `j`, so its entry survives without this one.
    db.drop_index("t", "j", kind).unwrap();
    assert_eq!(
        plan.execute(&db).unwrap_err(),
        MmdbError::IndexNotBuilt {
            table: "t".into(),
            column: "j".into(),
            kind
        }
    );
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
