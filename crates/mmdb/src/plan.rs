//! Composable queries over the [`Database`](crate::Database) engine: a
//! declarative [`Query`] builder, the small physical [`Plan`] it
//! compiles into, and the executor that drives the batched physical
//! operators.
//!
//! The shape mirrors the paper's three index consumers (§2.2):
//! selections ([`eq`] / [`between`] filters), indexed nested-loop joins
//! ([`Query::join`]), and domain encoding (every probe starts by encoding
//! its constants into domain IDs). Grouped aggregation
//! ([`Query::group_by`]) rides on top, as OLAP queries do.
//!
//! A conjunction runs on the in-place domain IDs (§2.1 keeps every
//! domain sorted, so equality and inequality tests work on IDs directly):
//! each filter is an inclusive ID interval and one run of its column's
//! sorted RID list, addressed by that interval. Only the shortest
//! run is materialised; each of its rows is kept when its ID on every
//! other filter's column lies in that filter's interval.
//!
//! [`Query`] and [`ResultSet`] are generic over the generation they run
//! on — any [`CatalogRead`]: a [`CatalogState`] by default (what a
//! `Database` derefs to and a `Snapshot` pins), or the sharded catalog's
//! composed state, whose compile records a [`Routing`] on the plan and
//! whose execute scatter-gathers across shards. So there is one builder,
//! one plan type, one result type and one `values()` rule for every
//! deployment shape.
//!
//! ```
//! use mmdb::{between, eq, on, sum, Database, IndexKind, TableBuilder};
//!
//! # fn main() -> mmdb::Result<()> {
//! let mut db = Database::new();
//! db.register(
//!     TableBuilder::new("sales")
//!         .int_column("cust", [1, 2, 1, 3])
//!         .int_column("amount", [10, 40, 25, 99])
//!         .build()?,
//! )?;
//! db.register(
//!     TableBuilder::new("customers")
//!         .int_column("id", [1, 2, 3])
//!         .str_column("region", ["east", "west", "east"])
//!         .build()?,
//! )?;
//! db.create_index("sales", "amount", IndexKind::FullCss)?;
//! db.create_index("customers", "id", IndexKind::Hash)?;
//!
//! // Select, join, aggregate — one composable pipeline.
//! let revenue = db
//!     .query("sales")
//!     .filter(between("amount", 20, 100))
//!     .join("customers", on("cust", "id"))
//!     .group_by("region", sum("amount"))
//!     .run()?;
//! assert_eq!(revenue.groups().len(), 2); // east: 25 + 99, west: 40
//! # Ok(())
//! # }
//! ```

use crate::aggregate::{group_aggregate_pairs, AggFn, GroupRow, Measure};
use crate::column::Column;
use crate::domain::Value;
use crate::error::{MmdbError, Result};
use crate::index_choice::IndexKind;
use crate::query::{indexed_nested_loop_join, point_select_many, range_select_many, JoinRow};
use crate::rid::RidList;
use crate::snapshot::{CatalogState, Pinned};
use ccindex_common::DEFAULT_BATCH_LANES;
use ccindex_obs::elapsed_ns;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Execution options
// ---------------------------------------------------------------------

/// Most worker threads a plan runs with ([`ExecOptions::normalized`]).
const MAX_THREADS: usize = 64;

/// Most interleave lanes, and rows of lookahead, a plan runs with
/// ([`ExecOptions::normalized`]).
const MAX_LANES: usize = 64;

/// Execution knobs for the physical operators, set catalog-wide with
/// [`Database::set_exec_options`] (or per query with [`Query::exec`])
/// and recorded on every compiled [`Plan`] so plans stay inspectable.
///
/// `threads == 1` (the default) is the sequential executor; `threads >
/// 1` routes the equality/range/join/group stages through the
/// partitioned operators on a scoped worker pool of exactly that many
/// workers; `threads == 0` means **adaptive**: each plan node picks its
/// own worker count at execution time from the number of probes/RIDs it
/// actually processes ([`ccindex_parallel::adaptive_threads`]), so tiny
/// inputs run inline and never pay the spawn overhead while large stages
/// still spread across every core, up to [`ExecOptions::normalized`]'s
/// cap. `lanes` is the interleave lane count
/// of the typed domain's batched descents — the operators' encodings,
/// range endpoints and join translations — and how many lines ahead a
/// ranked domain prefetches them; and, after the search, how many rows
/// ahead the operators prefetch: RID runs, the join's outer IDs, and the
/// group and measure IDs a grouping folds. Degenerate values
/// (0, or more lanes than probes) fall back to sequential descent.
/// `shards` is carried on the wire but read by no catalog: a sharded
/// catalog's shard count is its partitioner's.
///
/// Nothing is read from the environment: a [`Database`] starts at
/// [`ExecOptions::default`], and a caller that wants anything else sets
/// it. Every entry bounds what it is given ([`ExecOptions::normalized`]).
///
/// Every thread count answers byte-identically: chunks concatenate in
/// input order, aggregate merges are commutative, and domain-ID order is
/// value order.
///
/// ```
/// use css_tree::FullCssTree;
/// use mmdb::{between, sum, Database, ExecOptions, IndexKind, TableBuilder};
///
/// let mut db = Database::new();
/// db.register(
///     TableBuilder::new("sales")
///         .int_column("cust", [1, 2, 1, 3])
///         .int_column("amount", [10, 40, 25, 99])
///         .build()?,
/// )?;
/// db.create_index("sales", "amount", IndexKind::FullCss)?;
///
/// // Catalog-wide: every query compiled from now on partitions its
/// // equality/range/join/group stages across 8 workers.
/// db.set_exec_options(ExecOptions {
///     threads: 8,
///     lanes: 8,
///     ..ExecOptions::default()
/// });
/// let plan = db
///     .query("sales")
///     .filter(between("amount", 20, 100))
///     .group_by("cust", sum("amount"))
///     .plan()?;
/// assert!(plan.explain().contains("[x8 threads]")); // inspectable
/// let groups = plan.execute(&db)?.groups().to_vec(); // same rows as threads = 1
/// assert_eq!(groups.len(), 3);
///
/// // Or per query, leaving the catalog sequential.
/// db.set_exec_options(ExecOptions::default());
/// let same = db
///     .query("sales")
///     .filter(between("amount", 20, 100))
///     .group_by("cust", sum("amount"))
///     .exec(ExecOptions::threads(8))
///     .run()?;
/// assert_eq!(same.groups(), groups);
///
/// // The trees expose the partitioned descent directly.
/// let keys: Vec<u32> = (0..100_000).collect();
/// let css = FullCssTree::<u32, 16>::build(&keys);
/// let probes: Vec<u32> = (0..10_000u32).map(|i| i * 31 % 120_000).collect();
/// let par = css.lower_bound_batch_par(&probes, 8, 8); // 8 lanes x 8 threads
/// assert_eq!(par, css.lower_bound_batch_lanes(&probes, 8));
/// # Ok::<(), mmdb::MmdbError>(())
/// ```
///
/// [`Database`]: crate::Database
/// [`Database::set_exec_options`]: crate::Database::set_exec_options
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for the partitioned operators (`1` sequential,
    /// `0` adaptive per node).
    pub threads: usize,
    /// Interleave lanes per batched domain descent, and the operators'
    /// gather lookahead in rows: both keep `lanes` misses in flight.
    pub lanes: usize,
    /// Unread by every catalog (minimum 1); the wire still carries it.
    pub shards: usize,
}

impl Default for ExecOptions {
    /// Sequential, unsharded execution at the default lane count.
    fn default() -> Self {
        Self {
            threads: 1,
            lanes: DEFAULT_BATCH_LANES,
            shards: 1,
        }
    }
}

impl ExecOptions {
    /// Partitioned execution across `threads` workers (`0` = adaptive
    /// per node) at the default lane count.
    pub fn threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Apply the knobs' bounds consistently. `lanes` and `shards` are
    /// raised to at least 1 (`lanes == 0` and `lanes == 1` both mean a
    /// sequential descent, and a catalog needs at least one shard);
    /// `threads` keeps `0`, the documented *adaptive* sentinel. `threads`
    /// and `lanes` are capped at 64 each, and a plan resolves adaptive
    /// under the same cap, so the worst a request can ask for is 64 OS
    /// threads and 64 domain-sized group partials, with 64 rows of
    /// lookahead. (A serving window's pool reads `0` as one worker per
    /// core.) Every entry applies it:
    /// [`Database::set_exec_options`](crate::Database::set_exec_options)
    /// and the sharded catalog's, a per-query override at compile, and
    /// the wire decoder. It changes no answer, since every thread and
    /// lane count answers byte-identically.
    pub fn normalized(self) -> Self {
        Self {
            threads: self.threads.min(MAX_THREADS),
            lanes: self.lanes.clamp(1, MAX_LANES),
            shards: self.shards.max(1),
        }
    }

    /// Whether this configuration partitions work across workers.
    pub fn is_parallel(&self) -> bool {
        self.threads != 1
    }
}

/// Parse rule for an integer deployment knob (the remote shards'
/// `CCINDEX_SHARD_TIMEOUT_MS`): absent stays absent, surrounding
/// whitespace is tolerated, anything else must be a base-10 unsigned
/// integer.
pub fn parse_knob(name: &str, raw: Option<String>) -> Result<Option<usize>> {
    match raw {
        None => Ok(None),
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map(Some)
            .map_err(|_| MmdbError::InvalidExecOption {
                name: name.to_owned(),
                value: v,
            }),
    }
}

/// Resolve a plan's recorded thread count against the work it is about
/// to do: `0` ("auto") adapts to the item count so small inputs run
/// inline, at most [`ExecOptions::normalized`]'s cap; anything else is
/// used as given.
fn resolve_threads(threads: usize, items: usize) -> usize {
    if threads == 0 {
        ccindex_parallel::adaptive_threads(items).min(MAX_THREADS)
    } else {
        threads
    }
}

// ---------------------------------------------------------------------
// Builder vocabulary
// ---------------------------------------------------------------------

/// Equality predicate: `column = value`.
pub fn eq(column: &str, value: impl Into<Value>) -> Predicate {
    Predicate {
        column: column.to_owned(),
        op: PredOp::Eq(value.into()),
    }
}

/// Inclusive range predicate: `lo <= column <= hi`.
pub fn between(column: &str, lo: impl Into<Value>, hi: impl Into<Value>) -> Predicate {
    Predicate {
        column: column.to_owned(),
        op: PredOp::Between(lo.into(), hi.into()),
    }
}

/// Join condition: `outer_column = inner_column`.
pub fn on(outer_column: &str, inner_column: &str) -> JoinOn {
    JoinOn {
        outer: outer_column.to_owned(),
        inner: inner_column.to_owned(),
    }
}

/// `COUNT(*)` per group.
pub fn count() -> Agg {
    Agg::Count
}

/// `SUM(column)` per group.
pub fn sum(column: &str) -> Agg {
    Agg::Sum(column.to_owned())
}

/// `MIN(column)` per group.
pub fn min(column: &str) -> Agg {
    Agg::Min(column.to_owned())
}

/// `MAX(column)` per group.
pub fn max(column: &str) -> Agg {
    Agg::Max(column.to_owned())
}

/// One conjunct of a query's WHERE clause (built by [`eq`]/[`between`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    column: String,
    op: PredOp,
}

#[derive(Debug, Clone, PartialEq)]
enum PredOp {
    Eq(Value),
    Between(Value, Value),
}

impl PredOp {
    /// The index probe this comparison compiles to.
    fn probe(&self) -> Probe {
        match self {
            PredOp::Eq(v) => Probe::Point(v.clone()),
            PredOp::Between(lo, hi) => Probe::Range(lo.clone(), hi.clone()),
        }
    }
}

/// A borrowed view of a predicate's shape, for layers that need to
/// inspect or re-encode one (shard routing, the wire format) without
/// reaching into the private representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredicateOp<'a> {
    /// `column = value`.
    Eq(&'a Value),
    /// `lo <= column <= hi`, inclusive.
    Between(&'a Value, &'a Value),
}

impl Predicate {
    /// The column this conjunct constrains.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The comparison this conjunct applies, as a borrowed view.
    pub fn op(&self) -> PredicateOp<'_> {
        match &self.op {
            PredOp::Eq(v) => PredicateOp::Eq(v),
            PredOp::Between(lo, hi) => PredicateOp::Between(lo, hi),
        }
    }
}

/// An equi-join condition (built by [`on`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOn {
    outer: String,
    inner: String,
}

impl JoinOn {
    /// The join column on the outer (driving) table.
    pub fn outer(&self) -> &str {
        &self.outer
    }

    /// The join column on the inner (indexed) table — what a sharding
    /// layer compares against the inner table's shard key to decide
    /// bucketed vs fanned join routing.
    pub fn inner(&self) -> &str {
        &self.inner
    }
}

/// An aggregate over the grouped rows (built by [`count`]/[`sum`]/
/// [`min`]/[`max`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Agg {
    /// Row count per group.
    Count,
    /// Sum of the named integer measure column.
    Sum(String),
    /// Minimum of the named integer measure column.
    Min(String),
    /// Maximum of the named integer measure column.
    Max(String),
}

impl Agg {
    fn fn_and_measure(&self) -> (AggFn, Option<&str>) {
        match self {
            Agg::Count => (AggFn::Count, None),
            Agg::Sum(m) => (AggFn::Sum, Some(m)),
            Agg::Min(m) => (AggFn::Min, Some(m)),
            Agg::Max(m) => (AggFn::Max, Some(m)),
        }
    }
}

// ---------------------------------------------------------------------
// The query description and its builders
// ---------------------------------------------------------------------

/// The one owned query description: what a [`Query`] builder collects,
/// what the serving layer queues, what the shard layer routes and what
/// the wire protocol encodes. It borrows nothing, so it crosses threads
/// and sockets freely and resolves against a catalog only when
/// [`CatalogRead::compile`] (or [`CatalogRead::run_spec`]) runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuerySpec {
    /// The driving (outer) table.
    pub table: String,
    /// WHERE conjuncts, in call order.
    pub filters: Vec<Predicate>,
    /// Optional join: inner table and the equi-join condition.
    pub join: Option<(String, JoinOn)>,
    /// Optional grouped aggregation: group column and aggregate.
    pub group: Option<(String, Agg)>,
    /// Optional required index kind (`using`): checked at compile time,
    /// not recorded in the plan.
    pub forced_kind: Option<IndexKind>,
    /// Optional per-query override of the catalog's [`ExecOptions`].
    pub exec: Option<ExecOptions>,
}

impl QuerySpec {
    /// A query over `table`, initially selecting every row.
    pub fn table(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            ..Self::default()
        }
    }

    /// Add a conjunct; multiple filters AND together. The filter with the
    /// shortest run of RIDs drives, and its rows are tested against the
    /// others' domain-ID intervals.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.filters.push(predicate);
        self
    }

    /// Indexed nested-loop join against `inner_table` (the filtered rows
    /// of this query's table stream through the inner column's index).
    pub fn join(mut self, inner_table: &str, condition: JoinOn) -> Self {
        self.join = Some((inner_table.to_owned(), condition));
        self
    }

    /// Group the result (join output if a join is present, else the
    /// selected rows) by `column` and aggregate each group. The column
    /// and any measure may come from either side of a join.
    pub fn group_by(mut self, column: &str, agg: Agg) -> Self {
        self.group = Some((column.to_owned(), agg));
        self
    }

    /// Require `kind` to be declared on every probed column: a check
    /// [`CatalogRead::compile`] makes, not a choice. Every kind answers
    /// through the column's one RID list, so the plan is the one the
    /// query compiles to without it, and it records no kind. An
    /// undeclared kind is [`MmdbError::IndexNotBuilt`], and a range
    /// filter under the (unordered) hash kind is
    /// [`MmdbError::NoOrderedIndex`].
    pub fn using(mut self, kind: IndexKind) -> Self {
        self.forced_kind = Some(kind);
        self
    }

    /// Override the catalog's [`ExecOptions`] for this query alone —
    /// e.g. `.exec(ExecOptions::threads(8))` to partition its stages
    /// across 8 workers regardless of
    /// [`Database::set_exec_options`](crate::Database::set_exec_options).
    pub fn exec(mut self, options: ExecOptions) -> Self {
        self.exec = Some(options);
        self
    }
}

/// One client request to a serving front-end (`ccindex-serve`'s
/// `BatchServer`, locally or across the wire), answered with
/// [`ResultRows`].
///
/// Point and range probes are the coalescible shapes: requests for the
/// same `table.column` arriving in one batch-formation window merge into
/// a *single* batched domain search
/// ([`CatalogRead::point_probe_batch`]/[`CatalogRead::range_probe_batch`]). Full [`QuerySpec`]s execute as
/// independent jobs over the shared worker pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Equality probe: all RIDs where `table.column == value`.
    Point {
        /// Probed table.
        table: String,
        /// Probed (indexed) column.
        column: String,
        /// The probe constant.
        value: Value,
    },
    /// Inclusive range probe: all RIDs where `lo <= table.column <= hi`
    /// (requires an ordered index; an inverted range matches nothing).
    Range {
        /// Probed table.
        table: String,
        /// Probed (ordered-indexed) column.
        column: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// A full query-builder plan (selection/join/group-by).
    Query(QuerySpec),
}

impl Request {
    /// Equality probe on `table.column`.
    pub fn point(table: &str, column: &str, value: impl Into<Value>) -> Self {
        Request::Point {
            table: table.to_owned(),
            column: column.to_owned(),
            value: value.into(),
        }
    }

    /// Inclusive range probe on `table.column`.
    pub fn range(table: &str, column: &str, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Request::Range {
            table: table.to_owned(),
            column: column.to_owned(),
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// A full composed query.
    pub fn query(spec: QuerySpec) -> Self {
        Request::Query(spec)
    }
}

impl From<QuerySpec> for Request {
    fn from(spec: QuerySpec) -> Self {
        Request::Query(spec)
    }
}

/// A [`QuerySpec`] under construction against one catalog generation —
/// a [`CatalogState`] by default, or any other [`CatalogRead`] such as
/// the sharded catalog's composed state — started by the generation's
/// `query` ([`CatalogState::query`]): the builder methods are the spec's
/// own. Nothing resolves until [`Query::plan`] or [`Query::run`], so
/// builders can be assembled freely and fail with a typed error naming
/// the offender.
#[derive(Debug, Clone)]
pub struct Query<'c, C: ?Sized = CatalogState> {
    cat: &'c C,
    spec: QuerySpec,
}

impl<'c, C: CatalogRead + ?Sized> Query<'c, C> {
    /// A query over `table`, initially selecting every row, against
    /// `cat`.
    pub fn new(cat: &'c C, table: impl Into<String>) -> Self {
        Self {
            cat,
            spec: QuerySpec::table(table),
        }
    }

    /// [`QuerySpec::filter`].
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.spec = self.spec.filter(predicate);
        self
    }

    /// [`QuerySpec::join`].
    pub fn join(mut self, inner_table: &str, condition: JoinOn) -> Self {
        self.spec = self.spec.join(inner_table, condition);
        self
    }

    /// [`QuerySpec::group_by`].
    pub fn group_by(mut self, column: &str, agg: Agg) -> Self {
        self.spec = self.spec.group_by(column, agg);
        self
    }

    /// [`QuerySpec::using`]: require `kind` on every probed column, a
    /// check made when the query compiles that chooses nothing and is
    /// not recorded in the plan.
    pub fn using(mut self, kind: IndexKind) -> Self {
        self.spec = self.spec.using(kind);
        self
    }

    /// [`QuerySpec::exec`].
    pub fn exec(mut self, options: ExecOptions) -> Self {
        self.spec = self.spec.exec(options);
        self
    }

    /// Compile into a [`Plan`] ([`CatalogRead::compile`]).
    pub fn plan(&self) -> Result<Plan> {
        self.cat.compile(&self.spec)
    }

    /// Compile and execute.
    pub fn run(&self) -> Result<ResultSet<'c, C>> {
        self.cat.execute(&self.plan()?)
    }
}

/// What the planner reads of a catalog — names, row counts, declared
/// index kinds and measure typing, never a row — so that the one planner,
/// [`compile`], serves every catalog and every catalog's errors come in
/// one order. A [`CatalogState`] answers from its entries; the sharded
/// catalog answers from the schema its coordinator keeps, so compiling a
/// sharded query asks no shard anything.
pub trait Schema {
    /// The rows one copy of a plan's body runs over — the table's own, or
    /// one shard's (shard 0's) in a sharded catalog — which the plan's
    /// `rows_hint`s record; [`MmdbError::UnknownTable`] when `table` is
    /// not registered.
    fn rows(&self, table: &str) -> Result<usize>;

    /// Whether the registered table `table` has a column `column`.
    fn has_column(&self, table: &str, column: &str) -> bool;

    /// The kinds declared on `table.column`; `None` when it has none.
    fn kinds(&self, table: &str, column: &str) -> Option<&BTreeSet<IndexKind>>;

    /// Whether every value of `table.column` is an `Int` (an aggregate
    /// measure must be).
    fn is_int(&self, table: &str, column: &str) -> bool;
}

impl Schema for CatalogState {
    fn rows(&self, table: &str) -> Result<usize> {
        Ok(self.entry(table)?.table.rows())
    }

    fn has_column(&self, table: &str, column: &str) -> bool {
        self.column(table, column).is_ok()
    }

    fn kinds(&self, table: &str, column: &str) -> Option<&BTreeSet<IndexKind>> {
        Some(&self.entry(table).ok()?.columns.get(column)?.kinds)
    }

    fn is_int(&self, table: &str, column: &str) -> bool {
        self.column(table, column)
            .is_ok_and(|col| col.domain().is_int())
    }
}

/// `table.column` exists: [`MmdbError::UnknownTable`], then
/// [`MmdbError::UnknownColumn`].
fn check_column<S: Schema + ?Sized>(schema: &S, table: &str, column: &str) -> Result<()> {
    schema.rows(table)?;
    match schema.has_column(table, column) {
        true => Ok(()),
        false => Err(MmdbError::UnknownColumn {
            table: table.to_owned(),
            column: column.to_owned(),
        }),
    }
}

/// Check that `table.column` can answer a probe: the column exists and is
/// indexed ([`MmdbError::NoIndex`]), a range has an ordered kind declared
/// there ([`MmdbError::NoOrderedIndex`]), and a `forced` kind is declared
/// there ([`MmdbError::IndexNotBuilt`]; `NoOrderedIndex` when a range
/// forces the unordered hash kind). Every declared kind answers through
/// the column's one RID list, so the check chooses nothing.
pub fn check_index<S: Schema + ?Sized>(
    schema: &S,
    table: &str,
    column: &str,
    ranged: bool,
    forced: Option<IndexKind>,
) -> Result<()> {
    // Kinds are declared only on a column that exists, so the existence
    // checks (and their errors, first) are needed only without them.
    let Some(kinds) = schema.kinds(table, column) else {
        check_column(schema, table, column)?;
        return Err(MmdbError::NoIndex {
            table: table.to_owned(),
            column: column.to_owned(),
        });
    };
    let unordered = || MmdbError::NoOrderedIndex {
        table: table.to_owned(),
        column: column.to_owned(),
    };
    match forced {
        Some(kind) if ranged && !kind.is_ordered() => Err(unordered()),
        Some(kind) if !kinds.contains(&kind) => Err(MmdbError::IndexNotBuilt {
            table: table.to_owned(),
            column: column.to_owned(),
            kind,
        }),
        None if ranged && !kinds.iter().any(IndexKind::is_ordered) => Err(unordered()),
        _ => Ok(()),
    }
}

/// Which relation of a (possibly joined) query a column belongs to:
/// searched outer-first, so a name present on both sides binds to the
/// query's own table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The query's own table.
    Outer,
    /// The joined inner table.
    Inner,
}

fn resolve_side<S: Schema + ?Sized>(
    schema: &S,
    outer: &str,
    inner: Option<&str>,
    column: &str,
) -> Result<Side> {
    if schema.has_column(outer, column) {
        return Ok(Side::Outer);
    }
    if inner.is_some_and(|inner| schema.has_column(inner, column)) {
        return Ok(Side::Inner);
    }
    Err(MmdbError::UnknownColumn {
        table: outer.to_owned(),
        column: column.to_owned(),
    })
}

/// The one planner: compile `spec` against `schema` under the catalog's
/// `exec` options (a spec's own override wins) — resolve every name,
/// check each probed column's index, and check that a measure is
/// integer-valued. The plan's [`Routing`] is left unsharded; a sharded
/// catalog records its own.
pub fn compile<S: Schema + ?Sized>(
    schema: &S,
    exec: ExecOptions,
    spec: &QuerySpec,
) -> Result<Plan> {
    let outer = &spec.table;
    // The planner's upper bound on the items a chunkable node can
    // process (the driving table's row count): what an adaptive
    // (`threads == 0`) node's worker count resolves against when the
    // plan is *explained* rather than executed.
    let outer_rows = schema.rows(outer)?;
    let exec = spec.exec.map_or(exec, ExecOptions::normalized);

    let mut probes = Vec::with_capacity(spec.filters.len());
    for p in &spec.filters {
        let ranged = matches!(p.op, PredOp::Between(..));
        check_index(schema, outer, &p.column, ranged, spec.forced_kind)?;
        probes.push(ProbeStep {
            column: p.column.clone(),
            probe: p.op.probe(),
        });
    }

    let join = match &spec.join {
        None => None,
        Some((inner_table, cond)) => {
            check_column(schema, outer, &cond.outer)?;
            check_index(schema, inner_table, &cond.inner, false, spec.forced_kind)?;
            Some(JoinStep {
                inner_table: inner_table.clone(),
                outer_column: cond.outer.clone(),
                inner_column: cond.inner.clone(),
                rows_hint: outer_rows,
            })
        }
    };

    let group = match &spec.group {
        None => None,
        Some((column, agg)) => {
            let inner = join.as_ref().map(|j| j.inner_table.as_str());
            let side = resolve_side(schema, outer, inner, column)?;
            let (agg, measure) = agg.fn_and_measure();
            let measure = match measure {
                None => None,
                Some(m) => {
                    let side = resolve_side(schema, outer, inner, m)?;
                    let table = match side {
                        Side::Outer => outer.as_str(),
                        Side::Inner => inner.unwrap_or(outer),
                    };
                    // The executor's own measure check, made here so a
                    // bad measure fails at compile time.
                    if !schema.is_int(table, m) {
                        return Err(MmdbError::NonIntegerMeasure {
                            table: table.to_owned(),
                            column: m.to_owned(),
                        });
                    }
                    Some((m.to_owned(), side))
                }
            };
            Some(GroupStep {
                column: column.clone(),
                side,
                agg,
                measure,
                rows_hint: outer_rows,
            })
        }
    };

    Ok(Plan {
        table: outer.clone(),
        probes,
        join,
        group,
        exec,
        routing: Routing::default(),
    })
}

// ---------------------------------------------------------------------
// The physical plan
// ---------------------------------------------------------------------

/// A compiled physical plan: fully resolved probes, join, and grouping,
/// plus where they run. Inspect with [`Plan::explain`], execute with
/// [`Plan::execute`].
///
/// Both catalogs compile to this one type. A [`CatalogState`] leaves
/// [`Plan::routing`] at [`Routing::default`] and runs the body in place.
/// The sharded catalog fills the routing in: the body is then what each
/// routed shard runs, and the routing is an exchange at the plan's root.
/// Only two distributed shapes exist — the exchange at the root, or an
/// outer exchange feeding a coordinator join whose inner side is a
/// second exchange — so the routing is a field, not a plan node, and
/// how the replies merge (RID sets, join rows or groups) follows from
/// the body's shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// The outer (driving) table.
    pub table: String,
    /// One index probe per filter; empty means every row qualifies.
    pub probes: Vec<ProbeStep>,
    /// The join, if any.
    pub join: Option<JoinStep>,
    /// The grouping, if any.
    pub group: Option<GroupStep>,
    /// The execution options the plan was compiled under; every node
    /// below records the thread count it was assigned from these.
    pub exec: ExecOptions,
    /// Where the body runs: nowhere but here for a `Database` plan, the
    /// routed shards for a sharded one.
    pub routing: Routing,
}

/// The exchange at a sharded plan's root: which shards each stage
/// scatters to, recorded at compile time and shown by [`Plan::explain`].
/// The default — zero shards — is an unsharded plan, and allocates
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Routing {
    /// Shard count of the catalog the plan was compiled against (`0`:
    /// not sharded).
    pub shards: usize,
    /// The partitioner's description (`hash x4`, `range x2: …`).
    pub partitioner: String,
    /// The outer table's shard-key column.
    pub shard_key: String,
    /// Per probe step: pruned or fanned.
    pub probe_targets: Vec<ShardTargets>,
    /// The final scatter set (intersection of every pruning), ascending.
    pub selected: Vec<usize>,
    /// Join scatter mode, when the plan joins.
    pub join: Option<JoinRouting>,
}

impl Routing {
    /// Whether a plan routed like this may run on a catalog that routes
    /// its body `here` — only the same routing may. Otherwise the plan
    /// was compiled for another catalog shape (another shard count,
    /// partitioner or shard key, or sharded against unsharded), and the
    /// answer is the typed refusal that says to recompile, never rows
    /// routed to the wrong shards.
    pub fn check(&self, here: &Routing) -> Result<()> {
        match self == here {
            true => Ok(()),
            false => Err(MmdbError::Unsupported {
                what: format!(
                    "plan was compiled for another catalog shape: routed {self:?}, but this \
                     catalog routes its body {here:?}; recompile the query"
                ),
            }),
        }
    }
}

/// Which shards one probe step can touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardTargets {
    /// No pruning possible: the probe fans to every shard.
    All,
    /// Pruned to the listed shards (possibly empty: no shard can match).
    Pruned(Vec<usize>),
}

/// How a join scatters across the inner table's shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinRouting {
    /// The join column is the inner table's shard key, so each outer row
    /// has one inner shard that can hold its matches. When the outer
    /// join column is the outer table's shard key too, that shard is the
    /// row's own (the join is co-located and runs inside each shard);
    /// otherwise the coordinator buckets each outer shard's probe batch
    /// by owning inner shard (original probe order restored on merge).
    Bucketed,
    /// The join column is not the inner shard key: every outer shard's
    /// probe batch fans to every inner shard.
    Fanned,
}

/// One resolved filter probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStep {
    /// Probed column of the outer table.
    pub column: String,
    /// The probe itself.
    pub probe: Probe,
}

/// What a [`ProbeStep`] asks its index.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Equality probe.
    Point(Value),
    /// Inclusive range probe (requires an ordered kind declared on the
    /// column).
    Range(Value, Value),
}

/// A resolved indexed nested-loop join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// The inner (indexed) relation.
    pub inner_table: String,
    /// Join column on the outer table.
    pub outer_column: String,
    /// Join column on the inner table (must be indexed).
    pub inner_column: String,
    /// The planner's upper bound on the outer stream length (the driving
    /// table's row count). The outer RID stream partitions across the
    /// plan's `exec.threads`; an adaptive plan (`0`) resolves against the
    /// *actual* RID count at execution, and [`Plan::explain`] against
    /// this hint, so the rendered text reports a concrete worker count
    /// instead of the raw `0` knob.
    pub rows_hint: usize,
}

/// A resolved grouped aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStep {
    /// Group-by column.
    pub column: String,
    /// Which relation the group-by column lives on.
    pub side: Side,
    /// The aggregate function.
    pub agg: AggFn,
    /// Measure column and its side (`None` for `Count`).
    pub measure: Option<(String, Side)>,
    /// The planner's upper bound on the grouped row count (the driving
    /// table's row count; a join can multiply it, but the hint only
    /// feeds [`Plan::explain`]'s adaptive rendering — execution resolves
    /// against the actual row count).
    pub rows_hint: usize,
}

impl GroupStep {
    /// This step's measure on `cat`, through [`Measure::resolve`]: the
    /// column is looked up on the side the planner bound it to.
    fn measure_on<'db>(
        &self,
        cat: &'db CatalogState,
        outer: &str,
        inner: Option<&str>,
    ) -> Result<Measure<'db>> {
        let column = match &self.measure {
            None => None,
            Some((m, side)) => {
                let table = match side {
                    Side::Outer => outer,
                    Side::Inner => inner.unwrap_or(outer),
                };
                Some((table, m.as_str(), side_column(cat, outer, inner, m, *side)?))
            }
        };
        Measure::resolve(self.agg, column)
    }
}

/// Wall-clock nanoseconds per executed plan node, stamped by
/// [`Plan::execute`] and carried on the [`ResultSet`]
/// ([`ResultSet::timings`]). Render next to the plan text with
/// [`Plan::explain_timed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanTimings {
    /// One entry per [`ProbeStep`], in plan order: resolving the probe's
    /// index, encoding its literals into an ID interval and locating its
    /// run. The driving probe's entry also holds materialising its run
    /// and testing every other filter against it.
    pub probe_ns: Vec<u64>,
    /// Which probe drove the selection; `None` without filters, or when
    /// a filter's interval was empty and no run was read.
    pub driving: Option<DrivingRun>,
    /// The join node, when the plan has one.
    pub join_ns: Option<u64>,
    /// The grouped-aggregation node, when the plan has one.
    pub group_ns: Option<u64>,
    /// End-to-end execution, including result assembly.
    pub total_ns: u64,
}

/// The probe whose run drove a selection — the shortest — and what its
/// run fed the residual test of the other filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrivingRun {
    /// Index into [`Plan::probes`].
    pub probe: usize,
    /// RIDs in the driving run.
    pub fed: usize,
    /// RIDs that passed every other filter.
    pub kept: usize,
}

impl Plan {
    /// Whether the plan runs whole wherever it is routed — in place for
    /// a `Database` plan, one request per routed shard for a sharded one
    /// — as every plan does except a sharded join that is not
    /// co-located.
    pub fn is_shard_local(&self) -> bool {
        self.coordinator_join().is_none()
    }

    /// The join a sharded plan streams through the coordinator, if any:
    /// one that is **not** co-located. A join is co-located when it is
    /// routed [`JoinRouting::Bucketed`] (the inner join column is the
    /// inner table's shard key) *and* the outer join column is the outer
    /// table's shard key — one partitioner places every table, so equal
    /// keys share a shard and each shard can join its own rows.
    pub fn coordinator_join(&self) -> Option<&JoinStep> {
        let r = &self.routing;
        let streamed = |j: &&JoinStep| match r.join {
            Some(JoinRouting::Bucketed) => j.outer_column != r.shard_key,
            Some(JoinRouting::Fanned) => true,
            None => false,
        };
        self.join.as_ref().filter(streamed)
    }

    /// A human-readable rendering of the plan, one step per line
    /// (parallel stages carry a `[xN threads]` suffix so the chosen
    /// parallelism is inspectable). An adaptive node (`threads == 0`)
    /// reports the worker count it *resolves* to for the node's
    /// planner-estimated item count — `[x4 threads (adaptive)]`, never a
    /// raw `x0` — through the same capped
    /// [`ccindex_parallel::adaptive_threads`] the executor applies to the
    /// actual counts. A sharded
    /// plan renders its routing first (scatter set per stage, pruned vs
    /// fanned join, execution and merge mode), then the per-shard plan
    /// indented beneath it.
    pub fn explain(&self) -> String {
        self.render(None)
    }

    /// [`Plan::explain`] with each executed node's wall-clock time
    /// appended (`.. 12.3µs`), from the [`PlanTimings`] a
    /// [`ResultSet`] carries, plus a trailing `total:` line. Nodes the
    /// timings don't cover (e.g. a stale `PlanTimings::default()`)
    /// render untimed, exactly as in `explain()`; a sharded plan's
    /// timings cover the exchange as a whole, so its per-shard plan
    /// renders untimed above the `total:` line.
    pub fn explain_timed(&self, timings: &PlanTimings) -> String {
        self.render(Some(timings))
    }

    fn render(&self, timings: Option<&PlanTimings>) -> String {
        if self.routing.shards == 0 {
            return self.render_body(timings);
        }
        let mut out = self.render_routing();
        out.push_str("\nper-shard plan:\n  ");
        out.push_str(&self.render_body(None).replace('\n', "\n  "));
        if let Some(t) = timings {
            out.push_str(&format!("\ntotal: {}", ccindex_obs::format_ns(t.total_ns)));
        }
        out
    }

    fn render_routing(&self) -> String {
        let r = &self.routing;
        let set = |s: &[usize]| {
            let items: Vec<String> = s.iter().map(usize::to_string).collect();
            format!("{{{}}}", items.join(", "))
        };
        let mut out = format!(
            "scatter {} across {} shard(s) ({} on {})",
            self.table, r.shards, r.partitioner, r.shard_key
        );
        for (step, target) in self.probes.iter().zip(&r.probe_targets) {
            let to = match target {
                ShardTargets::All => "all shards (fanned)".to_owned(),
                ShardTargets::Pruned(s) => format!("shards {} (pruned)", set(s)),
            };
            out += &format!("\n  probe {} -> {to}", step.column);
        }
        out += &match r.selected.len() == r.shards {
            true => "\n  scatter set: all shards".to_owned(),
            false => format!("\n  scatter set: {}", set(&r.selected)),
        };
        if let (Some(j), Some(mode)) = (&self.join, r.join) {
            out += &match mode {
                JoinRouting::Bucketed => format!(
                    "\n  join {}: outer probe batches bucketed by inner shard key {}",
                    j.inner_table, j.inner_column
                ),
                JoinRouting::Fanned => format!(
                    "\n  join {}: outer RID chunks fanned to all {} inner shard(s)",
                    j.inner_table, r.shards
                ),
            };
            if self.is_shard_local() {
                let key = &r.shard_key;
                out += &format!(" — co-located on outer shard key {key}, joined inside each shard");
            }
        }
        let run = match self.is_shard_local() {
            true => "shard-local — the whole plan on each routed shard, one request per shard",
            false => "join streamed through the coordinator (not co-located)",
        };
        let gather = match (&self.group, &self.join) {
            (Some(_), _) => "per-shard partial aggregates by group value",
            (None, Some(_)) => "join rows in (outer, inner) global order",
            (None, None) => "RID sets in global row order",
        };
        out + &format!("\n  run: {run}\n  gather: merge {gather}")
    }

    fn render_body(&self, timings: Option<&PlanTimings>) -> String {
        let stamp = |ns: Option<u64>| match ns {
            Some(n) => format!(" .. {}", ccindex_obs::format_ns(n)),
            None => String::new(),
        };
        let par = |rows_hint: usize| match self.exec.threads {
            1 => String::new(),
            0 => format!(" [x{} threads (adaptive)]", resolve_threads(0, rows_hint)),
            n => format!(" [x{n} threads]"),
        };
        let mut out = format!("scan {}", self.table);
        if self.probes.is_empty() {
            out.push_str(" (all rows)");
        }
        for (i, p) in self.probes.iter().enumerate() {
            let timed = stamp(timings.and_then(|t| t.probe_ns.get(i).copied()));
            let drove = match timings.and_then(|t| t.driving) {
                Some(d) if d.probe == i => format!(" drove {} rows -> {}", d.fed, d.kept),
                _ => String::new(),
            };
            match &p.probe {
                Probe::Point(v) => {
                    out.push_str(&format!("\n  probe {} = {}{drove}{timed}", p.column, v));
                }
                Probe::Range(lo, hi) => {
                    out.push_str(&format!(
                        "\n  probe {} in [{}, {}]{drove}{timed}",
                        p.column, lo, hi
                    ));
                }
            }
        }
        if self.probes.len() > 1 {
            out.push_str(&format!(
                "\n  and {} filters: the shortest run drives, the others test its rows' IDs",
                self.probes.len()
            ));
        }
        if let Some(j) = &self.join {
            out.push_str(&format!(
                "\n  join {} on {} = {}{}{}",
                j.inner_table,
                j.outer_column,
                j.inner_column,
                par(j.rows_hint),
                stamp(timings.and_then(|t| t.join_ns))
            ));
        }
        if let Some(g) = &self.group {
            let measure = g
                .measure
                .as_ref()
                .map_or_else(|| "*".to_owned(), |(m, _)| m.clone());
            out.push_str(&format!(
                "\n  group by {} ({:?} over {}){}{}",
                g.column,
                g.agg,
                measure,
                par(g.rows_hint),
                stamp(timings.and_then(|t| t.group_ns))
            ));
        }
        if self.exec.is_parallel() {
            let workers = if self.exec.threads == 0 {
                "adaptive worker(s), resolved per node".to_owned()
            } else {
                format!("{} worker(s)", self.exec.threads)
            };
            out.push_str(&format!(
                "\n  exec: {workers}, {} interleave lane(s)",
                self.exec.lanes
            ));
        }
        if let Some(t) = timings {
            out.push_str(&format!(
                "\n  total: {}",
                ccindex_obs::format_ns(t.total_ns)
            ));
        }
        out
    }

    /// Execute against one catalog generation, normally the one the plan
    /// was compiled against: anything that derefs to a [`CatalogRead`] —
    /// a [`Database`](crate::Database)'s tip or a pinned
    /// [`Snapshot`](crate::snapshot::Snapshot) (a [`CatalogState`]), or
    /// the sharded catalog and its snapshots — so `plan.execute(&db)`
    /// and `plan.execute(&snapshot)` both compile. Names re-resolve, and
    /// a plan routed for another catalog shape is refused, so a stale
    /// plan fails with a typed error rather than undefined behaviour.
    pub fn execute<'c, C: CatalogRead + ?Sized>(
        &self,
        cat: &'c impl std::ops::Deref<Target = C>,
    ) -> Result<ResultSet<'c, C>> {
        C::execute(cat, self)
    }

    /// The in-place executor behind [`CatalogState`]'s
    /// [`CatalogRead::execute`].
    fn run<'c>(&self, cat: &'c CatalogState) -> Result<ResultSet<'c>> {
        let started = std::time::Instant::now();
        let mut timings = PlanTimings::default();

        // 1. Selection. `None` means "all rows" (no filters), kept
        //    symbolic so group-only queries iterate 0..n without an
        //    allocation; a join or a bare selection materialises it once.
        let selected = if self.probes.is_empty() {
            None
        } else {
            Some(self.select(cat, &mut timings)?)
        };

        // 2. Join: stream the selected outer rows through the inner
        //    column's RID list, addressed by translated domain ID.
        let joining = std::time::Instant::now();
        let joined: Option<Vec<JoinRow>> = match &self.join {
            None => None,
            Some(j) => {
                let outer_col = cat.column(&self.table, &j.outer_column)?;
                let inner_col = cat.column(&j.inner_table, &j.inner_column)?;
                let inner_rids = cat.rid_list(&j.inner_table, &j.inner_column)?;
                let all_rids: Vec<u32>;
                let outer_rids: &[u32] = match &selected {
                    Some(rids) => rids,
                    None => {
                        all_rids = (0..cat.table(&self.table)?.rows() as u32).collect();
                        &all_rids
                    }
                };
                Some(indexed_nested_loop_join(
                    outer_col,
                    outer_rids,
                    inner_col,
                    inner_rids,
                    self.exec.lanes,
                    resolve_threads(self.exec.threads, outer_rids.len()),
                ))
            }
        };
        if joined.is_some() {
            timings.join_ns = Some(elapsed_ns(&joining));
        }

        // 3. Grouped aggregation over whichever rows survived.
        let grouping = std::time::Instant::now();
        if let Some(g) = &self.group {
            let inner = self.join.as_ref().map(|j| j.inner_table.as_str());
            let group_col = side_column(cat, &self.table, inner, &g.column, g.side)?;
            let measure = g.measure_on(cat, &self.table, inner)?;
            let pick = |row: &JoinRow, side: Side| match side {
                Side::Outer => row.outer_rid,
                Side::Inner => row.inner_rid,
            };
            // One call per row source, each read in place (no pair
            // vector) with its thread count resolved against the source's
            // own row count (`0` = adaptive). A joined or selected row's
            // group and measure IDs sit at scattered RIDs, so each source
            // asks for the lines `lanes` rows ahead of the one it reads.
            let threads = |rows| resolve_threads(self.exec.threads, rows);
            let (agg, lanes) = (g.agg, self.exec.lanes);
            let groups = match (&joined, &selected) {
                (Some(rows), _) => {
                    let measure_side = g.measure.as_ref().map_or(g.side, |(_, s)| *s);
                    let pair = |i: usize| {
                        if let Some(ahead) = rows.get(i + lanes) {
                            group_col.prefetch_id(pick(ahead, g.side));
                            measure.prefetch(pick(ahead, measure_side));
                        }
                        let row = &rows[i];
                        (pick(row, g.side), measure.at(pick(row, measure_side)))
                    };
                    group_aggregate_pairs(group_col, rows.len(), pair, agg, threads(rows.len()))
                }
                (None, Some(rids)) => {
                    let pair = |i: usize| {
                        if let Some(&ahead) = rids.get(i + lanes) {
                            group_col.prefetch_id(ahead);
                            measure.prefetch(ahead);
                        }
                        (rids[i], measure.at(rids[i]))
                    };
                    group_aggregate_pairs(group_col, rids.len(), pair, agg, threads(rids.len()))
                }
                (None, None) => {
                    let rows = cat.table(&self.table)?.rows();
                    let pair = |i: usize| (i as u32, measure.at(i as u32));
                    group_aggregate_pairs(group_col, rows, pair, agg, threads(rows))
                }
            };
            timings.group_ns = Some(elapsed_ns(&grouping));
            timings.total_ns = elapsed_ns(&started);
            return Ok(ResultSet::new(
                cat,
                self,
                ResultRows::Groups(groups),
                timings,
            ));
        }

        let rows = match joined {
            Some(rows) => ResultRows::Joined(rows),
            None => ResultRows::Rids(match selected {
                Some(rids) => rids,
                None => (0..cat.table(&self.table)?.rows() as u32).collect(),
            }),
        };
        timings.total_ns = elapsed_ns(&started);
        Ok(ResultSet::new(cat, self, rows, timings))
    }

    /// The selection: the RIDs that pass every filter (the plan has at
    /// least one), ascending unless the plan groups them.
    ///
    /// The domain is kept in value order (§2.1), so every filter is an
    /// inclusive interval of domain IDs and — addressed, not searched —
    /// one run of its column's sorted RID list. The shortest run
    /// drives: only its RIDs are materialised, and each is kept when its
    /// in-place ID on every other filter's column lies in that filter's
    /// interval. A run spanning several IDs is in `(ID, RID)` order, and
    /// is sorted by RID only when the plan returns rows: a grouped plan
    /// folds it as it comes, since every [`AggFn`] is commutative and
    /// associative (the same property that lets `threads > 1` fold in
    /// partition order). Every step resolves before any literal is read,
    /// so a stale plan fails with the same typed error whatever its
    /// constants.
    fn select(&self, cat: &CatalogState, timings: &mut PlanTimings) -> Result<Vec<u32>> {
        let mut filters = Vec::with_capacity(self.probes.len());
        for step in &self.probes {
            let resolving = std::time::Instant::now();
            filters.push(self.resolve_probe(cat, step)?);
            timings.probe_ns.push(elapsed_ns(&resolving));
        }

        // (column IDs, ID interval, run) per filter; one empty interval
        // empties the conjunction.
        let mut located = Vec::with_capacity(filters.len());
        for ((step, &(col, rid_list)), ns) in
            self.probes.iter().zip(&filters).zip(&mut timings.probe_ns)
        {
            let locating = std::time::Instant::now();
            let interval = match &step.probe {
                Probe::Point(v) => col.domain().encode(v).map(|id| (id, id)),
                Probe::Range(lo, hi) => col.domain().id_range(lo, hi),
            };
            let Some((lo, hi)) = interval else {
                return Ok(Vec::new());
            };
            located.push((col.ids(), lo..=hi, rid_list.run(lo, hi)));
            *ns += elapsed_ns(&locating);
        }

        let driving = std::time::Instant::now();
        let shortest = (0..located.len())
            .min_by_key(|&i| located[i].2.len())
            .expect("a selection has at least one filter");
        // What is left in `located` is the residual filters.
        let (_, driving_ids, run) = located.swap_remove(shortest);
        let mut rids = run.to_vec();
        rids.retain(|&rid| {
            located
                .iter()
                .all(|(col_ids, ids, _)| ids.contains(&col_ids[rid as usize]))
        });
        // A run spanning several IDs is ordered by (ID, RID); only rows
        // returned need RID order, not a fold.
        if self.group.is_none() && driving_ids.start() != driving_ids.end() {
            rids.sort_unstable();
        }
        timings.probe_ns[shortest] += elapsed_ns(&driving);
        timings.driving = Some(DrivingRun {
            probe: shortest,
            fed: run.len(),
            kept: rids.len(),
        });
        Ok(rids)
    }

    /// One filter's column and sorted RID list, with the typed error a
    /// stale plan meets: the column or its index is gone, or a range's
    /// column has no ordered kind left.
    fn resolve_probe<'c>(
        &self,
        cat: &'c CatalogState,
        step: &ProbeStep,
    ) -> Result<(&'c Column, &'c RidList)> {
        let col = cat.column(&self.table, &step.column)?;
        let ranged = matches!(step.probe, Probe::Range(..));
        check_index(cat, &self.table, &step.column, ranged, None)?;
        Ok((col, cat.rid_list(&self.table, &step.column)?))
    }
}

// ---------------------------------------------------------------------
// The read surface: probe batches and owned-spec execution
// ---------------------------------------------------------------------

/// The read surface of a catalog generation — what the one [`Query`]
/// builder and [`ResultSet`] run on, and what a serving front-end
/// (`ccindex-serve`'s `BatchServer`) needs from whatever it fronts.
/// Implemented by the two generation types, [`CatalogState`] here and
/// the sharded catalog's `ShardedState`; a [`Pinned`] guard of either
/// forwards to its state, so snapshots serve the same surface.
///
/// `Sync` because a window's coalesced jobs run on pool workers against
/// one shared generation.
pub trait CatalogRead: Sync {
    /// The [`ExecOptions`] in force when this generation committed;
    /// plans compiled against the generation inherit them.
    fn exec_options(&self) -> ExecOptions;

    /// Answer many equality probes on one `table.column` with a single
    /// probes-only sub-plan: one index check (the one a
    /// [`Query::filter`]`(`[`eq`]`)` compiles through), one batched
    /// domain encoding over all the values, and each
    /// encoded ID's run of the column's RID list, addressed by the ID,
    /// partitioned across workers when the catalog's [`ExecOptions`]
    /// allow (`threads == 0` adapts to the probe count). Returns one ascending RID set per value, in submission
    /// order — element `i` is byte-identical to
    /// `query(table).filter(eq(column, values[i])).run()?.rids()`.
    ///
    /// This is the engine hook a batch-forming serving front-end
    /// coalesces concurrent point requests into — usually through a
    /// pinned [`Snapshot`](crate::snapshot::Snapshot), so a whole
    /// batch-formation window answers from one generation with zero
    /// locks on the probe path.
    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>>;

    /// Answer many inclusive range probes on one `table.column` with a
    /// single probes-only sub-plan, once the column declares an ordered
    /// kind (typed [`MmdbError::NoOrderedIndex`] when only hash is
    /// declared; the runs come from the column's one RID list whatever
    /// its kinds): every
    /// range contributes its two value endpoints to one batched domain
    /// `lower_bound`, and each resulting ID interval is one addressed
    /// run of the column's RID list. Returns one ascending RID set per
    /// range, in submission order — element `i` is byte-identical to
    /// `query(table).filter(between(column, lo, hi)).run()?.rids()`
    /// (an inverted range matches nothing, exactly like [`between`]).
    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>>;

    /// Compile `spec` against this generation: resolve every name, check
    /// each probed column's index, validate aggregate typing, and record
    /// the plan's [`Routing`].
    fn compile(&self, spec: &QuerySpec) -> Result<Plan>;

    /// Execute a plan against this generation (normally the one it was
    /// compiled against; names re-resolve, so a stale plan fails typed,
    /// and so does one whose [`Routing`] this generation would not
    /// give it — a plan compiled for another catalog shape).
    fn execute(&self, plan: &Plan) -> Result<ResultSet<'_, Self>>;

    /// Decoded values of `table.column` at `rids`, in `rids` order — what
    /// [`ResultSet::values`] reads each side of a result through. A RID
    /// past the table's end is a typed error.
    fn values_at(&self, table: &str, column: &str, rids: &[u32]) -> Result<Vec<Value>>;

    /// Compile and execute an owned [`QuerySpec`] against this
    /// generation.
    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        Ok(self.execute(&self.compile(spec)?)?.rows)
    }
}

impl<T: CatalogRead + Send> CatalogRead for Pinned<T> {
    fn exec_options(&self) -> ExecOptions {
        T::exec_options(self)
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        T::point_probe_batch(self, table, column, values)
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        T::range_probe_batch(self, table, column, ranges)
    }

    fn compile(&self, spec: &QuerySpec) -> Result<Plan> {
        T::compile(self, spec)
    }

    fn execute(&self, plan: &Plan) -> Result<ResultSet<'_, Self>> {
        let result = T::execute(self, plan)?;
        Ok(ResultSet {
            cat: self,
            outer_table: result.outer_table,
            inner_table: result.inner_table,
            rows: result.rows,
            timings: result.timings,
        })
    }

    fn values_at(&self, table: &str, column: &str, rids: &[u32]) -> Result<Vec<Value>> {
        T::values_at(self, table, column, rids)
    }
}

impl CatalogRead for CatalogState {
    fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        check_index(self, table, column, false, None)?;
        let col = self.column(table, column)?;
        let threads = resolve_threads(self.exec.threads, values.len());
        Ok(point_select_many(
            col,
            self.rid_list(table, column)?,
            values,
            self.exec.lanes,
            threads,
        ))
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        check_index(self, table, column, true, None)?;
        let col = self.column(table, column)?;
        let threads = resolve_threads(self.exec.threads, ranges.len());
        Ok(range_select_many(
            col,
            self.rid_list(table, column)?,
            ranges,
            self.exec.lanes,
            threads,
        ))
    }

    fn compile(&self, spec: &QuerySpec) -> Result<Plan> {
        compile(self, self.exec, spec)
    }

    /// Runs the plan in place; a sharded plan is refused, typed.
    fn execute(&self, plan: &Plan) -> Result<ResultSet<'_>> {
        plan.routing.check(&Routing::default())?;
        plan.run(self)
    }

    fn values_at(&self, table: &str, column: &str, rids: &[u32]) -> Result<Vec<Value>> {
        let col = self.column(table, column)?;
        let ids = rids
            .iter()
            .map(|&rid| {
                col.ids()
                    .get(rid as usize)
                    .copied()
                    .ok_or_else(|| MmdbError::rid_out_of_range(table, rid, col.len()))
            })
            .collect::<Result<Vec<u32>>>()?;
        Ok(col.domain().decode_batch(&ids))
    }
}

fn side_column<'db>(
    cat: &'db CatalogState,
    outer: &str,
    inner: Option<&str>,
    column: &str,
    side: Side,
) -> Result<&'db Column> {
    match side {
        Side::Outer => cat.column(outer, column),
        Side::Inner => {
            let inner = inner.ok_or_else(|| MmdbError::UnknownColumn {
                table: outer.to_owned(),
                column: column.to_owned(),
            })?;
            cat.column(inner, column)
        }
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// What a query produced. Shape follows the builder statically: plain
/// selections yield RIDs, joins yield RID pairs, grouped queries yield
/// group rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultRows {
    /// RIDs of the selected rows, ascending.
    Rids(Vec<u32>),
    /// Join output pairs, in outer-stream order.
    Joined(Vec<JoinRow>),
    /// Aggregated groups, in group-value order.
    Groups(Vec<GroupRow>),
}

impl ResultRows {
    /// The shape's name, for messages: `selection`, `join` or `grouped`.
    pub fn shape(&self) -> &'static str {
        match self {
            ResultRows::Rids(_) => "selection",
            ResultRows::Joined(_) => "join",
            ResultRows::Groups(_) => "grouped",
        }
    }
}

/// A query result bound to the catalog generation it ran against — a
/// [`CatalogState`] by default, or any other [`CatalogRead`] — so row
/// values can be decoded on demand ([`CatalogRead::values_at`], one
/// batched [`decode_batch`](crate::domain::Domain::decode_batch) per
/// column in process), even if the live catalog has committed newer
/// generations since.
#[derive(Debug, Clone)]
pub struct ResultSet<'c, C: ?Sized = CatalogState> {
    cat: &'c C,
    outer_table: String,
    inner_table: Option<String>,
    rows: ResultRows,
    timings: PlanTimings,
}

impl<'c, C: ?Sized> ResultSet<'c, C> {
    /// The `rows` a plan shaped like `plan` (its outer table and join)
    /// produced against `cat` — how an executor hands back its answer.
    pub fn new(cat: &'c C, plan: &Plan, rows: ResultRows, timings: PlanTimings) -> Self {
        Self {
            cat,
            outer_table: plan.table.clone(),
            inner_table: plan.join.as_ref().map(|j| j.inner_table.clone()),
            rows,
            timings,
        }
    }

    /// The rows, whatever their shape.
    pub fn rows(&self) -> &ResultRows {
        &self.rows
    }

    /// Wall-clock time per executed plan node — feed back into
    /// [`Plan::explain_timed`] to see where the query spent its time.
    pub fn timings(&self) -> &PlanTimings {
        &self.timings
    }

    /// Number of result rows (of whichever shape).
    pub fn len(&self) -> usize {
        match &self.rows {
            ResultRows::Rids(r) => r.len(),
            ResultRows::Joined(r) => r.len(),
            ResultRows::Groups(r) => r.len(),
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Selected RIDs, ascending. Panics if this result is join- or
    /// group-shaped (shape is statically determined by the builder).
    pub fn rids(&self) -> &[u32] {
        match &self.rows {
            ResultRows::Rids(r) => r,
            other => panic!("rids() on a {} result", other.shape()),
        }
    }

    /// Join output pairs. Panics unless this result came from a join
    /// without grouping.
    pub fn join_rows(&self) -> &[JoinRow] {
        match &self.rows {
            ResultRows::Joined(r) => r,
            other => panic!("join_rows() on a {} result", other.shape()),
        }
    }

    /// Aggregated groups. Panics unless the query had a `group_by`.
    pub fn groups(&self) -> &[GroupRow] {
        match &self.rows {
            ResultRows::Groups(r) => r,
            other => panic!("groups() on a {} result", other.shape()),
        }
    }
}

impl<C: CatalogRead + ?Sized> ResultSet<'_, C> {
    /// Decoded values of `column` for every result row. For join results
    /// the column may come from either side: the outer table binds first,
    /// and only an [`MmdbError::UnknownColumn`] there falls back to the
    /// inner table (any other error — a transport fault — surfaces). A
    /// column on neither side is `UnknownColumn` naming the outer table.
    /// Group results carry their decoded keys already — asking for
    /// per-row values there is an error.
    pub fn values(&self, column: &str) -> Result<Vec<Value>> {
        match &self.rows {
            ResultRows::Rids(rids) => self.cat.values_at(&self.outer_table, column, rids),
            ResultRows::Joined(rows) => {
                let outer: Vec<u32> = rows.iter().map(|r| r.outer_rid).collect();
                match (
                    self.cat.values_at(&self.outer_table, column, &outer),
                    &self.inner_table,
                ) {
                    (Err(MmdbError::UnknownColumn { .. }), Some(inner)) => {
                        let inner_rids: Vec<u32> = rows.iter().map(|r| r.inner_rid).collect();
                        self.cat
                            .values_at(inner, column, &inner_rids)
                            .map_err(|e| match e {
                                MmdbError::UnknownColumn { .. } => MmdbError::UnknownColumn {
                                    table: self.outer_table.clone(),
                                    column: column.to_owned(),
                                },
                                other => other,
                            })
                    }
                    (outer, _) => outer,
                }
            }
            ResultRows::Groups(_) => Err(MmdbError::Unsupported {
                what: "values() on a grouped result; group keys are already \
                       decoded in groups()"
                    .into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::table::TableBuilder;

    fn db() -> Database {
        let mut db = Database::new();
        db.register(
            TableBuilder::new("sales")
                .int_column("cust", [1, 2, 1, 3, 2, 1])
                .int_column("amount", [10, 40, 25, 99, 15, 25])
                .str_column("day", ["mon", "mon", "tue", "wed", "tue", "mon"])
                .build()
                .expect("equal columns"),
        )
        .unwrap();
        db.register(
            TableBuilder::new("customers")
                .int_column("id", [1, 2, 3])
                .str_column("region", ["east", "west", "east"])
                .build()
                .expect("equal columns"),
        )
        .unwrap();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        db.create_index("sales", "day", IndexKind::Hash).unwrap();
        db.create_index("sales", "day", IndexKind::BPlusTree)
            .unwrap();
        db.create_index("customers", "id", IndexKind::LevelCss)
            .unwrap();
        db
    }

    #[test]
    fn point_and_range_selections() {
        let db = db();
        let r = db.query("sales").filter(eq("day", "mon")).run().unwrap();
        assert_eq!(r.rids(), &[0, 1, 5]);
        let r = db
            .query("sales")
            .filter(between("amount", 20, 50))
            .run()
            .unwrap();
        assert_eq!(r.rids(), &[1, 2, 5]);
        // Unfiltered query: every row.
        assert_eq!(db.query("sales").run().unwrap().rids().len(), 6);
        // Value outside the domain: empty, not an error.
        assert!(db
            .query("sales")
            .filter(eq("day", "sun"))
            .run()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_plan_rebinds_to_any_spec_of_its_shape() {
        let db = db();
        let shape = QuerySpec::table("sales")
            .filter(eq("day", "mon"))
            .filter(between("amount", 20, 50))
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"));
        let other = QuerySpec::table("sales")
            .filter(eq("day", "tue"))
            .filter(between("amount", 0, 99))
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"));
        // Compilation never reads a literal: the two plans differ only in
        // their probe constants, each its own spec's.
        let (a, b) = (db.compile(&shape).unwrap(), db.compile(&other).unwrap());
        let without_probes = |plan: &Plan| Plan {
            probes: Vec::new(),
            ..plan.clone()
        };
        assert_eq!(without_probes(&a), without_probes(&b));
        for (plan, spec) in [(&a, &shape), (&b, &other)] {
            let constants: Vec<(&str, Probe)> = (spec.filters.iter())
                .map(|f| (f.column.as_str(), f.op.probe()))
                .collect();
            let steps: Vec<(&str, Probe)> = (plan.probes.iter())
                .map(|p| (p.column.as_str(), p.probe.clone()))
                .collect();
            assert_eq!(steps, constants);
        }
        assert_ne!(a.probes, b.probes);
    }

    #[test]
    fn conjunctions_drive_from_the_shortest_run() {
        let db = db();
        let r = db
            .query("sales")
            .filter(between("amount", 20, 100))
            .filter(eq("day", "mon"))
            .run()
            .unwrap();
        // mon rows {0,1,5} ∩ amount 20..=100 rows {1,2,3,5} = {1,5}.
        assert_eq!(r.rids(), &[1, 5]);
        let decoded = r.values("amount").unwrap();
        assert_eq!(decoded, vec![Value::Int(40), Value::Int(25)]);
        // The three-row `day` run drove; the four-row `amount` run was
        // located but never materialised.
        let driving = r.timings().driving;
        assert_eq!(
            driving,
            Some(DrivingRun {
                probe: 1,
                fed: 3,
                kept: 2
            })
        );
        // A driving range's run is (ID, RID)-ordered: the answer is sorted.
        let r = db
            .query("sales")
            .filter(between("amount", 10, 40))
            .filter(between("day", "mon", "tue"))
            .run()
            .unwrap();
        // amount 10..=40 rows {0,1,2,4,5}; mon..=tue rows {0,1,2,4,5}.
        assert_eq!(r.rids(), &[0, 1, 2, 4, 5]);
        assert_eq!(
            r.timings().driving.map(|d| d.probe),
            Some(0),
            "first on ties"
        );
        // One empty interval empties the conjunction before any run is read.
        let r = db
            .query("sales")
            .filter(eq("day", "mon"))
            .filter(between("amount", 41, 98))
            .run()
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(r.timings().driving, None);
        assert_eq!(r.timings().probe_ns.len(), 2);
    }

    /// `engine-mix`'s select: an equality on a many-valued column beside
    /// a wide band. The equality's short run must drive, and the band
    /// must cost two lower bounds, not a materialised RID set.
    #[test]
    fn a_narrow_equality_drives_a_wide_band() {
        let rows = 20_000i64;
        let mut db = Database::new();
        db.register(
            TableBuilder::new("orders")
                .int_column("cust", (0..rows).map(|r| (r * 7919) % 1000))
                .int_column("amount", (0..rows).map(|r| (r * 104_729) % 10_000))
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_index("orders", "cust", IndexKind::FullCss)
            .unwrap();
        db.create_index("orders", "amount", IndexKind::FullCss)
            .unwrap();
        let plan = db
            .query("orders")
            .filter(between("amount", 2_000, 2_999))
            .filter(eq("cust", 17))
            .plan()
            .unwrap();
        let r = plan.execute(&db).unwrap();
        let want: Vec<u32> = (0..rows as u32)
            .filter(|&r| {
                let r = i64::from(r);
                (r * 7919) % 1000 == 17 && (2_000..=2_999).contains(&((r * 104_729) % 10_000))
            })
            .collect();
        assert_eq!(r.rids(), want.as_slice());
        let driving = r
            .timings()
            .driving
            .expect("a filtered plan has a driving run");
        assert_eq!(
            (driving.probe, driving.fed, driving.kept),
            (1, 20, want.len())
        );
        let timed = plan.explain_timed(r.timings());
        let eq_line = timed
            .lines()
            .find(|l| l.contains("probe cust = 17"))
            .expect("the eq probe is rendered");
        assert!(
            eq_line.contains(&format!("drove 20 rows -> {}", want.len())),
            "{timed}"
        );
    }

    #[test]
    fn join_streams_filtered_rows() {
        let db = db();
        let r = db
            .query("sales")
            .filter(eq("day", "mon"))
            .join("customers", on("cust", "id"))
            .run()
            .unwrap();
        // mon rows: 0 (cust 1), 1 (cust 2), 5 (cust 1).
        let pairs: Vec<(u32, u32)> = r
            .join_rows()
            .iter()
            .map(|j| (j.outer_rid, j.inner_rid))
            .collect();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (5, 0)]);
        // Cross-side decode: region comes from the inner table.
        let regions = r.values("region").unwrap();
        assert_eq!(
            regions,
            vec!["east".into(), "west".into(), "east".into()] as Vec<Value>
        );
    }

    #[test]
    fn group_by_over_selection_join_and_whole_table() {
        let db = db();
        // Whole table, count per day.
        let r = db.query("sales").group_by("day", count()).run().unwrap();
        let counts: Vec<(String, i64)> = r
            .groups()
            .iter()
            .map(|g| (g.group.to_string(), g.value))
            .collect();
        assert_eq!(
            counts,
            vec![("mon".into(), 3), ("tue".into(), 2), ("wed".into(), 1)]
        );
        // Filtered sum.
        let r = db
            .query("sales")
            .filter(between("amount", 20, 100))
            .group_by("day", sum("amount"))
            .run()
            .unwrap();
        let sums: Vec<(String, i64)> = r
            .groups()
            .iter()
            .map(|g| (g.group.to_string(), g.value))
            .collect();
        assert_eq!(
            sums,
            vec![
                ("mon".into(), 65), // rids 1 (40) + 5 (25)
                ("tue".into(), 25), // rid 2
                ("wed".into(), 99), // rid 3
            ]
        );
        // Join then group by the inner table's region, summing the outer
        // measure — the ISSUE's flagship pipeline.
        let r = db
            .query("sales")
            .join("customers", on("cust", "id"))
            .group_by("region", sum("amount"))
            .run()
            .unwrap();
        let sums: Vec<(String, i64)> = r
            .groups()
            .iter()
            .map(|g| (g.group.to_string(), g.value))
            .collect();
        // east = cust 1 (10+25+25) + cust 3 (99); west = cust 2 (40+15).
        assert_eq!(sums, vec![("east".into(), 159), ("west".into(), 55)]);
        // min/max too.
        let r = db
            .query("sales")
            .group_by("cust", super::max("amount"))
            .run()
            .unwrap();
        assert_eq!(r.groups()[0].value, 25); // cust 1: max(10, 25, 25)
        let r = db
            .query("sales")
            .group_by("cust", super::min("amount"))
            .run()
            .unwrap();
        assert_eq!(r.groups()[2].value, 99); // cust 3: only 99
    }

    #[test]
    fn using_forces_the_access_path_and_plans_explain() {
        let db = db();
        let plan = db
            .query("sales")
            .filter(eq("day", "mon"))
            .filter(between("amount", 20, 50))
            .join("customers", on("cust", "id"))
            .group_by("region", count())
            .plan()
            .unwrap();
        let text = plan.explain();
        assert!(
            text.contains("and 2 filters: the shortest run drives"),
            "{text}"
        );
        assert!(text.contains("join customers"), "{text}");
        assert!(text.contains("group by region"), "{text}");

        // A declared kind compiles to the plan the query has without it...
        let day = || db.query("sales").filter(eq("day", "mon"));
        let forced = day().using(IndexKind::BPlusTree).plan().unwrap();
        assert_eq!(forced, day().plan().unwrap());
        // ... and an undeclared or unordered one is a typed error.
        assert_eq!(
            db.query("sales")
                .filter(eq("day", "mon"))
                .using(IndexKind::TTree)
                .plan()
                .unwrap_err(),
            MmdbError::IndexNotBuilt {
                table: "sales".into(),
                column: "day".into(),
                kind: IndexKind::TTree
            }
        );
        assert_eq!(
            db.query("sales")
                .filter(between("amount", 1, 2))
                .using(IndexKind::Hash)
                .plan()
                .unwrap_err(),
            MmdbError::NoOrderedIndex {
                table: "sales".into(),
                column: "amount".into()
            }
        );
    }

    #[test]
    fn executed_plans_stamp_per_node_timings() {
        let db = db();
        let plan = db
            .query("sales")
            .filter(eq("day", "mon"))
            .filter(between("amount", 20, 50))
            .join("customers", on("cust", "id"))
            .group_by("region", count())
            .plan()
            .unwrap();
        let result = plan.execute(&db).unwrap();
        let timings = result.timings();
        assert_eq!(timings.probe_ns.len(), plan.probes.len());
        assert!(timings.join_ns.is_some());
        assert!(timings.group_ns.is_some());
        assert!(timings.total_ns > 0);

        // The `day = mon` and `amount in [20, 50]` runs hold 3 rows
        // each: the first of equals drives.
        assert_eq!(
            timings.driving,
            Some(DrivingRun {
                probe: 0,
                fed: 3,
                kept: 2
            })
        );

        // The timed rendering carries one ` .. <duration>` suffix per
        // executed node plus a trailing total, and names the driving run
        // on its probe's line; the untimed rendering is unchanged.
        let timed = plan.explain_timed(timings);
        assert_eq!(timed.matches(" .. ").count(), 4, "{timed}");
        assert!(timed.contains("\n  total: "), "{timed}");
        assert!(
            timed.contains("probe day = mon drove 3 rows -> 2 .. "),
            "{timed}"
        );
        assert_eq!(timed.matches("drove").count(), 1, "{timed}");
        let text = plan.explain();
        assert!(!text.contains(" .. ") && !text.contains("drove"), "{text}");

        // A selection-only query times its probes but no join/group.
        let plan = db.query("sales").filter(eq("day", "mon")).plan().unwrap();
        let timings = plan.execute(&db).unwrap().timings().clone();
        assert_eq!(timings.probe_ns.len(), 1);
        assert_eq!(timings.driving.map(|d| (d.fed, d.kept)), Some((3, 3)));
        assert_eq!(timings.join_ns, None);
        assert_eq!(timings.group_ns, None);
        // No filters, no driving run.
        let timings = db.query("sales").run().unwrap().timings().clone();
        assert_eq!(timings.driving, None);
    }

    #[test]
    fn exec_options_partition_without_changing_results() {
        let mut db = db();
        let queries = |db: &Database| -> Vec<ResultRows> {
            [
                db.query("sales").filter(eq("day", "mon")).run().unwrap(),
                db.query("sales")
                    .filter(between("amount", 20, 50))
                    .run()
                    .unwrap(),
                db.query("sales")
                    .filter(eq("day", "mon"))
                    .join("customers", on("cust", "id"))
                    .run()
                    .unwrap(),
                db.query("sales")
                    .join("customers", on("cust", "id"))
                    .group_by("region", sum("amount"))
                    .run()
                    .unwrap(),
                db.query("sales").group_by("day", count()).run().unwrap(),
            ]
            .into_iter()
            .map(|r| r.rows().clone())
            .collect()
        };
        let sequential = queries(&db);
        for threads in [0usize, 2, 8] {
            db.set_exec_options(ExecOptions::threads(threads));
            assert_eq!(queries(&db), sequential, "threads={threads}");
        }
        // Per-query override beats the catalog default, and the plan
        // records the chosen parallelism for inspection.
        db.set_exec_options(ExecOptions::default());
        let plan = db
            .query("sales")
            .filter(between("amount", 20, 50))
            .group_by("day", count())
            .exec(ExecOptions {
                threads: 8,
                lanes: 4,
                ..ExecOptions::default()
            })
            .plan()
            .unwrap();
        assert_eq!(plan.exec.threads, 8);
        let text = plan.explain();
        assert!(text.contains("[x8 threads]"), "{text}");
        assert!(
            text.contains("exec: 8 worker(s), 4 interleave lane(s)"),
            "{text}"
        );
        // Sequential plans stay visually unchanged.
        let text = db
            .query("sales")
            .filter(eq("day", "mon"))
            .plan()
            .unwrap()
            .explain();
        assert!(!text.contains("threads"), "{text}");
    }

    #[test]
    fn typed_errors_name_the_offender() {
        let db = db();
        assert_eq!(
            db.query("sale").run().unwrap_err(),
            MmdbError::UnknownTable {
                table: "sale".into()
            }
        );
        assert_eq!(
            db.query("sales")
                .filter(eq("dya", "mon"))
                .run()
                .unwrap_err(),
            MmdbError::UnknownColumn {
                table: "sales".into(),
                column: "dya".into()
            }
        );
        // cust exists but is unindexed.
        assert_eq!(
            db.query("sales").filter(eq("cust", 1)).run().unwrap_err(),
            MmdbError::NoIndex {
                table: "sales".into(),
                column: "cust".into()
            }
        );
        // Range over a hash-only column.
        let mut db2 = Database::new();
        db2.register(
            TableBuilder::new("t")
                .int_column("v", [1, 2, 3])
                .build()
                .unwrap(),
        )
        .unwrap();
        db2.create_index("t", "v", IndexKind::Hash).unwrap();
        assert_eq!(
            db2.query("t").filter(between("v", 1, 2)).run().unwrap_err(),
            MmdbError::NoOrderedIndex {
                table: "t".into(),
                column: "v".into()
            }
        );
        // Non-integer measure.
        assert_eq!(
            db.query("sales")
                .group_by("cust", sum("day"))
                .run()
                .unwrap_err(),
            MmdbError::NonIntegerMeasure {
                table: "sales".into(),
                column: "day".into()
            }
        );
        // values() on groups is unsupported, with a message.
        let r = db.query("sales").group_by("day", count()).run().unwrap();
        assert!(matches!(
            r.values("day").unwrap_err(),
            MmdbError::Unsupported { .. }
        ));
    }

    /// A grouped plan compiled while its measure held integers, executed
    /// after the column was replaced by strings, fails with the typed
    /// error a fresh compile gives (it used to panic in the executor).
    #[test]
    fn a_stale_grouped_plan_fails_typed_like_a_fresh_compile() {
        let mut db = db();
        let spec = QuerySpec::table("sales").group_by("cust", sum("amount"));
        let plan = db.compile(&spec).unwrap();
        let days: Vec<Value> = ["a", "b", "c", "d", "e", "f"].map(Value::from).into();
        db.replace_column("sales", "amount", days).unwrap();
        let want = MmdbError::NonIntegerMeasure {
            table: "sales".into(),
            column: "amount".into(),
        };
        assert_eq!(plan.execute(&db).unwrap_err(), want);
        assert_eq!(db.compile(&spec).unwrap_err(), want);
    }

    #[test]
    fn join_condition_accessors() {
        let j = on("cust", "id");
        assert_eq!((j.outer(), j.inner()), ("cust", "id"));
    }

    #[test]
    fn exec_options_default_is_unsharded_sequential() {
        let opts = ExecOptions::default();
        assert_eq!((opts.threads, opts.shards), (1, 1));
        assert!(!opts.is_parallel());
        // A fresh catalog starts at the default, whatever the process
        // environment holds.
        assert_eq!(crate::Database::new().exec_options(), opts);
        assert_eq!(opts.normalized(), opts, "the default is in bounds");
        // Adaptive resolution: explicit counts pass through, 0 adapts.
        assert_eq!(resolve_threads(4, 10), 4);
        assert_eq!(resolve_threads(0, 10), 1, "tiny inputs run inline");
        assert!(resolve_threads(0, 10_000_000) >= 1);
    }

    #[test]
    fn knob_parsing_is_strict_and_floors_are_consistent() {
        // The parse rule behind the remote shards' deadline knob, tested
        // without touching process environment state: unset falls back,
        // whitespace is tolerated, garbage is a typed error naming the
        // offender.
        let knob = "CCINDEX_SHARD_TIMEOUT_MS";
        assert_eq!(parse_knob(knob, None).unwrap(), None);
        assert_eq!(parse_knob(knob, Some(" 8 ".into())).unwrap(), Some(8));
        assert_eq!(
            parse_knob(knob, Some("abc".into())).unwrap_err(),
            MmdbError::InvalidExecOption {
                name: knob.into(),
                value: "abc".into()
            }
        );
        assert!(parse_knob(knob, Some("-3".into())).is_err());
        assert!(parse_knob(knob, Some("1.5".into())).is_err());
        assert!(parse_knob(knob, Some(String::new())).is_err());
        // The floor treatment is uniform: lanes and shards raise 0 to 1
        // (both 0-forms are degenerate aliases of 1), while threads
        // keeps 0 — the adaptive sentinel is meaningful, not degenerate.
        let n = ExecOptions {
            threads: 0,
            lanes: 0,
            shards: 0,
        }
        .normalized();
        assert_eq!((n.threads, n.lanes, n.shards), (0, 1, 1));
        let kept = ExecOptions {
            threads: 4,
            lanes: 16,
            shards: 2,
        };
        assert_eq!(kept.normalized(), kept, "non-degenerate knobs pass through");
        // Threads and lanes are capped, so no request can ask for more
        // OS threads or group partials than the caps.
        let capped = ExecOptions {
            threads: 100_000,
            lanes: usize::MAX,
            shards: usize::MAX,
        }
        .normalized();
        assert_eq!((capped.threads, capped.lanes), (MAX_THREADS, MAX_LANES));
        assert_eq!(capped.shards, usize::MAX, "shards has no reader to bound");
        // Every catalog entry applies the rule.
        let mut db = crate::Database::new();
        db.set_exec_options(ExecOptions {
            threads: usize::MAX,
            lanes: 0,
            shards: 0,
        });
        let applied = db.exec_options();
        assert_eq!((applied.threads, applied.lanes, applied.shards), (64, 1, 1));
    }

    #[test]
    fn probe_batches_match_per_request_queries() {
        let db = db();
        // Point probes (hash-resolved) incl. duplicates and misses.
        let values: Vec<Value> = ["mon", "tue", "sun", "mon"]
            .iter()
            .map(|&d| Value::from(d))
            .collect();
        let batch = db.point_probe_batch("sales", "day", &values).unwrap();
        for (v, rids) in values.iter().zip(&batch) {
            let one = db
                .query("sales")
                .filter(eq("day", v.clone()))
                .run()
                .unwrap();
            assert_eq!(rids, one.rids(), "value {v}");
        }
        // Range probes (ordered index) incl. empty and inverted ranges.
        let ranges: Vec<(Value, Value)> = [(20i64, 50i64), (1, 5), (50, 20)]
            .iter()
            .map(|&(lo, hi)| (Value::Int(lo), Value::Int(hi)))
            .collect();
        let batch = db.range_probe_batch("sales", "amount", &ranges).unwrap();
        for ((lo, hi), rids) in ranges.iter().zip(&batch) {
            let one = db
                .query("sales")
                .filter(between("amount", lo.clone(), hi.clone()))
                .run()
                .unwrap();
            assert_eq!(rids, one.rids(), "range [{lo}, {hi}]");
        }
        // Empty batches are empty answers, not errors.
        assert!(db
            .point_probe_batch("sales", "day", &[])
            .unwrap()
            .is_empty());
        // Typed failures match the query path's.
        assert_eq!(
            db.point_probe_batch("sales", "cust", &[Value::Int(1)])
                .unwrap_err(),
            MmdbError::NoIndex {
                table: "sales".into(),
                column: "cust".into()
            }
        );
        // Ranges over a hash-only column fail typed, like `between`.
        let mut db2 = Database::new();
        db2.register(
            TableBuilder::new("t")
                .int_column("v", [1, 2, 3])
                .build()
                .unwrap(),
        )
        .unwrap();
        db2.create_index("t", "v", IndexKind::Hash).unwrap();
        assert_eq!(
            db2.range_probe_batch("t", "v", &[(Value::Int(1), Value::Int(2))])
                .unwrap_err(),
            MmdbError::NoOrderedIndex {
                table: "t".into(),
                column: "v".into()
            }
        );
    }

    /// `point_probe_batch` does not sort: a value's RIDs are one ID's run
    /// of the stable (ID, RID)-ordered list, and every kind returns the
    /// run's leftmost position.
    #[test]
    fn point_probe_batches_are_ascending_for_every_kind() {
        // 3,000 rows over 13 values, each value's rows scattered.
        let vals: Vec<i64> = (0..3_000i64).map(|r| (r * 7) % 13).collect();
        let values: Vec<Value> = (-1..15).map(Value::Int).collect();
        for kind in IndexKind::ALL {
            let mut db = Database::new();
            db.register(
                TableBuilder::new("t")
                    .int_column("v", vals.iter().copied())
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db.create_index("t", "v", kind).unwrap();
            let batch = db.point_probe_batch("t", "v", &values).unwrap();
            for (v, rids) in values.iter().zip(&batch) {
                let want: Vec<u32> = (0u32..)
                    .zip(&vals)
                    .filter(|&(_, &x)| Value::Int(x) == *v)
                    .map(|(rid, _)| rid)
                    .collect();
                assert_eq!(rids, &want, "{kind:?} {v}");
            }
        }
    }

    #[test]
    fn adaptive_plans_execute_and_explain() {
        let db = db();
        let plan = db
            .query("sales")
            .filter(between("amount", 20, 50))
            .group_by("day", count())
            .exec(ExecOptions::threads(0))
            .plan()
            .unwrap();
        assert_eq!(plan.exec.threads, 0);
        // The rendered text reports the worker count the adaptive node
        // resolves to for the planner's row estimate — never a raw `x0`.
        let g = plan.group.as_ref().unwrap();
        assert_eq!(g.rows_hint, 6, "driving table rows");
        let resolved = resolve_threads(0, g.rows_hint);
        let text = plan.explain();
        assert!(
            text.contains(&format!("[x{resolved} threads (adaptive)]")),
            "{text}"
        );
        assert!(!text.contains("x0"), "{text}");
        assert!(
            text.contains("adaptive worker(s), resolved per node"),
            "{text}"
        );
        // Same rows as the sequential plan.
        let adaptive = plan.execute(&db).unwrap();
        let sequential = db
            .query("sales")
            .filter(between("amount", 20, 50))
            .group_by("day", count())
            .run()
            .unwrap();
        assert_eq!(adaptive.rows(), sequential.rows());
    }
}
