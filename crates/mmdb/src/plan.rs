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
//! composed state, whose plan type scatter-gathers across shards. So
//! there is one builder, one result type and one `values()` rule for
//! every deployment shape.
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

// ---------------------------------------------------------------------
// Execution options
// ---------------------------------------------------------------------

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
/// still spread across every core. `lanes` is the interleave lane count
/// of the typed domain's batched descents — the operators' encodings,
/// range endpoints and join translations; degenerate values (0, or more
/// lanes than probes) fall back to sequential descent. `shards` is read by the
/// sharded catalog layer (`ccindex-shard`): how many shards a
/// `ShardedDatabase` built "from the environment" partitions each table
/// across (plain [`Database`]s ignore it).
///
/// [`Database`]: crate::Database
/// [`Database::set_exec_options`]: crate::Database::set_exec_options
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for the partitioned operators (`1` sequential,
    /// `0` adaptive per node).
    pub threads: usize,
    /// Interleave lanes per batched domain descent.
    pub lanes: usize,
    /// Shard count for environment-constructed sharded catalogs
    /// (minimum 1; plain catalogs ignore it).
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

    /// Read the knobs from the environment, failing loudly: an **unset**
    /// variable falls back to the [`ExecOptions::default`] value, but a
    /// set-yet-unparsable one (`CCINDEX_THREADS=abc`) is a typed
    /// [`MmdbError::InvalidExecOption`] naming the variable and its
    /// value — a misconfigured CI run should fail, not silently execute
    /// with defaults. Parsed values are normalised by
    /// [`ExecOptions::normalized`].
    pub fn try_from_env() -> Result<Self> {
        Ok(Self {
            threads: env_knob("CCINDEX_THREADS")?.unwrap_or(Self::default().threads),
            lanes: env_knob("CCINDEX_LANES")?.unwrap_or(Self::default().lanes),
            shards: env_knob("CCINDEX_SHARDS")?.unwrap_or(Self::default().shards),
        }
        .normalized())
    }

    /// The infallible twin of [`ExecOptions::try_from_env`]: what
    /// [`Database::new`](crate::Database::new) uses, so a whole test
    /// suite or service can be switched to partitioned execution
    /// without a code change (CI runs the tests with
    /// `CCINDEX_THREADS=8`, `CCINDEX_SHARDS=4`, `CCINDEX_BATCH_MAX=16`
    /// and `CCINDEX_LANES=3`). An unparsable variable no longer falls
    /// back *silently*: the typed error is logged to stderr, and only
    /// the offending knob takes its default — the other, correctly-set
    /// knobs keep their configured values.
    pub fn from_env() -> Self {
        let default = Self::default();
        Self {
            threads: env_knob_lenient("CCINDEX_THREADS").unwrap_or(default.threads),
            lanes: env_knob_lenient("CCINDEX_LANES").unwrap_or(default.lanes),
            shards: env_knob_lenient("CCINDEX_SHARDS").unwrap_or(default.shards),
        }
        .normalized()
    }

    /// Apply the knobs' floors consistently: `lanes` and `shards` are
    /// raised to at least 1 (`lanes == 0` and `lanes == 1` both mean a
    /// sequential descent, and a catalog needs at least one shard, so
    /// the floor is a pure normalisation). `threads` is deliberately
    /// exempt — `0` is the documented *adaptive* sentinel, not a
    /// degenerate value.
    pub fn normalized(self) -> Self {
        Self {
            threads: self.threads,
            lanes: self.lanes.max(1),
            shards: self.shards.max(1),
        }
    }

    /// Whether this configuration partitions work across workers.
    pub fn is_parallel(&self) -> bool {
        self.threads != 1
    }
}

/// One environment knob: `Ok(None)` when unset, `Ok(Some(v))` when it
/// parses, and a typed [`MmdbError::InvalidExecOption`] otherwise. The
/// env read and the parse are split so the parse rule is unit-testable
/// without mutating process-wide environment state.
fn env_knob(name: &'static str) -> Result<Option<usize>> {
    parse_knob(name, std::env::var(name).ok())
}

/// [`env_knob`] for the infallible `from_env` paths: an unparsable knob
/// logs its typed error to stderr and reads as unset, so only the
/// offending variable falls back to its default.
pub(crate) fn env_knob_lenient(name: &'static str) -> Option<usize> {
    env_knob(name).unwrap_or_else(|e| {
        eprintln!("ccindex: {e}; using the default for {name}");
        None
    })
}

/// Parse rule shared by every `CCINDEX_*` integer knob (including the
/// serving layer's `CCINDEX_BATCH_*` pair): absent stays absent,
/// surrounding whitespace is tolerated, anything else must be a base-10
/// unsigned integer.
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

/// Resolve a plan node's recorded thread count against the work it is
/// about to do: `0` ("auto") adapts to the item count so small inputs
/// run inline, anything else is used as given.
fn resolve_threads(threads: usize, items: usize) -> usize {
    if threads == 0 {
        ccindex_parallel::adaptive_threads(items)
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
    /// Optional forced index kind (`using`).
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

    /// Force every probe in this query through one [`IndexKind`] instead
    /// of the catalog's preference order. The kind must be built on each
    /// probed column, and range filters reject the (unordered) hash kind.
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

    /// Whether `other` is this query with different literals: the same
    /// table, filter columns and comparison kinds (in call order), join,
    /// grouping, forced kind and exec override — everything
    /// [`CatalogRead::compile`] reads. Two specs of one shape compile
    /// (against one generation) into plans that differ only in their
    /// probe constants, which [`Plan::bind_literals`] patches — what
    /// lets a coordinator compile a shape once and reuse the plan.
    pub fn same_shape(&self, other: &QuerySpec) -> bool {
        self.table == other.table
            && self.join == other.join
            && self.group == other.group
            && self.forced_kind == other.forced_kind
            && self.exec == other.exec
            && self.filters.len() == other.filters.len()
            && self.filters.iter().zip(&other.filters).all(|(a, b)| {
                a.column == b.column
                    && matches!(
                        (&a.op, &b.op),
                        (PredOp::Eq(_), PredOp::Eq(_)) | (PredOp::Between(..), PredOp::Between(..))
                    )
            })
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

    /// [`QuerySpec::using`].
    pub fn using(mut self, kind: IndexKind) -> Self {
        self.spec = self.spec.using(kind);
        self
    }

    /// [`QuerySpec::exec`].
    pub fn exec(mut self, options: ExecOptions) -> Self {
        self.spec = self.spec.exec(options);
        self
    }

    /// Compile into the catalog's plan type ([`CatalogRead::compile`]).
    pub fn plan(&self) -> Result<C::Plan> {
        self.cat.compile(&self.spec)
    }

    /// Compile and execute.
    pub fn run(&self) -> Result<ResultSet<'c, C>> {
        self.cat.execute(&self.plan()?)
    }
}

/// Pick an access path for a probe on `table.column`: the forced kind if
/// any (validated), else the first registered kind in the applicable
/// preference order.
fn resolve_kind(
    cat: &CatalogState,
    table: &str,
    column: &str,
    ordered_required: bool,
    forced: Option<IndexKind>,
) -> Result<IndexKind> {
    let entry = cat.column_entry(table, column)?;
    if let Some(kind) = forced {
        if ordered_required && !kind.is_ordered() {
            return Err(MmdbError::NoOrderedIndex {
                table: table.to_owned(),
                column: column.to_owned(),
            });
        }
        if !entry.kinds.contains(&kind) {
            return Err(MmdbError::IndexNotBuilt {
                table: table.to_owned(),
                column: column.to_owned(),
                kind,
            });
        }
        return Ok(kind);
    }
    let preference: &[IndexKind] = if ordered_required {
        &IndexKind::ORDERED_PREFERENCE
    } else {
        &IndexKind::POINT_PREFERENCE
    };
    preference
        .iter()
        .copied()
        .find(|k| entry.kinds.contains(k))
        .ok_or_else(|| {
            // Something is registered (column_entry succeeded), so the
            // only way to miss is needing order with only hash built.
            MmdbError::NoOrderedIndex {
                table: table.to_owned(),
                column: column.to_owned(),
            }
        })
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

fn resolve_side<'db>(
    cat: &'db CatalogState,
    outer: &str,
    inner: Option<&str>,
    column: &str,
) -> Result<(Side, &'db Column)> {
    if let Ok(col) = cat.column(outer, column) {
        return Ok((Side::Outer, col));
    }
    if let Some(inner) = inner {
        if let Ok(col) = cat.column(inner, column) {
            return Ok((Side::Inner, col));
        }
    }
    Err(MmdbError::UnknownColumn {
        table: outer.to_owned(),
        column: column.to_owned(),
    })
}

// ---------------------------------------------------------------------
// The physical plan
// ---------------------------------------------------------------------

/// A compiled physical plan: fully resolved probes, join, and grouping.
/// Inspect with [`Plan::explain`], execute with [`Plan::execute`].
#[derive(Debug, Clone)]
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
}

/// One resolved filter probe.
#[derive(Debug, Clone)]
pub struct ProbeStep {
    /// Probed column of the outer table.
    pub column: String,
    /// Chosen access path.
    pub kind: IndexKind,
    /// The probe itself.
    pub probe: Probe,
    /// Worker threads this probe's select operator partitions across.
    /// Always 1 today: the executor locates each filter's run with a
    /// single probe constant, which cannot chunk (a future multi-value
    /// probe step would inherit the plan's `exec.threads`).
    pub threads: usize,
}

/// What a [`ProbeStep`] asks its index.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Equality probe.
    Point(Value),
    /// Inclusive range probe (requires an ordered kind).
    Range(Value, Value),
}

/// A resolved indexed nested-loop join.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// The inner (indexed) relation.
    pub inner_table: String,
    /// Join column on the outer table.
    pub outer_column: String,
    /// Join column on the inner table (must be indexed).
    pub inner_column: String,
    /// Access path on the inner column.
    pub kind: IndexKind,
    /// Worker threads the outer RID stream partitions across
    /// (1 = sequential, 0 = adaptive: resolved from the outer RID count
    /// at execution time).
    pub threads: usize,
    /// The planner's upper bound on the outer stream length (the driving
    /// table's row count). Execution resolves an adaptive node against
    /// the *actual* RID count; [`Plan::explain`] resolves against this
    /// hint so the rendered text reports a concrete worker count instead
    /// of the raw `0` knob.
    pub rows_hint: usize,
}

/// A resolved grouped aggregation.
#[derive(Debug, Clone)]
pub struct GroupStep {
    /// Group-by column.
    pub column: String,
    /// Which relation the group-by column lives on.
    pub side: Side,
    /// The aggregate function.
    pub agg: AggFn,
    /// Measure column and its side (`None` for `Count`).
    pub measure: Option<(String, Side)>,
    /// Worker threads accumulating partial aggregates (1 = sequential,
    /// 0 = adaptive: resolved from the grouped row count at execution
    /// time; partials merge at the join barrier).
    pub threads: usize,
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

/// Nanoseconds since `since`, saturating at `u64::MAX`.
fn node_ns(since: &std::time::Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Plan {
    /// Re-point this plan's probe constants at `spec`'s literals. The
    /// plan must have been compiled from a spec of the same shape
    /// ([`QuerySpec::same_shape`]): compilation never reads a literal,
    /// so the patched plan is exactly what compiling `spec` would give.
    pub fn bind_literals(&mut self, spec: &QuerySpec) {
        debug_assert_eq!(self.probes.len(), spec.filters.len());
        for (step, filter) in self.probes.iter_mut().zip(&spec.filters) {
            step.probe = filter.op.probe();
        }
    }

    /// A human-readable rendering of the plan, one step per line
    /// (parallel stages carry a `[xN threads]` suffix so the chosen
    /// parallelism is inspectable). An adaptive node (`threads == 0`)
    /// reports the worker count it *resolves* to for the node's
    /// planner-estimated item count — `[x4 threads (adaptive)]`, never a
    /// raw `x0` — via [`ccindex_parallel::adaptive_threads`], the same
    /// function the executor applies to the actual counts.
    pub fn explain(&self) -> String {
        self.render(None)
    }

    /// [`Plan::explain`] with each executed node's wall-clock time
    /// appended (`.. 12.3µs`), from the [`PlanTimings`] a
    /// [`ResultSet`] carries, plus a trailing `total:` line. Nodes the
    /// timings don't cover (e.g. a stale `PlanTimings::default()`)
    /// render untimed, exactly as in `explain()`.
    pub fn explain_timed(&self, timings: &PlanTimings) -> String {
        self.render(Some(timings))
    }

    fn render(&self, timings: Option<&PlanTimings>) -> String {
        let stamp = |ns: Option<u64>| match ns {
            Some(n) => format!(" .. {}", ccindex_obs::format_ns(n)),
            None => String::new(),
        };
        let par = |threads: usize, rows_hint: usize| match threads {
            1 => String::new(),
            0 => format!(
                " [x{} threads (adaptive)]",
                ccindex_parallel::adaptive_threads(rows_hint)
            ),
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
                    out.push_str(&format!(
                        "\n  probe {} = {} via {:?}{}{drove}{timed}",
                        p.column,
                        v,
                        p.kind,
                        par(p.threads, 1)
                    ));
                }
                Probe::Range(lo, hi) => {
                    out.push_str(&format!(
                        "\n  probe {} in [{}, {}] via {:?}{}{drove}{timed}",
                        p.column,
                        lo,
                        hi,
                        p.kind,
                        par(p.threads, 1)
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
                "\n  join {} on {} = {} via {:?}{}{}",
                j.inner_table,
                j.outer_column,
                j.inner_column,
                j.kind,
                par(j.threads, j.rows_hint),
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
                par(g.threads, g.rows_hint),
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
    /// was compiled against: a [`Database`](crate::Database)'s tip or a
    /// pinned [`Snapshot`](crate::snapshot::Snapshot), both of which
    /// deref to a [`CatalogState`], so `plan.execute(&db)` and
    /// `plan.execute(&snapshot)` both compile. Names re-resolve, so a
    /// stale plan fails with a typed error rather than undefined
    /// behaviour.
    pub fn execute<'c>(&self, cat: &'c CatalogState) -> Result<ResultSet<'c>> {
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
                cat.index(&j.inner_table, &j.inner_column, j.kind)?;
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
                    resolve_threads(j.threads, outer_rids.len()),
                ))
            }
        };
        if joined.is_some() {
            timings.join_ns = Some(node_ns(&joining));
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
            // own row count (`0` = adaptive).
            let threads = |rows| resolve_threads(g.threads, rows);
            let agg = g.agg;
            let groups = match (&joined, &selected) {
                (Some(rows), _) => {
                    let measure_side = g.measure.as_ref().map_or(g.side, |(_, s)| *s);
                    let pair = |i: usize| {
                        let row = &rows[i];
                        (pick(row, g.side), measure.at(pick(row, measure_side)))
                    };
                    group_aggregate_pairs(group_col, rows.len(), pair, agg, threads(rows.len()))
                }
                (None, Some(rids)) => {
                    let pair = |i: usize| (rids[i], measure.at(rids[i]));
                    group_aggregate_pairs(group_col, rids.len(), pair, agg, threads(rids.len()))
                }
                (None, None) => {
                    let rows = cat.table(&self.table)?.rows();
                    let pair = |i: usize| (i as u32, measure.at(i as u32));
                    group_aggregate_pairs(group_col, rows, pair, agg, threads(rows))
                }
            };
            timings.group_ns = Some(node_ns(&grouping));
            timings.total_ns = node_ns(&started);
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
        timings.total_ns = node_ns(&started);
        Ok(ResultSet::new(cat, self, rows, timings))
    }

    /// The selection: the ascending RIDs that pass every filter (the plan
    /// has at least one).
    ///
    /// The domain is kept in value order (§2.1), so every filter is an
    /// inclusive interval of domain IDs and — addressed, not searched —
    /// one run of its column's sorted RID list. The shortest run
    /// drives: only its RIDs are materialised, and each is kept when its
    /// in-place ID on every other filter's column lies in that filter's
    /// interval. Every step resolves before any literal is read, so a
    /// stale plan fails with the same typed error whatever its constants.
    fn select(&self, cat: &CatalogState, timings: &mut PlanTimings) -> Result<Vec<u32>> {
        let mut filters = Vec::with_capacity(self.probes.len());
        for step in &self.probes {
            let resolving = std::time::Instant::now();
            filters.push(self.resolve_probe(cat, step)?);
            timings.probe_ns.push(node_ns(&resolving));
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
            *ns += node_ns(&locating);
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
        // A run spanning several IDs is ordered by (ID, RID).
        if driving_ids.start() != driving_ids.end() {
            rids.sort_unstable();
        }
        timings.probe_ns[shortest] += node_ns(&driving);
        timings.driving = Some(DrivingRun {
            probe: shortest,
            fed: run.len(),
            kept: rids.len(),
        });
        Ok(rids)
    }

    /// One filter's column and sorted RID list, with the typed error a
    /// stale plan meets: the column, its index entry or the step's kind
    /// is gone, or a range asks an unordered kind.
    fn resolve_probe<'c>(
        &self,
        cat: &'c CatalogState,
        step: &ProbeStep,
    ) -> Result<(&'c Column, &'c RidList)> {
        let col = cat.column(&self.table, &step.column)?;
        let path = cat.index(&self.table, &step.column, step.kind)?;
        if matches!(step.probe, Probe::Range(..)) && path.as_ordered().is_none() {
            return Err(MmdbError::NoOrderedIndex {
                table: self.table.clone(),
                column: step.column.clone(),
            });
        }
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
    /// What [`compile`](CatalogRead::compile) produces: [`Plan`] here,
    /// the sharded catalog's `ShardedPlan` (a per-shard [`Plan`] plus its
    /// routing) there.
    type Plan;

    /// The [`ExecOptions`] in force when this generation committed;
    /// plans compiled against the generation inherit them.
    fn exec_options(&self) -> ExecOptions;

    /// Answer many equality probes on one `table.column` with a single
    /// probes-only sub-plan: one access-path resolution (the same
    /// preference order a [`Query::filter`]`(`[`eq`]`)` compiles to),
    /// one batched domain encoding over all the values, and each
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
    /// single probes-only sub-plan over an ordered index (typed
    /// [`MmdbError::NoOrderedIndex`] when only hash is built): every
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

    /// Compile `spec` against this generation: resolve every name,
    /// choose an access path per probe, and validate aggregate typing.
    fn compile(&self, spec: &QuerySpec) -> Result<Self::Plan>;

    /// Execute a plan against this generation (normally the one it was
    /// compiled against; names re-resolve, so a stale plan fails typed).
    fn execute(&self, plan: &Self::Plan) -> Result<ResultSet<'_, Self>>;

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
    type Plan = T::Plan;

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

    fn compile(&self, spec: &QuerySpec) -> Result<T::Plan> {
        T::compile(self, spec)
    }

    fn execute(&self, plan: &T::Plan) -> Result<ResultSet<'_, Self>> {
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
    type Plan = Plan;

    fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        resolve_kind(self, table, column, false, None)?;
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
        resolve_kind(self, table, column, true, None)?;
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
        let cat = self;
        let outer = &spec.table;
        cat.entry(outer)?;
        let exec = spec.exec.unwrap_or(cat.exec);
        // The planner's upper bound on the items a chunkable node can
        // process (the driving table's row count): what an adaptive
        // (`threads == 0`) node's worker count resolves against when the
        // plan is *explained* rather than executed.
        let outer_rows = cat.table(outer)?.rows();

        let mut probes = Vec::with_capacity(spec.filters.len());
        for p in &spec.filters {
            let ordered_required = matches!(p.op, PredOp::Between(..));
            let kind = resolve_kind(cat, outer, &p.column, ordered_required, spec.forced_kind)?;
            probes.push(ProbeStep {
                column: p.column.clone(),
                kind,
                probe: p.op.probe(),
                // A filter stage probes one constant, which cannot be
                // chunked — recording `exec.threads` here would claim a
                // partitioning that can never happen.
                threads: 1,
            });
        }

        let join = match &spec.join {
            None => None,
            Some((inner_table, cond)) => {
                cat.column(outer, &cond.outer)?;
                cat.column(inner_table, &cond.inner)?;
                let kind = resolve_kind(cat, inner_table, &cond.inner, false, spec.forced_kind)?;
                Some(JoinStep {
                    inner_table: inner_table.clone(),
                    outer_column: cond.outer.clone(),
                    inner_column: cond.inner.clone(),
                    kind,
                    threads: exec.threads,
                    rows_hint: outer_rows,
                })
            }
        };

        let group = match &spec.group {
            None => None,
            Some((column, agg)) => {
                let inner = join.as_ref().map(|j| j.inner_table.as_str());
                let (side, _) = resolve_side(cat, outer, inner, column)?;
                let (agg, measure) = agg.fn_and_measure();
                let measure = match measure {
                    None => None,
                    Some(m) => Some((m.to_owned(), resolve_side(cat, outer, inner, m)?.0)),
                };
                let step = GroupStep {
                    column: column.clone(),
                    side,
                    agg,
                    measure,
                    threads: exec.threads,
                    rows_hint: outer_rows,
                };
                // The executor's own measure check, run once here too so a
                // bad measure fails at compile time.
                step.measure_on(cat, outer, inner)?;
                Some(step)
            }
        };

        Ok(Plan {
            table: outer.clone(),
            probes,
            join,
            group,
            exec,
        })
    }

    fn execute(&self, plan: &Plan) -> Result<ResultSet<'_>> {
        plan.execute(self)
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
        assert!(shape.same_shape(&other) && other.same_shape(&shape));
        let mut rebound = db.compile(&shape).unwrap();
        rebound.bind_literals(&other);
        let compiled = db.compile(&other).unwrap();
        assert_eq!(format!("{rebound:?}"), format!("{compiled:?}"));
        assert_eq!(
            rebound.execute(&db).unwrap().rows(),
            compiled.execute(&db).unwrap().rows()
        );
        // Anything the planner reads is part of the shape.
        for different in [
            QuerySpec::table("customers"),
            shape.clone().filter(eq("day", "mon")),
            QuerySpec {
                filters: vec![between("day", "a", "z"), between("amount", 20, 50)],
                ..shape.clone()
            },
            QuerySpec {
                filters: vec![eq("cust", 1), between("amount", 20, 50)],
                ..shape.clone()
            },
            shape.clone().join("customers", on("amount", "id")),
            shape.clone().group_by("region", max("amount")),
            shape.clone().using(IndexKind::FullCss),
            shape.clone().exec(ExecOptions::threads(2)),
        ] {
            assert!(!shape.same_shape(&different), "{different:?}");
        }
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
        // Hash preferred for the point probe, CSS for the range, the
        // inner column's only kind for the join.
        assert_eq!(plan.probes[0].kind, IndexKind::Hash);
        assert_eq!(plan.probes[1].kind, IndexKind::FullCss);
        assert_eq!(plan.join.as_ref().unwrap().kind, IndexKind::LevelCss);
        let text = plan.explain();
        assert!(
            text.contains("and 2 filters: the shortest run drives"),
            "{text}"
        );
        assert!(text.contains("join customers"), "{text}");
        assert!(text.contains("group by region"), "{text}");

        // Forcing picks the named kind...
        let plan = db
            .query("sales")
            .filter(eq("day", "mon"))
            .using(IndexKind::BPlusTree)
            .plan()
            .unwrap();
        assert_eq!(plan.probes[0].kind, IndexKind::BPlusTree);
        // ... and rejects unbuilt or unordered choices with typed errors.
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
            timed.contains("probe day = mon via Hash drove 3 rows -> 2 .. "),
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
        // Filter stages probe one constant and cannot chunk, so they
        // honestly record 1; the chunkable group stage records 8.
        assert_eq!(plan.probes[0].threads, 1);
        assert_eq!(plan.group.as_ref().unwrap().threads, 8);
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
        // from_env clamps lanes and shards to at least 1 even when the
        // variables are unset (falling back to the defaults), and the
        // fallible twin agrees under the same environment.
        let env = ExecOptions::from_env();
        assert!(env.shards >= 1 && env.lanes >= 1);
        assert_eq!(ExecOptions::try_from_env().expect("parsable env"), env);
        // Adaptive resolution: explicit counts pass through, 0 adapts.
        assert_eq!(resolve_threads(4, 10), 4);
        assert_eq!(resolve_threads(0, 10), 1, "tiny inputs run inline");
        assert!(resolve_threads(0, 10_000_000) >= 1);
    }

    #[test]
    fn knob_parsing_is_strict_and_floors_are_consistent() {
        // The parse rule behind try_from_env, tested without touching
        // process environment state: unset falls back, whitespace is
        // tolerated, garbage is a typed error naming the offender.
        assert_eq!(parse_knob("CCINDEX_THREADS", None).unwrap(), None);
        assert_eq!(
            parse_knob("CCINDEX_THREADS", Some(" 8 ".into())).unwrap(),
            Some(8)
        );
        assert_eq!(
            parse_knob("CCINDEX_THREADS", Some("abc".into())).unwrap_err(),
            MmdbError::InvalidExecOption {
                name: "CCINDEX_THREADS".into(),
                value: "abc".into()
            }
        );
        assert!(parse_knob("CCINDEX_LANES", Some("-3".into())).is_err());
        assert!(parse_knob("CCINDEX_SHARDS", Some("1.5".into())).is_err());
        assert!(parse_knob("CCINDEX_SHARDS", Some(String::new())).is_err());
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
        assert_eq!(plan.group.as_ref().unwrap().threads, 0);
        // The rendered text reports the worker count the adaptive node
        // resolves to for the planner's row estimate — never a raw `x0`.
        let g = plan.group.as_ref().unwrap();
        assert_eq!(g.rows_hint, 6, "driving table rows");
        let resolved = ccindex_parallel::adaptive_threads(g.rows_hint);
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
