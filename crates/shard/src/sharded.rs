//! The sharded catalog: N per-shard [`Database`] engines behind one
//! `Database`-shaped surface, with scatter-gather query execution.
//!
//! The surface is `mmdb`'s own: [`ShardedDatabase`] derefs to its
//! composed generation, a [`ShardedState`], exactly as a [`Database`]
//! derefs to its `CatalogState`; the state implements [`CatalogRead`]
//! with [`ShardedPlan`] as its plan type, so its `query` is the one
//! [`mmdb::Query`] builder and its answers the one [`mmdb::ResultSet`].
//!
//! [`ShardedDatabase::register`] splits every table's rows across shards
//! by a declared **shard key** column (placement decided by the
//! [`Partitioner`]); each shard is a complete [`Database`] catalog over
//! its row subset, so every existing operator — batched probes,
//! partitioned joins, grouped aggregation — runs unchanged *inside* a
//! shard. The coordinator's work is routing, and composing the answers:
//!
//! * **Shard-local plans run whole on each routed shard.** A plan is
//!   shard-local when it has no join, or when its join is co-located:
//!   the outer join column is the outer table's shard key and the inner
//!   join column the inner table's, so — every table being placed by the
//!   one catalog-wide partitioner — an outer row on shard *s* can only
//!   match inner rows on *s*. The coordinator sends the [`QuerySpec`] to
//!   each shard the partitioner says can match (equality on the shard
//!   key prunes to one shard, ranges prune to the overlapping shards of
//!   a range partitioner) as **one** [`ShardRead::run_spec`] per shard,
//!   and composes: local RID sets translate to global rows and sort
//!   (selections), both sides of every pair translate and the pairs sort
//!   into the sequential join's `(outer, inner)` order (joins), and
//!   per-shard partial aggregates merge by group value (group-bys): their
//!   decoded groups are dictionary-encoded and folded by the one grouping
//!   operator, `group_aggregate_pairs`, as a worker's partials are.
//!   A query with no filter, join or group asks no shard at all: the
//!   placement metadata already knows every row. The shards run side by
//!   side, so an explicit `exec.threads` is split between them (each
//!   spec goes out with its share) rather than multiplied by them.
//! * **Only joins that are not co-located stream through the
//!   coordinator.** Each routed outer shard selects its rows and hands
//!   over their join-key values once; the coordinator buckets them by
//!   owning inner shard when the join column *is* the inner table's
//!   shard key (fans them to every inner shard otherwise), probes the
//!   inner shards' indexes over the shared
//!   [`ccindex_parallel::WorkerPool`], and merges the partial outputs —
//!   or the per-job partial aggregates — exactly as above.
//! * **Compilation is off the per-query path.** The per-shard [`Plan`]
//!   template depends on a query's *shape*, never its literals, so each
//!   composed generation keeps a small bounded map from shape to the
//!   template shard 0 compiled; a repeated shape costs no request, and
//!   because every mutation through this catalog publishes a new
//!   generation with an empty map, nothing is ever invalidated.
//!
//! Results are **byte-identical** to the same queries on an unsharded
//! [`Database`] for every shard count and both partitioners — the
//! property `tests/sharded_equivalence.rs` and
//! `tests/distributed_equivalence.rs` assert.

use crate::backend::{LocalShard, ShardBackend, ShardRead};
use crate::partition::Partitioner;
use crate::remote::RemoteShard;
use ccindex_obs as obs;
use ccindex_parallel::sync::Arc as MetricArc;
use ccindex_parallel::WorkerPool;
use mmdb::domain::Value;
use mmdb::plan::{JoinStep, Plan, PlanTimings, Probe, Side};
use mmdb::{
    between, eq, group_aggregate_pairs, AggFn, CatalogRead, Column, Database, ExecOptions,
    GroupRow, Handle, IndexKind, JoinRow, Measure, MmdbError, Pinned, PredicateOp, Query,
    QuerySpec, RebuildReport, Result, ResultRows, ResultSet, SwapSlot, Table,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------
// The sharded catalog
// ---------------------------------------------------------------------

/// N per-shard [`Database`] catalogs behind one engine surface; every
/// read goes through `Deref` to the latest composed [`ShardedState`].
///
/// Follows the same epoch/snapshot discipline as [`Database`], and the
/// same shape: a writer-private `tip`, a shared commit `slot`, and (the
/// sharded extra) the mutable [`ShardBackend`] per shard. Every
/// successful mutation commits the tip as a composed [`ShardedState`] —
/// built from per-shard catalog generations updated under the *same*
/// mutation — so a pinned [`ShardedSnapshot`] always sees every shard
/// at one consistent commit (never a half-re-partitioned table or a
/// column/index mix across shards).
#[derive(Debug)]
pub struct ShardedDatabase {
    /// The latest composed generation; every read method of this type
    /// answers from it. Its per-shard pins are refreshed by
    /// [`ShardedDatabase::publish`], which ends every successful
    /// mutation — so after a *failed* multi-shard mutation, reads
    /// through the live catalog keep answering from the last committed
    /// composed generation of the local shards, not from whatever
    /// subset of shards the failed mutation reached.
    tip: ShardedState,
    /// The commit point shared with every reader handle and snapshot.
    slot: Arc<SwapSlot<ShardedState>>,
    /// The mutating half of each shard, in shard order.
    shards: Vec<Box<dyn ShardBackend>>,
}

/// Per-table placement metadata: where every global row lives.
#[derive(Debug, Clone)]
struct ShardedTable {
    shard_key: String,
    rows: usize,
    /// Global RID -> (owning shard, local RID there).
    placement: Vec<(u32, u32)>,
    /// Shard -> local RID -> global RID (ascending: rows are split in
    /// global row order, so local order preserves global order).
    locals: Vec<Vec<u32>>,
    /// Indexes created through this catalog, so a re-partition can
    /// rebuild them: column -> kinds.
    indexes: BTreeMap<String, BTreeSet<IndexKind>>,
}

impl ShardedTable {
    /// Where global row `rid` of this table (registered as `table`)
    /// lives: `(shard, local RID)`, or the typed out-of-range error.
    fn place(&self, table: &str, rid: u32) -> Result<(usize, u32)> {
        self.placement
            .get(rid as usize)
            .map(|&(s, l)| (s as usize, l))
            .ok_or_else(|| MmdbError::rid_out_of_range(table, rid, self.rows))
    }
}

/// Pre-registered scatter-gather metric handles, resolved once at
/// catalog construction so the probe hot path records through plain
/// atomics instead of taking the registry lock per batch.
#[derive(Debug, Clone)]
struct ShardMetrics {
    registry: MetricArc<obs::Registry>,
    /// `shard.route.pruned`: probe batches whose column was the shard
    /// key, so routing pruned each probe to its owning shard(s).
    route_pruned: MetricArc<obs::Counter>,
    /// `shard.route.fanned`: probe batches on a non-key column, fanned
    /// to every shard.
    route_fanned: MetricArc<obs::Counter>,
    /// `shard.scatter.ns`: per-batch time answering the routed probe
    /// subsets across the shards (the worker-pool scatter).
    scatter_ns: MetricArc<obs::Histogram>,
    /// `shard.gather.ns`: per-batch time translating local RIDs to
    /// global and merging answers back into submission order.
    gather_ns: MetricArc<obs::Histogram>,
    /// `shard.route.pushdown`: queries executed as shard-local plans —
    /// the whole spec shipped to each routed shard.
    route_pushdown: MetricArc<obs::Counter>,
    /// `shard.template.hits`: plan or access-path resolutions served
    /// from the generation's template cache (no request to shard 0).
    template_hits: MetricArc<obs::Counter>,
    /// `shard.template.misses`: resolutions that asked shard 0 to
    /// compile (first sight of a shape in a generation, or an error,
    /// which is never cached).
    template_misses: MetricArc<obs::Counter>,
}

impl ShardMetrics {
    fn install(registry: MetricArc<obs::Registry>) -> Self {
        Self {
            route_pruned: registry.counter("shard.route.pruned"),
            route_fanned: registry.counter("shard.route.fanned"),
            scatter_ns: registry.histogram("shard.scatter.ns"),
            gather_ns: registry.histogram("shard.gather.ns"),
            route_pushdown: registry.counter("shard.route.pushdown"),
            template_hits: registry.counter("shard.template.hits"),
            template_misses: registry.counter("shard.template.misses"),
            registry,
        }
    }
}

/// Nanoseconds since `since`, saturating at `u64::MAX`.
fn elapsed_ns(since: &std::time::Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How many query shapes one generation's scatter-template cache holds.
/// Fixed, so a stream of ad-hoc specs cannot grow coordinator memory: a
/// new shape arriving at a full cache clears it.
pub const TEMPLATE_CACHE_CAPACITY: usize = 64;

/// The scatter templates one composed generation has compiled: query
/// shape ([`QuerySpec::same_shape`]) → the per-shard [`Plan`] shard 0
/// compiled for the first spec of that shape. Shared by every clone and
/// pin of the generation; [`ShardedDatabase::publish`] starts the next
/// generation with a fresh one, so an entry never outlives the schema
/// and indexes it was compiled against and there is no invalidation.
#[derive(Debug, Default)]
struct TemplateCache {
    entries: Mutex<Vec<(QuerySpec, Plan)>>,
}

impl TemplateCache {
    fn entries(&self) -> MutexGuard<'_, Vec<(QuerySpec, Plan)>> {
        // Every update is a single `push` or `clear`, so the vector is
        // valid at every step and a poisoned lock loses nothing.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One immutable generation of the *composed* sharded catalog: a
/// pinned [`ShardRead`] per shard (all captured under the same commit —
/// a local shard pins its [`mmdb::CatalogState`], a remote shard pins a
/// client onto its server's committed tip), the placement metadata that
/// routes global rows to shards, and the partitioner — everything
/// scatter-gather execution needs, nothing a writer can touch. The
/// sharded twin of [`mmdb::CatalogState`], and like it the one type the
/// executor runs against, whether reached through the live
/// [`ShardedDatabase`] or a pinned [`ShardedSnapshot`].
///
/// Cloning is cheap: per-shard states and the placement tables sit
/// behind `Arc`, so a generation clone is pointer bumps all the way
/// down.
#[derive(Debug, Clone)]
pub struct ShardedState {
    partitioner: Arc<dyn Partitioner>,
    shards: Vec<Arc<dyn ShardRead>>,
    tables: BTreeMap<String, Arc<ShardedTable>>,
    exec: ExecOptions,
    /// Monotonic commit counter for the *composed* catalog.
    generation: u64,
    /// Scatter-gather observability handles, shared by every
    /// generation, so pinned snapshots record into the same series.
    metrics: ShardMetrics,
    /// This generation's compiled scatter templates.
    templates: Arc<TemplateCache>,
}

/// The sharded catalog's pinned-generation guard:
/// [`ShardedDatabase::snapshot`] hands these out, and every read API of
/// [`ShardedState`] is available through `Deref`. Holds no lock — the
/// guard is an `Arc` plus a pin counter, exactly like [`mmdb::Snapshot`].
pub type ShardedSnapshot = Pinned<ShardedState>;

/// The reader handle of a [`ShardedDatabase`]: readers on other
/// threads pin composed generations through it while the owning thread
/// keeps `&mut` access for commits.
pub type ShardedHandle = Handle<ShardedState>;

/// What one sharded [`ShardedDatabase::replace_column`] cycle did.
#[derive(Debug)]
pub struct ShardedRebuildReport {
    /// True when the replaced column was the table's shard key: rows
    /// were re-placed and every shard's tables and indexes were rebuilt
    /// from scratch (`per_shard` is empty in that case — there is no
    /// per-shard delta to report).
    pub repartitioned: bool,
    /// One rebuild report per shard, in shard order (non-key columns).
    pub per_shard: Vec<RebuildReport>,
}

impl Deref for ShardedDatabase {
    type Target = ShardedState;

    fn deref(&self) -> &ShardedState {
        &self.tip
    }
}

impl ShardedDatabase {
    /// A sharded catalog partitioned by `partitioner` (one shard per
    /// `partitioner.shards()`, each starting as an empty [`Database`]).
    /// Execution options start from [`ExecOptions::from_env`], exactly
    /// like [`Database::new`].
    pub fn new<P: Partitioner + 'static>(partitioner: P) -> Result<Self> {
        let shards = (0..partitioner.shards())
            .map(|_| Box::new(LocalShard::new(Database::new())) as Box<dyn ShardBackend>)
            .collect();
        Self::with_backends(partitioner, shards)
    }

    /// A sharded catalog over caller-supplied [`ShardBackend`]s — the
    /// transport-generic constructor behind [`ShardedDatabase::new`]
    /// (all in-process) and [`ShardedDatabase::connect`] (all remote);
    /// mixes are equally valid. One backend per partitioner shard, in
    /// shard order. The catalog's [`ExecOptions`] (from the
    /// environment) are installed on every backend up front, so a shard
    /// that is already unreachable fails construction with a typed
    /// error instead of failing the first query.
    pub fn with_backends<P: Partitioner + 'static>(
        partitioner: P,
        backends: Vec<Box<dyn ShardBackend>>,
    ) -> Result<Self> {
        if partitioner.shards() == 0 {
            return Err(MmdbError::InvalidPartitioner {
                reason: "partitioner declares zero shards".into(),
            });
        }
        if backends.len() != partitioner.shards() {
            return Err(MmdbError::InvalidPartitioner {
                reason: format!(
                    "partitioner declares {} shard(s) but {} backend(s) were supplied",
                    partitioner.shards(),
                    backends.len()
                ),
            });
        }
        let exec = ExecOptions::from_env();
        let metrics = ShardMetrics::install(MetricArc::new(obs::Registry::new()));
        let mut shards = backends;
        for shard in &mut shards {
            shard.set_exec_options(exec)?;
            shard.install_metrics(&metrics.registry);
        }
        let tip = ShardedState {
            partitioner: Arc::new(partitioner),
            shards: shards.iter().map(|b| b.pin()).collect(),
            tables: BTreeMap::new(),
            exec,
            generation: 0,
            metrics,
            templates: Arc::default(),
        };
        Ok(Self {
            slot: SwapSlot::new(tip.clone(), 0),
            tip,
            shards,
        })
    }

    /// A sharded catalog whose shards are **remote** `ShardServer`s:
    /// one address per partitioner shard, dialed with bounded retry and
    /// a protocol handshake (see [`RemoteShard::connect`]). Every
    /// scatter-gather operation then runs over the wire, byte-identical
    /// to the same catalog in-process — same executor, different
    /// transport.
    pub fn connect<P: Partitioner + 'static>(partitioner: P, addrs: &[String]) -> Result<Self> {
        let backends = addrs
            .iter()
            .map(|addr| {
                RemoteShard::connect(addr.as_str()).map(|r| Box::new(r) as Box<dyn ShardBackend>)
            })
            .collect::<Result<Vec<_>>>()?;
        Self::with_backends(partitioner, backends)
    }

    /// Hash-partitioned catalog over `shards` shards.
    pub fn hash(shards: usize) -> Result<Self> {
        Self::new(crate::partition::HashPartitioner::new(shards)?)
    }

    /// Hash-partitioned catalog sized by the environment:
    /// `CCINDEX_SHARDS` (via [`ExecOptions::from_env`]), defaulting to a
    /// single shard — so a whole test suite or service can be switched
    /// to sharded execution without a code change.
    pub fn from_env() -> Result<Self> {
        Self::hash(ExecOptions::from_env().shards.max(1))
    }

    /// One shard's in-process engine, for inspection. This shadows
    /// [`ShardedState::shard`], which the catalog otherwise reaches
    /// through `Deref`: that one returns the shard's pinned read surface
    /// (local or remote), this one the engine itself.
    ///
    /// # Panics
    ///
    /// Panics when shard `shard` is remote — its engine lives across
    /// the wire. Use [`ShardedDatabase::backend`] for transport-generic
    /// access.
    pub fn shard(&self, shard: usize) -> &Database {
        self.shards[shard]
            .as_database()
            .expect("shard() inspects in-process shards; use backend() for remote shards")
    }

    /// One shard's transport-generic backend, for inspection.
    pub fn backend(&self, shard: usize) -> &dyn ShardBackend {
        &*self.shards[shard]
    }

    /// Set the catalog-wide [`ExecOptions`]; propagated to every shard
    /// so per-shard plans inherit the same knobs. Commits a generation:
    /// snapshots pinned afterwards plan with the new options. Fails
    /// typed — without committing — when a remote shard cannot be
    /// reached (local shards are infallible here).
    pub fn set_exec_options(&mut self, options: ExecOptions) -> Result<()> {
        for shard in &mut self.shards {
            shard.set_exec_options(options)?;
        }
        self.tip.exec = options;
        self.publish();
        Ok(())
    }

    /// Replace shard `shard`'s backend with `backend`, bootstrapping the
    /// newcomer from the outgoing backend's serialized snapshot: fetch
    /// the paged `ccindex-store` bytes off the old backend's committed
    /// tip ([`ShardRead::fetch_snapshot`]), install them on the
    /// newcomer through its ordinary commit cycle
    /// ([`ShardBackend::install_snapshot`]), then swap it in and commit
    /// a composed generation. The newcomer inherits the catalog-wide
    /// [`ExecOptions`] and metric registry, exactly as
    /// [`ShardedDatabase::with_backends`] installs them. Queries against
    /// snapshots pinned before the swap keep answering from the old
    /// backend's pinned state; the catalog itself is untouched when any
    /// step fails (the typed error surfaces and the old backend stays).
    pub fn replace_shard_backend(
        &mut self,
        shard: usize,
        mut backend: Box<dyn ShardBackend>,
    ) -> Result<()> {
        let outgoing = self
            .shards
            .get(shard)
            .ok_or_else(|| MmdbError::Unsupported {
                what: format!(
                    "replace_shard_backend on shard {shard}; catalog has {} shard(s)",
                    self.shards.len()
                ),
            })?;
        let snapshot = outgoing.reader().fetch_snapshot()?;
        backend.install_snapshot(&snapshot)?;
        backend.set_exec_options(self.tip.exec)?;
        backend.install_metrics(&self.tip.metrics.registry);
        self.shards[shard] = backend;
        self.publish();
        Ok(())
    }

    /// Pin the current composed generation: the returned snapshot serves
    /// the full read surface ([`ShardedState::query`], the probe
    /// batches) lock-free, and concurrent commits never move data out
    /// from under it.
    pub fn snapshot(&self) -> ShardedSnapshot {
        self.slot.pin()
    }

    /// A cloneable reader handle sharing this catalog's commit slot, for
    /// pinning snapshots from other threads.
    pub fn handle(&self) -> ShardedHandle {
        Handle::new(Arc::clone(&self.slot))
    }

    /// How many composed generations have been committed.
    pub fn swap_count(&self) -> u64 {
        self.slot.swaps()
    }

    /// Live pinned snapshots, across all generations.
    pub fn pinned_snapshots(&self) -> usize {
        self.slot.pinned()
    }

    /// Register a table, splitting its rows across shards by the values
    /// of `shard_key`. Fails — leaving the catalog untouched — with a
    /// typed error when the name is taken, the key column is missing, or
    /// a key falls outside the partitioner's declared ranges
    /// ([`MmdbError::ShardKeyOutOfRange`]).
    pub fn register(&mut self, table: Table, shard_key: &str) -> Result<()> {
        let name = table.name().to_owned();
        if self.tip.tables.contains_key(&name) {
            return Err(MmdbError::DuplicateTable { table: name });
        }
        let key_col = table
            .column(shard_key)
            .ok_or_else(|| MmdbError::UnknownColumn {
                table: name.clone(),
                column: shard_key.to_owned(),
            })?;
        let (placement, locals) = self.place_rows(key_col)?;
        let split = split_table(&table, &locals);
        for (shard, t) in split.into_iter().enumerate() {
            self.shards[shard].register(t)?;
        }
        self.tip.tables.insert(
            name,
            Arc::new(ShardedTable {
                shard_key: shard_key.to_owned(),
                rows: table.rows(),
                placement,
                locals,
                indexes: BTreeMap::new(),
            }),
        );
        self.publish();
        Ok(())
    }

    /// Build (or rebuild) a `kind` index on `table.column` — on every
    /// shard, so scattered probes always find their access path.
    pub fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.tip.meta(table)?;
        for shard in &mut self.shards {
            shard.create_index(table, column, kind)?;
        }
        Arc::make_mut(self.tip.tables.get_mut(table).expect("checked above"))
            .indexes
            .entry(column.to_owned())
            .or_default()
            .insert(kind);
        self.publish();
        Ok(())
    }

    /// Drop the `kind` index on `table.column` from every shard.
    pub fn drop_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.tip.meta(table)?;
        for shard in &mut self.shards {
            shard.drop_index(table, column, kind)?;
        }
        let meta = Arc::make_mut(self.tip.tables.get_mut(table).expect("checked above"));
        if let Some(kinds) = meta.indexes.get_mut(column) {
            kinds.remove(&kind);
            if kinds.is_empty() {
                meta.indexes.remove(column);
            }
        }
        self.publish();
        Ok(())
    }

    /// Replace a column's values wholesale (the OLAP batch-update entry
    /// point), splitting the update by shard. Replacing an ordinary
    /// column routes each row's new value to the shard owning the row
    /// and runs the per-shard rebuild cycles in shard order. Replacing
    /// the **shard key** re-partitions: rows are re-placed under the new
    /// keys, every shard's table is rebuilt, and all registered indexes
    /// are re-created. Every error path (length mismatch, key outside
    /// the declared ranges) leaves the catalog untouched.
    pub fn replace_column(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<Value>,
    ) -> Result<ShardedRebuildReport> {
        let meta = self.tip.meta(table)?;
        let columns = self.shards[0].reader().columns(table)?;
        if !columns.iter().any(|c| c == column) {
            return Err(MmdbError::UnknownColumn {
                table: table.to_owned(),
                column: column.to_owned(),
            });
        }
        if values.len() != meta.rows {
            return Err(MmdbError::RaggedColumn {
                table: table.to_owned(),
                column: column.to_owned(),
                expected: meta.rows,
                got: values.len(),
            });
        }
        if column == meta.shard_key {
            return self.repartition(table, column, values);
        }
        // Route each row's new value to the shard that owns the row.
        let locals = &meta.locals;
        let per_shard: Vec<Vec<Value>> = locals
            .iter()
            .map(|l| l.iter().map(|&g| values[g as usize].clone()).collect())
            .collect();
        let mut reports = Vec::with_capacity(self.shards.len());
        for (shard, vals) in self.shards.iter_mut().zip(per_shard) {
            reports.push(shard.replace_column(table, column, vals)?);
        }
        // One composed commit after every shard finished its cycle:
        // snapshots see either no shard updated or all of them.
        self.publish();
        Ok(ShardedRebuildReport {
            repartitioned: false,
            per_shard: reports,
        })
    }

    /// Re-run the rebuild cycle for `table.column` on every shard (each
    /// shard re-sorts its own RID list).
    pub fn rebuild_column(&mut self, table: &str, column: &str) -> Result<Vec<RebuildReport>> {
        self.tip.meta(table)?;
        let mut reports = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            reports.push(shard.rebuild_column(table, column)?);
        }
        self.publish();
        Ok(reports)
    }

    // ---- internals ----

    /// Commit the composed catalog: re-pin every shard's current tip
    /// into the placement metadata the mutation just updated, and
    /// install the result as the next immutable [`ShardedState`]. Called
    /// exactly once at the end of every successful mutation, *after* all
    /// shards updated — a pinned snapshot never observes half a
    /// cross-shard mutation. The new generation starts with an empty
    /// template cache: whatever the mutation changed (an index, a
    /// schema, the exec options), no plan compiled before it is reused.
    fn publish(&mut self) {
        self.tip.shards = self.shards.iter().map(|b| b.pin()).collect();
        self.tip.templates = Arc::default();
        self.tip.generation += 1;
        self.slot.install(self.tip.clone(), self.tip.generation);
    }

    /// Place one row per key value; fails before any state changes.
    #[allow(clippy::type_complexity)]
    fn place_rows(&self, key_col: &Column) -> Result<(Vec<(u32, u32)>, Vec<Vec<u32>>)> {
        let mut placement = Vec::with_capacity(key_col.len());
        let mut locals: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        // One decode and one partitioner call per distinct key, made at
        // the key's first row (so the first unplaceable row still names
        // the error).
        let domain = key_col.domain();
        let mut owner: Vec<Option<usize>> = vec![None; domain.len()];
        for rid in 0..key_col.len() as u32 {
            let id = key_col.id(rid);
            let shard = match owner[id as usize] {
                Some(shard) => shard,
                None => {
                    let shard = self.tip.partitioner.shard_of(&domain.decode(id))?;
                    owner[id as usize] = Some(shard);
                    shard
                }
            };
            placement.push((shard as u32, locals[shard].len() as u32));
            locals[shard].push(rid);
        }
        Ok((placement, locals))
    }

    /// The shard-key path of [`ShardedDatabase::replace_column`]: rows
    /// move shards, so reassemble every column globally, re-place, and
    /// rebuild tables and indexes on every shard.
    fn repartition(
        &mut self,
        table: &str,
        key_column: &str,
        new_keys: Vec<Value>,
    ) -> Result<ShardedRebuildReport> {
        // Validate the new placement first — the catalog stays untouched
        // when a new key has no owning shard.
        let new_key_col = Column::from_values(&new_keys);
        let (placement, locals) = self.place_rows(&new_key_col)?;

        // Reassemble each column's global values from the current shards.
        let meta = &self.tip.tables[table];
        let old_placement = meta.placement.clone();
        let columns: Vec<String> = self.shards[0].reader().columns(table)?;
        let mut global = mmdb::TableBuilder::new(table);
        for name in &columns {
            let values: Vec<Value> = if name == key_column {
                new_keys.clone()
            } else {
                // One batched fetch per shard (a single round trip for
                // a remote shard) — the row loop below then runs on
                // plain slice accesses.
                let shard_vals: Vec<Vec<Value>> = self
                    .shards
                    .iter()
                    .map(|shard| shard.reader().column_values(table, name, None))
                    .collect::<Result<_>>()?;
                old_placement
                    .iter()
                    .map(|&(s, l)| shard_vals[s as usize][l as usize].clone())
                    .collect()
            };
            global = global.column(name, values);
        }
        let global = global.build()?;

        // Swap in the re-split tables and re-create the indexes.
        let split = split_table(&global, &locals);
        for (shard, t) in split.into_iter().enumerate() {
            self.shards[shard].drop_table(table)?;
            self.shards[shard].register(t)?;
        }
        let index_spec: Vec<(String, IndexKind)> = meta
            .indexes
            .iter()
            .flat_map(|(c, ks)| ks.iter().map(move |&k| (c.clone(), k)))
            .collect();
        for (column, kind) in &index_spec {
            for shard in &mut self.shards {
                shard.create_index(table, column, *kind)?;
            }
        }
        let meta = Arc::make_mut(self.tip.tables.get_mut(table).expect("present"));
        meta.placement = placement;
        meta.locals = locals;
        self.publish();
        Ok(ShardedRebuildReport {
            repartitioned: true,
            per_shard: Vec::new(),
        })
    }
}

impl ShardedState {
    /// The commit counter of this composed generation (0 = empty).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The catalog's metric registry: `shard.route.pruned` /
    /// `shard.route.fanned` batch routing counts, `shard.scatter.ns` /
    /// `shard.gather.ns` per-batch timing histograms,
    /// `shard.route.pushdown` (queries run as shard-local plans) and
    /// `shard.template.hits` / `shard.template.misses` (the
    /// generation's scatter-template cache), plus `transport.retries`
    /// when any shard is remote. Shared with every committed
    /// generation, so probes through pinned snapshots record into the
    /// same series as probes through the live [`ShardedDatabase`].
    pub fn registry(&self) -> &MetricArc<obs::Registry> {
        &self.metrics.registry
    }

    /// One shard's pinned read surface, for inspection: a frozen
    /// [`mmdb::CatalogState`] for local shards, a client onto the
    /// server's committed tip for remote ones.
    pub fn shard(&self, shard: usize) -> &dyn ShardRead {
        &*self.shards[shard]
    }

    /// The partitioner's one-line description.
    pub fn partitioner(&self) -> String {
        self.partitioner.describe()
    }

    /// Registered table names, in name order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Total (global) row count of `table` in this generation.
    pub fn rows(&self, table: &str) -> Result<usize> {
        Ok(self.meta(table)?.rows)
    }

    /// The declared shard-key column of `table`.
    pub fn shard_key(&self, table: &str) -> Result<&str> {
        Ok(self.meta(table)?.shard_key.as_str())
    }

    /// Where global row `global_rid` of `table` lives: `(shard, local
    /// RID)`. A RID past the table's end is a typed error.
    pub fn placement_of(&self, table: &str, global_rid: u32) -> Result<(usize, u32)> {
        self.meta(table)?.place(table, global_rid)
    }

    /// Start a composable query over `table` against this generation —
    /// the one [`mmdb::Query`] builder, compiled into a [`ShardedPlan`]
    /// that records its shard routing. Conjuncts on the shard-key column
    /// prune the scatter set.
    pub fn query(&self, table: impl Into<String>) -> Query<'_, ShardedState> {
        Query::new(self, table)
    }

    /// How many query shapes this generation's scatter-template cache
    /// holds right now — never more than [`TEMPLATE_CACHE_CAPACITY`],
    /// and zero again after every commit.
    pub fn cached_templates(&self) -> usize {
        self.templates.entries().len()
    }

    /// The per-shard plan template for `spec`: names and access paths
    /// resolved against shard 0 — through its local planner or across
    /// the wire, so local and remote catalogs produce the same template,
    /// and one compile is enough because every shard holds the same
    /// tables, columns and index kinds. Shard 0 is only asked the first
    /// time this generation sees the spec's *shape*; afterwards the
    /// cached plan is cloned and re-pointed at `spec`'s literals.
    fn template(&self, spec: &QuerySpec) -> Result<Plan> {
        let cached = self
            .templates
            .entries()
            .iter()
            .find(|(shape, _)| shape.same_shape(spec))
            .map(|(_, plan)| plan.clone());
        match cached {
            Some(mut plan) => {
                self.metrics.template_hits.inc();
                plan.bind_literals(spec);
                Ok(plan)
            }
            None => self.compile_template(spec),
        }
    }

    /// A template-cache miss: shard 0 compiles `spec` and the plan is
    /// remembered under its shape. Errors are not cached, so a bad name
    /// fails typed on every call, and the lock is only taken after the
    /// shard has answered.
    fn compile_template(&self, spec: &QuerySpec) -> Result<Plan> {
        self.metrics.template_misses.inc();
        let plan = self.shards[0].compile(spec)?;
        let mut entries = self.templates.entries();
        if entries.len() >= TEMPLATE_CACHE_CAPACITY {
            entries.clear();
        }
        entries.push((spec.clone(), plan.clone()));
        Ok(plan)
    }

    /// Resolve the access path of a probe batch on `table.column` —
    /// point, or range when `ranged` — which is the compile of the
    /// one-filter query the batch stands for. A generation that has
    /// compiled that shape (for an earlier batch, or for such a query)
    /// answers from the cache, building no spec and cloning no plan;
    /// only a miss spells the query out for shard 0.
    fn resolve_probe(&self, table: &str, column: &str, ranged: bool) -> Result<()> {
        let stands_for = |shape: &QuerySpec| {
            shape.table == table
                && shape.join.is_none()
                && shape.group.is_none()
                && shape.forced_kind.is_none()
                && shape.exec.is_none()
                && matches!(shape.filters.as_slice(), [only] if only.column() == column
                    && matches!(only.op(), PredicateOp::Between(..)) == ranged)
        };
        let cached = self
            .templates
            .entries()
            .iter()
            .any(|(shape, _)| stands_for(shape));
        if cached {
            self.metrics.template_hits.inc();
            return Ok(());
        }
        let probe = if ranged {
            between(column, 0, 0)
        } else {
            eq(column, 0)
        };
        self.compile_template(&QuerySpec::table(table).filter(probe))
            .map(drop)
    }

    fn meta(&self, table: &str) -> Result<&ShardedTable> {
        self.tables
            .get(table)
            .map(|t| &**t)
            .ok_or_else(|| MmdbError::UnknownTable {
                table: table.to_owned(),
            })
    }

    /// Shard `s`'s local RID `local` of `meta`'s table as a global RID.
    /// A shard answers with RIDs of rows it holds, so one outside its
    /// placement is a wrong or stale reply: a typed error naming the
    /// shard, never an index panic in the coordinator.
    #[inline]
    fn global_rid(&self, meta: &ShardedTable, s: usize, local: u32) -> Result<u32> {
        match meta.locals[s].get(local as usize) {
            Some(&global) => Ok(global),
            None => Err(self.rid_out_of_placement(meta, s, local)),
        }
    }

    /// Append shard `s`'s `local` RIDs to `out` as global RIDs.
    fn extend_global(
        &self,
        meta: &ShardedTable,
        s: usize,
        local: &[u32],
        out: &mut Vec<u32>,
    ) -> Result<()> {
        out.reserve(local.len());
        for &l in local {
            out.push(self.global_rid(meta, s, l)?);
        }
        Ok(())
    }

    #[cold]
    fn rid_out_of_placement(&self, meta: &ShardedTable, s: usize, local: u32) -> MmdbError {
        MmdbError::Unsupported {
            what: format!(
                "shard {s} ({}) answered local rid {local}, but holds {} row(s) of the table",
                self.shards[s].describe(),
                meta.locals[s].len()
            ),
        }
    }

    /// Run the routed per-shard probe subsets over the worker pool (one
    /// fat job per shard with work), translate local RIDs to global
    /// through the placement map, and demultiplex each answer back to
    /// its probe's submission slot. `slots` is the original probe count:
    /// a probe that routed to no shard (an unowned key) still owns an
    /// output slot and answers with the empty set.
    fn gather_pruned<P: Sync>(
        &self,
        meta: &ShardedTable,
        slots: usize,
        routed: Vec<(Vec<P>, Vec<usize>)>,
        answer: impl Fn(&dyn ShardRead, &[P]) -> Result<Vec<Vec<u32>>> + Sync,
    ) -> Result<Vec<Vec<u32>>> {
        let jobs: Vec<usize> = (0..self.shards.len())
            .filter(|&s| !routed[s].0.is_empty())
            .collect();
        let scattering = std::time::Instant::now();
        let results = WorkerPool::new(self.exec.threads).run(jobs.len(), |i| {
            answer(&*self.shards[jobs[i]], &routed[jobs[i]].0)
        });
        self.metrics.scatter_ns.record(elapsed_ns(&scattering));
        let gathering = std::time::Instant::now();
        let mut out: Vec<Vec<u32>> = (0..slots).map(|_| Vec::new()).collect();
        for (&s, per_probe) in jobs.iter().zip(results) {
            for (&slot, local_rids) in routed[s].1.iter().zip(per_probe?) {
                self.extend_global(meta, s, &local_rids, &mut out[slot])?;
            }
        }
        for rids in &mut out {
            rids.sort_unstable();
        }
        self.metrics.gather_ns.record(elapsed_ns(&gathering));
        Ok(out)
    }

    /// The fanned gather: every shard answers the *same* full probe
    /// batch (no per-shard subsets, so nothing is cloned), and shard
    /// `s`'s answer for probe `i` merges straight into output slot `i`.
    fn gather_fanned(
        &self,
        meta: &ShardedTable,
        slots: usize,
        answer: impl Fn(&dyn ShardRead) -> Result<Vec<Vec<u32>>> + Sync,
    ) -> Result<Vec<Vec<u32>>> {
        let scattering = std::time::Instant::now();
        let results =
            WorkerPool::new(self.exec.threads).run(self.shards.len(), |s| answer(&*self.shards[s]));
        self.metrics.scatter_ns.record(elapsed_ns(&scattering));
        let gathering = std::time::Instant::now();
        let mut out: Vec<Vec<u32>> = (0..slots).map(|_| Vec::new()).collect();
        for (s, per_probe) in results.into_iter().enumerate() {
            for (slot, local_rids) in per_probe?.into_iter().enumerate() {
                self.extend_global(meta, s, &local_rids, &mut out[slot])?;
            }
        }
        for rids in &mut out {
            rids.sort_unstable();
        }
        self.metrics.gather_ns.record(elapsed_ns(&gathering));
        Ok(out)
    }
}

impl CatalogRead for ShardedState {
    type Plan = ShardedPlan;

    fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    /// Scatter-gather: each value routes through the partitioner when
    /// the column **is** the table's shard key (pruning to the owning
    /// shard, or to no shard for unowned keys) and fans to every shard
    /// otherwise; the routed shards each answer their value subset with
    /// one [`ShardRead::point_probe_batch`] (a single batched index
    /// descent) over the shared worker pool, and local RIDs gather back
    /// to global row order.
    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        let meta = self.meta(table)?;
        // Resolve the access path before routing, so a missing table,
        // column or index fails typed even when routing prunes every
        // probe away: the per-request query path errors there, and batch
        // answers must match it byte for byte. After the generation's
        // first batch the template cache answers it without a request.
        self.resolve_probe(table, column, false)?;
        if column == meta.shard_key {
            self.metrics.route_pruned.inc();
            let routed = scatter_pruned(self.shards.len(), values, |v| {
                self.partitioner.probe_shards(v)
            });
            self.gather_pruned(meta, values.len(), routed, |shard, vals| {
                shard.point_probe_batch(table, column, vals)
            })
        } else {
            self.metrics.route_fanned.inc();
            self.gather_fanned(meta, values.len(), |shard| {
                shard.point_probe_batch(table, column, values)
            })
        }
    }

    /// The range twin of the point scatter: each inclusive `[lo, hi]`
    /// range prunes to the partitioner's [`Partitioner::range_shards`]
    /// when the column is the shard key (an inverted range routes
    /// nowhere), fans everywhere otherwise.
    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        let meta = self.meta(table)?;
        // Same upfront resolution as the point path: an unordered-only
        // column must fail `NoOrderedIndex` even if every range routes
        // nowhere.
        self.resolve_probe(table, column, true)?;
        if column == meta.shard_key {
            self.metrics.route_pruned.inc();
            let routed = scatter_pruned(self.shards.len(), ranges, |(lo, hi)| {
                self.partitioner.range_shards(lo, hi)
            });
            self.gather_pruned(meta, ranges.len(), routed, |shard, rs| {
                shard.range_probe_batch(table, column, rs)
            })
        } else {
            self.metrics.route_fanned.inc();
            self.gather_fanned(meta, ranges.len(), |shard| {
                shard.range_probe_batch(table, column, ranges)
            })
        }
    }

    /// Compile `spec`: the per-shard template ([`Plan`]) from this
    /// generation's cache or shard 0, then the shard routing from the
    /// partitioner.
    fn compile(&self, spec: &QuerySpec) -> Result<ShardedPlan> {
        let meta = self.meta(&spec.table)?;
        let template = self.template(spec)?;

        // Routing: each shard-key conjunct prunes; everything else fans.
        let nshards = self.shards.len();
        let mut probe_targets = Vec::with_capacity(template.probes.len());
        let mut selected: BTreeSet<usize> = (0..nshards).collect();
        for step in &template.probes {
            let target = if step.column == meta.shard_key {
                let routed = match &step.probe {
                    Probe::Point(v) => self.partitioner.probe_shards(v),
                    Probe::Range(lo, hi) => self.partitioner.range_shards(lo, hi),
                };
                if routed.len() == nshards {
                    ShardTargets::All
                } else {
                    ShardTargets::Pruned(routed)
                }
            } else {
                ShardTargets::All
            };
            if let ShardTargets::Pruned(routed) = &target {
                let routed: BTreeSet<usize> = routed.iter().copied().collect();
                selected = selected.intersection(&routed).copied().collect();
            }
            probe_targets.push(target);
        }

        let join = spec.join.as_ref().map(|(inner_table, cond)| {
            let bucketed = self
                .meta(inner_table)
                .map(|m| m.shard_key == cond.inner())
                .unwrap_or(false);
            if bucketed {
                JoinRouting::Bucketed
            } else {
                JoinRouting::Fanned
            }
        });

        Ok(ShardedPlan {
            spec: spec.clone(),
            template,
            routing: ShardRouting {
                shards: nshards,
                partitioner: self.partitioner.describe(),
                shard_key: meta.shard_key.clone(),
                probe_targets,
                selected: selected.into_iter().collect(),
                join,
            },
        })
    }

    fn execute(&self, plan: &ShardedPlan) -> Result<ResultSet<'_, Self>> {
        plan.execute(self)
    }

    /// Resolved through each row's owning shard: the RIDs bucket by
    /// owning shard so each backend answers one batched fetch (a single
    /// round trip for a remote shard), then the answers reassemble in
    /// `rids` order. The column resolves on *every* shard — including
    /// shards owning none of the rows — so a schema drift fails typed
    /// exactly like the in-process resolver.
    fn values_at(&self, table: &str, column: &str, rids: &[u32]) -> Result<Vec<Value>> {
        let meta = self.meta(table)?;
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(rids.len());
        for &rid in rids {
            let (s, local) = meta.place(table, rid)?;
            order.push((s, per_shard[s].len()));
            per_shard[s].push(local);
        }
        let fetched: Vec<Vec<Value>> = self
            .shards
            .iter()
            .zip(&per_shard)
            .map(|(shard, locals)| shard.column_values(table, column, Some(locals)))
            .collect::<Result<_>>()?;
        Ok(order
            .into_iter()
            .map(|(s, i)| fetched[s][i].clone())
            .collect())
    }
}

/// Route each probe of a shard-key batch to its pruned target shards:
/// per shard, the probe subset it must answer plus each probe's original
/// submission slot (a probe routing to no shard appears in no subset).
fn scatter_pruned<P: Clone>(
    shards: usize,
    probes: &[P],
    route: impl Fn(&P) -> Vec<usize>,
) -> Vec<(Vec<P>, Vec<usize>)> {
    let mut routed: Vec<(Vec<P>, Vec<usize>)> = (0..shards).map(|_| Default::default()).collect();
    for (slot, probe) in probes.iter().enumerate() {
        for target in route(probe) {
            routed[target].0.push(probe.clone());
            routed[target].1.push(slot);
        }
    }
    routed
}

/// Split `table` into one per-shard table following `locals` (shard ->
/// global RIDs, in local order). Empty shards get an empty table of the
/// same schema.
fn split_table(table: &Table, locals: &[Vec<u32>]) -> Vec<Table> {
    locals
        .iter()
        .map(|rows| {
            let mut b = mmdb::TableBuilder::new(table.name());
            for (name, col) in table.columns() {
                let values: Vec<Value> = rows.iter().map(|&g| col.value(g)).collect();
                b = b.column(name, values);
            }
            b.build().expect("equal-length splits by construction")
        })
        .collect()
}

// ---------------------------------------------------------------------
// The sharded plan
// ---------------------------------------------------------------------

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

/// The routing a compiled [`ShardedPlan`] recorded: which shards each
/// stage scatters to, shown by [`ShardedPlan::explain`].
#[derive(Debug, Clone)]
pub struct ShardRouting {
    /// Shard count of the catalog the plan was compiled against.
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

/// A compiled sharded plan: the per-shard physical [`Plan`] template
/// plus the recorded [`ShardRouting`].
#[derive(Debug, Clone)]
pub struct ShardedPlan {
    /// The query description the plan was compiled from — what a
    /// shard-local plan ships to each routed shard.
    spec: QuerySpec,
    /// The physical plan each routed shard runs (compiled against shard
    /// 0; every shard shares the schema, so it is valid everywhere).
    pub template: Plan,
    /// Which shards each stage scatters to.
    pub routing: ShardRouting,
}

/// One scatter job of a join that is not co-located: outer shard `s`'s
/// rows whose matches can live on inner shard `t`, with their join-key
/// values. A fanned join borrows the outer shard's whole stream for
/// every `t`; a bucketed one owns its subset.
struct JoinJob<'a> {
    s: usize,
    t: usize,
    rids: Cow<'a, [u32]>,
    keys: Cow<'a, [Value]>,
}

impl ShardedPlan {
    /// The join this plan has to stream through the coordinator, if any:
    /// one that is **not** co-located. A join is co-located when it is
    /// routed [`JoinRouting::Bucketed`] (the inner join column is the
    /// inner table's shard key) *and* the outer join column is the outer
    /// table's shard key — one partitioner places every table, so equal
    /// keys share a shard and each shard can join its own rows.
    fn coordinator_join(&self) -> Option<&JoinStep> {
        self.template.join.as_ref().filter(|j| {
            self.routing.join != Some(JoinRouting::Bucketed)
                || j.outer_column != self.routing.shard_key
        })
    }

    /// Whether the plan runs whole on each routed shard — one request
    /// per shard, composed by the coordinator — as every plan does
    /// except a join that is not co-located.
    pub fn is_shard_local(&self) -> bool {
        self.coordinator_join().is_none()
    }

    /// Human-readable rendering: the shard routing (scatter set per
    /// stage, pruned vs fanned join, execution and gather mode), then
    /// the per-shard plan indented beneath it.
    pub fn explain(&self) -> String {
        let r = &self.routing;
        let fmt_set = |s: &[usize]| {
            let items: Vec<String> = s.iter().map(|i| i.to_string()).collect();
            format!("{{{}}}", items.join(", "))
        };
        let mut out = format!(
            "scatter {} across {} shard(s) ({} on {})",
            self.template.table, r.shards, r.partitioner, r.shard_key
        );
        for (step, target) in self.template.probes.iter().zip(&r.probe_targets) {
            let where_to = match target {
                ShardTargets::All => "all shards (fanned)".to_owned(),
                ShardTargets::Pruned(s) => format!("shards {} (pruned)", fmt_set(s)),
            };
            out.push_str(&format!("\n  probe {} -> {}", step.column, where_to));
        }
        if r.selected.len() == r.shards {
            out.push_str("\n  scatter set: all shards");
        } else {
            out.push_str(&format!("\n  scatter set: {} ", fmt_set(&r.selected)));
        }
        if let (Some(j), Some(mode)) = (&self.template.join, &r.join) {
            match mode {
                JoinRouting::Bucketed => out.push_str(&format!(
                    "\n  join {}: outer probe batches bucketed by inner shard key {}",
                    j.inner_table, j.inner_column
                )),
                JoinRouting::Fanned => out.push_str(&format!(
                    "\n  join {}: outer RID chunks fanned to all {} inner shard(s)",
                    j.inner_table, r.shards
                )),
            }
            if self.is_shard_local() {
                out.push_str(&format!(
                    " — co-located on outer shard key {}, joined inside each shard",
                    r.shard_key
                ));
            }
        }
        out.push_str(if self.is_shard_local() {
            "\n  run: shard-local — the whole plan on each routed shard, one request per shard"
        } else {
            "\n  run: join streamed through the coordinator (not co-located)"
        });
        out.push_str(if self.template.group.is_some() {
            "\n  gather: merge per-shard partial aggregates by group value"
        } else if self.template.join.is_some() {
            "\n  gather: merge join rows in (outer, inner) global order"
        } else {
            "\n  gather: merge RID sets in global row order"
        });
        out.push_str("\nper-shard plan:\n  ");
        out.push_str(&self.template.explain().replace('\n', "\n  "));
        out
    }

    /// Execute against one composed generation, normally the one the
    /// plan was compiled against: a [`ShardedDatabase`]'s latest or a
    /// pinned [`ShardedSnapshot`], both of which deref to a
    /// [`ShardedState`]; byte-identical output. Names re-resolve and the
    /// shard count re-validates, so a plan compiled against a different
    /// catalog shape fails typed, not out of bounds. The result's
    /// timings carry the total only: there is no per-node breakdown
    /// across shards.
    pub fn execute<'s>(&self, state: &'s ShardedState) -> Result<ResultSet<'s, ShardedState>> {
        let started = std::time::Instant::now();
        // The recorded routing indexes shards of the compile-time
        // catalog; running against one with a different shard count
        // would index out of bounds, so it is a typed failure too.
        if self.routing.shards != state.shards.len() {
            return Err(MmdbError::Unsupported {
                what: format!(
                    "plan was compiled for a {}-shard catalog but executed \
                     against {} shard(s); recompile the query",
                    self.routing.shards,
                    state.shards.len()
                ),
            });
        }
        let meta = state.meta(&self.template.table)?;
        let rows = match self.coordinator_join() {
            None => self.run_shard_local(state, meta)?,
            Some(j) => self.run_join_jobs(state, meta, j)?,
        };
        let timings = PlanTimings {
            total_ns: elapsed_ns(&started),
            ..PlanTimings::default()
        };
        Ok(ResultSet::new(state, &self.template, rows, timings))
    }

    /// The shard-local path: ship the whole spec to each routed shard —
    /// one [`ShardRead::run_spec`] per shard over the worker pool — and
    /// compose the per-shard answers into global rows.
    fn run_shard_local(&self, state: &ShardedState, meta: &ShardedTable) -> Result<ResultRows> {
        let t = &self.template;
        if t.probes.is_empty() && t.join.is_none() && t.group.is_none() {
            // Every row qualifies, and the placement metadata already
            // knows every row: no shard is asked.
            return Ok(ResultRows::Rids((0..meta.rows as u32).collect()));
        }
        let inner_meta = match &t.join {
            Some(j) => Some(state.meta(&j.inner_table)?),
            None => None,
        };
        state.metrics.route_pushdown.inc();
        // A shard holding none of the outer table's rows answers every
        // plan with nothing, so it is not asked. One job per remaining
        // shard; a whole per-shard plan is a fat job, so `0` here means
        // one worker per shard (capped at the core count by the pool),
        // not the probe-count adaptive.
        let routed: Vec<usize> = self
            .routing
            .selected
            .iter()
            .copied()
            .filter(|&s| !meta.locals[s].is_empty())
            .collect();
        // An explicit thread count is the query's whole budget, not each
        // shard's: the shards run side by side, so each gets its share
        // (as the jobs of a coordinator-side join do), and the spec goes
        // out with that share as its exec override.
        let share = (t.exec.threads / routed.len().max(1)).max(1);
        let spec = if t.exec.threads > share {
            Cow::Owned(self.spec.clone().exec(ExecOptions {
                threads: share,
                ..t.exec
            }))
        } else {
            Cow::Borrowed(&self.spec)
        };
        let answers = WorkerPool::new(t.exec.threads)
            .run(routed.len(), |i| state.shards[routed[i]].run_spec(&spec));

        let mut rids: Vec<u32> = Vec::new();
        let mut joined: Vec<JoinRow> = Vec::new();
        let mut partials: Vec<Vec<GroupRow>> = Vec::new();
        for (&s, answer) in routed.iter().zip(answers) {
            match (answer?, inner_meta, &t.group) {
                (ResultRows::Groups(rows), _, Some(_)) => partials.push(rows),
                (ResultRows::Joined(rows), Some(inner_meta), None) => {
                    joined.reserve(rows.len());
                    for r in rows {
                        joined.push(JoinRow {
                            outer_rid: state.global_rid(meta, s, r.outer_rid)?,
                            inner_rid: state.global_rid(inner_meta, s, r.inner_rid)?,
                        });
                    }
                }
                (ResultRows::Rids(local), None, None) => {
                    state.extend_global(meta, s, &local, &mut rids)?
                }
                (other, ..) => {
                    return Err(MmdbError::Unsupported {
                        what: format!(
                            "shard {s} ({}) answered a {} result to a plan of another shape",
                            state.shards[s].describe(),
                            other.shape()
                        ),
                    })
                }
            }
        }
        Ok(match (&t.group, inner_meta) {
            (Some(g), _) => ResultRows::Groups(group_by_value(
                partials.into_iter().flatten().map(|r| (r.group, r.value)),
                g.agg,
            )),
            (None, Some(_)) => {
                joined.sort_unstable();
                ResultRows::Joined(joined)
            }
            (None, None) => {
                rids.sort_unstable();
                ResultRows::Rids(rids)
            }
        })
    }

    /// The path of a join that is not co-located: matches for an outer
    /// row can live on another shard, so the outer stream comes to the
    /// coordinator. Each routed outer shard selects its rows and hands
    /// over their join-key values — once; every job below gets its slice
    /// of them. Jobs are bucketed by the owning inner shard when the join
    /// column is the inner shard key, fanned to every inner shard
    /// otherwise; bucket order follows the outer stream, so no probe
    /// order is lost.
    fn run_join_jobs(
        &self,
        state: &ShardedState,
        meta: &ShardedTable,
        j: &JoinStep,
    ) -> Result<ResultRows> {
        let t = &self.template;
        let exec = t.exec;
        let inner_meta = state.meta(&j.inner_table)?;
        let nshards = state.shards.len();

        // ---- scatter: the outer stream, one fat job per routed shard ----
        let probes_plan = (!t.probes.is_empty()).then(|| Plan {
            table: t.table.clone(),
            probes: t.probes.clone(),
            join: None,
            group: None,
            exec,
        });
        let scatter = &self.routing.selected;
        let streams = WorkerPool::new(exec.threads).run(
            scatter.len(),
            |i| -> Result<(Vec<u32>, Vec<Value>)> {
                let s = scatter[i];
                let rids: Vec<u32> = match &probes_plan {
                    Some(plan) => state.shards[s].select(plan)?,
                    None => (0..meta.locals[s].len() as u32).collect(),
                };
                if rids.is_empty() {
                    return Ok((rids, Vec::new()));
                }
                // No filter means every row: ask for the whole column
                // instead of shipping the RIDs back.
                let wanted = probes_plan.as_ref().map(|_| rids.as_slice());
                let keys = state.shards[s].column_values(&t.table, &j.outer_column, wanted)?;
                Ok((rids, keys))
            },
        );
        let streams = streams.into_iter().collect::<Result<Vec<_>>>()?;

        let mut jobs: Vec<JoinJob<'_>> = Vec::new();
        for (&s, (rids, keys)) in scatter.iter().zip(&streams) {
            if rids.is_empty() {
                continue;
            }
            if self.routing.join == Some(JoinRouting::Bucketed) {
                let mut buckets: Vec<(Vec<u32>, Vec<Value>)> = vec![Default::default(); nshards];
                for (&rid, key) in rids.iter().zip(keys) {
                    // Placement is the bucketing function: inner rows
                    // were placed by `shard_of`, so an outer key it
                    // cannot place matches no inner row (no per-row Vec
                    // like `probe_shards` makes).
                    if let Ok(t) = state.partitioner.shard_of(key) {
                        buckets[t].0.push(rid);
                        buckets[t].1.push(key.clone());
                    }
                }
                for (t, (rids, keys)) in buckets.into_iter().enumerate() {
                    if !rids.is_empty() && !inner_meta.locals[t].is_empty() {
                        jobs.push(JoinJob {
                            s,
                            t,
                            rids: Cow::Owned(rids),
                            keys: Cow::Owned(keys),
                        });
                    }
                }
            } else {
                for t in (0..nshards).filter(|&t| !inner_meta.locals[t].is_empty()) {
                    jobs.push(JoinJob {
                        s,
                        t,
                        rids: Cow::Borrowed(rids),
                        keys: Cow::Borrowed(keys),
                    });
                }
            }
        }
        let total: usize = jobs.iter().map(|job| job.rids.len()).sum();
        let pool_threads = if exec.threads == 0 {
            ccindex_parallel::adaptive_threads(total)
        } else {
            exec.threads
        };
        let pool = WorkerPool::new(pool_threads);
        // When there are fewer jobs than workers (one shard, or a
        // hard-pruned scatter), hand each job the leftover parallelism
        // so a big join still spreads its outer RID chunks like the
        // unsharded engine would.
        let job_threads = (pool_threads / jobs.len().max(1)).max(1);

        let Some(g) = &t.group else {
            // Plain join: map each job's local pairs to global RIDs and
            // merge back into the sequential join's (outer, inner) order.
            let results = pool.run(jobs.len(), |i| {
                join_job(state, j, &jobs[i], exec.lanes, job_threads)
            });
            let mut all: Vec<JoinRow> = Vec::new();
            for (job, rows) in jobs.iter().zip(results) {
                let rows = rows?;
                all.reserve(rows.len());
                for r in rows {
                    all.push(JoinRow {
                        outer_rid: state.global_rid(meta, job.s, r.outer_rid)?,
                        inner_rid: state.global_rid(inner_meta, job.t, r.inner_rid)?,
                    });
                }
            }
            all.sort_unstable();
            return Ok(ResultRows::Joined(all));
        };

        // Grouped join: aggregate inside each scatter job, merge partials
        // by group value at the gather barrier. The group and measure
        // columns can live on *different* backends (outer vs inner side),
        // so the job fetches each side's decoded values through its owning
        // backend, dictionary-encodes the groups and folds the pairs
        // coordinator-side with the one grouping operator.
        let partials = pool.run(jobs.len(), |i| -> Result<Vec<GroupRow>> {
            let job = &jobs[i];
            let rows = join_job(state, j, job, exec.lanes, job_threads)?;
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            let side_values = |column: &str, side: Side| {
                let (shard, table, rids): (usize, &str, Vec<u32>) = match side {
                    Side::Outer => (job.s, &t.table, rows.iter().map(|r| r.outer_rid).collect()),
                    Side::Inner => (
                        job.t,
                        &j.inner_table,
                        rows.iter().map(|r| r.inner_rid).collect(),
                    ),
                };
                let values = state.shards[shard].column_values(table, column, Some(&rids))?;
                Ok::<_, MmdbError>((table, values))
            };
            let (_, groups) = side_values(&g.column, g.side)?;
            let measures: Vec<i64> = match &g.measure {
                None => {
                    Measure::resolve(g.agg, None)?;
                    vec![1; rows.len()]
                }
                Some((m, side)) => {
                    let (table, values) = side_values(m, *side)?;
                    let int = |v| match v {
                        Value::Int(v) => Ok(v),
                        Value::Str(_) => Err(MmdbError::NonIntegerMeasure {
                            table: table.to_owned(),
                            column: m.clone(),
                        }),
                    };
                    values.into_iter().map(int).collect::<Result<_>>()?
                }
            };
            Ok(group_by_value(groups.into_iter().zip(measures), g.agg))
        });
        let partials = partials.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(ResultRows::Groups(group_by_value(
            partials.into_iter().flatten().map(|r| (r.group, r.value)),
            g.agg,
        )))
    }
}

/// One scatter job of the coordinator-side join: probe inner shard
/// `job.t`'s index with the job's outer join-key values
/// ([`ShardRead::join_probe_batch`] — the same partitioned indexed
/// nested-loop operator whichever side of the wire it runs on) and pair
/// each outer RID with its matches in probe order. `threads` is the
/// job's share of the pool's parallelism — 1 when there are enough jobs
/// to keep every worker busy, more when the scatter set is smaller than
/// the pool (the chunk outputs still concatenate in outer-stream order,
/// so the result is unchanged).
fn join_job(
    state: &ShardedState,
    j: &JoinStep,
    job: &JoinJob<'_>,
    lanes: usize,
    threads: usize,
) -> Result<Vec<JoinRow>> {
    let matches = state.shards[job.t].join_probe_batch(
        &j.inner_table,
        &j.inner_column,
        j.kind,
        &job.keys,
        lanes,
        threads,
    )?;
    let mut rows = Vec::new();
    for (&outer_rid, inner) in job.rids.iter().zip(matches) {
        rows.extend(inner.into_iter().map(|inner_rid| JoinRow {
            outer_rid,
            inner_rid,
        }));
    }
    Ok(rows)
}

/// Group decoded `(group, value)` rows with the one grouping operator,
/// [`group_aggregate_pairs`]: the group values are dictionary-encoded
/// first ([`Column::from_values`], as [`ShardRead::join_probe_batch`]
/// encodes its probe column), so their dense IDs rank them in value
/// order. A value is a measure, a `1` to count, or a partial aggregate
/// being merged — the same fold — so per-shard partials merge here into
/// the rows, in the order, the unsharded aggregation gives (per-shard
/// domains differ, but decoded values agree).
fn group_by_value(rows: impl IntoIterator<Item = (Value, i64)>, agg: AggFn) -> Vec<GroupRow> {
    let (groups, values): (Vec<Value>, Vec<i64>) = rows.into_iter().unzip();
    let column = Column::from_values(&groups);
    group_aggregate_pairs(&column, groups.len(), |i| (i as u32, values[i]), agg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardInfo;
    use mmdb::{on, TableBuilder};

    /// Past any row count in these tests.
    const SHIFT: u32 = 1_000_000;

    /// A shard that records the exec override of every spec it is sent
    /// and adds `shift` to every RID it answers — `SHIFT` is what a wrong
    /// or stale reply across the wire looks like to the gather, `0` is a
    /// faithful shard.
    #[derive(Debug)]
    struct Fake {
        inner: Arc<dyn ShardRead>,
        shift: u32,
        sent: Mutex<Vec<Option<ExecOptions>>>,
    }

    impl Fake {
        fn shift_sets(&self, sets: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
            sets.into_iter()
                .map(|set| set.into_iter().map(|r| r + self.shift).collect())
                .collect()
        }
    }

    impl ShardRead for Fake {
        fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
            self.sent.lock().unwrap().push(spec.exec);
            Ok(match self.inner.run_spec(spec)? {
                ResultRows::Rids(rids) => ResultRows::Rids(self.shift_sets(vec![rids]).remove(0)),
                ResultRows::Joined(rows) => ResultRows::Joined(
                    rows.into_iter()
                        .map(|r| JoinRow {
                            inner_rid: r.inner_rid + self.shift,
                            ..r
                        })
                        .collect(),
                ),
                groups => groups,
            })
        }
        fn point_probe_batch(&self, t: &str, c: &str, v: &[Value]) -> Result<Vec<Vec<u32>>> {
            let sets = self.inner.point_probe_batch(t, c, v)?;
            Ok(self.shift_sets(sets))
        }
        fn range_probe_batch(
            &self,
            t: &str,
            c: &str,
            r: &[(Value, Value)],
        ) -> Result<Vec<Vec<u32>>> {
            let sets = self.inner.range_probe_batch(t, c, r)?;
            Ok(self.shift_sets(sets))
        }
        fn select(&self, plan: &Plan) -> Result<Vec<u32>> {
            self.inner.select(plan)
        }
        fn join_probe_batch(
            &self,
            t: &str,
            c: &str,
            kind: IndexKind,
            v: &[Value],
            lanes: usize,
            threads: usize,
        ) -> Result<Vec<Vec<u32>>> {
            let sets = self.inner.join_probe_batch(t, c, kind, v, lanes, threads)?;
            Ok(self.shift_sets(sets))
        }
        fn column_values(&self, t: &str, c: &str, rids: Option<&[u32]>) -> Result<Vec<Value>> {
            self.inner.column_values(t, c, rids)
        }
        fn compile(&self, spec: &QuerySpec) -> Result<Plan> {
            self.inner.compile(spec)
        }
        fn columns(&self, t: &str) -> Result<Vec<String>> {
            self.inner.columns(t)
        }
        fn rows(&self, t: &str) -> Result<usize> {
            self.inner.rows(t)
        }
        fn fetch_snapshot(&self) -> Result<Vec<u8>> {
            self.inner.fetch_snapshot()
        }
        fn observe(&self) -> Result<ShardInfo> {
            self.inner.observe()
        }
        fn describe(&self) -> String {
            format!("fake {}", self.inner.describe())
        }
    }

    /// `sales` ⋈ `customers` over `shards` hash shards at `threads`
    /// workers, `sales` sharded on `sales_key`, with shard 1 replaced by
    /// a [`Fake`] shifting by `shift`.
    fn with_a_fake_shard(
        shards: usize,
        threads: usize,
        sales_key: &str,
        shift: u32,
    ) -> (ShardedState, Arc<Fake>) {
        let mut db = ShardedDatabase::hash(shards).unwrap();
        db.set_exec_options(ExecOptions {
            threads,
            ..ExecOptions::default()
        })
        .unwrap();
        let sales = TableBuilder::new("sales")
            .int_column("cust", (0..80).map(|i| (i * 31) % 40))
            .int_column("amount", (0..80).map(|i| (i * 17) % 500))
            .build()
            .unwrap();
        let customers = TableBuilder::new("customers")
            .int_column("id", 0..40)
            .build()
            .unwrap();
        db.register(sales, sales_key).unwrap();
        db.register(customers, "id").unwrap();
        for (table, column) in [("sales", "cust"), ("sales", "amount"), ("customers", "id")] {
            db.create_index(table, column, IndexKind::FullCss).unwrap();
        }
        let mut state = ShardedState::clone(&db);
        let fake = Arc::new(Fake {
            inner: state.shards[1].clone(),
            shift,
            sent: Mutex::default(),
        });
        state.shards[1] = fake.clone();
        (state, fake)
    }

    fn assert_names_the_shard<T: std::fmt::Debug>(what: &str, answer: Result<T>) {
        match answer {
            Err(MmdbError::Unsupported { what: text }) => assert!(
                text.contains("shard 1 (fake") && text.contains("local rid"),
                "{what}: {text}"
            ),
            other => panic!("{what}: expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_rids_in_a_shard_reply_are_a_typed_error() {
        // Shard-local plans: a fanned selection, a co-located join.
        let (state, _) = with_a_fake_shard(2, 1, "cust", SHIFT);
        let all = between("amount", 0, 499);
        let select = state.query("sales").filter(all.clone());
        assert!(select.plan().unwrap().is_shard_local());
        assert_names_the_shard("selection", select.run().map(|r| r.rows().clone()));
        let join = select.join("customers", on("cust", "id"));
        assert!(join.plan().unwrap().is_shard_local());
        assert_names_the_shard("co-located join", join.run().map(|r| r.rows().clone()));

        // Probe batches, fanned (non-key column) and pruned (shard key).
        let amounts: Vec<Value> = (0..500).map(Value::Int).collect();
        assert_names_the_shard(
            "fanned points",
            state.point_probe_batch("sales", "amount", &amounts),
        );
        let keys: Vec<Value> = (0..40).map(Value::Int).collect();
        assert_names_the_shard(
            "pruned points",
            state.point_probe_batch("sales", "cust", &keys),
        );
        assert_names_the_shard(
            "fanned ranges",
            state.range_probe_batch("sales", "amount", &[(Value::Int(0), Value::Int(499))]),
        );

        // A join streamed through the coordinator (bucketed, but the
        // outer table is sharded on another column).
        let (state, _) = with_a_fake_shard(2, 1, "amount", SHIFT);
        let join = state
            .query("sales")
            .filter(all)
            .join("customers", on("cust", "id"));
        assert!(!join.plan().unwrap().is_shard_local());
        assert_names_the_shard("streamed join", join.run().map(|r| r.rows().clone()));
    }

    #[test]
    fn an_explicit_thread_count_is_split_across_the_routed_shards() {
        let sent = |fake: &Fake| std::mem::take(&mut *fake.sent.lock().unwrap());
        let (state, fake) = with_a_fake_shard(4, 8, "cust", 0);
        let fanned = state.query("sales").filter(between("amount", 0, 499));
        let join = fanned.clone().join("customers", on("cust", "id"));

        // Four shards share the catalog's eight workers, two each.
        fanned.run().unwrap();
        join.run().unwrap();
        let two = Some(ExecOptions {
            threads: 2,
            ..state.exec
        });
        assert_eq!(sent(&fake), [two, two]);

        // A per-query override is the budget that is split.
        let three = ExecOptions {
            threads: 3,
            ..state.exec
        };
        join.exec(three).run().unwrap();
        assert_eq!(
            sent(&fake),
            [Some(ExecOptions {
                threads: 1,
                ..three
            })]
        );

        // A plan routed to one shard keeps the whole budget — the spec
        // goes out as written — and so does every plan when the thread
        // count is automatic (each shard sizes its own pool).
        for cust in 0..40 {
            state.query("sales").filter(eq("cust", cust)).run().unwrap();
        }
        let points = sent(&fake);
        assert!(!points.is_empty() && points.iter().all(Option::is_none));
        let (auto, fake) = with_a_fake_shard(4, 0, "cust", 0);
        auto.query("sales")
            .filter(between("amount", 0, 499))
            .run()
            .unwrap();
        assert_eq!(sent(&fake), [None]);
    }
}
