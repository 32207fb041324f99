//! The sharded catalog: N per-shard [`Database`] engines behind one
//! `Database`-shaped surface, with scatter-gather query execution.
//!
//! The surface is `mmdb`'s own: [`ShardedDatabase`] derefs to its
//! composed generation, a [`ShardedState`], exactly as a [`Database`]
//! derefs to its `CatalogState`; the state implements [`CatalogRead`],
//! so its `query` is the one [`mmdb::Query`] builder, it compiles to the
//! one [`Plan`] and its answers are the one [`mmdb::ResultSet`].
//!
//! [`ShardedDatabase::register`] splits every table's rows across shards
//! by a declared **shard key** column (placement decided by the
//! [`Partitioner`]); each shard is a complete [`Database`] catalog over
//! its row subset, so every existing operator — batched probes,
//! partitioned joins, grouped aggregation — runs unchanged *inside* a
//! shard. The coordinator's work is routing, one exchange and one merge:
//!
//! * **Compiling.** The coordinator keeps every table's schema — its
//!   columns, their declared index kinds and whether each is
//!   integer-valued — so it compiles a query itself, through the one
//!   planner ([`mmdb::plan::compile`]) a [`Database`] uses: no shard is
//!   asked anything until the plan runs, and the errors and their order
//!   are the unsharded catalog's.
//! * **Routing.** Compiling records a [`Routing`] on the plan. One
//!   routing function, `ShardedState::targets`, decides where a probe
//!   goes — equality on the shard key prunes to one shard, a range to
//!   the overlapping shards of a range partitioner, anything else fans
//!   to every shard — and serves compile and both probe batches alike. Execute routes
//!   the plan's body again and refuses, typed, a plan whose routing
//!   differs: one compiled for another shard count, partitioner or shard
//!   key, or for an unsharded catalog.
//! * **The exchange** runs one fat job per target shard on the shared
//!   [`ccindex_parallel::WorkerPool`]. A plan is *shard-local* when it
//!   has no join, or when its join is co-located: the outer join column
//!   is the outer table's shard key and the inner join column the inner
//!   table's, so — every table being placed by the one catalog-wide
//!   partitioner — an outer row on shard *s* can only match inner rows
//!   on *s*. Such a plan is an exchange at the root: its body goes to
//!   each routed shard as **one** [`ShardRead::run_spec`]. A join that is
//!   not co-located is the only other shape: an outer exchange has each
//!   routed shard select its rows and hand over their join-key values,
//!   the coordinator buckets them by owning inner shard (when the join
//!   column *is* the inner table's shard key) or fans them to every
//!   inner shard, and an inner exchange probes the inner shards' indexes.
//!   A probe batch is an exchange of its routed probe subsets. A query
//!   with no filter, join or group asks no shard at all: the placement
//!   metadata already knows every row. The shards run side by side, so
//!   an explicit `exec.threads` is split between them rather than
//!   multiplied by them.
//! * **The merge** follows from the body's shape. Local RIDs become
//!   global through the checked placement lookup (a RID a shard does not
//!   hold is a typed error naming the shard), then RID sets sort into
//!   global row order, join rows into the sequential join's `(outer,
//!   inner)` order, and partial aggregates merge by group value: their
//!   decoded groups are dictionary-encoded and folded by the one grouping
//!   operator, `group_aggregate_pairs`, as a worker's partials are.
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
use mmdb::plan::{
    self, GroupStep, JoinRouting, JoinStep, Plan, PlanTimings, Probe, Routing, Schema,
    ShardTargets, Side,
};
use mmdb::{
    between, eq, group_aggregate_pairs, on, Agg, AggFn, CatalogRead, Column, Database, ExecOptions,
    GroupRow, Handle, IndexKind, JoinRow, Measure, MmdbError, Mutation, Pinned, PredicateOp, Query,
    QuerySpec, RebuildReport, Result, ResultRows, ResultSet, SwapSlot, Table, TransportFault,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The sharded catalog
// ---------------------------------------------------------------------

/// N per-shard [`Database`] catalogs behind one engine surface; every
/// read goes through `Deref` to the latest composed [`ShardedState`].
///
/// Follows the same epoch/snapshot discipline as [`Database`], and the
/// same shape: a writer-private `tip`, a shared commit `slot`, and (the
/// sharded extra) the mutable [`ShardBackend`] per shard. Every
/// successful mutation commits the tip once, as a composed
/// [`ShardedState`] — built from per-shard catalog generations updated
/// under the *same* mutation — so a pinned [`ShardedSnapshot`] always
/// sees every shard at one consistent commit (never a
/// half-re-partitioned table or a column/index mix across shards).
///
/// # Failed mutations
///
/// A mutation first validates what it can on the coordinator (the
/// typed errors each method lists); such a failure touches nothing.
/// After that it hands each shard its part as one batch of
/// [`Mutation`]s ([`ShardBackend::apply`]), in shard order, and
/// publishes once. Every shard, in-process or remote, commits its batch
/// as one generation, or nothing if the batch fails. A backend fault on
/// shard *k* — a [`MmdbError::Transport`] from a remote shard, say —
/// returns `Err` with shards `0..k` already mutated and nothing
/// published. What holds then is that the in-process composed
/// generation is unchanged: reads through the catalog, its
/// [`ShardedHandle`]s and its snapshots answer exactly as before, from
/// the per-shard pins of the last commit. The backends themselves are
/// not rolled back: committing a multi-shard mutation atomically (stage
/// on every shard, then commit) is still to come.
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
    /// Column names in declaration order, as registered (neither a
    /// column replacement nor a repartition adds or drops one), each
    /// with whether every value of the global column is an `Int`
    /// ([`mmdb::Domain::is_int`]), kept current by every replacement.
    columns: Vec<(String, bool)>,
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
}

impl ShardMetrics {
    fn install(registry: MetricArc<obs::Registry>) -> Self {
        Self {
            route_pruned: registry.counter("shard.route.pruned"),
            route_fanned: registry.counter("shard.route.fanned"),
            scatter_ns: registry.histogram("shard.scatter.ns"),
            gather_ns: registry.histogram("shard.gather.ns"),
            route_pushdown: registry.counter("shard.route.pushdown"),
            registry,
        }
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
    /// Execution options start at [`ExecOptions::default`], exactly like
    /// [`Database::new`].
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
    /// shard order. The catalog's [`ExecOptions`] (the default) are
    /// installed on every backend up front, so a shard that is already
    /// unreachable fails construction with a typed error instead of
    /// failing the first query.
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
        let exec = ExecOptions::default();
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
        let options = options.normalized();
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
    /// of `shard_key`. Fails — before any shard is touched — with a
    /// typed error when the name is taken, the key column is missing, or
    /// a key falls outside the partitioner's declared ranges
    /// ([`MmdbError::ShardKeyOutOfRange`]); a backend fault afterwards
    /// leaves the composed generation, not the backends, unchanged (see
    /// [failed mutations](ShardedDatabase#failed-mutations)).
    pub fn register(&mut self, table: Table, shard_key: &str) -> Result<()> {
        let name = table.name().to_owned();
        if self.tip.tables.contains_key(&name) {
            return Err(MmdbError::DuplicateTable { table: name });
        }
        let key_col = table.try_column(shard_key)?;
        let (placement, locals) = self.place_rows(key_col)?;
        let split = split_table(&table, &locals);
        self.apply_per_shard(split.into_iter().map(|t| vec![Mutation::Register(t)]))?;
        self.tip.tables.insert(
            name,
            Arc::new(ShardedTable {
                shard_key: shard_key.to_owned(),
                rows: table.rows(),
                columns: (table.columns())
                    .map(|(name, col)| (name.to_owned(), col.domain().is_int()))
                    .collect(),
                placement,
                locals,
                indexes: BTreeMap::new(),
            }),
        );
        self.publish();
        Ok(())
    }

    /// Build (or rebuild) a `kind` index on `table.column` — on every
    /// shard, so scattered probes always find their access path. An
    /// unknown table fails before any shard is touched; a failure on
    /// shard *k* leaves the composed generation, not the backends,
    /// unchanged (see [failed mutations](ShardedDatabase#failed-mutations)).
    pub fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.tip.meta(table)?;
        self.apply_everywhere(Mutation::CreateIndex(table.into(), column.into(), kind))?;
        Arc::make_mut(self.tip.tables.get_mut(table).expect("checked above"))
            .indexes
            .entry(column.to_owned())
            .or_default()
            .insert(kind);
        self.publish();
        Ok(())
    }

    /// Drop the `kind` index on `table.column` from every shard. An
    /// unknown table fails before any shard is touched; a failure on
    /// shard *k* leaves the composed generation, not the backends,
    /// unchanged (see [failed mutations](ShardedDatabase#failed-mutations)).
    pub fn drop_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.tip.meta(table)?;
        self.apply_everywhere(Mutation::DropIndex(table.into(), column.into(), kind))?;
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
    /// keys, and each shard gets one batch that drops its table,
    /// registers the re-split one and re-creates every registered index
    /// — one generation on an in-process shard. The validation errors
    /// (unknown table or column, length mismatch, a new key outside the
    /// declared ranges) fail before any shard is touched; a backend
    /// fault afterwards leaves the composed generation, not the
    /// backends, unchanged (see
    /// [failed mutations](ShardedDatabase#failed-mutations)).
    pub fn replace_column(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<Value>,
    ) -> Result<ShardedRebuildReport> {
        let meta = self.tip.meta(table)?;
        let Some(at) = meta.columns.iter().position(|(c, _)| c == column) else {
            return Err(MmdbError::UnknownColumn {
                table: table.to_owned(),
                column: column.to_owned(),
            });
        };
        if values.len() != meta.rows {
            return Err(MmdbError::RaggedColumn {
                table: table.to_owned(),
                column: column.to_owned(),
                expected: meta.rows,
                got: values.len(),
            });
        }
        if column == meta.shard_key {
            return self.repartition(table, at, values);
        }
        let is_int = values.iter().all(|v| matches!(v, Value::Int(_)));
        // Route each row's new value to the shard that owns the row.
        let batches: Vec<Vec<Mutation>> = (meta.locals.iter())
            .map(|l| l.iter().map(|&g| values[g as usize].clone()).collect())
            .map(|vals| vec![Mutation::ReplaceColumn(table.into(), column.into(), vals)])
            .collect();
        let per_shard = self.apply_per_shard(batches)?;
        let meta = Arc::make_mut(self.tip.tables.get_mut(table).expect("checked above"));
        meta.columns[at].1 = is_int;
        // One composed commit after every shard finished its cycle:
        // snapshots see either no shard updated or all of them.
        self.publish();
        Ok(ShardedRebuildReport {
            repartitioned: false,
            per_shard,
        })
    }

    /// Re-run the rebuild cycle for `table.column` on every shard (each
    /// shard re-sorts its own RID list). An unknown table fails before
    /// any shard is touched; a failure on shard *k* leaves the composed
    /// generation, not the backends, unchanged (see
    /// [failed mutations](ShardedDatabase#failed-mutations)).
    pub fn rebuild_column(&mut self, table: &str, column: &str) -> Result<Vec<RebuildReport>> {
        self.tip.meta(table)?;
        let reports =
            self.apply_everywhere(Mutation::RebuildColumn(table.into(), column.into()))?;
        self.publish();
        Ok(reports)
    }

    // ---- internals ----

    /// Apply one batch per shard, in shard order, stopping at the first
    /// failure (see [failed mutations](ShardedDatabase#failed-mutations)):
    /// the shards' reports, concatenated in shard order. The one place a
    /// catalog edit reaches the backends; the caller publishes.
    fn apply_per_shard(
        &mut self,
        batches: impl IntoIterator<Item = Vec<Mutation>>,
    ) -> Result<Vec<RebuildReport>> {
        let mut reports = Vec::new();
        for (shard, batch) in self.shards.iter_mut().zip(batches) {
            reports.extend(shard.apply(batch)?);
        }
        Ok(reports)
    }

    /// [`ShardedDatabase::apply_per_shard`] with the same one-mutation
    /// batch on every shard.
    fn apply_everywhere(&mut self, mutation: Mutation) -> Result<Vec<RebuildReport>> {
        self.apply_per_shard(vec![vec![mutation]; self.shards.len()])
    }

    /// Commit the composed catalog: re-pin every shard's current tip
    /// into the placement metadata the mutation just updated, and
    /// install the result as the next immutable [`ShardedState`]. Called
    /// exactly once at the end of every successful mutation, *after* all
    /// shards updated — a pinned snapshot never observes half a
    /// cross-shard mutation.
    fn publish(&mut self) {
        self.tip.shards = self.shards.iter().map(|b| b.pin()).collect();
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
    /// send every shard one `[DropTable, Register, CreateIndex…]` batch.
    fn repartition(
        &mut self,
        table: &str,
        key_at: usize,
        new_keys: Vec<Value>,
    ) -> Result<ShardedRebuildReport> {
        // Validate the new placement first — the catalog stays untouched
        // when a new key has no owning shard.
        let new_key_col = Column::from_values(new_keys);
        let (placement, locals) = self.place_rows(&new_key_col)?;

        // Reassemble each column's global values from the current shards.
        let meta = &self.tip.tables[table];
        let mut global = Vec::with_capacity(meta.columns.len());
        for (at, (name, _)) in meta.columns.iter().enumerate() {
            let column = if at == key_at {
                new_key_col.clone()
            } else {
                // One batched fetch per shard (a single round trip for
                // a remote shard) — the row loop below then runs on
                // plain slice accesses.
                let shard_vals: Vec<Vec<Value>> = self
                    .shards
                    .iter()
                    .map(|shard| shard.reader().column_values(table, name, None))
                    .collect::<Result<_>>()?;
                let values = (meta.placement.iter())
                    .map(|&(s, l)| shard_vals[s as usize][l as usize].clone())
                    .collect::<Vec<_>>();
                Column::from_values(values)
            };
            global.push((name.clone(), column));
        }
        let global = mmdb::Table::from_parts(table, global)?;

        // One batch per shard swaps in its re-split table and re-creates
        // the indexes, so a local shard commits it as one generation.
        let indexes: Vec<Mutation> = (meta.indexes.iter())
            .flat_map(|(c, ks)| ks.iter().map(move |&k| (c, k)))
            .map(|(c, k)| Mutation::CreateIndex(table.into(), c.clone(), k))
            .collect();
        let batches = split_table(&global, &locals).into_iter().map(|t| {
            let swap = [Mutation::DropTable(table.into()), Mutation::Register(t)];
            swap.into_iter().chain(indexes.iter().cloned()).collect()
        });
        self.apply_per_shard(batches)?;
        let meta = Arc::make_mut(self.tip.tables.get_mut(table).expect("present"));
        meta.placement = placement;
        meta.locals = locals;
        meta.columns[key_at].1 = new_key_col.domain().is_int();
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
    /// `shard.route.pushdown` (queries run as shard-local plans), plus
    /// `transport.retries` when any shard is remote. Shared with every
    /// committed generation, so probes through pinned snapshots record
    /// into the same series as probes through the live
    /// [`ShardedDatabase`].
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

    /// Start a composable query over `table` against this generation —
    /// the one [`mmdb::Query`] builder, compiled into the one [`Plan`]
    /// with its shard [`Routing`] recorded. Conjuncts on the shard-key
    /// column prune the scatter set.
    pub fn query(&self, table: impl Into<String>) -> Query<'_, ShardedState> {
        Query::new(self, table)
    }

    /// Whether `table.column` is integer-valued; `None` when there is no
    /// such column.
    fn column_is_int(&self, table: &str, column: &str) -> Option<bool> {
        let meta = self.meta(table).ok()?;
        meta.columns
            .iter()
            .find(|(c, _)| c == column)
            .map(|&(_, int)| int)
    }

    fn meta(&self, table: &str) -> Result<&ShardedTable> {
        self.tables
            .get(table)
            .map(|t| &**t)
            .ok_or_else(|| MmdbError::UnknownTable {
                table: table.to_owned(),
            })
    }

    /// The routing function, and the one caller of the partitioner's
    /// probe routing: the shards a probe on `column` of `meta`'s table
    /// can match. Only a probe on the table's shard key prunes — an
    /// equality to the key's owner, a range to the shards it overlaps
    /// (an unowned key or an inverted range to none); any other column
    /// fans to every shard.
    fn targets(&self, meta: &ShardedTable, column: &str, op: PredicateOp<'_>) -> ShardTargets {
        if column != meta.shard_key {
            return ShardTargets::All;
        }
        let routed = match op {
            PredicateOp::Eq(v) => self.partitioner.probe_shards(v),
            PredicateOp::Between(lo, hi) => self.partitioner.range_shards(lo, hi),
        };
        if routed.len() == self.shards.len() {
            ShardTargets::All
        } else {
            ShardTargets::Pruned(routed)
        }
    }

    /// The [`Routing`] this generation gives `plan`'s body: each probe
    /// step through [`ShardedState::targets`], the scatter set as the
    /// intersection of every pruning, and the join bucketed when its
    /// inner column is the inner table's shard key. Compile records it;
    /// execute recomputes it, so a plan compiled against another catalog
    /// shape is refused instead of silently dropping rows.
    fn route(&self, plan: &Plan) -> Result<Routing> {
        let meta = self.meta(&plan.table)?;
        let probe_targets: Vec<ShardTargets> = plan
            .probes
            .iter()
            .map(|step| {
                let op = match &step.probe {
                    Probe::Point(v) => PredicateOp::Eq(v),
                    Probe::Range(lo, hi) => PredicateOp::Between(lo, hi),
                };
                self.targets(meta, &step.column, op)
            })
            .collect();
        let mut selected: Vec<usize> = (0..self.shards.len()).collect();
        for target in &probe_targets {
            if let ShardTargets::Pruned(routed) = target {
                selected.retain(|s| routed.contains(s));
            }
        }
        let join = plan.join.as_ref().map(|j| match self.meta(&j.inner_table) {
            Ok(inner) if inner.shard_key == j.inner_column => JoinRouting::Bucketed,
            _ => JoinRouting::Fanned,
        });
        Ok(Routing {
            shards: self.shards.len(),
            partitioner: self.partitioner.describe(),
            shard_key: meta.shard_key.clone(),
            probe_targets,
            selected,
            join,
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

    /// One probe batch on `meta`'s table `column`: each probe routes
    /// through [`ShardedState::targets`], every shard with probes to
    /// answer gets one `answer` call over the exchange (the whole batch,
    /// borrowed, when it answers every probe; its own subset otherwise),
    /// and the merge translates the local RID sets back into each probe's
    /// submission slot. A probe that routed to no shard (an unowned key)
    /// still owns its slot and answers with the empty set.
    fn probe_batch<P: Clone + Sync>(
        &self,
        meta: &ShardedTable,
        column: &str,
        probes: &[P],
        op: fn(&P) -> PredicateOp<'_>,
        answer: impl Fn(&dyn ShardRead, &[P]) -> Result<Vec<Vec<u32>>> + Sync,
    ) -> Result<Vec<Vec<u32>>> {
        match column == meta.shard_key {
            true => self.metrics.route_pruned.inc(),
            false => self.metrics.route_fanned.inc(),
        }
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (slot, probe) in probes.iter().enumerate() {
            match self.targets(meta, column, op(probe)) {
                ShardTargets::All => slots.iter_mut().for_each(|own| own.push(slot)),
                ShardTargets::Pruned(routed) => {
                    routed.into_iter().for_each(|s| slots[s].push(slot))
                }
            }
        }
        let jobs: Vec<(usize, Cow<'_, [P]>)> = (0..slots.len())
            .filter(|&s| !slots[s].is_empty())
            .map(|s| match slots[s].len() == probes.len() {
                true => (s, Cow::Borrowed(probes)),
                false => (s, slots[s].iter().map(|&i| probes[i].clone()).collect()),
            })
            .collect();
        let scattering = std::time::Instant::now();
        let replies = exchange(self.exec.threads, &jobs, |(s, batch)| {
            answer(&*self.shards[*s], batch)
        });
        self.metrics.scatter_ns.record(obs::elapsed_ns(&scattering));
        let gathering = std::time::Instant::now();
        let merge = |_| Merge {
            state: self,
            outer: meta,
            shape: Shape::Rids(Vec::new()),
        };
        let mut merged: Vec<Merge<'_>> = probes.iter().map(merge).collect();
        for ((s, _), sets) in jobs.iter().zip(replies) {
            for (&slot, local) in slots[*s].iter().zip(sets?) {
                merged[slot].add(*s, *s, ResultRows::Rids(local))?;
            }
        }
        let out = merged
            .into_iter()
            .map(|merge| match merge.finish() {
                ResultRows::Rids(rids) => rids,
                _ => unreachable!("a probe's merge holds RIDs"),
            })
            .collect();
        self.metrics.gather_ns.record(obs::elapsed_ns(&gathering));
        Ok(out)
    }

    /// The shard-local shape's exchange: the plan's body, as a
    /// [`QuerySpec`], to every routed shard holding rows of the outer
    /// table — one [`ShardRead::run_spec`] each.
    fn local_exchange(&self, plan: &Plan, meta: &ShardedTable) -> Vec<Reply> {
        self.metrics.route_pushdown.inc();
        // A shard holding none of the outer table's rows answers every
        // plan with nothing, so it is not asked. A whole per-shard plan
        // is a fat job, so `0` threads here means one worker per shard
        // (capped at the core count by the pool), not the probe-count
        // adaptive.
        let routed: Vec<usize> = (plan.routing.selected.iter().copied())
            .filter(|&s| !meta.locals[s].is_empty())
            .collect();
        // An explicit thread count is the query's whole budget, not each
        // shard's: the shards run side by side, so each gets its share
        // (as the jobs of a coordinator join do) as its exec override.
        // Otherwise the plan's exec goes out only when it differs from
        // the catalog's, which every shard already runs with.
        let share = (plan.exec.threads / routed.len().max(1)).max(1);
        let exec = match plan.exec.threads > share {
            true => Some(ExecOptions {
                threads: share,
                ..plan.exec
            }),
            false => (plan.exec != self.exec).then_some(plan.exec),
        };
        let spec = shipped_spec(plan, exec);
        let replies = exchange(plan.exec.threads, &routed, |&s| {
            self.shards[s].run_spec(&spec)
        });
        routed.into_iter().map(|s| (s, s)).zip(replies).collect()
    }

    /// The streamed shape's two exchanges, for a join that is not
    /// co-located: matches for an outer row can live on another shard,
    /// so the outer stream comes to the coordinator. The outer exchange
    /// has each routed shard select its rows (the plan's filters, shipped
    /// as a filter-only spec to [`ShardRead::run_spec`]) and hand over
    /// their join-key values — once; the coordinator cuts them into jobs,
    /// bucketed by the owning inner shard when the join column is the
    /// inner shard key and fanned to every inner shard otherwise (bucket
    /// order follows the outer stream, so no probe order is lost); the
    /// inner exchange probes the inner shards' indexes, and folds each
    /// job's partial aggregates for a grouped join.
    fn join_exchange(&self, plan: &Plan, meta: &ShardedTable, j: &JoinStep) -> Result<Vec<Reply>> {
        let exec = plan.exec;
        let inner = self.meta(&j.inner_table)?;
        let select = (!plan.probes.is_empty()).then(|| QuerySpec {
            join: None,
            group: None,
            ..shipped_spec(plan, Some(exec))
        });
        let scatter = &plan.routing.selected;
        let streams = exchange(
            exec.threads,
            scatter,
            |&s| -> Result<(Vec<u32>, Vec<Value>)> {
                let rids: Vec<u32> = match &select {
                    Some(spec) => match self.shards[s].run_spec(spec)? {
                        ResultRows::Rids(rids) => rids,
                        other => {
                            return Err(MmdbError::transport(
                                &self.shards[s].describe(),
                                TransportFault::Protocol,
                                format!(
                                    "shard {s} answered a selection with a {} result",
                                    other.shape()
                                ),
                            ))
                        }
                    },
                    None => (0..meta.locals[s].len() as u32).collect(),
                };
                if rids.is_empty() {
                    return Ok((rids, Vec::new()));
                }
                // No filter means every row: ask for the whole column
                // instead of shipping the RIDs back.
                let wanted = select.as_ref().map(|_| rids.as_slice());
                let keys = self.shards[s].column_values(&plan.table, &j.outer_column, wanted)?;
                Ok((rids, keys))
            },
        );
        let streams = streams.into_iter().collect::<Result<Vec<_>>>()?;

        let nshards = self.shards.len();
        let mut jobs: Vec<JoinJob<'_>> = Vec::new();
        for (&s, (rids, keys)) in scatter.iter().zip(&streams) {
            if plan.routing.join == Some(JoinRouting::Bucketed) {
                let mut buckets: Vec<(Vec<u32>, Vec<Value>)> = vec![Default::default(); nshards];
                for (&rid, key) in rids.iter().zip(keys) {
                    // Placement is the bucketing function: inner rows
                    // were placed by `shard_of`, so an outer key it
                    // cannot place matches no inner row (no per-row Vec
                    // like `probe_shards` makes).
                    if let Ok(t) = self.partitioner.shard_of(key) {
                        buckets[t].0.push(rid);
                        buckets[t].1.push(key.clone());
                    }
                }
                for (t, (rids, keys)) in buckets.into_iter().enumerate() {
                    jobs.push(JoinJob {
                        s,
                        t,
                        rids: Cow::Owned(rids),
                        keys: Cow::Owned(keys),
                    });
                }
            } else {
                for t in 0..nshards {
                    jobs.push(JoinJob {
                        s,
                        t,
                        rids: Cow::Borrowed(rids),
                        keys: Cow::Borrowed(keys),
                    });
                }
            }
        }
        jobs.retain(|job| !job.rids.is_empty() && !inner.locals[job.t].is_empty());

        let total: usize = jobs.iter().map(|job| job.rids.len()).sum();
        let pool_threads = match exec.threads {
            0 => ccindex_parallel::adaptive_threads(total),
            n => n,
        };
        // When there are fewer jobs than workers (one shard, or a
        // hard-pruned scatter), hand each job the leftover parallelism
        // so a big join still spreads its outer RID chunks like the
        // unsharded engine would.
        let job_threads = (pool_threads / jobs.len().max(1)).max(1);
        let replies = exchange(pool_threads, &jobs, |job| {
            let rows = join_job(self, j, job, exec.lanes, job_threads)?;
            match &plan.group {
                None => Ok(ResultRows::Joined(rows)),
                Some(g) => self
                    .job_groups(plan, j, g, job, rows)
                    .map(ResultRows::Groups),
            }
        });
        Ok(jobs.iter().map(|job| (job.s, job.t)).zip(replies).collect())
    }

    /// One streamed job's partial aggregates. The group and measure
    /// columns can live on *different* backends (outer vs inner side),
    /// so the job fetches each side's decoded values through its owning
    /// backend, dictionary-encodes the groups and folds the pairs
    /// coordinator-side with the one grouping operator.
    fn job_groups(
        &self,
        plan: &Plan,
        j: &JoinStep,
        g: &GroupStep,
        job: &JoinJob<'_>,
        rows: Vec<JoinRow>,
    ) -> Result<Vec<GroupRow>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let owner = |side| match side {
            Side::Outer => (job.s, &plan.table),
            Side::Inner => (job.t, &j.inner_table),
        };
        let fetch = |column: &str, side: Side| {
            let rids: Vec<u32> = (rows.iter())
                .map(|r| match side {
                    Side::Outer => r.outer_rid,
                    Side::Inner => r.inner_rid,
                })
                .collect();
            let (shard, table) = owner(side);
            self.shards[shard].column_values(table, column, Some(&rids))
        };
        let groups = fetch(&g.column, g.side)?;
        let measures: Vec<i64> = match &g.measure {
            None => {
                Measure::resolve(g.agg, None)?;
                vec![1; rows.len()]
            }
            Some((m, side)) => (fetch(m, *side)?.into_iter())
                .map(|v| match v {
                    Value::Int(v) => Ok(v),
                    Value::Str(_) => Err(MmdbError::NonIntegerMeasure {
                        table: owner(*side).1.clone(),
                        column: m.clone(),
                    }),
                })
                .collect::<Result<_>>()?,
        };
        Ok(group_by_value(groups.into_iter().zip(measures), g.agg))
    }
}

/// The planner's view of this generation: the schema the coordinator
/// registered and keeps current, so compiling asks no shard. A plan's
/// body runs on each routed shard, so its `rows_hint`s are shard 0's row
/// count, as a shard's own compile of the body would record.
impl Schema for ShardedState {
    fn rows(&self, table: &str) -> Result<usize> {
        Ok(self.meta(table)?.locals[0].len())
    }

    fn has_column(&self, table: &str, column: &str) -> bool {
        self.column_is_int(table, column).is_some()
    }

    fn kinds(&self, table: &str, column: &str) -> Option<&BTreeSet<IndexKind>> {
        self.meta(table).ok()?.indexes.get(column)
    }

    fn is_int(&self, table: &str, column: &str) -> bool {
        self.column_is_int(table, column) == Some(true)
    }
}

impl CatalogRead for ShardedState {
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
        // Check the access path before routing, so a missing column or
        // index fails typed even when routing prunes every probe away:
        // the per-request query path errors there, and batch answers
        // must match it byte for byte.
        plan::check_index(self, table, column, false, None)?;
        self.probe_batch(
            meta,
            column,
            values,
            |v| PredicateOp::Eq(v),
            |shard, vals| shard.point_probe_batch(table, column, vals),
        )
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
        // Same upfront check as the point path: an unordered-only column
        // must fail `NoOrderedIndex` even if every range routes nowhere.
        plan::check_index(self, table, column, true, None)?;
        let op: fn(&(Value, Value)) -> PredicateOp<'_> = |(lo, hi)| PredicateOp::Between(lo, hi);
        self.probe_batch(meta, column, ranges, op, |shard, rs| {
            shard.range_probe_batch(table, column, rs)
        })
    }

    /// Compile `spec`: the per-shard body from the one planner over the
    /// schema this generation keeps (no shard is asked), then its
    /// [`Routing`].
    fn compile(&self, spec: &QuerySpec) -> Result<Plan> {
        let mut plan = plan::compile(self, self.exec, spec)?;
        plan.routing = self.route(&plan)?;
        Ok(plan)
    }

    /// Execute against one composed generation, normally the one the
    /// plan was compiled against: a [`ShardedDatabase`]'s latest or a
    /// pinned [`ShardedSnapshot`]; byte-identical output. Names
    /// re-resolve, and the plan's routing must be the one this
    /// generation gives its body — same shard count, partitioner and
    /// shard keys — so a plan compiled against a different catalog shape
    /// (or an unsharded one) fails typed, never drops rows. The exchange
    /// runs the body on the routed shards and the one merge composes the
    /// replies; the result's timings carry the total only, as there is no
    /// per-node breakdown across shards.
    fn execute(&self, plan: &Plan) -> Result<ResultSet<'_, Self>> {
        let started = std::time::Instant::now();
        plan.routing.check(&self.route(plan)?)?;
        let meta = self.meta(&plan.table)?;
        let rows = if plan.probes.is_empty() && plan.join.is_none() && plan.group.is_none() {
            // Every row qualifies, and the placement metadata already
            // knows every row: no shard is asked.
            ResultRows::Rids((0..meta.rows as u32).collect())
        } else {
            let replies = match plan.coordinator_join() {
                Some(j) => self.join_exchange(plan, meta, j)?,
                None => self.local_exchange(plan, meta),
            };
            let mut merge = Merge::for_plan(self, plan, meta)?;
            for ((s, t), reply) in replies {
                merge.add(s, t, reply?)?;
            }
            merge.finish()
        };
        let timings = PlanTimings {
            total_ns: obs::elapsed_ns(&started),
            ..PlanTimings::default()
        };
        Ok(ResultSet::new(self, plan, rows, timings))
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

/// One exchange reply: the outer and inner shard whose local RIDs it
/// holds (the same shard for a shard-local plan), and its answer.
type Reply = ((usize, usize), Result<ResultRows>);

/// The exchange: `job` once per target, one fat job each on a worker
/// pool of `threads`, answers in target order.
fn exchange<K: Sync, T: Send>(
    threads: usize,
    targets: &[K],
    job: impl Fn(&K) -> Result<T> + Sync,
) -> Vec<Result<T>> {
    WorkerPool::new(threads).run(targets.len(), |i| job(&targets[i]))
}

/// The one merge: shards' local answers composed into global rows of
/// the shape the plan's body gives — RID sets translated through the
/// checked [`ShardedState::global_rid`] and sorted into global row
/// order, join rows translated on both sides and sorted into the
/// sequential join's `(outer, inner)` order, partial aggregates folded
/// by group value. A probe batch merges one RID set per probe.
struct Merge<'a> {
    state: &'a ShardedState,
    outer: &'a ShardedTable,
    shape: Shape<'a>,
}

/// What a merge accumulates, with what its shape needs to finish.
enum Shape<'a> {
    Rids(Vec<u32>),
    /// Join rows, and the inner table their inner RIDs index.
    Joined(Vec<JoinRow>, &'a ShardedTable),
    /// Partial aggregates, and the function that folds them.
    Groups(Vec<GroupRow>, AggFn),
}

impl<'a> Merge<'a> {
    /// The merge of `plan`'s answers, shaped by its body.
    fn for_plan(state: &'a ShardedState, plan: &Plan, outer: &'a ShardedTable) -> Result<Self> {
        let shape = match (&plan.group, &plan.join) {
            (Some(g), _) => Shape::Groups(Vec::new(), g.agg),
            (None, Some(j)) => Shape::Joined(Vec::new(), state.meta(&j.inner_table)?),
            (None, None) => Shape::Rids(Vec::new()),
        };
        Ok(Self {
            state,
            outer,
            shape,
        })
    }

    /// Fold `reply` — local RIDs of outer shard `s` and inner shard `t`
    /// — into the merge. A reply of another shape than the plan's is a
    /// typed error naming the shard.
    fn add(&mut self, s: usize, t: usize, reply: ResultRows) -> Result<()> {
        let (state, outer) = (self.state, self.outer);
        match (&mut self.shape, reply) {
            (Shape::Rids(out), ResultRows::Rids(local)) => {
                out.reserve(local.len());
                for l in local {
                    out.push(state.global_rid(outer, s, l)?);
                }
            }
            (Shape::Joined(out, inner), ResultRows::Joined(rows)) => {
                out.reserve(rows.len());
                for r in rows {
                    out.push(JoinRow {
                        outer_rid: state.global_rid(outer, s, r.outer_rid)?,
                        inner_rid: state.global_rid(inner, t, r.inner_rid)?,
                    });
                }
            }
            (Shape::Groups(out, _), ResultRows::Groups(rows)) => out.extend(rows),
            (_, other) => {
                return Err(MmdbError::Unsupported {
                    what: format!(
                        "shard {s} ({}) answered a {} result to a plan of another shape",
                        state.shards[s].describe(),
                        other.shape()
                    ),
                })
            }
        }
        Ok(())
    }

    /// The merged rows.
    fn finish(self) -> ResultRows {
        match self.shape {
            Shape::Rids(mut rids) => {
                rids.sort_unstable();
                ResultRows::Rids(rids)
            }
            Shape::Joined(mut rows, _) => {
                rows.sort_unstable();
                ResultRows::Joined(rows)
            }
            Shape::Groups(partials, agg) => ResultRows::Groups(group_by_value(
                partials.into_iter().map(|r| (r.group, r.value)),
                agg,
            )),
        }
    }
}

/// The query a routed shard runs for a shard-local `plan`: its body as
/// a [`QuerySpec`], with `exec` as the override. Each shard checks its
/// own indexes, exactly as the coordinator did for the body against the
/// declarations it keeps; every shard holds those indexes, and each
/// answers from its columns' RID lists.
fn shipped_spec(plan: &Plan, exec: Option<ExecOptions>) -> QuerySpec {
    let mut spec = QuerySpec::table(plan.table.clone());
    for step in &plan.probes {
        spec = spec.filter(match &step.probe {
            Probe::Point(v) => eq(&step.column, v.clone()),
            Probe::Range(lo, hi) => between(&step.column, lo.clone(), hi.clone()),
        });
    }
    if let Some(j) = &plan.join {
        spec = spec.join(&j.inner_table, on(&j.outer_column, &j.inner_column));
    }
    if let Some(g) = &plan.group {
        let measure = g
            .measure
            .as_ref()
            .map(|(m, _)| m.clone())
            .unwrap_or_default();
        let agg = match g.agg {
            AggFn::Count => Agg::Count,
            AggFn::Sum => Agg::Sum(measure),
            AggFn::Min => Agg::Min(measure),
            AggFn::Max => Agg::Max(measure),
        };
        spec = spec.group_by(&g.column, agg);
    }
    spec.exec = exec;
    spec
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

/// One job of the inner exchange of a join that is not co-located:
/// outer shard `s`'s rows whose matches can live on inner shard `t`,
/// with their join-key values. A fanned join borrows the outer shard's
/// whole stream for every `t`; a bucketed one owns its subset.
struct JoinJob<'a> {
    s: usize,
    t: usize,
    rids: Cow<'a, [u32]>,
    keys: Cow<'a, [Value]>,
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
        job.keys.to_vec(),
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
    let column = Column::from_values(groups);
    group_aggregate_pairs(&column, values.len(), |i| (i as u32, values[i]), agg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{HashPartitioner, RangePartitioner};
    use mmdb::{count, TableBuilder, TransportFault};
    use std::sync::Mutex;

    /// What a [`Fake`] shard gets wrong.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        /// Nothing: a faithful shard.
        None,
        /// Every RID it answers is past its rows — what a wrong or stale
        /// reply across the wire looks like to the merge.
        Shift,
        /// Only its join-probe answers are past the inner rows: the outer
        /// stream it hands a streamed join is faithful, so the fault
        /// shows where the inner side is read.
        ShiftJoinProbes,
        /// A whole query answers with a result of another shape.
        Reshape,
    }

    /// Past any row count in these tests.
    const SHIFT: u32 = 1_000_000;

    /// A shard that records the exec override of every spec it is sent
    /// and answers with its `fault`.
    #[derive(Debug)]
    struct Fake {
        inner: Arc<dyn ShardRead>,
        fault: Fault,
        sent: Mutex<Vec<Option<ExecOptions>>>,
    }

    impl Fake {
        fn shift(&self, rid: u32) -> u32 {
            rid + if self.fault == Fault::Shift { SHIFT } else { 0 }
        }

        fn shift_sets(&self, sets: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
            sets.into_iter()
                .map(|set| set.into_iter().map(|r| self.shift(r)).collect())
                .collect()
        }

        /// `sets` with every RID past the rows under either shift.
        fn shift_join_probes(&self, sets: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
            match self.fault {
                Fault::ShiftJoinProbes => sets
                    .into_iter()
                    .map(|set| set.into_iter().map(|r| r + SHIFT).collect())
                    .collect(),
                _ => self.shift_sets(sets),
            }
        }
    }

    impl ShardRead for Fake {
        fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
            self.sent.lock().unwrap().push(spec.exec);
            Ok(match (self.inner.run_spec(spec)?, self.fault) {
                (ResultRows::Rids(_), Fault::Reshape) => ResultRows::Groups(Vec::new()),
                (_, Fault::Reshape) => ResultRows::Rids(Vec::new()),
                (ResultRows::Rids(rids), _) => {
                    ResultRows::Rids(rids.into_iter().map(|r| self.shift(r)).collect())
                }
                (ResultRows::Joined(rows), _) => ResultRows::Joined(
                    rows.into_iter()
                        .map(|r| JoinRow {
                            inner_rid: self.shift(r.inner_rid),
                            ..r
                        })
                        .collect(),
                ),
                (groups, _) => groups,
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
        fn join_probe_batch(
            &self,
            t: &str,
            c: &str,
            v: Vec<Value>,
            lanes: usize,
            threads: usize,
        ) -> Result<Vec<Vec<u32>>> {
            let sets = self.inner.join_probe_batch(t, c, v, lanes, threads)?;
            Ok(self.shift_join_probes(sets))
        }
        fn column_values(&self, t: &str, c: &str, rids: Option<&[u32]>) -> Result<Vec<Value>> {
            self.inner.column_values(t, c, rids)
        }
        fn fetch_snapshot(&self) -> Result<Vec<u8>> {
            self.inner.fetch_snapshot()
        }
        fn generation(&self) -> Result<u64> {
            self.inner.generation()
        }
        fn describe(&self) -> String {
            format!("fake {}", self.inner.describe())
        }
    }

    /// `sales` ⋈ `customers` over `partitioner` at `threads` workers,
    /// `sales` sharded on `sales_key` and `customers` on `id`: the
    /// catalog, built through `backends`.
    fn catalog<P: Partitioner + 'static>(
        partitioner: P,
        backends: Vec<Box<dyn ShardBackend>>,
        threads: usize,
        sales_key: &str,
    ) -> ShardedDatabase {
        let mut db = ShardedDatabase::with_backends(partitioner, backends).unwrap();
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
            .str_column("region", (0..40).map(|i| ["e", "w", "n", "s"][i % 4]))
            .build()
            .unwrap();
        db.register(sales, sales_key).unwrap();
        db.register(customers, "id").unwrap();
        for (table, column) in [("sales", "cust"), ("sales", "amount"), ("customers", "id")] {
            db.create_index(table, column, IndexKind::FullCss).unwrap();
        }
        db
    }

    fn local_backends(shards: usize) -> Vec<Box<dyn ShardBackend>> {
        (0..shards)
            .map(|_| Box::new(LocalShard::new(Database::new())) as Box<dyn ShardBackend>)
            .collect()
    }

    /// [`catalog`] over in-process shards, with shard 1 replaced by a
    /// [`Fake`] making `fault`.
    fn with_a_fake_shard<P: Partitioner + 'static>(
        partitioner: P,
        threads: usize,
        sales_key: &str,
        fault: Fault,
    ) -> (ShardedState, Arc<Fake>) {
        let shards = partitioner.shards();
        let db = catalog(partitioner, local_backends(shards), threads, sales_key);
        let mut state = ShardedState::clone(&db);
        let fake = Arc::new(Fake {
            inner: state.shards[1].clone(),
            fault,
            sent: Mutex::default(),
        });
        state.shards[1] = fake.clone();
        (state, fake)
    }

    fn hash(shards: usize) -> HashPartitioner {
        HashPartitioner::new(shards).unwrap()
    }

    fn assert_names_the_shard<T: std::fmt::Debug>(what: &str, answer: Result<T>, says: &str) {
        match answer {
            Err(MmdbError::Unsupported { what: text }) => assert!(
                text.contains("shard 1 (fake") && text.contains(says),
                "{what}: {text}"
            ),
            other => panic!("{what}: expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_rids_in_a_shard_reply_are_a_typed_error() {
        let rid = "local rid";
        // Shard-local plans: a fanned selection, a co-located join.
        let (state, _) = with_a_fake_shard(hash(2), 1, "cust", Fault::Shift);
        let all = between("amount", 0, 499);
        let select = state.query("sales").filter(all.clone());
        assert!(select.plan().unwrap().is_shard_local());
        assert_names_the_shard("selection", select.run().map(|r| r.rows().clone()), rid);
        let join = select.join("customers", on("cust", "id"));
        assert!(join.plan().unwrap().is_shard_local());
        let joined = join.run().map(|r| r.rows().clone());
        assert_names_the_shard("co-located join", joined, rid);

        // Probe batches, fanned (non-key column) and pruned (shard key).
        let amounts: Vec<Value> = (0..500).map(Value::Int).collect();
        let fanned = state.point_probe_batch("sales", "amount", &amounts);
        assert_names_the_shard("fanned points", fanned, rid);
        let keys: Vec<Value> = (0..40).map(Value::Int).collect();
        let pruned = state.point_probe_batch("sales", "cust", &keys);
        assert_names_the_shard("pruned points", pruned, rid);
        let ranges = [(Value::Int(0), Value::Int(499))];
        let fanned = state.range_probe_batch("sales", "amount", &ranges);
        assert_names_the_shard("fanned ranges", fanned, rid);

        // Ranges on the shard key of a range catalog prune to the
        // shards they overlap: here the fake alone.
        let spans = RangePartitioner::int_spans(0, 39, 2).unwrap();
        let (ranged, _) = with_a_fake_shard(spans, 1, "cust", Fault::Shift);
        let upper = ranged.query("sales").filter(between("cust", 20, 39));
        assert_eq!(upper.plan().unwrap().routing.selected, [1]);
        let ranges = [(Value::Int(20), Value::Int(39))];
        let pruned = ranged.range_probe_batch("sales", "cust", &ranges);
        assert_names_the_shard("pruned ranges", pruned, rid);

        // Joins streamed through the coordinator (bucketed, but the
        // outer table is sharded on another column), with a faithful
        // outer stream: a plain one fails in the merge, a grouped one as
        // soon as its job reads the group column at the fake's RIDs.
        let fault = Fault::ShiftJoinProbes;
        let (state, _) = with_a_fake_shard(hash(2), 1, "amount", fault);
        let join = state
            .query("sales")
            .filter(all)
            .join("customers", on("cust", "id"));
        assert!(!join.plan().unwrap().is_shard_local());
        let joined = join.run().map(|r| r.rows().clone());
        assert_names_the_shard("streamed join", joined, rid);
        let grouped = join.group_by("region", count());
        assert!(!grouped.plan().unwrap().is_shard_local());
        match grouped.run().map(|r| r.rows().clone()) {
            Err(MmdbError::Unsupported { what }) => assert!(
                what.contains("out of range for table `customers`"),
                "{what}"
            ),
            other => panic!("streamed grouped join: expected a typed error, got {other:?}"),
        }

        // A reply of another shape than the plan's, to each shape.
        let (state, _) = with_a_fake_shard(hash(2), 1, "cust", Fault::Reshape);
        let select = state.query("sales").filter(between("amount", 0, 499));
        let join = select.clone().join("customers", on("cust", "id"));
        let grouped = join.clone().group_by("region", count());
        let other_shape = "result to a plan of another shape";
        for (what, query) in [("selection", select), ("join", join), ("grouped", grouped)] {
            assert!(query.plan().unwrap().is_shard_local(), "{what}");
            let answer = query.run().map(|r| r.rows().clone());
            assert_names_the_shard(what, answer, other_shape);
        }
    }

    #[test]
    fn a_streamed_selection_of_another_shape_is_a_protocol_fault() {
        // The outer table is sharded on another column than the join's,
        // so the join streams, and the fake answers its selection with
        // groups.
        let (state, _) = with_a_fake_shard(hash(2), 1, "amount", Fault::Reshape);
        let join = (state.query("sales"))
            .filter(between("amount", 0, 499))
            .join("customers", on("cust", "id"));
        assert!(!join.plan().unwrap().is_shard_local());
        match join.run().map(|r| r.rows().clone()) {
            Err(MmdbError::Transport {
                fault: TransportFault::Protocol,
                detail,
                ..
            }) => assert!(
                detail.contains("shard 1 answered a selection with a grouped result"),
                "{detail}"
            ),
            other => panic!("expected a typed Protocol fault, got {other:?}"),
        }
    }

    /// A local shard whose column replacement fails the way a remote
    /// shard's does when its connection drops.
    #[derive(Debug)]
    struct FailsReplace(LocalShard);

    impl ShardBackend for FailsReplace {
        fn reader(&self) -> &dyn ShardRead {
            self.0.reader()
        }
        fn pin(&self) -> Arc<dyn ShardRead> {
            self.0.pin()
        }
        fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<RebuildReport>> {
            if !batch
                .iter()
                .any(|m| matches!(m, Mutation::ReplaceColumn(..)))
            {
                return self.0.apply(batch);
            }
            Err(MmdbError::transport(
                "shard 1",
                TransportFault::Io,
                "connection reset",
            ))
        }
        fn set_exec_options(&mut self, exec: ExecOptions) -> Result<()> {
            self.0.set_exec_options(exec)
        }
        fn install_snapshot(&mut self, bytes: &[u8]) -> Result<()> {
            self.0.install_snapshot(bytes)
        }
    }

    #[test]
    fn a_backend_fault_mid_mutation_leaves_the_composed_generation_unchanged() {
        let mut backends = local_backends(1);
        backends.push(Box::new(FailsReplace(LocalShard::new(Database::new()))));
        let mut db = catalog(hash(2), backends, 1, "cust");
        let battery = |state: &ShardedState| -> Vec<ResultRows> {
            let q = || state.query("sales").filter(between("amount", 100, 400));
            let answers = [
                q().run(),
                q().join("customers", on("cust", "id")).run(),
                q().join("customers", on("cust", "id"))
                    .group_by("region", count())
                    .run(),
            ];
            let mut rows: Vec<ResultRows> = answers.map(|r| r.unwrap().rows().clone()).into();
            let amounts: Vec<Value> = (0..500).map(Value::Int).collect();
            let sets = state
                .point_probe_batch("sales", "amount", &amounts)
                .unwrap();
            rows.extend(sets.into_iter().map(ResultRows::Rids));
            rows
        };
        let (generation, before) = (db.generation(), battery(&db));
        let (handle, pinned) = (db.handle(), db.snapshot());

        // Shard 0 takes the new values; shard 1 fails.
        let doubled: Vec<Value> = (0..80).map(|i| Value::Int((i * 17) % 500 * 2)).collect();
        let err = db.replace_column("sales", "amount", doubled).unwrap_err();
        assert!(matches!(err, MmdbError::Transport { .. }), "{err:?}");
        let doubled_on_0 = db
            .shard(0)
            .query("sales")
            .filter(between("amount", 500, 998));
        assert!(!doubled_on_0.run().unwrap().is_empty());

        // Nothing was published: every read surface answers as before.
        assert_eq!(db.generation(), generation);
        assert_eq!(handle.generation(), generation);
        assert_eq!(battery(&db), before);
        assert_eq!(battery(&handle.snapshot()), before);
        assert_eq!(battery(&pinned), before);
    }

    #[test]
    fn a_column_replacement_commits_one_generation_on_every_local_shard() {
        let mut db = catalog(hash(2), local_backends(2), 1, "cust");
        db.create_index("sales", "cust", IndexKind::Hash).unwrap();
        let swaps = |db: &ShardedDatabase| [0, 1].map(|s| db.shard(s).swap_count());
        // A plain column, and the shard key: the repartition drops,
        // re-registers and re-indexes `sales` on each shard in one batch.
        let amounts: Vec<Value> = (0..80).map(|i| Value::Int(i * 3)).collect();
        let keys: Vec<Value> = (0..80).map(|i| Value::Int((i * 7) % 40)).collect();
        for (column, values, repartitioned) in [("amount", amounts, false), ("cust", keys, true)] {
            let (before, generation) = (swaps(&db), db.generation());
            let report = db.replace_column("sales", column, values).unwrap();
            assert_eq!(report.repartitioned, repartitioned, "{column}");
            assert_eq!(swaps(&db), before.map(|n| n + 1), "{column}");
            assert_eq!(db.generation(), generation + 1, "{column}");
        }
        let zero = db.query("sales").filter(eq("cust", 0)).run().unwrap();
        assert_eq!(zero.rids(), [0, 40]);
        let kinds = db.shard(1).indexed_kinds("sales", "cust").unwrap();
        assert_eq!(kinds, [IndexKind::FullCss, IndexKind::Hash]);
    }

    #[test]
    fn an_explicit_thread_count_is_split_across_the_routed_shards() {
        let sent = |fake: &Fake| std::mem::take(&mut *fake.sent.lock().unwrap());
        let (state, fake) = with_a_fake_shard(hash(4), 8, "cust", Fault::None);
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
        let (auto, fake) = with_a_fake_shard(hash(4), 0, "cust", Fault::None);
        auto.query("sales")
            .filter(between("amount", 0, 499))
            .run()
            .unwrap();
        assert_eq!(sent(&fake), [None]);
    }
}
