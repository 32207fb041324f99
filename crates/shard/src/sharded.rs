//! The sharded catalog: N per-shard [`Database`] engines behind one
//! `Database`-shaped surface, with scatter-gather query execution.
//!
//! [`ShardedDatabase::register`] splits every table's rows across shards
//! by a declared **shard key** column (placement decided by the
//! [`Partitioner`]); each shard is a complete [`Database`] catalog over
//! its row subset, so every existing operator — batched probes,
//! partitioned joins, grouped aggregation — runs unchanged *inside* a
//! shard. The new work is all routing and merging:
//!
//! * **selections** scatter a probes-only plan to the shards the
//!   partitioner says can match (equality on the shard key prunes to one
//!   shard, ranges prune to the overlapping shards of a range
//!   partitioner) and gather local RID sets back into global row order;
//! * **joins** stream the per-shard outer RID chunks through the inner
//!   table's per-shard indexes over the shared
//!   [`ccindex_parallel::WorkerPool`] — bucketed by owning inner shard
//!   when the join column *is* the inner table's shard key (each probe
//!   batch routed, original probe order restored on merge), fanned to
//!   every inner shard otherwise — and merge the partial outputs back
//!   into the sequential join's `(outer, inner)` order;
//! * **group-bys** aggregate *inside* each scatter job and merge the
//!   per-shard partial aggregates by group value at the gather barrier,
//!   the same commutative merge the partitioned
//!   `group_aggregate_pairs_par` operator uses across workers.
//!
//! Results are **byte-identical** to the same queries on an unsharded
//! [`Database`] for every shard count and both partitioners — the
//! property `tests/sharded_equivalence.rs` and `figures sharded` assert.

use crate::backend::{LocalShard, ShardBackend, ShardRead};
use crate::partition::Partitioner;
use crate::remote::RemoteShard;
use ccindex_obs as obs;
use ccindex_parallel::sync::Arc as MetricArc;
use ccindex_parallel::WorkerPool;
use mmdb::domain::Value;
use mmdb::plan::{Plan, Probe, Side};
use mmdb::{
    Agg, AggFn, CatalogRead, Column, Database, ExecOptions, GroupRow, IndexKind, JoinOn, JoinRow,
    MmdbError, Pinned, Predicate, QuerySpec, RebuildReport, Result, ResultRows, SwapSlot, Table,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The sharded catalog
// ---------------------------------------------------------------------

/// N per-shard [`Database`] catalogs behind one engine surface.
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
}

impl ShardMetrics {
    fn install(registry: MetricArc<obs::Registry>) -> Self {
        Self {
            route_pruned: registry.counter("shard.route.pruned"),
            route_fanned: registry.counter("shard.route.fanned"),
            scatter_ns: registry.histogram("shard.scatter.ns"),
            gather_ns: registry.histogram("shard.gather.ns"),
            registry,
        }
    }
}

/// Nanoseconds since `since`, saturating at `u64::MAX`.
fn elapsed_ns(since: &std::time::Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

/// A cloneable, `Send + Sync` reader handle onto a live
/// [`ShardedDatabase`]: readers on other threads call
/// [`snapshot`](ShardedHandle::snapshot) to pin the current composed
/// generation while the owning thread keeps `&mut` access for commits.
#[derive(Debug, Clone)]
pub struct ShardedHandle {
    slot: Arc<SwapSlot<ShardedState>>,
}

impl ShardedHandle {
    /// Pin the current composed generation (identical to
    /// [`ShardedDatabase::snapshot`]).
    pub fn snapshot(&self) -> ShardedSnapshot {
        self.slot.pin()
    }

    /// The generation number of the current committed state.
    pub fn generation(&self) -> u64 {
        self.slot.generation()
    }

    /// How many composed generations have been committed so far.
    pub fn swaps(&self) -> u64 {
        self.slot.swaps()
    }

    /// Live pinned snapshots, across all generations.
    pub fn pinned(&self) -> usize {
        self.slot.pinned()
    }
}

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

    /// The catalog's metric registry: `shard.route.pruned` /
    /// `shard.route.fanned` batch routing counts, `shard.scatter.ns` /
    /// `shard.gather.ns` per-batch timing histograms, plus
    /// `transport.retries` when any shard is remote. Shared with every
    /// committed generation, so probes through pinned snapshots and
    /// reader handles record into the same series.
    pub fn registry(&self) -> &MetricArc<obs::Registry> {
        self.tip.registry()
    }

    /// Hash-partitioned catalog sized by the environment:
    /// `CCINDEX_SHARDS` (via [`ExecOptions::from_env`]), defaulting to a
    /// single shard — so a whole test suite or service can be switched
    /// to sharded execution without a code change.
    pub fn from_env() -> Result<Self> {
        Self::hash(ExecOptions::from_env().shards.max(1))
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The partitioner's one-line description (`hash x4`, `range x2: …`).
    pub fn partitioner(&self) -> String {
        self.tip.partitioner()
    }

    /// One shard's in-process engine, for inspection.
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
        ShardedHandle {
            slot: Arc::clone(&self.slot),
        }
    }

    /// The latest composed generation — what every read method of this
    /// catalog answers from, and the [`CatalogRead`] surface for running
    /// an owned [`QuerySpec`] without pinning.
    pub fn catalog(&self) -> &ShardedState {
        &self.tip
    }

    /// The commit counter of the composed catalog (0 = empty).
    pub fn generation(&self) -> u64 {
        self.tip.generation
    }

    /// How many composed generations have been committed.
    pub fn swap_count(&self) -> u64 {
        self.slot.swaps()
    }

    /// Live pinned snapshots, across all generations.
    pub fn pinned_snapshots(&self) -> usize {
        self.slot.pinned()
    }

    /// The catalog-wide [`ExecOptions`] new plans inherit.
    pub fn exec_options(&self) -> ExecOptions {
        self.tip.exec
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

    /// Registered table names, in name order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.tip.tables()
    }

    /// Total (global) row count of `table`.
    pub fn rows(&self, table: &str) -> Result<usize> {
        self.tip.rows(table)
    }

    /// The declared shard-key column of `table`.
    pub fn shard_key(&self, table: &str) -> Result<&str> {
        self.tip.shard_key(table)
    }

    /// Where a global row lives: `(shard, local RID)`.
    pub fn placement_of(&self, table: &str, global_rid: u32) -> Result<(usize, u32)> {
        let meta = self.tip.meta(table)?;
        let (s, l) = meta.placement[global_rid as usize];
        Ok((s as usize, l))
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
    /// shard's per-kind rebuilds ride its own worker pool).
    pub fn rebuild_column(&mut self, table: &str, column: &str) -> Result<Vec<RebuildReport>> {
        self.tip.meta(table)?;
        let mut reports = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            reports.push(shard.rebuild_column(table, column)?);
        }
        self.publish();
        Ok(reports)
    }

    /// [`CatalogRead::point_probe_batch`] on the latest composed
    /// generation ([`ShardedDatabase::catalog`]).
    pub fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        self.tip.point_probe_batch(table, column, values)
    }

    /// [`CatalogRead::range_probe_batch`] on the latest composed
    /// generation.
    pub fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        self.tip.range_probe_batch(table, column, ranges)
    }

    /// Start a composable query over `table` — the same builder surface
    /// as [`Database::query`], compiled into a [`ShardedPlan`] that
    /// records its shard routing.
    pub fn query(&self, table: impl Into<String>) -> ShardedQuery<'_> {
        self.tip.query(table)
    }

    // ---- internals ----

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
        for rid in 0..key_col.len() as u32 {
            let shard = self.tip.partitioner.shard_of(key_col.value(rid))?;
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

    /// The metric registry shared with the owning catalog — probes
    /// through a pinned snapshot record into the same `shard.*` series
    /// as probes through the live [`ShardedDatabase`].
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
    /// the same builder [`ShardedDatabase::query`] returns.
    pub fn query(&self, table: impl Into<String>) -> ShardedQuery<'_> {
        ShardedQuery {
            state: self,
            spec: QuerySpec::table(table),
        }
    }

    /// Compile `spec`: resolve names and access paths against shard 0
    /// (every shard has the same schema and indexes), then compute the
    /// shard routing from the partitioner.
    pub fn compile(&self, spec: &QuerySpec) -> Result<ShardedPlan> {
        let meta = self.meta(&spec.table)?;
        // The per-shard template: one compile is enough because every
        // shard holds the same tables, columns and index kinds. Shard 0
        // compiles it — through its local planner or across the wire —
        // so local and remote catalogs produce the same template.
        let template = self.shards[0].compile(spec)?;

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

    fn meta(&self, table: &str) -> Result<&ShardedTable> {
        self.tables
            .get(table)
            .map(|t| &**t)
            .ok_or_else(|| MmdbError::UnknownTable {
                table: table.to_owned(),
            })
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
            let locals = &meta.locals[s];
            for (&slot, local_rids) in routed[s].1.iter().zip(per_probe?) {
                out[slot].extend(local_rids.iter().map(|&l| locals[l as usize]));
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
            let locals = &meta.locals[s];
            for (slot, local_rids) in per_probe?.into_iter().enumerate() {
                out[slot].extend(local_rids.into_iter().map(|l| locals[l as usize]));
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
        // Resolve the access path once against shard 0 (every shard has
        // the same schema and index kinds) so a missing table, column or
        // index fails typed even when routing prunes every probe away —
        // the per-request query path errors there, and batch answers
        // must match it byte for byte.
        self.shards[0].point_probe_batch(table, column, &[])?;
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
        self.shards[0].range_probe_batch(table, column, &[])?;
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

    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        Ok(self.compile(spec)?.execute_on(self)?.rows().clone())
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
                let values: Vec<Value> = rows.iter().map(|&g| col.value(g).clone()).collect();
                b = b.column(name, values);
            }
            b.build().expect("equal-length splits by construction")
        })
        .collect()
}

// ---------------------------------------------------------------------
// The sharded query builder
// ---------------------------------------------------------------------

/// A [`QuerySpec`] under construction against a [`ShardedDatabase`] or
/// a pinned [`ShardedSnapshot`] — the same surface as [`mmdb::Query`]
/// (`filter`/`join`/`group_by`/`using`/`exec`), compiled by
/// [`ShardedQuery::plan`] into a [`ShardedPlan`] whose routing is
/// inspectable and whose executor scatter-gathers across the shards.
#[derive(Debug, Clone)]
pub struct ShardedQuery<'db> {
    state: &'db ShardedState,
    spec: QuerySpec,
}

impl<'db> ShardedQuery<'db> {
    /// [`QuerySpec::filter`]. Conjuncts on the shard-key column
    /// additionally prune the scatter set.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.spec = self.spec.filter(predicate);
        self
    }

    /// [`QuerySpec::join`]; `inner_table` must also be registered in
    /// this sharded catalog.
    pub fn join(mut self, inner_table: &str, condition: JoinOn) -> Self {
        self.spec = self.spec.join(inner_table, condition);
        self
    }

    /// [`QuerySpec::group_by`]; per-shard partials merge at the gather
    /// barrier.
    pub fn group_by(mut self, column: &str, agg: Agg) -> Self {
        self.spec = self.spec.group_by(column, agg);
        self
    }

    /// [`QuerySpec::using`]; the kind must be built via
    /// [`ShardedDatabase::create_index`], i.e. on every shard.
    pub fn using(mut self, kind: IndexKind) -> Self {
        self.spec = self.spec.using(kind);
        self
    }

    /// [`QuerySpec::exec`].
    pub fn exec(mut self, options: ExecOptions) -> Self {
        self.spec = self.spec.exec(options);
        self
    }

    /// Compile ([`ShardedState::compile`]).
    pub fn plan(&self) -> Result<ShardedPlan> {
        self.state.compile(&self.spec)
    }

    /// Compile and execute.
    pub fn run(&self) -> Result<ShardedResultSet<'db>> {
        self.plan()?.execute_on(self.state)
    }
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
    /// The join column is the inner table's shard key: each outer probe
    /// batch is bucketed to the one inner shard that can hold matches
    /// (original probe order restored on merge).
    Bucketed,
    /// The join column is not the inner shard key: every outer RID chunk
    /// fans to every inner shard.
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
    /// The physical plan each routed shard runs (compiled against shard
    /// 0; every shard shares the schema, so it is valid everywhere).
    pub template: Plan,
    /// Which shards each stage scatters to.
    pub routing: ShardRouting,
}

impl ShardedPlan {
    /// Human-readable rendering: the shard routing (scatter set per
    /// stage, pruned vs fanned join, gather mode), then the per-shard
    /// plan indented beneath it.
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
        }
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

    /// Execute against `db` (normally the catalog the plan was compiled
    /// from; names re-resolve, so a stale plan fails with a typed error).
    pub fn execute<'db>(&self, db: &'db ShardedDatabase) -> Result<ShardedResultSet<'db>> {
        self.execute_on(db.catalog())
    }

    /// Execute against one composed generation — what
    /// [`ShardedPlan::execute`] runs on the live catalog's latest, and
    /// a pinned snapshot serves lock-free; byte-identical output. The
    /// shard count re-validates, so a plan compiled against a different
    /// catalog shape fails typed, not out of bounds.
    pub fn execute_on<'s>(&self, state: &'s ShardedState) -> Result<ShardedResultSet<'s>> {
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
        let exec = self.template.exec;

        // ---- scatter: selection ----
        // Per routed shard: the local selected RID set (None = all rows,
        // kept symbolic like the unsharded executor does).
        let scatter = &self.routing.selected;
        let per_shard: Vec<(usize, Option<Vec<u32>>)> = if self.template.probes.is_empty() {
            scatter.iter().map(|&s| (s, None)).collect()
        } else {
            let probes_plan = Plan {
                table: self.template.table.clone(),
                probes: self.template.probes.clone(),
                join: None,
                group: None,
                exec,
            };
            // One job per routed shard; a whole per-shard selection is a
            // fat job, so `0` here means one worker per shard (capped at
            // the core count by the pool), not the probe-count adaptive.
            let results = WorkerPool::new(exec.threads).run(scatter.len(), |i| {
                state.shards[scatter[i]].select(&probes_plan)
            });
            let mut v = Vec::with_capacity(scatter.len());
            for (&s, r) in scatter.iter().zip(results) {
                v.push((s, Some(r?)));
            }
            v
        };

        // ---- scatter: join (and grouped-join) jobs ----
        if let Some(j) = &self.template.join {
            let inner_meta = state.meta(&j.inner_table)?;
            // (outer shard, inner shard, outer local RIDs) — bucketed by
            // the owning inner shard when the join column is the inner
            // shard key, fanned to every inner shard otherwise. Bucket
            // order follows the outer stream, so no probe order is lost.
            let mut jobs: Vec<(usize, usize, Vec<u32>)> = Vec::new();
            for (s, sel) in &per_shard {
                let outer_rids: Vec<u32> = match sel {
                    Some(r) => r.clone(),
                    None => (0..meta.locals[*s].len() as u32).collect(),
                };
                if outer_rids.is_empty() {
                    continue;
                }
                match self.routing.join {
                    Some(JoinRouting::Bucketed) => {
                        let keys = state.shards[*s].column_values(
                            &self.template.table,
                            &j.outer_column,
                            Some(&outer_rids),
                        )?;
                        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); state.shards.len()];
                        for (&rid, key) in outer_rids.iter().zip(&keys) {
                            // Placement is the bucketing function: inner
                            // rows were placed by `shard_of`, so an outer
                            // key it cannot place matches no inner row
                            // (no per-row Vec like `probe_shards` makes).
                            if let Ok(t) = state.partitioner.shard_of(key) {
                                buckets[t].push(rid);
                            }
                        }
                        for (t, bucket) in buckets.into_iter().enumerate() {
                            if !bucket.is_empty() && !inner_meta.locals[t].is_empty() {
                                jobs.push((*s, t, bucket));
                            }
                        }
                    }
                    _ => {
                        for t in 0..state.shards.len() {
                            if !inner_meta.locals[t].is_empty() {
                                jobs.push((*s, t, outer_rids.clone()));
                            }
                        }
                    }
                }
            }
            let total: usize = jobs.iter().map(|(_, _, r)| r.len()).sum();
            let pool_threads = if exec.threads == 0 {
                ccindex_parallel::adaptive_threads(total)
            } else {
                exec.threads
            };
            let pool = WorkerPool::new(pool_threads);
            // When there are fewer jobs than workers (one shard, or a
            // hard-pruned scatter), hand each job the leftover
            // parallelism so a big join still spreads its outer RID
            // chunks like the unsharded engine would.
            let job_threads = (pool_threads / jobs.len().max(1)).max(1);

            if let Some(g) = &self.template.group {
                // Grouped join: aggregate inside each scatter job, merge
                // partials by group value at the gather barrier. The
                // group and measure columns can live on *different*
                // backends (outer vs inner side), so the job fetches
                // each side's decoded values through its owning backend
                // and folds the pairs coordinator-side — by decoded
                // value, the same ordered-map discipline
                // `group_aggregate_pairs` applies to domain IDs.
                let partials = pool.run(jobs.len(), |i| -> Result<Vec<GroupRow>> {
                    let (s, t, rids) = &jobs[i];
                    let rows = self.join_job(state, *s, *t, rids, job_threads)?;
                    let pick = |r: &JoinRow, side: Side| match side {
                        Side::Outer => r.outer_rid,
                        Side::Inner => r.inner_rid,
                    };
                    let side_shard = |side: Side| match side {
                        Side::Outer => *s,
                        Side::Inner => *t,
                    };
                    let side_table = |side: Side| match side {
                        Side::Outer => self.template.table.as_str(),
                        Side::Inner => j.inner_table.as_str(),
                    };
                    let group_rids: Vec<u32> = rows.iter().map(|r| pick(r, g.side)).collect();
                    let group_vals = state.shards[side_shard(g.side)].column_values(
                        side_table(g.side),
                        &g.column,
                        Some(&group_rids),
                    )?;
                    let measure_vals = match &g.measure {
                        None => None,
                        Some((m, side)) => {
                            let m_rids: Vec<u32> = rows.iter().map(|r| pick(r, *side)).collect();
                            let vals = state.shards[side_shard(*side)].column_values(
                                side_table(*side),
                                m,
                                Some(&m_rids),
                            )?;
                            Some((side_table(*side), m.as_str(), vals))
                        }
                    };
                    group_decoded_pairs(group_vals, measure_vals, g.agg)
                });
                let mut collected = Vec::with_capacity(partials.len());
                for p in partials {
                    collected.push(p?);
                }
                return Ok(ShardedResultSet {
                    state,
                    outer_table: self.template.table.clone(),
                    inner_table: Some(j.inner_table.clone()),
                    rows: ResultRows::Groups(merge_group_partials(g.agg, collected)),
                });
            }

            // Plain join: map each job's local pairs to global RIDs and
            // merge back into the sequential join's (outer, inner) order.
            let results = pool.run(jobs.len(), |i| {
                let (s, t, rids) = &jobs[i];
                self.join_job(state, *s, *t, rids, job_threads)
            });
            let mut all: Vec<JoinRow> = Vec::new();
            for ((s, t, _), rows) in jobs.iter().zip(results) {
                for r in rows? {
                    all.push(JoinRow {
                        outer_rid: meta.locals[*s][r.outer_rid as usize],
                        inner_rid: inner_meta.locals[*t][r.inner_rid as usize],
                    });
                }
            }
            all.sort_unstable();
            return Ok(ShardedResultSet {
                state,
                outer_table: self.template.table.clone(),
                inner_table: Some(j.inner_table.clone()),
                rows: ResultRows::Joined(all),
            });
        }

        // ---- grouped selection (no join) ----
        if let Some(g) = &self.template.group {
            let partials = WorkerPool::new(exec.threads).run(per_shard.len(), |i| {
                let (s, sel) = &per_shard[i];
                let measure = g.measure.as_ref().map(|(m, _)| m.as_str());
                state.shards[*s].group_partial(
                    &self.template.table,
                    &g.column,
                    measure,
                    g.agg,
                    sel.as_deref(),
                )
            });
            let mut collected = Vec::with_capacity(partials.len());
            for p in partials {
                collected.push(p?);
            }
            return Ok(ShardedResultSet {
                state,
                outer_table: self.template.table.clone(),
                inner_table: None,
                rows: ResultRows::Groups(merge_group_partials(g.agg, collected)),
            });
        }

        // ---- plain selection: gather local RIDs into global order ----
        let mut rids: Vec<u32> = Vec::new();
        for (s, sel) in &per_shard {
            match sel {
                Some(local) => rids.extend(local.iter().map(|&l| meta.locals[*s][l as usize])),
                None => rids.extend(meta.locals[*s].iter().copied()),
            }
        }
        rids.sort_unstable();
        Ok(ShardedResultSet {
            state,
            outer_table: self.template.table.clone(),
            inner_table: None,
            rows: ResultRows::Rids(rids),
        })
    }

    /// One scatter job of the join stage: fetch the outer join-key
    /// values from shard `s`'s backend, probe inner shard `t`'s index
    /// with them ([`ShardBackend::join_probe_batch`] — the same
    /// partitioned indexed nested-loop operator whichever side of the
    /// wire it runs on), and pair each outer RID with its matches in
    /// probe order. `threads` is the job's share of the pool's
    /// parallelism — 1 when there are enough jobs to keep every worker
    /// busy, more when the scatter set is smaller than the pool (the
    /// chunk outputs still concatenate in outer-stream order, so the
    /// result is unchanged).
    fn join_job(
        &self,
        state: &ShardedState,
        s: usize,
        t: usize,
        outer_rids: &[u32],
        threads: usize,
    ) -> Result<Vec<JoinRow>> {
        let j = self.template.join.as_ref().expect("join jobs need a join");
        let values = state.shards[s].column_values(
            &self.template.table,
            &j.outer_column,
            Some(outer_rids),
        )?;
        let matches = state.shards[t].join_probe_batch(
            &j.inner_table,
            &j.inner_column,
            j.kind,
            &values,
            self.template.exec.lanes,
            threads,
        )?;
        let mut rows = Vec::new();
        for (&outer_rid, inner) in outer_rids.iter().zip(matches) {
            rows.extend(inner.into_iter().map(|inner_rid| JoinRow {
                outer_rid,
                inner_rid,
            }));
        }
        Ok(rows)
    }
}

/// Fold decoded `(group, measure)` pairs into per-group aggregates, in
/// group-value order — the coordinator-side form of
/// `group_aggregate_pairs` for grouped joins, whose group and measure
/// columns may live on different backends. Keying the ordered map by
/// decoded [`Value`] instead of a shard-local domain ID produces the
/// same rows in the same order (domains sort by value).
fn group_decoded_pairs(
    groups: Vec<Value>,
    // `(table, column, values)` — the names make the typed error.
    measures: Option<(&str, &str, Vec<Value>)>,
    agg: AggFn,
) -> Result<Vec<GroupRow>> {
    let mut acc: BTreeMap<Value, i64> = BTreeMap::new();
    match (agg, measures) {
        (AggFn::Count, _) => {
            for group in groups {
                *acc.entry(group).or_insert(0) += 1;
            }
        }
        (_, None) => {
            return Err(MmdbError::Unsupported {
                what: format!("aggregate {agg:?} needs a measure column"),
            })
        }
        (_, Some((table, column, values))) => {
            for (group, measure) in groups.into_iter().zip(values) {
                let v = match measure {
                    Value::Int(v) => v,
                    Value::Str(_) => {
                        return Err(MmdbError::NonIntegerMeasure {
                            table: table.to_owned(),
                            column: column.to_owned(),
                        })
                    }
                };
                acc.entry(group)
                    .and_modify(|a| {
                        *a = match agg {
                            AggFn::Count | AggFn::Sum => *a + v,
                            AggFn::Min => (*a).min(v),
                            AggFn::Max => (*a).max(v),
                        }
                    })
                    .or_insert(v);
            }
        }
    }
    Ok(acc
        .into_iter()
        .map(|(group, value)| GroupRow { group, value })
        .collect())
}

/// Merge per-shard partial aggregates by (decoded) group value — the
/// cross-shard form of the worker-partial merge inside
/// `group_aggregate_pairs_par`: every aggregate is commutative and
/// associative, and the ordered map keys groups by value, so the merged
/// rows come out in group-value order, byte-identical to the unsharded
/// aggregation (per-shard domains differ, but decoded values agree).
fn merge_group_partials(agg: AggFn, partials: Vec<Vec<GroupRow>>) -> Vec<GroupRow> {
    let mut merged: BTreeMap<Value, i64> = BTreeMap::new();
    for partial in partials {
        for row in partial {
            merged
                .entry(row.group)
                .and_modify(|a| {
                    *a = match agg {
                        AggFn::Count | AggFn::Sum => *a + row.value,
                        AggFn::Min => (*a).min(row.value),
                        AggFn::Max => (*a).max(row.value),
                    }
                })
                .or_insert(row.value);
        }
    }
    merged
        .into_iter()
        .map(|(group, value)| GroupRow { group, value })
        .collect()
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// A sharded query result: the gathered global rows, bound to the
/// catalog so row values can be decoded on demand — the same surface as
/// [`mmdb::ResultSet`], producing byte-identical [`ResultRows`].
#[derive(Debug, Clone)]
pub struct ShardedResultSet<'db> {
    state: &'db ShardedState,
    outer_table: String,
    inner_table: Option<String>,
    rows: ResultRows,
}

impl ShardedResultSet<'_> {
    /// The rows, whatever their shape.
    pub fn rows(&self) -> &ResultRows {
        &self.rows
    }

    /// Number of result rows.
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

    /// Selected global RIDs, ascending. Panics on join/group shapes.
    pub fn rids(&self) -> &[u32] {
        match &self.rows {
            ResultRows::Rids(r) => r,
            other => panic!("rids() on a {} result", shape_name(other)),
        }
    }

    /// Join output pairs (global RIDs), in the sequential join's order.
    pub fn join_rows(&self) -> &[JoinRow] {
        match &self.rows {
            ResultRows::Joined(r) => r,
            other => panic!("join_rows() on a {} result", shape_name(other)),
        }
    }

    /// Aggregated groups, in group-value order.
    pub fn groups(&self) -> &[GroupRow] {
        match &self.rows {
            ResultRows::Groups(r) => r,
            other => panic!("groups() on a {} result", shape_name(other)),
        }
    }

    /// Decoded values of `column` for every result row, resolved through
    /// each row's owning shard (outer table binds first for joins). The
    /// result rows bucket by owning shard so each backend answers one
    /// batched fetch (a single round trip for a remote shard), then the
    /// answers reassemble in result order. The column resolves on
    /// *every* shard — including shards owning no result row — so a
    /// schema drift fails typed exactly like the in-process resolver.
    pub fn values(&self, column: &str) -> Result<Vec<Value>> {
        let decode_all = |table: &str, rids: &mut dyn Iterator<Item = u32>| -> Result<Vec<Value>> {
            let meta = self.state.meta(table)?;
            let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.state.shards.len()];
            let mut order: Vec<(u32, u32)> = Vec::new();
            for r in rids {
                let (s, l) = meta.placement[r as usize];
                order.push((s, per_shard[s as usize].len() as u32));
                per_shard[s as usize].push(l);
            }
            let fetched: Vec<Vec<Value>> = self
                .state
                .shards
                .iter()
                .zip(&per_shard)
                .map(|(shard, locals)| shard.column_values(table, column, Some(locals)))
                .collect::<Result<_>>()?;
            Ok(order
                .into_iter()
                .map(|(s, i)| fetched[s as usize][i as usize].clone())
                .collect())
        };
        match &self.rows {
            ResultRows::Rids(rids) => decode_all(&self.outer_table, &mut rids.iter().copied()),
            ResultRows::Joined(rows) => {
                // Outer binds first, like the unsharded resolver.
                let outer_has = self.state.shards[0]
                    .columns(&self.outer_table)?
                    .iter()
                    .any(|c| c == column);
                let table = if outer_has {
                    &self.outer_table
                } else {
                    self.inner_table
                        .as_ref()
                        .ok_or_else(|| MmdbError::UnknownColumn {
                            table: self.outer_table.clone(),
                            column: column.to_owned(),
                        })?
                };
                decode_all(
                    table,
                    &mut rows
                        .iter()
                        .map(|r| if outer_has { r.outer_rid } else { r.inner_rid }),
                )
            }
            ResultRows::Groups(_) => Err(MmdbError::Unsupported {
                what: "values() on a grouped result; group keys are already \
                       decoded in groups()"
                    .into(),
            }),
        }
    }
}

fn shape_name(rows: &ResultRows) -> &'static str {
    match rows {
        ResultRows::Rids(_) => "selection",
        ResultRows::Joined(_) => "join",
        ResultRows::Groups(_) => "grouped",
    }
}
