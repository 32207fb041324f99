//! Transport-generic shard execution: [`ShardRead`] and [`ShardBackend`].
//!
//! Every per-shard operation the scatter-gather executor performs goes
//! through these two traits instead of calling [`Database`] methods
//! directly:
//!
//! * [`ShardRead`] is one shard's **read surface** — whole-query
//!   execution ([`run_spec`](ShardRead::run_spec), what a shard-local
//!   plan costs per routed shard), batched probes, and the pieces a
//!   non-co-located join streams through the coordinator (probes-only
//!   selections, column decodes, join-probe fan-out), plus plan
//!   compilation and snapshot export. It has two implementations:
//!   [`CatalogState`] (one immutable generation of an in-process engine
//!   — what a local shard pins, and what the serving layer's
//!   `ShardServer` answers wire requests from) and `RemoteShard` (see
//!   [`crate::remote`]), a socket client speaking the `ccindex-wire`
//!   protocol to such a server.
//! * [`ShardBackend`] is the **mutating half**, held only by the
//!   `ShardedDatabase` writer: table/index admin, column replacement,
//!   snapshot install, plus [`reader`](ShardBackend::reader) /
//!   [`pin`](ShardBackend::pin) to reach the read surface of its
//!   current or frozen tip. [`LocalShard`] wraps a [`Database`];
//!   `RemoteShard` implements it over the wire.
//!
//! A pinned `ShardedState` holds `Arc<dyn ShardRead>` per shard, so
//! mutating through a snapshot is not a runtime error but a method that
//! does not exist. And because both sides of the wire run the *same*
//! `impl ShardRead for CatalogState`, distributed execution is
//! byte-identical to in-process execution by construction: a rid that
//! is out of range or a non-integer measure surfaces as the same typed
//! error no matter which side noticed.

use mmdb::plan::Plan;
use mmdb::{
    indexed_nested_loop_join, CatalogRead, CatalogState, Column, Database, ExecOptions, IndexKind,
    MmdbError, QuerySpec, RebuildReport, Result, ResultRows, Table, Value,
};
use std::sync::Arc;

/// One shard's generation/exec introspection, transport-generic: the
/// generation's own counters locally, the `Hello` handshake remotely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Committed catalog generation.
    pub generation: u64,
    /// Generations committed so far (`0` when the reader is one frozen
    /// generation, which does not track commits).
    pub swaps: u64,
    /// Snapshots currently pinned (`0` for a frozen generation, as
    /// above).
    pub pinned: u64,
    /// The execution options in force.
    pub exec: ExecOptions,
}

/// One shard's read surface: everything the scatter-gather executor
/// asks a shard while answering a query. Every method takes `&self` and
/// there is no mutation here at all, so a composed snapshot (one
/// `Arc<dyn ShardRead>` per shard) is read-only by type:
///
/// ```compile_fail
/// use ccindex_shard::ShardedDatabase;
/// use mmdb::TableBuilder;
///
/// let db = ShardedDatabase::hash(2)?;
/// let state = db.snapshot();
/// // `register` lives on `ShardBackend`, which pins do not implement.
/// state.shard(0).register(TableBuilder::new("t").build()?)?;
/// # Ok::<(), mmdb::MmdbError>(())
/// ```
pub trait ShardRead: std::fmt::Debug + Send + Sync {
    /// Compile and execute a whole query description on this shard's
    /// rows, returning **local** RIDs (or this shard's partial groups).
    /// One call — one round trip for a remote shard — is all a
    /// shard-local plan asks of each routed shard; the coordinator
    /// composes the per-shard answers.
    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows>;

    /// Batched equality probes on `table.column`: one ascending local
    /// RID set per value, in submission order.
    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>>;

    /// Batched inclusive range probes on `table.column`.
    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>>;

    /// Execute a probes-only selection plan (the probe steps of a
    /// scatter template) and return the matching local RIDs, ascending
    /// — the outer half of a join that is not co-located.
    fn select(&self, plan: &Plan) -> Result<Vec<u32>>;

    /// Probe the `kind` index on `table.column` once per outer value —
    /// the inner half of a distributed indexed nested-loop join. Returns
    /// one local RID set per value, in submission order, each in index
    /// match order.
    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        kind: IndexKind,
        values: &[Value],
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>>;

    /// Decode column values for the given local RIDs (`None` = every
    /// row, in RID order).
    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>>;

    /// Compile a query description through this shard's planner. Every
    /// shard holds the same schema and indexes, so the coordinator uses
    /// shard 0's plan as the scatter template — asked once per query
    /// shape and generation, then served from the coordinator's cache.
    fn compile(&self, spec: &QuerySpec) -> Result<Plan>;

    /// Column names of `table`, in declaration order.
    fn columns(&self, table: &str) -> Result<Vec<String>>;

    /// Row count of `table` on this shard.
    fn rows(&self, table: &str) -> Result<usize>;

    /// Serialize this shard's catalog into the paged `ccindex-store`
    /// container (the same bytes [`Database::save_to`] writes to disk).
    /// A [`CatalogState`] serializes itself — its own generation, not
    /// whatever the engine has committed since; a remote shard streams
    /// its server's pinned snapshot across the wire in CRC-checked
    /// chunks. Queries keep serving throughout — the source side works
    /// off a pinned generation, never a lock.
    fn fetch_snapshot(&self) -> Result<Vec<u8>>;

    /// Generation/exec introspection.
    fn observe(&self) -> Result<ShardInfo>;

    /// Human-readable description for `explain()` output and errors.
    fn describe(&self) -> String;
}

/// The mutating half of a shard, plus the way to its read surface.
///
/// Mutations take `&mut self` and are driven one shard at a time by
/// `ShardedDatabase`'s commit discipline; every read the executor
/// performs goes through the [`ShardRead`] a backend hands out, and only
/// through a consistent [`pin`](ShardBackend::pin) set, so a query never
/// mixes generations across local shards.
pub trait ShardBackend: std::fmt::Debug + Send + Sync {
    /// The read surface of this shard's current committed tip.
    fn reader(&self) -> &dyn ShardRead;

    /// Freeze this shard's committed tip for a composed snapshot: a
    /// local shard pins its [`CatalogState`] generation; a remote shard
    /// pins a client of its own (remote shards answer from their
    /// server's committed tip — the server is the snapshot authority
    /// across the wire).
    fn pin(&self) -> Arc<dyn ShardRead>;

    /// Register this shard's split of a table.
    fn register(&mut self, table: Table) -> Result<()>;

    /// Drop a table and everything built on it.
    fn drop_table(&mut self, table: &str) -> Result<()>;

    /// Build an index on this shard's rows.
    fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()>;

    /// Drop an index.
    fn drop_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()>;

    /// Replace a column's local values wholesale and rebuild its
    /// indexes.
    fn replace_column(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<Value>,
    ) -> Result<RebuildReport>;

    /// Rebuild a column's RID list and indexes from current values.
    fn rebuild_column(&mut self, table: &str, column: &str) -> Result<RebuildReport>;

    /// Install new execution options on this shard.
    fn set_exec_options(&mut self, exec: ExecOptions) -> Result<()>;

    /// Replace this shard's entire catalog with a serialized snapshot
    /// (the bytes a peer's [`ShardRead::fetch_snapshot`] produced).
    /// Installs through the engine's ordinary commit cycle, so readers
    /// pinned to the old generation finish undisturbed. This is how a
    /// rebalanced or freshly-connected shard bootstraps from a peer
    /// without replaying row-by-row registration.
    fn install_snapshot(&mut self, bytes: &[u8]) -> Result<()>;

    /// The in-process [`Database`], if this backend has one. Remote
    /// shards return `None` — their engine lives across the wire.
    fn as_database(&self) -> Option<&Database> {
        None
    }

    /// Hand this backend pre-registered handles from the coordinator's
    /// metric registry. The default is a no-op; `RemoteShard` installs
    /// its `transport.retries` counter here.
    fn install_metrics(&mut self, registry: &ccindex_obs::Registry) {
        let _ = registry;
    }
}

// ---------------------------------------------------------------------
// The in-process read implementation
// ---------------------------------------------------------------------

/// Resolve `table.column` in `cat` with typed errors.
fn table_column<'c>(cat: &'c CatalogState, table: &str, column: &str) -> Result<&'c Column> {
    cat.table(table)?
        .column(column)
        .ok_or_else(|| MmdbError::UnknownColumn {
            table: table.to_owned(),
            column: column.to_owned(),
        })
}

impl ShardRead for CatalogState {
    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        CatalogRead::run_spec(self, spec)
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        CatalogRead::point_probe_batch(self, table, column, values)
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        CatalogRead::range_probe_batch(self, table, column, ranges)
    }

    fn select(&self, plan: &Plan) -> Result<Vec<u32>> {
        Ok(plan.execute(self)?.rids().to_vec())
    }

    /// Materialise the outer values as a synthetic probe column and run
    /// the *same* partitioned indexed nested-loop operator a local join
    /// uses, then demultiplex its rows per probe. Probe `i` of the
    /// operator is value `i`, so per-value match order is exactly the
    /// operator's.
    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        kind: IndexKind,
        values: &[Value],
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>> {
        let inner_col = table_column(self, table, column)?;
        // The kind must be declared on the inner column; the runs are
        // addressed in the column's RID list whatever the kind.
        self.index(table, column, kind)?;
        let inner_rids = self.rid_list(table, column)?;
        let probe_col = Column::from_values(values);
        let probe_rids: Vec<u32> = (0..values.len() as u32).collect();
        let rows = indexed_nested_loop_join(
            &probe_col,
            &probe_rids,
            inner_col,
            inner_rids,
            lanes,
            threads,
        );
        let mut out = vec![Vec::new(); values.len()];
        for row in rows {
            out[row.outer_rid as usize].push(row.inner_rid);
        }
        Ok(out)
    }

    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>> {
        match rids {
            Some(rids) => self.values_at(table, column, rids),
            None => {
                let col = table_column(self, table, column)?;
                Ok(col.domain().decode_batch(col.ids()))
            }
        }
    }

    fn compile(&self, spec: &QuerySpec) -> Result<Plan> {
        CatalogRead::compile(self, spec)
    }

    fn columns(&self, table: &str) -> Result<Vec<String>> {
        Ok(self
            .table(table)?
            .columns()
            .map(|(name, _)| name.to_owned())
            .collect())
    }

    fn rows(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.rows())
    }

    fn fetch_snapshot(&self) -> Result<Vec<u8>> {
        Ok(mmdb::catalog_to_bytes(self))
    }

    fn observe(&self) -> Result<ShardInfo> {
        Ok(ShardInfo {
            generation: self.generation(),
            swaps: 0,
            pinned: 0,
            exec: self.exec_options(),
        })
    }

    fn describe(&self) -> String {
        format!("in-process (generation {})", self.generation())
    }
}

// ---------------------------------------------------------------------
// LocalShard
// ---------------------------------------------------------------------

/// An in-process shard: a [`Database`] behind the [`ShardBackend`]
/// surface. Reads run against the engine's committed catalog tip.
#[derive(Debug)]
pub struct LocalShard {
    db: Database,
}

impl LocalShard {
    /// Wrap an engine.
    pub fn new(db: Database) -> Self {
        Self { db }
    }

    /// The wrapped engine.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl ShardBackend for LocalShard {
    fn reader(&self) -> &dyn ShardRead {
        &*self.db
    }

    fn pin(&self) -> Arc<dyn ShardRead> {
        Arc::new(CatalogState::clone(&self.db))
    }

    fn register(&mut self, table: Table) -> Result<()> {
        self.db.register(table)
    }

    fn drop_table(&mut self, table: &str) -> Result<()> {
        self.db.drop_table(table)
    }

    fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.db.create_index(table, column, kind)
    }

    fn drop_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.db.drop_index(table, column, kind)
    }

    fn replace_column(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<Value>,
    ) -> Result<RebuildReport> {
        self.db.replace_column(table, column, values)
    }

    fn rebuild_column(&mut self, table: &str, column: &str) -> Result<RebuildReport> {
        self.db.rebuild_column(table, column)
    }

    fn set_exec_options(&mut self, exec: ExecOptions) -> Result<()> {
        self.db.set_exec_options(exec);
        Ok(())
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> Result<()> {
        self.db.restore_from_bytes(bytes, "snapshot transfer")
    }

    fn as_database(&self) -> Option<&Database> {
        Some(&self.db)
    }
}
