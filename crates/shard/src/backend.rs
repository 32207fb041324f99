//! Transport-generic shard execution: [`ShardRead`] and [`ShardBackend`].
//!
//! Every per-shard operation of the sharded catalog goes through these
//! two traits instead of calling [`Database`] methods directly:
//!
//! * [`ShardRead`] is one shard's **read surface** — what the
//!   coordinator's exchange sends a routed shard: a plan's whole body
//!   ([`run_spec`](ShardRead::run_spec), the one request a shard-local
//!   plan costs per routed shard), a probe batch's routed subset, and
//!   the pieces a join that is not co-located streams through the
//!   coordinator (the outer exchange's selections, each a filter-only
//!   `run_spec`, and column decodes, the inner exchange's join-probe
//!   batches) — plus snapshot export and the generation a shard answers
//!   from. It asks neither a schema question nor for a plan: the
//!   coordinator registered every table and keeps each one's columns,
//!   declared index kinds, integer typing and per-shard row counts, so
//!   it compiles every query itself. Every reply carries
//!   **local** RIDs; the coordinator's one
//!   merge makes them global through the placement map, and a RID the
//!   shard does not hold is a typed error there. It has two
//!   implementations:
//!   [`CatalogState`] (one immutable generation of an in-process engine
//!   — what a local shard pins, and what the serving layer's
//!   `ShardServer` answers wire requests from) and `RemoteShard` (see
//!   [`crate::remote`]), a socket client speaking the `ccindex-wire`
//!   protocol to such a server.
//! * [`ShardBackend`] is the **mutating half**, held only by the
//!   `ShardedDatabase` writer: one [`apply`](ShardBackend::apply) of a
//!   batch of [`Mutation`]s for every catalog edit (table and index
//!   admin, column replacement and rebuild), exec options and snapshot
//!   install, plus [`reader`](ShardBackend::reader) /
//!   [`pin`](ShardBackend::pin) to reach the read surface of its
//!   current or frozen tip. [`LocalShard`] wraps a [`Database`] and
//!   forwards a batch to [`Database::apply`]; `RemoteShard` implements
//!   it over the wire, one frame per batch, which its server hands to
//!   the same [`Database::apply`].
//!
//! A pinned `ShardedState` holds `Arc<dyn ShardRead>` per shard, so
//! mutating through a snapshot is not a runtime error but a method that
//! does not exist. And because both sides of the wire run the *same*
//! `impl ShardRead for CatalogState`, distributed execution is
//! byte-identical to in-process execution by construction: a rid that
//! is out of range or a non-integer measure surfaces as the same typed
//! error no matter which side noticed.

use mmdb::{
    indexed_nested_loop_join, CatalogRead, CatalogState, Column, Database, ExecOptions, Mutation,
    QuerySpec, RebuildReport, Result, ResultRows, Value,
};
use std::sync::Arc;

/// One shard's read surface: everything the scatter-gather executor
/// asks a shard while answering a query. Every method takes `&self` and
/// there is no mutation here at all, so a composed snapshot (one
/// `Arc<dyn ShardRead>` per shard) is read-only by type:
///
/// ```compile_fail
/// use ccindex_shard::ShardedDatabase;
/// use mmdb::{Mutation, TableBuilder};
///
/// let db = ShardedDatabase::hash(2)?;
/// let state = db.snapshot();
/// // `apply` lives on `ShardBackend`, which pins do not implement.
/// let table = TableBuilder::new("t").build()?;
/// state.shard(0).apply(vec![Mutation::Register(table)])?;
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

    /// Probe the index on `table.column` (its RID list, whichever kinds
    /// it declares) once per outer value — the inner half of a
    /// distributed indexed nested-loop join. Returns one local RID set
    /// per value, in submission order, each in index match order; an
    /// unindexed column is [`mmdb::MmdbError::NoIndex`].
    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: Vec<Value>,
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>>;

    /// Decode column values for the given local RIDs (`None` = every
    /// row, in RID order).
    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>>;

    /// Serialize this shard's catalog into the paged `ccindex-store`
    /// container (the same bytes [`Database::save_to`] writes to disk).
    /// A [`CatalogState`] serializes itself — its own generation, not
    /// whatever the engine has committed since; a remote shard streams
    /// its server's pinned snapshot across the wire in CRC-checked
    /// chunks. Queries keep serving throughout — the source side works
    /// off a pinned generation, never a lock.
    fn fetch_snapshot(&self) -> Result<Vec<u8>>;

    /// The committed catalog generation this reader answers from: its
    /// own locally, the `Hello` handshake's answer remotely.
    fn generation(&self) -> Result<u64>;

    /// Human-readable description for `explain()` output and errors.
    fn describe(&self) -> String;
}

/// The mutating half of a shard, plus the way to its read surface.
///
/// Three methods take `&mut self`: [`apply`](ShardBackend::apply), the
/// one path for catalog edits, and the two that are not catalog edits,
/// [`set_exec_options`](ShardBackend::set_exec_options) and
/// [`install_snapshot`](ShardBackend::install_snapshot). They are
/// driven one shard at a time, in shard order, by `ShardedDatabase`'s
/// commit discipline; every read the executor
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

    /// Apply a batch of catalog edits to this shard, in order — the one
    /// mutating entry point. Returns one [`RebuildReport`] per
    /// [`Mutation::ReplaceColumn`] and [`Mutation::RebuildColumn`], in
    /// batch order. Either shard commits the whole batch as one
    /// generation of its [`Database`] ([`Database::apply`]), or nothing
    /// if any mutation fails: a remote shard sends the batch as one
    /// frame, and its server applies it the same way. A transport fault
    /// is the one exception to knowing which: if the connection drops
    /// after the frame left, the server may have committed the batch.
    fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<RebuildReport>>;

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

    /// Materialise the outer values as a synthetic probe column and run
    /// the *same* partitioned indexed nested-loop operator a local join
    /// uses, then demultiplex its rows per probe. Probe `i` of the
    /// operator is value `i`, so per-value match order is exactly the
    /// operator's.
    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: Vec<Value>,
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>> {
        let inner_col = self.table(table)?.try_column(column)?;
        let inner_rids = self.rid_list(table, column)?;
        let probe_col = Column::from_values(values);
        let probe_rids: Vec<u32> = (0..probe_col.len() as u32).collect();
        let rows = indexed_nested_loop_join(
            &probe_col,
            &probe_rids,
            inner_col,
            inner_rids,
            lanes,
            threads,
        );
        let mut out = vec![Vec::new(); probe_rids.len()];
        for row in rows {
            out[row.outer_rid as usize].push(row.inner_rid);
        }
        Ok(out)
    }

    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>> {
        match rids {
            Some(rids) => self.values_at(table, column, rids),
            None => {
                let col = self.table(table)?.try_column(column)?;
                Ok(col.domain().decode_batch(col.ids()))
            }
        }
    }

    fn fetch_snapshot(&self) -> Result<Vec<u8>> {
        Ok(mmdb::catalog_to_bytes(self))
    }

    fn generation(&self) -> Result<u64> {
        Ok(CatalogState::generation(self))
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

    fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<RebuildReport>> {
        self.db.apply(batch)
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
