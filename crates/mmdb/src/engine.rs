//! The [`Database`] engine: a system catalog owning tables, RID lists and
//! declared access paths.
//!
//! §2 of the paper situates CSS-trees inside a main-memory
//! decision-support *system* — relations, per-column sorted RID lists,
//! and "an index" chosen per access path. The free functions in
//! [`query`](crate::query) are that system's physical operators; this
//! module is the system itself. A [`Database`] registers [`Table`]s,
//! builds and owns one [`RidList`] per indexed column, and records which
//! [`IndexKind`]s were created on it. The RID list is addressed by domain
//! ID, so it answers every kind: a kind is an access path the planner
//! chooses and a query may force, not a second structure over the rows.
//!
//! A `Database` derefs to its tip, the [`CatalogState`] every read runs
//! against, so queries start at [`CatalogState::query`] — `db.query(..)`
//! — which hands back the composable builder in [`plan`](crate::plan):
//!
//! ```
//! use mmdb::{eq, between, Database, IndexKind, TableBuilder};
//!
//! let mut db = Database::new();
//! db.register(
//!     TableBuilder::new("sales")
//!         .int_column("amount", [120, 40, 975, 40])
//!         .str_column("region", ["east", "west", "east", "east"])
//!         .build()?,
//! )?;
//! db.create_index("sales", "amount", IndexKind::FullCss)?;
//! db.create_index("sales", "region", IndexKind::Hash)?;
//!
//! let hits = db
//!     .query("sales")
//!     .filter(eq("region", "east"))
//!     .filter(between("amount", 100, 1000))
//!     .run()?;
//! assert_eq!(hits.rids(), &[0, 2]);
//! # Ok::<(), mmdb::MmdbError>(())
//! ```
//!
//! Updates follow the paper's OLAP cycle (§2.3): mutate a column
//! wholesale, then [`Database::rebuild_column`] re-sorts it into a fresh
//! RID list — one counting sort, which is the whole rebuild: no kind has
//! a structure of its own to rebuild.
//!
//! **Concurrency** follows the epoch/snapshot discipline in
//! [`snapshot`](crate::snapshot): the `Database` owns a private mutable
//! *tip* ([`CatalogState`]), and every successful mutator commits the
//! tip as the next immutable generation of a shared [`SwapSlot`].
//! Readers on other threads pin generations through
//! [`Database::snapshot`]/[`Database::handle`] and keep probing them,
//! lock-free, while the writer builds the next one off to the side —
//! a commit is one `Arc` swap, never a data race.

use crate::column::Column;
use crate::domain::Value;
use crate::error::{MmdbError, Result};
use crate::index_choice::IndexKind;
use crate::plan::ExecOptions;
use crate::rid::RidList;
use crate::snapshot::{CatalogState, DatabaseHandle, Handle, Snapshot, SwapSlot};
use crate::table::Table;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine: tables plus their access paths, behind name resolution
/// that fails with a typed, offender-naming [`MmdbError`] instead of a
/// panic.
///
/// The catalog data itself lives in an immutable-once-committed
/// [`CatalogState`]; the `Database` is the single writer building the
/// next generation in place and committing it on every successful
/// mutation. It derefs to that tip, so every read method of
/// [`CatalogState`] answers from it (the writer always sees its own
/// latest commit); concurrent readers answer from whatever generation
/// they [`snapshot`](Database::snapshot)ted.
#[derive(Debug)]
pub struct Database {
    /// The writer's private next generation, committed by
    /// [`Database::publish`] at the end of every successful mutator.
    tip: CatalogState,
    /// The commit point shared with every reader handle and snapshot.
    slot: Arc<SwapSlot<CatalogState>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Database {
    type Target = CatalogState;

    fn deref(&self) -> &CatalogState {
        &self.tip
    }
}

#[derive(Debug, Clone)]
pub(crate) struct TableEntry {
    pub(crate) table: Table,
    /// Access paths, created lazily: a column gets an entry when its
    /// first index is built.
    pub(crate) columns: BTreeMap<String, ColumnEntry>,
}

/// A column's access paths: the sorted RID list that answers every
/// kind, and the kinds created on the column. The list's arrays sit
/// behind [`Arc`], so an untouched column's list is *shared* between
/// generations when a commit copy-on-writes its table entry.
#[derive(Debug, Clone)]
pub(crate) struct ColumnEntry {
    pub(crate) rids: RidList,
    pub(crate) kinds: BTreeSet<IndexKind>,
}

/// What one [`Database::rebuild_column`] cycle did, per §2.3's
/// "rebuild an index from scratch after a batch of updates".
#[derive(Debug)]
pub struct RebuildReport {
    /// Time to re-sort the column into its RID list (the merge phase of
    /// the cycle; a wholesale column replacement re-sorts rather than
    /// merging deltas).
    pub sort_time: Duration,
    /// Per-kind rebuild times. Always empty: a kind declares an access
    /// path over the RID list and has no structure of its own to rebuild.
    /// Kept because the serving wire's rebuild frame carries it.
    pub rebuilds: Vec<(IndexKind, Duration)>,
}

impl Database {
    /// An empty catalog. Execution options start from
    /// [`ExecOptions::from_env`], so `CCINDEX_THREADS=8` switches every
    /// query of a process to partitioned execution without code changes
    /// (the compiled-in default is sequential).
    pub fn new() -> Self {
        let tip = CatalogState {
            tables: BTreeMap::new(),
            exec: ExecOptions::from_env(),
            generation: 0,
        };
        let slot = SwapSlot::new(tip.clone(), 0);
        Self { tip, slot }
    }

    /// Set the catalog-wide [`ExecOptions`]: worker threads for the
    /// partitioned equality/range/join/group operators and interleave
    /// lanes for batch-aware indexes. Plans compiled afterwards record
    /// these; running plans are unaffected. Commits a generation, so
    /// snapshots pinned afterwards inherit the new knobs.
    pub fn set_exec_options(&mut self, options: ExecOptions) {
        self.tip.exec = options;
        self.publish();
    }

    /// Register a table under its own name. Fails with
    /// [`MmdbError::DuplicateTable`] if the name is taken.
    pub fn register(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_owned();
        if self.tip.tables.contains_key(&name) {
            return Err(MmdbError::DuplicateTable { table: name });
        }
        self.tip.tables.insert(
            name,
            Arc::new(TableEntry {
                table,
                columns: BTreeMap::new(),
            }),
        );
        self.publish();
        Ok(())
    }

    /// Create a `kind` index on `table.column`; creating it again commits
    /// an unchanged generation. The column's sorted [`RidList`] is
    /// computed on its first index and answers all of them.
    pub fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        let entry = self.entry_mut(table)?;
        if entry.table.column(column).is_none() {
            return Err(MmdbError::UnknownColumn {
                table: table.to_owned(),
                column: column.to_owned(),
            });
        }
        let col_entry = entry.columns.entry(column.to_owned()).or_insert_with(|| {
            let col = entry.table.column(column).expect("checked above");
            ColumnEntry {
                rids: RidList::for_column(col),
                kinds: BTreeSet::new(),
            }
        });
        col_entry.kinds.insert(kind);
        self.publish();
        Ok(())
    }

    /// Drop the `kind` index on `table.column` (the RID list stays while
    /// any other kind remains).
    pub fn drop_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        let table_name = table.to_owned();
        let entry = self.entry_mut(table)?;
        if entry.table.column(column).is_none() {
            return Err(MmdbError::UnknownColumn {
                table: table_name,
                column: column.to_owned(),
            });
        }
        let col_entry = entry
            .columns
            .get_mut(column)
            .ok_or_else(|| MmdbError::NoIndex {
                table: table_name.clone(),
                column: column.to_owned(),
            })?;
        if !col_entry.kinds.remove(&kind) {
            return Err(MmdbError::IndexNotBuilt {
                table: table_name,
                column: column.to_owned(),
                kind,
            });
        }
        if col_entry.kinds.is_empty() {
            entry.columns.remove(column);
        }
        self.publish();
        Ok(())
    }

    /// Replace a column's values wholesale (the OLAP batch-update entry
    /// point), then re-derive its RID list if it is indexed. The new
    /// values must keep the table's row count; every error path leaves
    /// the table untouched.
    ///
    /// The whole cycle commits **one** generation, at the end: a
    /// concurrent snapshot sees either the old column with the old RID
    /// list or the new column with the new one, never the torn state in
    /// between.
    pub fn replace_column(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<Value>,
    ) -> Result<RebuildReport> {
        let entry = self.entry_mut(table)?;
        if entry.table.column(column).is_none() {
            return Err(MmdbError::UnknownColumn {
                table: table.to_owned(),
                column: column.to_owned(),
            });
        }
        if values.len() != entry.table.rows() {
            return Err(MmdbError::RaggedColumn {
                table: table.to_owned(),
                column: column.to_owned(),
                expected: entry.table.rows(),
                got: values.len(),
            });
        }
        let indexed = entry.columns.contains_key(column);
        entry
            .table
            .replace_column(column, Column::from_values(&values));
        let report = if indexed {
            self.rebuild_column_in_tip(table, column)?
        } else {
            RebuildReport {
                sort_time: Duration::ZERO,
                rebuilds: Vec::new(),
            }
        };
        self.publish();
        Ok(report)
    }

    /// Re-derive `table.column`'s RID list from the (possibly mutated)
    /// column — §2.3: "it may be relatively cheap to rebuild an index from
    /// scratch after a batch of updates." The list is the only structure:
    /// every created kind addresses it, so the report's `rebuilds` is
    /// empty. On success the rebuilt generation commits atomically.
    pub fn rebuild_column(&mut self, table: &str, column: &str) -> Result<RebuildReport> {
        let report = self.rebuild_column_in_tip(table, column)?;
        self.publish();
        Ok(report)
    }

    /// The rebuild cycle itself, run against the uncommitted tip — so
    /// [`Database::replace_column`] can mutate and rebuild under a
    /// single commit instead of exposing a column/index mismatch.
    fn rebuild_column_in_tip(&mut self, table: &str, column: &str) -> Result<RebuildReport> {
        let table_name = table.to_owned();
        let entry = self.entry_mut(table)?;
        let col = entry
            .table
            .column(column)
            .ok_or_else(|| MmdbError::UnknownColumn {
                table: table_name.clone(),
                column: column.to_owned(),
            })?;
        let col_entry = entry
            .columns
            .get_mut(column)
            .ok_or_else(|| MmdbError::NoIndex {
                table: table_name,
                column: column.to_owned(),
            })?;
        let t0 = Instant::now();
        col_entry.rids = RidList::for_column(col);
        Ok(RebuildReport {
            sort_time: t0.elapsed(),
            rebuilds: Vec::new(),
        })
    }

    /// Remove a table and every access path built on it. Fails with
    /// [`MmdbError::UnknownTable`] when the name is not registered —
    /// the entry point a sharded catalog uses when re-partitioning a
    /// table whose shard-key column was replaced.
    pub fn drop_table(&mut self, table: &str) -> Result<()> {
        if self.tip.tables.remove(table).is_none() {
            return Err(MmdbError::UnknownTable {
                table: table.to_owned(),
            });
        }
        self.publish();
        Ok(())
    }

    // ---- the epoch/snapshot surface ----

    /// Pin the current committed generation: the returned [`Snapshot`]
    /// answers the whole read surface ([`CatalogState`]) lock-free and
    /// is unaffected by any later mutation of this `Database`.
    pub fn snapshot(&self) -> Snapshot {
        self.slot.pin()
    }

    /// A cloneable, `Send + Sync` reader handle sharing this catalog's
    /// commit slot: other threads snapshot through it while this thread
    /// keeps `&mut` access for updates.
    pub fn handle(&self) -> DatabaseHandle {
        Handle::new(Arc::clone(&self.slot))
    }

    /// How many generations have been committed over this catalog's
    /// lifetime.
    pub fn swap_count(&self) -> u64 {
        self.slot.swaps()
    }

    /// Live pinned snapshots, across all generations (racy by nature;
    /// observability for the serving layer's stats).
    pub fn pinned_snapshots(&self) -> usize {
        self.slot.pinned()
    }

    /// Replace the whole table map and commit — the storage restore
    /// path ([`persist`](crate::persist)): the decoded tables land as
    /// one new generation through the same commit cycle every other
    /// mutator uses, so pinned readers keep their old generation and
    /// the row-rebuild path is never involved.
    pub(crate) fn replace_tables(&mut self, tables: BTreeMap<String, Arc<TableEntry>>) {
        self.tip.tables = tables;
        self.publish();
    }

    /// Commit the tip as the next generation. Every mutator calls this
    /// exactly once, after *all* of its mutations succeeded — the
    /// invariant that makes each generation internally consistent.
    fn publish(&mut self) {
        self.tip.generation += 1;
        self.slot.install(self.tip.clone(), self.tip.generation);
    }

    /// Copy-on-write access to a table entry in the tip: if the entry is
    /// shared with a committed generation it is cloned first, so pinned
    /// readers never observe the mutation.
    fn entry_mut(&mut self, table: &str) -> Result<&mut TableEntry> {
        self.tip
            .tables
            .get_mut(table)
            .map(Arc::make_mut)
            .ok_or_else(|| MmdbError::UnknownTable {
                table: table.to_owned(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::eq;
    use crate::table::TableBuilder;

    fn sales_db() -> Database {
        let mut db = Database::new();
        db.register(
            TableBuilder::new("sales")
                .int_column("amount", [30, 10, 20, 10, 30])
                .str_column("region", ["e", "w", "e", "n", "w"])
                .build()
                .expect("equal columns"),
        )
        .expect("fresh name");
        db
    }

    #[test]
    fn registration_and_lookup() {
        let mut db = sales_db();
        assert_eq!(db.tables().collect::<Vec<_>>(), ["sales"]);
        assert_eq!(db.table("sales").unwrap().rows(), 5);
        assert_eq!(
            db.table("saels").unwrap_err(),
            MmdbError::UnknownTable {
                table: "saels".into()
            }
        );
        let dup = TableBuilder::new("sales").build().unwrap();
        assert_eq!(
            db.register(dup).unwrap_err(),
            MmdbError::DuplicateTable {
                table: "sales".into()
            }
        );
    }

    #[test]
    fn create_index_owns_rid_list_and_handles() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        db.create_index("sales", "amount", IndexKind::Hash).unwrap();
        assert_eq!(
            db.indexed_kinds("sales", "amount").unwrap(),
            vec![IndexKind::FullCss, IndexKind::Hash]
        );
        // One shared RID list; both kinds resolve.
        assert_eq!(db.rid_list("sales", "amount").unwrap().len(), 5);
        assert!(db
            .index("sales", "amount", IndexKind::Hash)
            .unwrap()
            .as_ordered()
            .is_none());
        assert!(db
            .index("sales", "amount", IndexKind::FullCss)
            .unwrap()
            .as_ordered()
            .is_some());
        // Typed failures name the offender.
        assert_eq!(
            db.index("sales", "amount", IndexKind::TTree).unwrap_err(),
            MmdbError::IndexNotBuilt {
                table: "sales".into(),
                column: "amount".into(),
                kind: IndexKind::TTree
            }
        );
        assert_eq!(
            db.rid_list("sales", "region").unwrap_err(),
            MmdbError::NoIndex {
                table: "sales".into(),
                column: "region".into()
            }
        );
        assert_eq!(
            db.create_index("sales", "amuont", IndexKind::Hash)
                .unwrap_err(),
            MmdbError::UnknownColumn {
                table: "sales".into(),
                column: "amuont".into()
            }
        );
    }

    #[test]
    fn drop_index_removes_kind_then_entry() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::Hash).unwrap();
        db.create_index("sales", "amount", IndexKind::TTree)
            .unwrap();
        db.drop_index("sales", "amount", IndexKind::Hash).unwrap();
        assert_eq!(
            db.indexed_kinds("sales", "amount").unwrap(),
            vec![IndexKind::TTree]
        );
        db.drop_index("sales", "amount", IndexKind::TTree).unwrap();
        // Last index gone: the whole access-path entry disappears.
        assert!(matches!(
            db.rid_list("sales", "amount").unwrap_err(),
            MmdbError::NoIndex { .. }
        ));
        assert!(matches!(
            db.drop_index("sales", "amount", IndexKind::TTree)
                .unwrap_err(),
            MmdbError::NoIndex { .. }
        ));
        // A typo'd column reports UnknownColumn, not NoIndex.
        assert_eq!(
            db.drop_index("sales", "amuont", IndexKind::TTree)
                .unwrap_err(),
            MmdbError::UnknownColumn {
                table: "sales".into(),
                column: "amuont".into()
            }
        );
    }

    #[test]
    fn replace_column_runs_the_rebuild_cycle() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        db.create_index("sales", "amount", IndexKind::Hash).unwrap();
        let report = db
            .replace_column(
                "sales",
                "amount",
                vec![1i64, 2, 3, 4, 5].into_iter().map(Value::Int).collect(),
            )
            .unwrap();
        assert!(report.rebuilds.is_empty(), "no kind has its own structure");
        // The fresh RID list answers over the new values.
        let hits = db
            .query("sales")
            .filter(crate::plan::eq("amount", 4))
            .run()
            .unwrap();
        assert_eq!(hits.rids(), &[3]);
        // Row-count mismatch is a named error, and the table keeps its
        // current values.
        assert_eq!(
            db.replace_column("sales", "amount", vec![Value::Int(1)])
                .unwrap_err(),
            MmdbError::RaggedColumn {
                table: "sales".into(),
                column: "amount".into(),
                expected: 5,
                got: 1
            }
        );
        assert_eq!(
            db.table("sales").unwrap().value("amount", 3),
            Some(Value::Int(4))
        );
    }

    #[test]
    fn rebuild_answers_identically_at_every_thread_count() {
        // The same replace-then-query cycle must answer identically
        // whatever the catalog's thread count — including 0 (auto).
        let mut reference: Option<Vec<u32>> = None;
        for threads in [1usize, 2, 8, 0] {
            let mut db = sales_db();
            db.set_exec_options(crate::plan::ExecOptions::threads(threads));
            for kind in [IndexKind::FullCss, IndexKind::Hash, IndexKind::TTree] {
                db.create_index("sales", "amount", kind).unwrap();
            }
            let report = db
                .replace_column(
                    "sales",
                    "amount",
                    vec![7i64, 3, 7, 1, 7].into_iter().map(Value::Int).collect(),
                )
                .unwrap();
            assert!(report.rebuilds.is_empty(), "threads={threads}");
            let hits = db
                .query("sales")
                .filter(crate::plan::eq("amount", 7))
                .run()
                .unwrap()
                .rids()
                .to_vec();
            match &reference {
                None => reference = Some(hits),
                Some(r) => assert_eq!(&hits, r, "threads={threads}"),
            }
        }
        assert_eq!(reference.unwrap(), vec![0, 2, 4]);
    }

    #[test]
    fn a_rebuild_rederives_only_the_rid_list() {
        // Every created kind is an access path over the one RID list: a
        // rebuild re-sorts the column into a fresh list, keeps the kinds,
        // and every kind answers from the fresh list.
        let mut db = sales_db();
        let kinds = [IndexKind::BinarySearch, IndexKind::FullCss, IndexKind::Hash];
        for kind in kinds {
            db.create_index("sales", "amount", kind).unwrap();
        }
        let values = [50i64, 40, 30, 20, 10];
        db.replace_column("sales", "amount", values.map(Value::Int).to_vec())
            .unwrap();
        let fresh = RidList::for_column(db.table("sales").unwrap().column("amount").unwrap());
        let report = db.rebuild_column("sales", "amount").unwrap();
        assert!(report.rebuilds.is_empty());
        assert_eq!(db.indexed_kinds("sales", "amount").unwrap(), kinds);
        assert_eq!(db.rid_list("sales", "amount").unwrap().rids(), fresh.rids());
        for kind in kinds {
            let path = db.index("sales", "amount", kind).unwrap();
            // ID 1 is the value 20, on row 3 at sorted position 1.
            assert_eq!(path.as_search().search(1), Some(1), "{kind:?}");
            assert_eq!(path.as_ordered().is_some(), kind.is_ordered());
        }
    }

    #[test]
    fn drop_table_removes_the_entry() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::Hash).unwrap();
        db.drop_table("sales").unwrap();
        assert_eq!(db.tables().count(), 0);
        assert!(matches!(
            db.table("sales").unwrap_err(),
            MmdbError::UnknownTable { .. }
        ));
        assert_eq!(
            db.drop_table("sales").unwrap_err(),
            MmdbError::UnknownTable {
                table: "sales".into()
            }
        );
        // The name is reusable afterwards.
        db.register(TableBuilder::new("sales").build().unwrap())
            .unwrap();
    }

    #[test]
    fn replace_unindexed_column_succeeds_with_empty_report() {
        let mut db = sales_db();
        let report = db
            .replace_column(
                "sales",
                "region",
                ["a", "b", "c", "d", "e"]
                    .iter()
                    .map(|&s| Value::from(s))
                    .collect(),
            )
            .unwrap();
        assert!(report.rebuilds.is_empty());
        assert_eq!(
            db.table("sales").unwrap().value("region", 4),
            Some(Value::Str("e".into()))
        );
    }

    #[test]
    fn snapshots_pin_generations_and_commits_are_atomic() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        let g_before = db.generation();
        let before = db.snapshot();
        assert_eq!(before.generation(), g_before);
        assert_eq!(db.pinned_snapshots(), 1);

        // Replace + rebuild commits exactly one generation.
        let swaps_before = db.swap_count();
        db.replace_column(
            "sales",
            "amount",
            vec![100i64, 200, 300, 400, 500]
                .into_iter()
                .map(Value::Int)
                .collect(),
        )
        .unwrap();
        assert_eq!(db.swap_count(), swaps_before + 1, "one commit per cycle");
        assert_eq!(db.generation(), g_before + 1);

        // The pinned snapshot still answers over the *old* column and
        // old index; a fresh snapshot sees the new generation.
        assert_eq!(
            before
                .query("sales")
                .filter(eq("amount", 30))
                .run()
                .unwrap()
                .rids(),
            &[0, 4]
        );
        assert!(before
            .query("sales")
            .filter(eq("amount", 300))
            .run()
            .unwrap()
            .is_empty());
        let after = db.snapshot();
        assert_eq!(
            after
                .query("sales")
                .filter(eq("amount", 300))
                .run()
                .unwrap()
                .rids(),
            &[2]
        );
        assert_eq!(db.pinned_snapshots(), 2);
        drop(before);
        drop(after);
        assert_eq!(db.pinned_snapshots(), 0);
    }

    #[test]
    fn a_commit_shares_the_arrays_it_did_not_replace() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        db.create_index("sales", "region", IndexKind::Hash).unwrap();
        let before = db.snapshot();
        db.replace_column("sales", "amount", (1..=5).map(Value::Int).collect())
            .unwrap();
        let after = db.snapshot();
        // Copy-on-write of the table entry copied pointers, not rows:
        // the untouched column's IDs and its RID list are the same
        // allocations in both generations.
        let ids = |s: &Snapshot| {
            s.table("sales")
                .unwrap()
                .column("region")
                .unwrap()
                .ids()
                .as_ptr()
        };
        let rids = |s: &Snapshot| s.rid_list("sales", "region").unwrap().rids().as_ptr();
        assert_eq!(ids(&before), ids(&after));
        assert_eq!(rids(&before), rids(&after));
        // The replaced column is new, and the pinned reader kept the old.
        assert_eq!(
            before.table("sales").unwrap().value("amount", 0),
            Some(Value::Int(30))
        );
        assert_eq!(
            after.table("sales").unwrap().value("amount", 0),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn handle_shares_the_commit_slot_across_threads() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::Hash).unwrap();
        let handle = db.handle();
        let g = db.generation();
        // A reader thread pins and answers while the owner retains &mut.
        let rids = std::thread::scope(|scope| {
            let reader = scope.spawn({
                let handle = handle.clone();
                move || {
                    let snap = handle.snapshot();
                    snap.query("sales")
                        .filter(eq("amount", 10))
                        .run()
                        .unwrap()
                        .rids()
                        .to_vec()
                }
            });
            reader.join().expect("reader thread")
        });
        assert_eq!(rids, vec![1, 3]);
        assert_eq!(handle.generation(), g);
        assert_eq!(handle.pinned(), 0, "reader's pin was dropped");
        // Commits through the owner are visible through the handle.
        db.drop_index("sales", "amount", IndexKind::Hash).unwrap();
        assert_eq!(handle.generation(), g + 1);
        assert!(handle.swaps() >= 1);
    }

    #[test]
    fn unpublished_error_paths_leave_readers_on_the_old_generation() {
        let mut db = sales_db();
        db.create_index("sales", "amount", IndexKind::FullCss)
            .unwrap();
        let g = db.generation();
        let swaps = db.swap_count();
        // A failing mutation must not commit anything.
        db.replace_column("sales", "amount", vec![Value::Int(1)])
            .unwrap_err();
        db.create_index("sales", "nope", IndexKind::Hash)
            .unwrap_err();
        db.drop_index("sales", "amount", IndexKind::TTree)
            .unwrap_err();
        db.drop_table("nope").unwrap_err();
        assert_eq!(db.generation(), g);
        assert_eq!(db.swap_count(), swaps);
        assert_eq!(db.snapshot().generation(), g);
    }
}
