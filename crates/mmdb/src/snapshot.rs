//! Epoch/snapshot concurrency for the catalog: immutable generations
//! behind [`Arc`], swapped atomically on commit, reclaimed when the last
//! pinned reader drops.
//!
//! The paper's update story (§2.3) is a *batch rebuild cycle*: CSS-trees
//! trade incremental update for bulk reconstruction, so a catalog
//! mutation naturally produces a whole next **generation** of the index
//! structures rather than editing the current one in place. This module
//! turns that shape into a concurrency discipline:
//!
//! * writers mutate their private tip and, on commit, [`install`] the
//!   completed generation into a [`SwapSlot`];
//! * readers [`pin`] whatever generation is current and keep probing it,
//!   lock-free, for as long as they hold the [`Pinned`] guard — a
//!   concurrent commit never moves data out from under them;
//! * a generation's memory is reclaimed by the last `Arc` dropping —
//!   either the slot replacing it or the final pinned reader going away.
//!
//! The only lock in the module is the one inside [`SwapSlot`], held for
//! the duration of a single `Arc` clone or store (stable Rust has no
//! atomic "swap + clone" on `Arc` without `unsafe`). Crucially it is
//! **not** part of the read path: a [`Pinned`] guard holds a plain
//! `Arc<T>` plus an atomic pin counter, so every probe against a pinned
//! [`CatalogState`] runs with zero locks — the acceptance bar the
//! serving layer is held to.
//!
//! The slot's mutex and atomics come from the `ccindex_parallel::sync`
//! facade, so the pin/install/reclaim protocol is explored under
//! exhaustive scheduling by `crates/check/tests/model_snapshot.rs`
//! (production builds compile to the plain std types). Two ordering
//! regimes coexist on the pin counter, each carrying its own
//! justification below: the counter as *observability* (any ordering
//! will do) and the counter as *quiescence signal* — a writer taking
//! `pinned() == 0` as license to tear down shared state — which needs
//! the unpin-Release / read-Acquire pair to order the last reader's
//! probes before the teardown.
//!
//! [`install`]: SwapSlot::install
//! [`pin`]: SwapSlot::pin

use crate::column::Column;
use crate::engine::TableEntry;
use crate::error::{MmdbError, Result};
use crate::index_choice::{AccessPath, IndexKind};
use crate::plan::{ExecOptions, Query};
use crate::rid::RidList;
use crate::table::Table;
use ccindex_parallel::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use ccindex_parallel::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The generic slot + pin machinery
// ---------------------------------------------------------------------

/// The commit point between one writer and any number of readers: holds
/// the current immutable generation of `T`, hands out [`Pinned`] guards
/// to readers, and atomically replaces the generation when the writer
/// [`install`](SwapSlot::install)s the next one.
///
/// The slot also carries the observability counters the serving layer
/// surfaces: the installed generation number, how many swaps have
/// happened, and how many pins are live right now.
#[derive(Debug)]
pub struct SwapSlot<T> {
    /// The current generation. The mutex guards only the `Arc`
    /// clone/store itself (nanoseconds); it is never held while a reader
    /// probes, so the read path stays lock-free.
    current: Mutex<Arc<T>>,
    generation: AtomicU64,
    swaps: AtomicU64,
    /// Live [`Pinned`] guards across *all* generations of this slot.
    /// Shared with every guard so drops decrement without a back
    /// reference to the slot.
    pins: Arc<AtomicUsize>,
}

impl<T> SwapSlot<T> {
    /// A slot holding `state` as generation `generation`, with zero
    /// swaps recorded (the initial install is creation, not a commit).
    pub fn new(state: T, generation: u64) -> Arc<Self> {
        Arc::new(Self {
            current: Mutex::new(Arc::new(state)),
            generation: AtomicU64::new(generation),
            swaps: AtomicU64::new(0),
            pins: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Commit `state` as the new current generation. Readers pinned to
    /// older generations are unaffected; new [`pin`](SwapSlot::pin)s see
    /// `state`. The previous generation is dropped here if no reader
    /// holds it.
    pub fn install(&self, state: T, generation: u64) {
        let state = Arc::new(state);
        *self.current.lock().expect("slot lock poisoned") = state;
        // ORDERING: Release — pairs with the Acquire in `generation()`,
        // so a reader that observes the new number also observes the
        // fully-built generation it names. (Pinning itself is ordered
        // by the slot mutex, not by this store.)
        self.generation.store(generation, Ordering::Release);
        // ORDERING: Relaxed — `swaps` is an observability counter
        // (stats, tests); nothing reads it to justify touching shared
        // memory, so the RMW's atomicity alone suffices.
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Pin the current generation: the returned guard keeps it alive
    /// (and readable without locks) until dropped, however many commits
    /// happen in the meantime.
    pub fn pin(&self) -> Pinned<T> {
        let guard = self.current.lock().expect("slot lock poisoned");
        let state = guard.clone();
        // ORDERING: Relaxed — registration is ordered by the slot
        // mutex, not by this RMW: it must stay inside the critical
        // section (the guard is still live) so that a pin is either
        // visible to a writer's post-`install` quiescence check or the
        // pin observed that writer's generation — never neither. (An
        // earlier version incremented after the guard dropped, leaving
        // a window where a freshly-cloned old generation was invisible
        // to the count; the model suite in
        // crates/check/tests/model_snapshot.rs explores that exact
        // interleaving.) A writer that reads a non-zero count merely
        // refrains from teardown, so no edge is needed on the way up.
        self.pins.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        Pinned {
            state,
            pins: Arc::clone(&self.pins),
        }
    }

    /// The generation number of the currently installed state.
    pub fn generation(&self) -> u64 {
        // ORDERING: Acquire — pairs with the Release in `install`; see
        // there.
        self.generation.load(Ordering::Acquire)
    }

    /// How many generations have been committed through
    /// [`install`](SwapSlot::install) since the slot was created.
    pub fn swaps(&self) -> u64 {
        // ORDERING: Relaxed — observability counter; see `install`.
        self.swaps.load(Ordering::Relaxed)
    }

    /// Live pinned guards, across all generations. A `0` is a
    /// *quiescence certificate*: every probe through any guard that was
    /// ever pinned happens-before this call returns, so a writer may
    /// tear down or repurpose state the guards were reading. (A
    /// non-zero value is only a statistic — more pins may appear the
    /// instant it returns.)
    pub fn pinned(&self) -> usize {
        // ORDERING: Acquire — pairs with the Release decrement in
        // `Pinned::drop`. This load was once Relaxed, which the model
        // checker's race detector flags the moment a writer acts on the
        // zero (crates/check/tests/model_snapshot.rs has the mutant):
        // without the edge, the last reader's probes could still be in
        // flight while the writer reclaims.
        self.pins.load(Ordering::Acquire)
    }
}

/// A pinned, immutable generation: [`Deref`]s to `T`, keeps the
/// generation alive, contains **no lock** — probing through a guard is
/// exactly probing the underlying `T`.
///
/// Cloning a guard pins the same generation again (both clones count);
/// dropping the last guard of an already-replaced generation reclaims
/// its memory.
pub struct Pinned<T> {
    state: Arc<T>,
    pins: Arc<AtomicUsize>,
}

impl<T> Deref for Pinned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.state
    }
}

impl<T> Clone for Pinned<T> {
    fn clone(&self) -> Self {
        // ORDERING: Relaxed — while this guard exists the count is
        // already non-zero, so a cloned pin can never be the one that
        // takes the count from 0; no writer decision changes on the
        // 1→2 edge, only on 0 vs non-zero.
        self.pins.fetch_add(1, Ordering::Relaxed);
        Self {
            state: Arc::clone(&self.state),
            pins: Arc::clone(&self.pins),
        }
    }
}

impl<T> Drop for Pinned<T> {
    fn drop(&mut self) {
        // ORDERING: Release — pairs with the Acquire in
        // `SwapSlot::pinned`: every probe through this guard
        // happens-before the decrement, so a writer that observes the
        // count hit 0 also observes all of the reader's accesses as
        // completed. This was Ordering::Relaxed until the model checker
        // flagged the reclaim-while-pinned race that allows (the
        // PR's ordering audit; mutant preserved in
        // crates/check/tests/model_snapshot.rs).
        self.pins.fetch_sub(1, Ordering::Release);
    }
}

impl<T: fmt::Debug> fmt::Debug for Pinned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Pinned").field(&self.state).finish()
    }
}

// ---------------------------------------------------------------------
// The catalog's immutable generation
// ---------------------------------------------------------------------

/// One immutable generation of the catalog: tables, RID lists and
/// indexes, plus the [`ExecOptions`] that were in force when it was
/// committed. Everything a query needs, nothing a writer can touch —
/// the whole read surface of [`Database`](crate::engine::Database)
/// ([`query`](CatalogState::query), name resolution, and the
/// [`CatalogRead`](crate::plan::CatalogRead) probe batches) is defined
/// on this type, and the mutable engine derefs to its tip.
///
/// Cloning is cheap: table entries sit behind [`Arc`], so a generation
/// clone is one `BTreeMap` of pointer bumps and untouched tables stay
/// shared across generations (the writer copy-on-writes only the entry
/// it mutates).
#[derive(Debug, Clone)]
pub struct CatalogState {
    pub(crate) tables: BTreeMap<String, Arc<TableEntry>>,
    /// The catalog-wide execution knobs at commit time.
    pub(crate) exec: ExecOptions,
    /// Monotonic commit counter; generation 0 is the empty catalog.
    pub(crate) generation: u64,
}

/// The catalog's pinned-generation guard:
/// [`Database::snapshot`](crate::engine::Database::snapshot) hands these
/// out, and every read API of [`CatalogState`] is available through
/// [`Deref`].
pub type Snapshot = Pinned<CatalogState>;

impl CatalogState {
    /// The commit counter of this generation (0 = the empty catalog a
    /// [`Database::new`](crate::engine::Database::new) starts from).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Registered table names, in name order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// The table registered as `name`.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(|e| &e.table)
            .ok_or_else(|| MmdbError::UnknownTable {
                table: name.to_owned(),
            })
    }

    /// The sorted RID list owned for `table.column` (present once any
    /// index exists on the column).
    pub fn rid_list(&self, table: &str, column: &str) -> Result<&RidList> {
        Ok(&self.column_entry(table, column)?.rids)
    }

    /// The `kind` access path on `table.column`: the column's RID list
    /// behind the index traits, once `kind` was created there.
    pub fn index(&self, table: &str, column: &str, kind: IndexKind) -> Result<AccessPath<'_>> {
        let entry = self.column_entry(table, column)?;
        if !entry.kinds.contains(&kind) {
            return Err(MmdbError::IndexNotBuilt {
                table: table.to_owned(),
                column: column.to_owned(),
                kind,
            });
        }
        Ok(AccessPath::new(kind, &entry.rids))
    }

    /// Which kinds are built on `table.column`, in [`IndexKind`] order.
    pub fn indexed_kinds(&self, table: &str, column: &str) -> Result<Vec<IndexKind>> {
        Ok(self
            .column_entry(table, column)?
            .kinds
            .iter()
            .copied()
            .collect())
    }

    /// Start a composable query over `table` against this generation —
    /// what a [`Database`](crate::engine::Database) (through `Deref`) and
    /// a pinned [`Snapshot`] both answer `query` with.
    pub fn query(&self, table: impl Into<String>) -> Query<'_> {
        Query::new(self, table)
    }

    // ---- crate-internal resolution used by the planner/executor ----

    pub(crate) fn entry(&self, table: &str) -> Result<&TableEntry> {
        self.tables
            .get(table)
            .map(|e| &**e)
            .ok_or_else(|| MmdbError::UnknownTable {
                table: table.to_owned(),
            })
    }

    /// The column itself (no index required).
    pub(crate) fn column(&self, table: &str, column: &str) -> Result<&Column> {
        self.entry(table)?.table.try_column(column)
    }

    /// The column's access paths; [`MmdbError::NoIndex`] when the column
    /// exists but has never been indexed.
    pub(crate) fn column_entry(
        &self,
        table: &str,
        column: &str,
    ) -> Result<&crate::engine::ColumnEntry> {
        let entry = self.entry(table)?;
        entry.table.try_column(column)?;
        entry.columns.get(column).ok_or_else(|| MmdbError::NoIndex {
            table: table.to_owned(),
            column: column.to_owned(),
        })
    }
}

// ---------------------------------------------------------------------
// The reader-side handle
// ---------------------------------------------------------------------

/// A cloneable, `Send + Sync` reader handle onto a live catalog's
/// commit slot: readers on other threads call
/// [`snapshot`](Handle::snapshot) to pin the current generation while
/// the owning thread keeps `&mut` access for commits. Obtained from
/// [`Database::handle`](crate::engine::Database::handle) (a
/// [`DatabaseHandle`]) or the sharded catalog's `handle()`.
#[derive(Debug)]
pub struct Handle<T> {
    slot: Arc<SwapSlot<T>>,
}

/// The reader handle of a [`Database`](crate::engine::Database).
pub type DatabaseHandle = Handle<CatalogState>;

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.slot))
    }
}

impl<T> Handle<T> {
    /// A handle onto `slot` — what a writer hands its readers.
    pub fn new(slot: Arc<SwapSlot<T>>) -> Self {
        Self { slot }
    }

    /// Pin the current generation (identical to the writer's own
    /// `snapshot()`).
    pub fn snapshot(&self) -> Pinned<T> {
        self.slot.pin()
    }

    /// The generation number of the current committed state.
    pub fn generation(&self) -> u64 {
        self.slot.generation()
    }

    /// How many generations have been committed so far.
    pub fn swaps(&self) -> u64 {
        self.slot.swaps()
    }

    /// Live pinned snapshots, across all generations.
    pub fn pinned(&self) -> usize {
        self.slot.pinned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A state whose drop is observable, so reclamation is testable
    /// without reaching into the slot's internals.
    #[derive(Debug)]
    struct Tracked {
        value: u64,
        dropped: Arc<AtomicBool>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::Release);
        }
    }

    #[test]
    fn pin_sees_the_latest_install() {
        let slot = SwapSlot::new(10u64, 0);
        assert_eq!(*slot.pin(), 10);
        assert_eq!((slot.generation(), slot.swaps()), (0, 0));
        slot.install(20, 1);
        slot.install(30, 2);
        assert_eq!(*slot.pin(), 30);
        assert_eq!((slot.generation(), slot.swaps()), (2, 2));
    }

    #[test]
    fn a_pinned_generation_survives_commits_and_is_reclaimed_on_last_drop() {
        let dropped = Arc::new(AtomicBool::new(false));
        let slot = SwapSlot::new(
            Tracked {
                value: 1,
                dropped: Arc::clone(&dropped),
            },
            0,
        );
        let pin = slot.pin();
        let pin2 = pin.clone();
        assert_eq!(slot.pinned(), 2, "a cloned guard counts as its own pin");
        // Replace the generation: the pinned readers keep the old one.
        let dropped2 = Arc::new(AtomicBool::new(false));
        slot.install(
            Tracked {
                value: 2,
                dropped: Arc::clone(&dropped2),
            },
            1,
        );
        assert_eq!(pin.value, 1);
        assert_eq!(pin2.value, 1);
        assert!(!dropped.load(Ordering::Acquire), "still pinned");
        drop(pin);
        assert!(!dropped.load(Ordering::Acquire), "one pin remains");
        assert_eq!(slot.pinned(), 1);
        drop(pin2);
        assert!(
            dropped.load(Ordering::Acquire),
            "last pin dropped: generation reclaimed"
        );
        assert_eq!(slot.pinned(), 0);
        assert!(!dropped2.load(Ordering::Acquire), "current stays installed");
        assert_eq!(slot.pin().value, 2);
    }

    #[test]
    fn concurrent_pins_and_installs_always_see_a_whole_generation() {
        // The writer installs pairs whose halves must agree; racing
        // readers must never observe a torn pair. (This is the unit the
        // CI Miri job runs to catch ordering bugs.)
        let slot = SwapSlot::new((0u64, 0u64), 0);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for g in 1..=50u64 {
                    slot.install((g, g * 3), g);
                }
            });
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last = 0u64;
                        for _ in 0..50 {
                            let pin = slot.pin();
                            let (a, b) = *pin;
                            assert_eq!(b, a * 3, "torn generation observed");
                            assert!(a >= last, "generations move forward");
                            last = a;
                        }
                    })
                })
                .collect();
            writer.join().expect("writer");
            for r in readers {
                r.join().expect("reader");
            }
        });
        assert_eq!(slot.generation(), 50);
        assert_eq!(slot.swaps(), 50);
        assert_eq!(slot.pinned(), 0, "every guard dropped");
    }

    #[test]
    fn pinned_guards_deref_clone_and_debug() {
        let slot = SwapSlot::new(vec![1u32, 2, 3], 7);
        let pin = slot.pin();
        assert_eq!(pin.len(), 3);
        assert_eq!(pin.clone()[1], 2);
        assert!(format!("{pin:?}").contains("Pinned"));
    }
}
