//! Where a [`BatchServer`](crate::BatchServer) gets what it fronts.
//!
//! The server executes every window against a [`CatalogRead`] — the one
//! read trait `mmdb` declares and the two generation types
//! ([`CatalogState`](mmdb::CatalogState),
//! [`ShardedState`](ccindex_shard::ShardedState)) implement, reached
//! here through their [`Pinned`] guards ([`Snapshot`](mmdb::Snapshot),
//! [`ShardedSnapshot`]). [`ServeSource`] is how it gets those guards: a
//! source hands out one pinned generation per batch-formation window
//! ([`ServeSource::pin`]) and reports the commit-slot counters
//! ([`ServeSource::observe`]) that [`ServeStats`](crate::ServeStats)
//! surfaces.

use ccindex_shard::{ShardedDatabase, ShardedSnapshot};
use mmdb::{CatalogRead, Database, Handle, Pinned};

/// The commit-slot counters of a [`ServeSource`], read at one instant:
/// the observability [`ServeStats`](crate::ServeStats) carries out of a
/// serving session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Generation number of the currently committed catalog state.
    pub generation: u64,
    /// Generations committed since the catalog was created.
    pub swaps: u64,
    /// Pinned snapshots alive right now, across all generations.
    pub pinned: usize,
}

/// Where a [`BatchServer`](crate::BatchServer) gets the immutable
/// catalog generation each batch-formation window executes against.
///
/// A source pins one snapshot per window ([`ServeSource::pin`]); the
/// window's coalesced probes then run entirely against that pinned
/// generation — zero locks on the probe path, and a writer committing
/// mid-window never changes (or tears) the window's answers. Implemented
/// for the live catalogs ([`Database`], [`ShardedDatabase`]) and for
/// their `Send + Sync` reader [`Handle`]s
/// ([`DatabaseHandle`](mmdb::DatabaseHandle),
/// [`ShardedHandle`](ccindex_shard::ShardedHandle)) — the handle impl is
/// what lets a serving session run on one thread while the catalog's
/// owner keeps `&mut` access for commits on another.
///
/// ```
/// use ccindex_serve::{BatchServer, Request};
/// use mmdb::{eq, Database, IndexKind, ResultRows, TableBuilder, Value};
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
/// // Readers pin an immutable generation: an Arc bump, not a copy of
/// // the catalog, and no locks anywhere on the probe path.
/// let before = db.snapshot();
/// let g = before.generation();
///
/// // A commit builds the next generation off to the side and swaps it
/// // in atomically. The pinned snapshot keeps serving the generation
/// // it pinned, byte-stable.
/// db.replace_column(
///     "sales",
///     "amount",
///     vec![11i64, 41, 26, 100].into_iter().map(Value::Int).collect(),
/// )?;
/// assert_eq!(db.generation(), g + 1);
/// let old = before.query("sales").filter(eq("amount", 10)).run()?;
/// assert_eq!(old.rows(), &ResultRows::Rids(vec![0])); // the old values
/// let new = db.query("sales").filter(eq("amount", 11)).run()?;
/// assert_eq!(new.rows(), &ResultRows::Rids(vec![0])); // the live catalog moved on
///
/// // Handles are Send + Sync: a serving session runs on another thread
/// // (pinning one snapshot per batch-formation window) while this one
/// // keeps `&mut db` for commits.
/// let handle = db.handle();
/// let (answers, stats) = std::thread::scope(|s| {
///     s.spawn(|| {
///         let server = BatchServer::new(&handle);
///         server.serve_concurrent(2, |_, client| {
///             client.call(Request::point("sales", "amount", 41i64))
///         })
///     })
///     .join()
///     .expect("serving thread")
/// });
/// assert_eq!(answers[0], Ok(ResultRows::Rids(vec![1])));
/// assert_eq!(stats.snapshot.generation, db.generation());
/// assert_eq!(stats.snapshot.pinned, 1); // window pins dropped; `before` lives
/// assert!(stats.explain().contains("generation"));
///
/// // Dropping the last pin on an old generation reclaims it.
/// assert_eq!(db.pinned_snapshots(), 1);
/// drop(before);
/// assert_eq!(db.pinned_snapshots(), 0);
/// # Ok::<(), mmdb::MmdbError>(())
/// ```
pub trait ServeSource: Sync {
    /// The pinned generation type a window executes against.
    type Pinned: CatalogRead;

    /// Pin the current committed generation.
    fn pin(&self) -> Self::Pinned;

    /// The commit slot's counters right now.
    fn observe(&self) -> SnapshotInfo;
}

impl ServeSource for Database {
    type Pinned = mmdb::Snapshot;

    fn pin(&self) -> mmdb::Snapshot {
        self.snapshot()
    }

    fn observe(&self) -> SnapshotInfo {
        self.handle().observe()
    }
}

impl ServeSource for ShardedDatabase {
    type Pinned = ShardedSnapshot;

    fn pin(&self) -> ShardedSnapshot {
        self.snapshot()
    }

    fn observe(&self) -> SnapshotInfo {
        self.handle().observe()
    }
}

impl<T: CatalogRead + Send> ServeSource for Handle<T> {
    type Pinned = Pinned<T>;

    fn pin(&self) -> Pinned<T> {
        self.snapshot()
    }

    fn observe(&self) -> SnapshotInfo {
        SnapshotInfo {
            generation: self.generation(),
            swaps: self.swaps(),
            pinned: self.pinned(),
        }
    }
}
