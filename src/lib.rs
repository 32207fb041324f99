//! # ccindex — Cache Conscious Indexing for Decision-Support in Main Memory
//!
//! A production-quality Rust reproduction of Rao & Ross (Columbia TR
//! CUCS-019-98 / VLDB 1999): **Cache-Sensitive Search Trees** and the full
//! set of competing main-memory index structures the paper evaluates, plus
//! the analytical models, a cache simulator standing in for the paper's
//! 1998 hardware, and a main-memory OLAP database substrate.
//!
//! ## Quick start
//!
//! ```
//! use ccindex::prelude::*;
//!
//! // A sorted array of distinct keys (the paper's setting: a sorted
//! // RID list ordered by some attribute).
//! let keys: Vec<u32> = (0..100_000u32).map(|i| i * 2).collect();
//!
//! // Build a full CSS-tree with 16 keys per node (64-byte cache lines).
//! let css = FullCssTree::<u32, 16>::build(&keys);
//! assert_eq!(css.search(40_000), Some(20_000));
//! assert_eq!(css.search(40_001), None);
//!
//! // Every method implements the same traits.
//! let idx: &dyn OrderedIndex<u32> = &css;
//! assert_eq!(idx.lower_bound(41), 21);
//! let space = idx.space();
//! assert!(space.indirect_bytes < keys.len() * 4 / 10); // < 10% overhead
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`css`] | `css-tree` | `CssTree<K, S>`: full, level & runtime-`m` CSS-trees (the contribution) |
//! | [`sorted`] | `sorted-search` | Binary & interpolation search |
//! | [`bst`] | `bst-index` | Pointer-based balanced BST |
//! | [`ttree`] | `ttree` | T-tree (improved LC86b variant) |
//! | [`bplus`] | `bplus` | Bulk-loaded B+-tree |
//! | [`hash`] | `hashindex` | Chained bucket hash |
//! | [`sim`] | `cachesim` | Cache simulator + 1998 machine models |
//! | [`model`] | `analysis` | §5 analytical time/space models |
//! | [`db`] | `mmdb` | Main-memory OLAP database substrate |
//! | [`store`] | `ccindex-store` | Versioned, checksummed paged on-disk container |
//! | [`shard`] | `ccindex-shard` | Sharded catalog with scatter-gather execution (local or remote shards) |
//! | [`serve`] | `ccindex-serve` | Batch-formation serving front-end + TCP shard server |
//! | [`wire`] | `ccindex-wire` | Versioned, checksummed shard wire protocol |
//! | [`obs`] | `ccindex-obs` | Metrics registry, latency histograms, query tracing |
//! | [`gen`] | `workload` | Key/lookup generators |
//! | [`parallel`] | `ccindex-parallel` | Scoped worker pool for partitioned execution |
//! | [`common`] | `ccindex-common` | Shared traits |

#![deny(unsafe_op_in_unsafe_fn)]

// The README's Rust blocks run as this crate's doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use analysis as model;
pub use bst_index as bst;
pub use cachesim as sim;
pub use ccindex_common as common;
pub use ccindex_obs as obs;
pub use ccindex_parallel as parallel;
pub use ccindex_serve as serve;
pub use ccindex_shard as shard;
pub use ccindex_store as store;
pub use ccindex_wire as wire;
pub use css_tree as css;
pub use hashindex as hash;
pub use mmdb as db;
pub use sorted_search as sorted;
pub use workload as gen;
pub use {bplus, ttree};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::common::{
        AccessTracer, AlignedBuf, IndexStats, Key, NoopTracer, OrderedIndex, SearchIndex,
        SortedArray, SpaceReport, CACHE_LINE_BYTES, DEFAULT_BATCH_LANES,
    };
    // `FullCssTree<K, M>` / `LevelCssTree<K, M>` name `css::CssTree<K, S>`
    // under its `Full<M>` / `Level<M>` node-search strategy.
    pub use crate::css::{CssVariant, FullCssTree, LevelCssTree};
    pub use crate::db::{
        between, count, eq, indexed_nested_loop_join, max, min, on, point_select_many,
        range_select_many, sum, Agg, CatalogRead, Database, DatabaseHandle, Domain, ExecOptions,
        IndexKind, MmdbError, ResultRows, RidList, Snapshot, StorageFault, Table, TableBuilder,
        Value,
    };
    pub use crate::gen::{KeyDistribution, KeySetBuilder, LookupStream};
    pub use crate::hash::HashIndex;
    pub use crate::model::Params;
    pub use crate::obs::{Counter, Gauge, Histogram, Registry, Span, SpanNode};
    pub use crate::parallel::{BlockingQueue, WorkerPool};
    pub use crate::serve::{
        BatchServer, QuerySpec, Request, ServeOptions, ServeSource, ShardServer, SnapshotInfo,
    };
    pub use crate::shard::{
        HashPartitioner, LocalShard, Partitioner, RangePartitioner, RemoteShard, ShardBackend,
        ShardedDatabase,
    };
    pub use crate::sim::{CacheHierarchy, Machine, SimTracer};
    pub use crate::sorted::{BinarySearch, InterpolationSearch};
    pub use bplus::BPlusTree;
    pub use bst_index::BinaryTreeIndex;
    pub use ttree::TTree;
}
