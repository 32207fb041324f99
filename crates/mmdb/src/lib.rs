//! Main-memory OLAP database substrate.
//!
//! §2 of the paper situates CSS-trees inside a main-memory decision-support
//! system: columns store 4-byte **domain IDs** that point into a sorted
//! per-column **domain** of distinct values (§2.1, after \[AHK85\] and
//! Tandem's InfoCharger), RID lists sorted by an attribute provide ordered
//! access (§2.2), and the three index consumers are (1) single-value and
//! range selections, (2) indexed nested-loop joins ("the only join method
//! used in \[WK90\]"), and (3) mapping query constants to domain IDs by
//! searching the domain itself.
//!
//! This crate builds that system in two layers.
//!
//! **The engine** (the primary surface): a [`Database`] whose catalog
//! registers tables and builds/owns per-column RID lists with the access
//! paths declared on them (keyed by [`IndexKind`]), and a composable
//! [`Query`] builder —
//! `db.query("sales").filter(eq(..)).join(.., on(..)).group_by(..)` —
//! compiled by [`mod@plan`] into a small physical plan whose executor
//! drives the batched operators below — sequentially by default, or
//! partitioned across a scoped worker pool when the catalog's
//! [`ExecOptions`] (or a per-query [`Query::exec`] override) asks for
//! more than one thread, with results byte-identical either way.
//! Failures are typed ([`MmdbError`]) and name the offending
//! table/column.
//!
//! **The physical layer** the engine compiles onto:
//! * [`domain`] — sorted domain dictionaries with domain-ID encoding;
//!   equality *and* inequality predicates evaluate on IDs directly because
//!   the domain is kept in value order,
//! * [`mod@column`]/[`table`] — columnar tables of domain-encoded attributes,
//! * [`rid`] — sorted RID lists, addressed by domain ID: the one search
//!   a probe makes is the domain's,
//! * [`index_choice`] — one constructor ([`IndexHandle::build`]) for
//!   every paper method, all behind
//!   `ccindex_common::OrderedIndex`/`SearchIndex` (the baselines), and the
//!   catalog's declared access paths,
//! * [`query`] — point select, range select, and indexed nested-loop
//!   join, one form each: batched at an explicit lane count and chunked
//!   across an explicit number of workers (`1` runs inline),
//! * [`aggregate`] — grouped aggregation, one operator: `(group, value)`
//!   pairs folded into an array indexed by the group's dense domain ID,
//!   per-worker partials merged at the barrier.
//!
//! A batch of updates rebuilds rather than patches (§2.3: "it may be
//! relatively cheap to rebuild an index from scratch after a batch of
//! updates"): see [`Database::replace_column`] and
//! [`Database::rebuild_column`].

#![deny(unsafe_op_in_unsafe_fn)]

pub mod aggregate;
pub mod column;
pub mod domain;
pub mod engine;
pub mod error;
pub mod index_choice;
pub mod persist;
pub mod plan;
pub mod query;
pub mod rid;
pub mod snapshot;
pub mod table;

// The engine surface.
pub use engine::{Database, RebuildReport};
pub use error::{MmdbError, Result, StorageFault, TransportFault};
pub use persist::catalog_to_bytes;
pub use plan::{
    between, count, eq, max, min, on, parse_knob, sum, Agg, CatalogRead, DrivingRun, ExecOptions,
    JoinOn, Plan, PlanTimings, Predicate, PredicateOp, Query, QuerySpec, Request, ResultRows,
    ResultSet,
};
pub use snapshot::{CatalogState, DatabaseHandle, Handle, Pinned, Snapshot, SwapSlot};

// The physical layer.
pub use aggregate::{group_aggregate_pairs, AggFn, GroupRow, Measure};
pub use column::Column;
pub use domain::{Domain, Value};
pub use index_choice::{build_index, AccessPath, IndexHandle, IndexKind};
pub use query::{indexed_nested_loop_join, point_select_many, range_select_many, JoinRow};
pub use rid::RidList;
pub use table::{Table, TableBuilder};
