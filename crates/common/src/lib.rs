//! Shared substrate for the `ccindex` workspace.
//!
//! This crate holds the pieces that every index structure in the Rao & Ross
//! (VLDB 1999) reproduction depends on:
//!
//! * [`Key`] — the fixed-width key abstraction (the paper uses 4-byte
//!   integer keys throughout; we additionally support other widths),
//! * [`AccessTracer`] — a zero-cost hook through which index traversals
//!   report every memory region they touch, so the same search code can be
//!   wall-clock benchmarked (with [`NoopTracer`]) and replayed through the
//!   cache simulator,
//! * [`AlignedBuf`] — cache-line-aligned storage for node arenas and sorted
//!   arrays (§6.2 of the paper aligns all structures to cache lines),
//! * [`SearchIndex`] / [`OrderedIndex`] — the common interface the paper's
//!   seven competing methods implement, including the space accounting used
//!   for the space/time trade-off study (Figs. 2, 7, 8, 14),
//! * [`prefetch`] — the one cache-line prefetch hint every batched reader
//!   (the interleaved descent, the query operators' gathers) issues.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod align;
pub mod array;
pub mod index;
pub mod key;
pub mod layout;
mod prefetch;
pub mod tracer;

pub use align::{AlignedBuf, CACHE_LINE_BYTES};
pub use array::SortedArray;
pub use index::{IndexStats, OrderedIndex, SearchIndex, SpaceReport, DEFAULT_BATCH_LANES};
pub use key::Key;
pub use layout::{ceil_div, ceil_log, ilog_floor, pow_saturating};
pub use prefetch::prefetch;
pub use tracer::{AccessKind, AccessTracer, CountingTracer, NoopTracer, RecordingTracer};
