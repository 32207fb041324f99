//! # ccindex-wire — the shard wire protocol
//!
//! A dependency-free, versioned, length-prefixed, checksummed encoding
//! for everything that crosses the coordinator ↔ shard-server boundary:
//! query specs, probe batches, result rows, and shard admin — the
//! transport that lets `ShardedDatabase` run its shards as remote
//! `BatchServer`s behind plain blocking TCP (ROADMAP item 1; the
//! batch-formation window design of PR 5 is what makes `std::net`
//! sufficient — no async runtime).
//!
//! Three layers:
//!
//! * [`frame`] — magic + version + trace/payload lengths + CRC-32
//!   framing (the v2 trace field carries span ids and timing trees
//!   for cross-wire query tracing); corrupt,
//!   truncated, or foreign-protocol bytes surface as typed
//!   [`MmdbError::Transport`](mmdb::MmdbError) errors, never panics;
//! * [`codec`] — each `mmdb` type's field order and enum tags, written
//!   and read through `ccindex_store::bytes`, the one byte codec the store
//!   and the catalog manifest share (no third-party serializer);
//! * [`message`] — [`ShardRequest`]/[`ShardResponse`], the complete
//!   `ShardRead`/`ShardBackend` conversation.
//!
//! Every frame carries the trace field, and the I/O has one function
//! per role: [`write_frame`]/[`read_frame`] for raw frames,
//! [`write_request`] (span id `0` is untraced), [`write_response`] and
//! [`read_response`] (the timing tree is an `Option`). A server reads a
//! request as [`read_frame`], [`decode_span_id`], then
//! [`ShardRequest::decode`], so that it can time the decode.
//!
//! ```
//! use ccindex_wire::{ShardRequest, ShardResponse};
//! use mmdb::Value;
//!
//! let req = ShardRequest::PointProbeBatch {
//!     table: "sales".into(),
//!     column: "cust".into(),
//!     values: vec![Value::Int(7)],
//! };
//! let bytes = req.encode();
//! assert_eq!(ShardRequest::decode(&bytes, "peer")?, req);
//! # Ok::<(), mmdb::MmdbError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod codec;
pub mod frame;
pub mod message;

pub use ccindex_store::crc32;
pub use frame::{read_frame, write_frame, MAGIC, MAX_FRAME_LEN, SNAPSHOT_CHUNK, VERSION};
pub use message::{
    decode_span_id, read_response, write_request, write_response, ShardRequest, ShardResponse,
};
