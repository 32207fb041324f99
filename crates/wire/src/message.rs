//! The shard protocol: every request a coordinator sends a shard
//! server, and every response that comes back. One frame carries one
//! message.
//!
//! [`ShardRequest`] covers the full `ShardRead` + `ShardBackend`
//! surface — whole query specs (a join's outer selection is one too),
//! probe batches, join-probe fan-out, value fetches, and one
//! [`ShardRequest::Mutate`] frame per batch of catalog edits.
//! Query descriptions and catalog edits are `mmdb`'s own [`QuerySpec`]
//! and [`Mutation`], encoded directly: the wire has no types of its own
//! for them.
//!
//! Protocol v6 carries only what the coordinator cannot work out
//! itself. It registered every table and keeps its schema, so it asks a
//! shard neither for column names nor for row counts, and it compiles
//! every query itself: no frame carries a plan. `Info` is the generation
//! alone, and no frame has a sender it does not need: no remote serving
//! window, and no request that stops a server (only its owner does).
//! The tags retired in v6 (request 9, response 6), in v5 (requests 7,
//! 8, 11 and 19, responses 5, 7 and 8) and in v4 (requests 3, 5 and
//! 13–17, responses 1 and 3) are never reused, so a retired payload can
//! never pass for another message.

use std::io::{Read, Write};

use ccindex_obs::SpanNode;
use ccindex_store::bytes::ByteWriter;
use mmdb::{
    get_value, put_value, ExecOptions, MmdbError, Mutation, QuerySpec, Result, ResultRows, Value,
};

use crate::codec::{
    decode_error, get_agg, get_error, get_exec, get_join_on, get_kind, get_mutation, get_predicate,
    get_result_rows, get_span_node, put_agg, put_error, put_exec, put_join_on, put_kind,
    put_mutation, put_predicate, put_result_rows, put_span_node, reader, Reader,
};
use crate::frame::{read_frame, write_frame};

/// Everything a coordinator can ask a shard server.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRequest {
    /// Handshake/health probe; answered with [`ShardResponse::Info`].
    Hello,
    /// Batched equality probes on one `table.column`.
    PointProbeBatch {
        /// Table to probe.
        table: String,
        /// Column to probe.
        column: String,
        /// One probe per value.
        values: Vec<Value>,
    },
    /// Batched inclusive range probes on one `table.column`.
    RangeProbeBatch {
        /// Table to probe.
        table: String,
        /// Column to probe.
        column: String,
        /// One probe per `(lo, hi)` pair.
        ranges: Vec<(Value, Value)>,
    },
    /// Probe the index on `table.column` (its RID list) once per outer
    /// value; the inner half of a distributed indexed nested-loop join.
    JoinProbeBatch {
        /// Inner table.
        table: String,
        /// Inner join column.
        column: String,
        /// Outer-side join values, one probe each.
        values: Vec<Value>,
        /// Interleave lanes per batched descent.
        lanes: usize,
        /// Worker threads for the probe partitioning.
        threads: usize,
    },
    /// Decode column values for the given local RIDs (`None` = all
    /// rows, in RID order).
    ColumnValues {
        /// Table holding the column.
        table: String,
        /// Column to decode.
        column: String,
        /// Local RIDs to decode (`None` = every row).
        rids: Option<Vec<u32>>,
    },
    /// Compile and execute `spec`, returning the result rows.
    RunSpec {
        /// The query description.
        spec: QuerySpec,
    },
    /// Apply a batch of catalog edits, in order, as one commit of the
    /// server's catalog: the whole batch or, on any error, none of it.
    /// Answered with [`ShardResponse::Applied`].
    Mutate(Vec<Mutation>),
    /// Install new execution options.
    SetExecOptions {
        /// The options to install.
        exec: ExecOptions,
    },
    /// Scrape the server's metric registry; answered with
    /// [`ShardResponse::Stats`].
    Stats,
    /// Fetch chunk `chunk` of the server's serialized catalog
    /// snapshot. The server pins its current generation,
    /// serializes it once, and streams it back one
    /// [`ShardResponse::SnapshotChunk`] per request — queries keep
    /// being served lock-free off the same pinned snapshot in between.
    FetchSnapshot {
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// Deliver chunk `chunk` of a serialized catalog snapshot for the
    /// server to install. The final chunk
    /// (`chunk == total_chunks - 1`) triggers the install, committed
    /// through the server's normal generation cycle.
    InstallSnapshotChunk {
        /// Zero-based chunk index.
        chunk: u32,
        /// Total chunks in this transfer.
        total_chunks: u32,
        /// CRC-32 of this chunk's bytes (defense in depth on top of
        /// the frame checksum: the reassembled image spans frames).
        crc: u32,
        /// The chunk payload.
        bytes: Vec<u8>,
    },
}

/// Everything a shard server can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResponse {
    /// One ascending RID set per probe, in submission order.
    RidSets(Vec<Vec<u32>>),
    /// Decoded column values.
    Values(Vec<Value>),
    /// Full query result rows.
    Rows(ResultRows),
    /// A [`ShardRequest::Mutate`] batch committed.
    Applied {
        /// The time re-sorting each RID list, in nanoseconds: one per
        /// `ReplaceColumn` or `RebuildColumn` of the batch, in batch
        /// order.
        sort_ns: Vec<u64>,
    },
    /// The handshake answer.
    Info {
        /// Committed catalog generation.
        generation: u64,
    },
    /// Success with nothing to return.
    Unit,
    /// The server's metric registry, rendered as the same JSON shape
    /// `Registry::to_json` produces locally.
    Stats {
        /// The JSON dump.
        json: String,
    },
    /// The request failed; the same typed error the operation would
    /// have raised in-process.
    Err(MmdbError),
    /// One chunk of a serialized catalog snapshot, answering [`ShardRequest::FetchSnapshot`].
    SnapshotChunk {
        /// Zero-based chunk index (echoes the request).
        chunk: u32,
        /// Total chunks in the snapshot.
        total_chunks: u32,
        /// Total bytes of the whole serialized snapshot.
        total_len: u64,
        /// CRC-32 of this chunk's bytes.
        crc: u32,
        /// The chunk payload.
        bytes: Vec<u8>,
    },
}

// ---------------------------------------------------------------------
// QuerySpec codec
// ---------------------------------------------------------------------

fn put_spec(w: &mut ByteWriter, spec: &QuerySpec) {
    w.str(&spec.table);
    w.seq(&spec.filters, put_predicate);
    w.option(spec.join.as_ref(), |w, (inner, cond)| {
        w.str(inner);
        put_join_on(w, cond);
    });
    w.option(spec.group.as_ref(), |w, (column, agg)| {
        w.str(column);
        put_agg(w, agg);
    });
    w.option(spec.forced_kind.as_ref(), |w, k| put_kind(w, *k));
    w.option(spec.exec.as_ref(), |w, e| put_exec(w, *e));
}

fn get_spec(r: &mut Reader<'_>) -> Result<QuerySpec> {
    Ok(QuerySpec {
        table: r.str()?,
        filters: r.seq(get_predicate)?,
        join: r.option(|r| Ok((r.str()?, get_join_on(r)?)))?,
        group: r.option(|r| Ok((r.str()?, get_agg(r)?)))?,
        forced_kind: r.option(get_kind)?,
        exec: r.option(get_exec)?,
    })
}

// ---------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------

impl ShardRequest {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            ShardRequest::Hello => w.u8(0),
            ShardRequest::PointProbeBatch {
                table,
                column,
                values,
            } => {
                w.u8(1);
                w.str(table);
                w.str(column);
                w.seq(values, put_value);
            }
            ShardRequest::RangeProbeBatch {
                table,
                column,
                ranges,
            } => {
                w.u8(2);
                w.str(table);
                w.str(column);
                w.seq(ranges, |w, (lo, hi)| {
                    put_value(w, lo);
                    put_value(w, hi);
                });
            }
            ShardRequest::JoinProbeBatch {
                table,
                column,
                values,
                lanes,
                threads,
            } => {
                w.u8(4);
                w.str(table);
                w.str(column);
                w.seq(values, put_value);
                w.usize(*lanes);
                w.usize(*threads);
            }
            ShardRequest::ColumnValues {
                table,
                column,
                rids,
            } => {
                w.u8(6);
                w.str(table);
                w.str(column);
                w.option(rids.as_ref(), |w, rids| w.seq(rids, |w, r| w.u32(*r)));
            }
            ShardRequest::RunSpec { spec } => {
                w.u8(10);
                put_spec(&mut w, spec);
            }
            ShardRequest::Mutate(batch) => {
                w.u8(12);
                w.seq(batch, put_mutation);
            }
            ShardRequest::SetExecOptions { exec } => {
                w.u8(18);
                put_exec(&mut w, *exec);
            }
            ShardRequest::Stats => w.u8(20),
            ShardRequest::FetchSnapshot { chunk } => {
                w.u8(21);
                w.u32(*chunk);
            }
            ShardRequest::InstallSnapshotChunk {
                chunk,
                total_chunks,
                crc,
                bytes,
            } => {
                w.u8(22);
                w.u32(*chunk);
                w.u32(*total_chunks);
                w.u32(*crc);
                w.blob(bytes);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload received from `endpoint`.
    pub fn decode(bytes: &[u8], endpoint: &str) -> Result<Self> {
        let mut r = reader(bytes, endpoint);
        let req = match r.u8()? {
            0 => ShardRequest::Hello,
            1 => ShardRequest::PointProbeBatch {
                table: r.str()?,
                column: r.str()?,
                values: r.seq(get_value)?,
            },
            2 => ShardRequest::RangeProbeBatch {
                table: r.str()?,
                column: r.str()?,
                ranges: r.seq(|r| Ok((get_value(r)?, get_value(r)?)))?,
            },
            4 => {
                let (table, column) = (r.str()?, r.str()?);
                let values = r.seq(get_value)?;
                // Bounded by the rule every decoded `ExecOptions` obeys.
                let exec = ExecOptions {
                    lanes: r.usize()?,
                    threads: r.usize()?,
                    shards: 1,
                }
                .normalized();
                ShardRequest::JoinProbeBatch {
                    table,
                    column,
                    values,
                    lanes: exec.lanes,
                    threads: exec.threads,
                }
            }
            6 => ShardRequest::ColumnValues {
                table: r.str()?,
                column: r.str()?,
                rids: r.option(|r| r.seq(|r| r.u32()))?,
            },
            10 => ShardRequest::RunSpec {
                spec: get_spec(&mut r)?,
            },
            12 => ShardRequest::Mutate(r.seq(get_mutation)?),
            18 => ShardRequest::SetExecOptions {
                exec: get_exec(&mut r)?,
            },
            20 => ShardRequest::Stats,
            21 => ShardRequest::FetchSnapshot { chunk: r.u32()? },
            22 => ShardRequest::InstallSnapshotChunk {
                chunk: r.u32()?,
                total_chunks: r.u32()?,
                crc: r.u32()?,
                bytes: r.blob()?,
            },
            other => return Err(r.fail(format!("bad ShardRequest tag {other}"))),
        };
        r.expect_end()?;
        Ok(req)
    }
}

impl ShardResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            ShardResponse::RidSets(sets) => {
                w.u8(0);
                w.seq(sets, |w, rids| w.seq(rids, |w, r| w.u32(*r)));
            }
            ShardResponse::Values(values) => {
                w.u8(2);
                w.seq(values, put_value);
            }
            ShardResponse::Rows(rows) => {
                w.u8(4);
                put_result_rows(&mut w, rows);
            }
            ShardResponse::Applied { sort_ns } => {
                w.u8(9);
                w.seq(sort_ns, |w, ns| w.u64(*ns));
            }
            ShardResponse::Info { generation } => {
                w.u8(10);
                w.u64(*generation);
            }
            ShardResponse::Unit => w.u8(11),
            ShardResponse::Err(e) => {
                w.u8(12);
                put_error(&mut w, e);
            }
            ShardResponse::Stats { json } => {
                w.u8(13);
                w.str(json);
            }
            ShardResponse::SnapshotChunk {
                chunk,
                total_chunks,
                total_len,
                crc,
                bytes,
            } => {
                w.u8(14);
                w.u32(*chunk);
                w.u32(*total_chunks);
                w.u64(*total_len);
                w.u32(*crc);
                w.blob(bytes);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload received from `endpoint`.
    pub fn decode(bytes: &[u8], endpoint: &str) -> Result<Self> {
        let mut r = reader(bytes, endpoint);
        let resp = match r.u8()? {
            0 => ShardResponse::RidSets(r.seq(|r| r.seq(|r| r.u32()))?),
            2 => ShardResponse::Values(r.seq(get_value)?),
            4 => ShardResponse::Rows(get_result_rows(&mut r)?),
            9 => ShardResponse::Applied {
                sort_ns: r.seq(|r| r.u64())?,
            },
            10 => ShardResponse::Info {
                generation: r.u64()?,
            },
            11 => ShardResponse::Unit,
            12 => ShardResponse::Err(get_error(&mut r)?),
            13 => ShardResponse::Stats { json: r.str()? },
            14 => ShardResponse::SnapshotChunk {
                chunk: r.u32()?,
                total_chunks: r.u32()?,
                total_len: r.u64()?,
                crc: r.u32()?,
                bytes: r.blob()?,
            },
            other => return Err(r.fail(format!("bad ShardResponse tag {other}"))),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Framed stream helpers: one per role, the trace field always carried
// ---------------------------------------------------------------------

/// Frame and send one request, stamping the client's `span_id` into
/// the trace field. `span_id` 0 means "no trace requested" and sends
/// an empty trace.
pub fn write_request(
    w: &mut impl Write,
    endpoint: &str,
    req: &ShardRequest,
    span_id: u64,
) -> Result<()> {
    let id = span_id.to_le_bytes();
    let trace: &[u8] = if span_id == 0 { &[] } else { &id };
    write_frame(w, endpoint, trace, &req.encode())
}

/// The client's span id from a request's trace field: 0 when the trace
/// is empty (no trace requested), a typed decode error unless it is
/// empty or exactly one `u64`. The server reads a request as
/// [`read_frame`], this, then [`ShardRequest::decode`], so that it can
/// time the decode.
pub fn decode_span_id(trace: &[u8], endpoint: &str) -> Result<u64> {
    match trace.len() {
        0 => Ok(0),
        8 => reader(trace, endpoint).u64(),
        n => Err(decode_error(
            endpoint,
            format!("request trace is {n} bytes, expected 0 or 8 (a span id)"),
        )),
    }
}

/// Frame and send one response, attaching the server-side timing
/// breakdown when the request carried a trace (`None` sends an empty
/// trace).
pub fn write_response(
    w: &mut impl Write,
    endpoint: &str,
    resp: &ShardResponse,
    trace: Option<&SpanNode>,
) -> Result<()> {
    let mut tw = ByteWriter::new();
    if let Some(node) = trace {
        put_span_node(&mut tw, node);
    }
    write_frame(w, endpoint, &tw.into_bytes(), &resp.encode())
}

/// Receive and decode one response plus the server's timing breakdown
/// (`None` when the response carried no trace).
pub fn read_response(
    r: &mut impl Read,
    endpoint: &str,
) -> Result<(ShardResponse, Option<SpanNode>)> {
    let (trace, payload) = read_frame(r, endpoint)?;
    let node = if trace.is_empty() {
        None
    } else {
        let mut tr = reader(&trace, endpoint);
        let node = get_span_node(&mut tr)?;
        tr.expect_end()?;
        Some(node)
    };
    Ok((ShardResponse::decode(&payload, endpoint)?, node))
}
