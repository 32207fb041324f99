//! The remote shard client: a [`ShardRead`] + [`ShardBackend`] that
//! speaks the `ccindex-wire` protocol to a `ShardServer` over plain
//! blocking TCP.
//!
//! One request, one response, one frame each, and the coordinator
//! keeps the request count down instead of the transport hiding it: a
//! shard-local plan is a single `RunSpec` exchange per routed shard
//! (the coordinator compiles from the schema it keeps), only a join
//! that is not co-located pays the `RunSpec` (its outer selection) →
//! `ColumnValues` → `JoinProbeBatch` sequence, and a batch of catalog
//! edits is one `Mutate` frame. So the transport stays synchronous and
//! dependency-free. A client reads and edits a shard but cannot stop
//! its server: only the server's owner does. Connection handling:
//!
//! * [`RemoteShard::connect`] dials with **bounded retry** (5 attempts,
//!   doubling backoff from 10 ms) and performs a `Hello` handshake, so
//!   a version-skewed or absent server is a typed
//!   [`MmdbError::Transport`] at construction, not a hang at first
//!   query.
//! * Every request carries the **deadline** from
//!   `CCINDEX_SHARD_TIMEOUT_MS` (default 30 000; `0` disables) as the
//!   socket's read/write timeout. The knob is parsed by the shared
//!   [`parse_knob`] rule and fails loudly on garbage.
//! * The client caches one connection behind a mutex (scatter jobs
//!   target distinct shards, so cross-shard fan-out still runs fully in
//!   parallel). The cached connection includes its read buffer, so a
//!   small reply is one `recv`; any I/O or framing error drops the
//!   stream and its buffer together so the next call redials — the
//!   failed request itself is **not** retried, because the server may
//!   have applied a mutation before the connection died.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ccindex_obs as obs;
use ccindex_parallel::sync::Arc as ObsArc;
use ccindex_wire::{self as wire, ShardRequest, ShardResponse};
use mmdb::plan::parse_knob;
use mmdb::{
    ExecOptions, MmdbError, Mutation, QuerySpec, RebuildReport, Result, ResultRows, TransportFault,
    Value,
};

use crate::backend::{ShardBackend, ShardRead};

/// Request deadline knob, in milliseconds. `0` disables the deadline.
pub const SHARD_TIMEOUT_KNOB: &str = "CCINDEX_SHARD_TIMEOUT_MS";

/// Default request deadline when the knob is unset.
const DEFAULT_TIMEOUT: Duration = Duration::from_millis(30_000);

/// Connect attempts before giving up (the first try plus retries).
const CONNECT_ATTEMPTS: u32 = 5;

/// Backoff before the second connect attempt; doubles per retry.
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);

/// A shard that lives behind a socket: the remote implementation of
/// [`ShardRead`] and [`ShardBackend`]. Cloning yields an independent
/// client to the same server (with its own connection), which is how a
/// remote shard is pinned into a composed snapshot.
#[derive(Debug)]
pub struct RemoteShard {
    addr: String,
    timeout: Option<Duration>,
    /// The cached connection and its read buffer, dropped together.
    conn: Mutex<Option<BufReader<TcpStream>>>,
    /// `transport.retries` from the coordinator's registry, installed
    /// by [`ShardBackend::install_metrics`]; counts redial attempts
    /// beyond the first, per dial.
    retries: Option<ObsArc<obs::Counter>>,
}

impl Clone for RemoteShard {
    fn clone(&self) -> Self {
        Self {
            addr: self.addr.clone(),
            timeout: self.timeout,
            conn: Mutex::new(None),
            retries: self.retries.clone(),
        }
    }
}

impl RemoteShard {
    /// Connect to a shard server, with bounded retry and a `Hello`
    /// handshake. The deadline comes from `CCINDEX_SHARD_TIMEOUT_MS`
    /// (milliseconds; `0` disables; garbage is a typed
    /// [`MmdbError::InvalidExecOption`]).
    pub fn connect(addr: impl Into<String>) -> Result<Self> {
        let timeout = match parse_knob(SHARD_TIMEOUT_KNOB, std::env::var(SHARD_TIMEOUT_KNOB).ok())?
        {
            None => Some(DEFAULT_TIMEOUT),
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms as u64)),
        };
        let shard = Self {
            addr: addr.into(),
            timeout,
            conn: Mutex::new(None),
            retries: None,
        };
        // Validate liveness and protocol version up front: a skewed
        // server answers with a different frame version, which the one
        // frame reader (`wire::read_frame`, under `wire::read_response`)
        // rejects as a typed Transport error here rather than mid-query.
        shard.generation()?;
        Ok(shard)
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Count redials (attempts beyond the first) against the installed
    /// `transport.retries` counter, if any.
    fn note_retries(&self, attempts: u32) {
        if attempts > 1 {
            if let Some(retries) = &self.retries {
                retries.add(u64::from(attempts - 1));
            }
        }
    }

    fn dial(&self) -> Result<TcpStream> {
        let started = std::time::Instant::now();
        let mut delay = INITIAL_BACKOFF;
        let mut last = String::from("no attempt made");
        for attempt in 1..=CONNECT_ATTEMPTS {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => {
                    self.note_retries(attempt);
                    // Latency over throughput: frames are small.
                    let _ = stream.set_nodelay(true);
                    stream
                        .set_read_timeout(self.timeout)
                        .and_then(|()| stream.set_write_timeout(self.timeout))
                        .map_err(|e| MmdbError::Transport {
                            endpoint: self.addr.clone(),
                            fault: TransportFault::Connect,
                            detail: format!("configuring deadline: {e}"),
                            attempts: attempt,
                            elapsed_ms: obs::elapsed_ns(&started) / 1_000_000,
                        })?;
                    return Ok(stream);
                }
                Err(e) => {
                    last = e.to_string();
                    if attempt < CONNECT_ATTEMPTS {
                        std::thread::sleep(delay);
                        delay = delay.saturating_mul(2);
                    }
                }
            }
        }
        self.note_retries(CONNECT_ATTEMPTS);
        Err(MmdbError::Transport {
            endpoint: self.addr.clone(),
            fault: TransportFault::Connect,
            detail: format!("after {CONNECT_ATTEMPTS} attempts: {last}"),
            attempts: CONNECT_ATTEMPTS,
            elapsed_ms: obs::elapsed_ns(&started) / 1_000_000,
        })
    }

    /// The one request/response exchange. With a `span`, the request
    /// carries its id and the server's timing breakdown, which comes
    /// back in the response frame, is grafted under an `rpc:<addr>`
    /// child of `span` — one cross-process latency tree, no clock
    /// synchronisation needed. A typed server-side error is `Err`.
    fn exchange(&self, req: &ShardRequest, span: Option<&mut obs::Span>) -> Result<ShardResponse> {
        let rpc = span
            .as_ref()
            .map(|span| span.child(format!("rpc:{}", self.addr)));
        let (resp, node) = {
            let mut guard = match self.conn.lock() {
                Ok(g) => g,
                // A poisoned lock means a panic elsewhere; the connection
                // state itself is still just an Option we are about to
                // validate, so keep serving.
                Err(poisoned) => poisoned.into_inner(),
            };
            let conn = match &mut *guard {
                Some(conn) => conn,
                idle => idle.insert(BufReader::new(self.dial()?)),
            };
            let span_id = rpc.as_ref().map_or(0, obs::Span::id);
            let outcome = wire::write_request(conn.get_mut(), &self.addr, req, span_id)
                .and_then(|()| wire::read_response(conn, &self.addr));
            match outcome {
                // A typed server-side error is a *successful* exchange —
                // keep the connection.
                Ok((ShardResponse::Err(e), _)) => return Err(e),
                Ok(reply) => reply,
                Err(e) => {
                    // The stream may hold a half-written request or a
                    // half-read reply; drop it and its buffer so the
                    // next call redials instead of desynchronising. The
                    // failed request is not replayed (it may not be
                    // idempotent).
                    *guard = None;
                    return Err(e);
                }
            }
        };
        if let (Some(span), Some(mut rpc)) = (span, rpc) {
            if let Some(node) = node {
                rpc.adopt(node);
            }
            span.adopt(rpc.finish());
        }
        Ok(resp)
    }

    /// [`RemoteShard::exchange`], then the one check of the reply's
    /// variant: `want` takes the reply apart, and a reply it refuses is
    /// the typed [`TransportFault::Protocol`] error naming the variant
    /// that came. Generic over the reply alone, so the exchange itself
    /// is compiled once.
    fn call<T>(
        &self,
        req: &ShardRequest,
        span: Option<&mut obs::Span>,
        want: impl FnOnce(ShardResponse) -> Option<T>,
    ) -> Result<T> {
        let resp = self.exchange(req, span)?;
        let got = variant_name(&resp);
        want(resp).ok_or_else(|| {
            MmdbError::transport(
                &self.addr,
                TransportFault::Protocol,
                format!("unexpected reply variant `{got}`"),
            )
        })
    }

    /// Compile and execute a query description on the server, returning
    /// its result rows: [`ShardRead::run_spec`] as an inherent method,
    /// so a caller fronting one whole remote engine needs no trait in
    /// scope.
    pub fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        let req = ShardRequest::RunSpec { spec: spec.clone() };
        self.call(&req, None, result_rows)
    }

    /// [`RemoteShard::run_spec`] under a trace: the server's timing
    /// breakdown is grafted under `span`.
    pub fn run_spec_traced(&self, spec: &QuerySpec, span: &mut obs::Span) -> Result<ResultRows> {
        let req = ShardRequest::RunSpec { spec: spec.clone() };
        self.call(&req, Some(span), result_rows)
    }

    /// Scrape the server's metric registry: the JSON dump
    /// `Registry::to_json` produces on the server side.
    pub fn stats(&self) -> Result<String> {
        self.call(&ShardRequest::Stats, None, |resp| match resp {
            ShardResponse::Stats { json } => Some(json),
            _ => None,
        })
    }
}

fn result_rows(resp: ShardResponse) -> Option<ResultRows> {
    match resp {
        ShardResponse::Rows(rows) => Some(rows),
        _ => None,
    }
}

fn unit(resp: ShardResponse) -> Option<()> {
    matches!(resp, ShardResponse::Unit).then_some(())
}

fn rid_sets(resp: ShardResponse) -> Option<Vec<Vec<u32>>> {
    match resp {
        ShardResponse::RidSets(sets) => Some(sets),
        _ => None,
    }
}

fn variant_name(resp: &ShardResponse) -> &'static str {
    match resp {
        ShardResponse::RidSets(_) => "RidSets",
        ShardResponse::Values(_) => "Values",
        ShardResponse::Rows(_) => "Rows",
        ShardResponse::Applied { .. } => "Applied",
        ShardResponse::Info { .. } => "Info",
        ShardResponse::Unit => "Unit",
        ShardResponse::Stats { .. } => "Stats",
        ShardResponse::SnapshotChunk { .. } => "SnapshotChunk",
        ShardResponse::Err(_) => "Err",
    }
}

impl ShardRead for RemoteShard {
    fn run_spec(&self, spec: &QuerySpec) -> Result<ResultRows> {
        RemoteShard::run_spec(self, spec)
    }

    fn point_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: &[Value],
    ) -> Result<Vec<Vec<u32>>> {
        let req = ShardRequest::PointProbeBatch {
            table: table.to_owned(),
            column: column.to_owned(),
            values: values.to_vec(),
        };
        self.call(&req, None, rid_sets)
    }

    fn range_probe_batch(
        &self,
        table: &str,
        column: &str,
        ranges: &[(Value, Value)],
    ) -> Result<Vec<Vec<u32>>> {
        let req = ShardRequest::RangeProbeBatch {
            table: table.to_owned(),
            column: column.to_owned(),
            ranges: ranges.to_vec(),
        };
        self.call(&req, None, rid_sets)
    }

    fn join_probe_batch(
        &self,
        table: &str,
        column: &str,
        values: Vec<Value>,
        lanes: usize,
        threads: usize,
    ) -> Result<Vec<Vec<u32>>> {
        let req = ShardRequest::JoinProbeBatch {
            table: table.to_owned(),
            column: column.to_owned(),
            values,
            lanes,
            threads,
        };
        self.call(&req, None, rid_sets)
    }

    fn column_values(&self, table: &str, column: &str, rids: Option<&[u32]>) -> Result<Vec<Value>> {
        let req = ShardRequest::ColumnValues {
            table: table.to_owned(),
            column: column.to_owned(),
            rids: rids.map(<[u32]>::to_vec),
        };
        self.call(&req, None, |resp| match resp {
            ShardResponse::Values(values) => Some(values),
            _ => None,
        })
    }

    fn fetch_snapshot(&self) -> Result<Vec<u8>> {
        let mut bytes: Vec<u8> = Vec::new();
        let mut next = 0u32;
        loop {
            let req = ShardRequest::FetchSnapshot { chunk: next };
            let (chunk, total_chunks, total_len, crc, part) =
                self.call(&req, None, |resp| match resp {
                    ShardResponse::SnapshotChunk {
                        chunk,
                        total_chunks,
                        total_len,
                        crc,
                        bytes,
                    } => Some((chunk, total_chunks, total_len, crc, bytes)),
                    _ => None,
                })?;
            if chunk != next || total_chunks == 0 || chunk >= total_chunks {
                return Err(MmdbError::transport(
                    &self.addr,
                    TransportFault::Protocol,
                    format!(
                        "snapshot chunk {chunk}/{total_chunks} arrived while \
                         expecting chunk {next}"
                    ),
                ));
            }
            if wire::crc32(&part) != crc {
                return Err(MmdbError::transport(
                    &self.addr,
                    TransportFault::Checksum,
                    format!("snapshot chunk {chunk} failed its payload checksum"),
                ));
            }
            bytes.extend_from_slice(&part);
            next += 1;
            if next == total_chunks {
                if bytes.len() as u64 != total_len {
                    return Err(MmdbError::transport(
                        &self.addr,
                        TransportFault::Protocol,
                        format!(
                            "snapshot reassembled to {} bytes, server declared {total_len}",
                            bytes.len()
                        ),
                    ));
                }
                return Ok(bytes);
            }
        }
    }

    fn generation(&self) -> Result<u64> {
        self.call(&ShardRequest::Hello, None, |resp| match resp {
            ShardResponse::Info { generation } => Some(generation),
            _ => None,
        })
    }

    fn describe(&self) -> String {
        format!("remote {}", self.addr)
    }
}

impl ShardBackend for RemoteShard {
    fn reader(&self) -> &dyn ShardRead {
        self
    }

    fn pin(&self) -> Arc<dyn ShardRead> {
        Arc::new(self.clone())
    }

    /// The whole batch in one `Mutate` frame; the server commits it as
    /// one generation, or nothing. The reply holds one sort time per
    /// `ReplaceColumn` and `RebuildColumn`, in batch order; a reply with
    /// another count is refused as a wrong variant is, with a typed
    /// `Protocol` fault.
    fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<RebuildReport>> {
        let reported = (batch.iter())
            .filter(|m| matches!(m, Mutation::ReplaceColumn(..) | Mutation::RebuildColumn(..)))
            .count();
        self.call(&ShardRequest::Mutate(batch), None, |resp| match resp {
            ShardResponse::Applied { sort_ns } if sort_ns.len() == reported => Some(
                (sort_ns.into_iter())
                    .map(|ns| RebuildReport {
                        sort_time: Duration::from_nanos(ns),
                        rebuilds: Vec::new(),
                    })
                    .collect(),
            ),
            _ => None,
        })
    }

    fn set_exec_options(&mut self, exec: ExecOptions) -> Result<()> {
        self.call(&ShardRequest::SetExecOptions { exec }, None, unit)
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> Result<()> {
        // At least one chunk, even for an empty catalog, so the server
        // always sees a final chunk and installs.
        let total_chunks = u32::try_from(bytes.len().div_ceil(wire::SNAPSHOT_CHUNK).max(1))
            .map_err(|_| {
                MmdbError::transport(
                    &self.addr,
                    TransportFault::Protocol,
                    format!(
                        "snapshot of {} bytes exceeds the chunk count limit",
                        bytes.len()
                    ),
                )
            })?;
        let parts: Vec<&[u8]> = if bytes.is_empty() {
            vec![bytes]
        } else {
            bytes.chunks(wire::SNAPSHOT_CHUNK).collect()
        };
        for (chunk, part) in parts.into_iter().enumerate() {
            let req = ShardRequest::InstallSnapshotChunk {
                chunk: chunk as u32,
                total_chunks,
                crc: wire::crc32(part),
                bytes: part.to_vec(),
            };
            self.call(&req, None, unit)?;
        }
        Ok(())
    }

    fn install_metrics(&mut self, registry: &obs::Registry) {
        self.retries = Some(registry.counter("transport.retries"));
    }
}
