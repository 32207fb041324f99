//! The network entry point: [`ShardServer`] fronts **one** shard — a
//! whole [`Database`] — behind a [`TcpListener`] speaking the
//! `ccindex-wire` protocol, so a `ShardedDatabase` coordinator can run
//! its scatter-gather over `RemoteShard` clients instead of in-process
//! catalogs.
//!
//! The serving discipline mirrors the in-process split the engine
//! already has:
//!
//! * **reads** (whole query specs, probe batches, join fan-out, value
//!   decodes) run against a pinned
//!   [`Snapshot`](mmdb::Snapshot) from a lock-free
//!   [`DatabaseHandle`](mmdb::DatabaseHandle) — every request answers
//!   from one committed generation and never waits on a writer;
//! * **catalog edits** arrive as one `Mutate` frame per batch of
//!   [`Mutation`](mmdb::Mutation)s (register/drop, index admin, column
//!   replacement and rebuild) and are one dispatch arm: the batch
//!   serializes through a `Mutex<Database>` as one
//!   [`apply`](Database::apply), which publishes one new generation
//!   through the same commit slot the handle reads, or none if any edit
//!   fails.
//!
//! Reads dispatch through the *same* `impl ShardRead for CatalogState`
//! an in-process shard pins (see `ccindex_shard`), which is what makes
//! distributed answers byte-identical by construction. One thread
//! per connection, blocking `std::net` I/O, no async runtime. Every
//! socket failure is contained to its connection; a request that fails
//! engine-side answers with the same typed
//! [`MmdbError`](mmdb::MmdbError) the operation would have raised
//! in-process, carried in [`ShardResponse::Err`], and so does a whole
//! frame whose payload does not decode: the connection serves on.
//!
//! The server holds only its live connections: a connection's thread
//! drops its own registry entry when it ends, so the peer sees the close
//! at once and a finished connection keeps no descriptor or thread. No
//! request stops a server; its owner does, with
//! [`ShardServer::shutdown`] or by dropping it.

use ccindex_obs as obs;
use ccindex_parallel::sync::Arc as MetricArc;
use ccindex_shard::ShardRead;
use ccindex_wire::{self as wire, ShardRequest, ShardResponse};
use mmdb::{CatalogRead, Database, DatabaseHandle, MmdbError, Result, TransportFault};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// The most bytes an inbound snapshot transfer may claim: `total_chunks`
/// chunks of [`wire::SNAPSHOT_CHUNK`] bytes, at most 1 GiB (256 chunks).
/// A larger claim, or a chunk longer than `SNAPSHOT_CHUNK`, is refused
/// before anything is reserved, so no client can grow a connection's
/// reassembly buffer past this.
const MAX_INSTALL_BYTES: u64 = 1 << 30;

/// State shared between the owning [`ShardServer`], the accept loop,
/// and every connection thread.
struct Shared {
    /// The mutation side: one writer at a time, commits publish through
    /// the engine's commit slot.
    db: Mutex<Database>,
    /// The read side: lock-free pinned snapshots of the committed tip.
    handle: DatabaseHandle,
    /// Set once by [`ShardServer::shutdown`]; the accept loop observes
    /// it.
    stop: AtomicBool,
    /// The bound address, for the shutdown self-connect.
    addr: SocketAddr,
    /// A clone of each live connection's stream, keyed by connection
    /// id, so shutdown can sever blocked readers. A connection's thread
    /// removes its own entry when it ends; the accept loop's thread
    /// scope joins the threads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// The server's metric registry — scraped over the wire by
    /// [`ShardRequest::Stats`].
    registry: MetricArc<obs::Registry>,
    /// `server.requests` — framed requests answered.
    requests: MetricArc<obs::Counter>,
    /// `server.execute.ns` — per-request engine execution time.
    execute_ns: MetricArc<obs::Histogram>,
    /// `server.accept.errors` — failed accepts, each followed by a
    /// back-off ([`accept_backoff`]).
    accept_errors: MetricArc<obs::Counter>,
    /// `server.connections` — live connections: the size of `conns`, set
    /// under its lock whenever an entry is added or removed.
    connections: MetricArc<obs::Gauge>,
    /// The last image an outbound snapshot transfer encoded, and the
    /// generation it holds. Weak: the transfers streaming it own it, so
    /// every transfer of one generation shares one image, and the image
    /// is freed when the last of them ends.
    image: Mutex<(u64, Weak<Vec<u8>>)>,
    /// `server.snapshot.encodes` — catalog images encoded for outbound
    /// transfers.
    snapshot_encodes: MetricArc<obs::Counter>,
}

/// One connection's snapshot transfers. A transfer is one connection's
/// chunk sequence, so its state lives with the connection: another
/// client's chunk 0 can neither re-point this one's outbound stream at a
/// newer generation nor cancel its inbound reassembly.
#[derive(Default)]
struct Transfers {
    /// The committed tip as store bytes, fixed at an outbound
    /// `FetchSnapshot` sequence's chunk 0 and released after its last
    /// chunk, so mutations committing mid-stream never splice two
    /// generations into one image.
    outbound: Option<Arc<Vec<u8>>>,
    /// Reassembly of an inbound `InstallSnapshotChunk` sequence.
    inbound: Option<InstallBuf>,
}

/// An in-progress inbound snapshot transfer: chunks must arrive in
/// order; the final chunk installs the catalog.
struct InstallBuf {
    total_chunks: u32,
    next: u32,
    bytes: Vec<u8>,
}

impl Shared {
    /// Ask the accept loop to exit: raise the flag, then self-connect so
    /// a blocked `accept` returns and observes it.
    fn begin_stop(&self) {
        // ORDERING: Release pairs with the accept loop's Acquire load so
        // everything written before the stop request is visible there;
        // the flag itself is a one-way latch, so no stronger order is
        // needed.
        self.stop.store(true, Ordering::Release);
        // A failed self-connect means the listener is already gone —
        // the accept loop has nothing left to unblock.
        drop(TcpStream::connect(self.addr));
    }

    /// Sever every live connection so blocked `wire::read_frame` calls
    /// return errors and their threads exit. Called after
    /// [`Shared::begin_stop`], under the lock the accept loop registers
    /// a connection under, so a connection is either severed here or
    /// never served.
    fn sever(&self) {
        for conn in self.conns().values() {
            // An already-closed peer is fine; severing is idempotent.
            drop(conn.shutdown(Shutdown::Both));
        }
    }

    fn conns(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A TCP server fronting one shard's [`Database`]: the remote half of
/// the transport-generic scatter-gather (`RemoteShard` is the client
/// half). Binds loopback by default; [`ShardServer::addr`] is what a
/// coordinator passes to `ShardedDatabase::connect`.
///
/// ```
/// use ccindex_serve::ShardServer;
/// use ccindex_shard::{HashPartitioner, ShardedDatabase};
/// use mmdb::{eq, Database, IndexKind, TableBuilder};
///
/// // Two shard servers, each fronting an (initially empty) catalog.
/// let servers: Vec<ShardServer> = (0..2)
///     .map(|_| ShardServer::spawn(Database::new()))
///     .collect::<Result<_, _>>()?;
/// let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
///
/// // The coordinator registers through the same surface as in-process.
/// let mut db = ShardedDatabase::connect(HashPartitioner::new(2)?, &addrs)?;
/// db.register(
///     TableBuilder::new("sales")
///         .int_column("cust", [1, 2, 1, 3])
///         .build()?,
///     "cust",
/// )?;
/// db.create_index("sales", "cust", IndexKind::Hash)?;
/// assert_eq!(
///     db.query("sales").filter(eq("cust", 1)).run()?.rids(),
///     &[0, 2]
/// );
/// for server in servers {
///     server.shutdown();
/// }
/// # Ok::<(), mmdb::MmdbError>(())
/// ```
pub struct ShardServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ShardServer {
    /// Serve `db` on an OS-assigned loopback port.
    pub fn spawn(db: Database) -> Result<Self> {
        Self::bind(db, "127.0.0.1:0")
    }

    /// Serve `db` on an explicit address.
    pub fn bind(db: Database, bind_addr: &str) -> Result<Self> {
        let connect_error = |what: &str, e: std::io::Error| {
            MmdbError::transport(bind_addr, TransportFault::Connect, format!("{what}: {e}"))
        };
        let listener = TcpListener::bind(bind_addr).map_err(|e| connect_error("bind", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| connect_error("local_addr", e))?;
        let registry = MetricArc::new(obs::Registry::new());
        let shared = Arc::new(Shared {
            handle: db.handle(),
            db: Mutex::new(db),
            stop: AtomicBool::new(false),
            addr,
            conns: Mutex::new(HashMap::new()),
            requests: registry.counter("server.requests"),
            execute_ns: registry.histogram("server.execute.ns"),
            accept_errors: registry.counter("server.accept.errors"),
            connections: registry.gauge("server.connections"),
            image: Mutex::new((0, Weak::new())),
            snapshot_encodes: registry.counter("server.snapshot.encodes"),
            registry,
        });
        let accept = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(&listener, &shared)
        });
        Ok(Self {
            shared,
            accept: Some(accept),
        })
    }

    /// The served address, `host:port` — what `RemoteShard::connect`
    /// and `ShardedDatabase::connect` take.
    pub fn addr(&self) -> String {
        self.shared.addr.to_string()
    }

    /// The server's metric registry (`server.*` names) — what a
    /// [`ShardRequest::Stats`] scrape renders to JSON.
    pub fn registry(&self) -> &MetricArc<obs::Registry> {
        &self.shared.registry
    }

    /// Stop serving: no new connections, existing connections severed,
    /// every server thread joined. In-flight requests either finish
    /// their response write or their client sees a typed transport
    /// error — never a hang.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_stop();
        self.shared.sever();
        if let Some(accept) = self.accept.take() {
            // The accept thread returns once every connection thread has
            // (its scope joins them). A panicked server thread is a bug,
            // but the caller is already tearing down; swallowing the
            // panic here would hide it, so propagate.
            accept.join().expect("shard server thread panicked");
        }
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

/// How long the accept loop waits after its `failures`-th failed accept
/// in a row: 1 ms, doubling to a 1 s cap. At the descriptor limit
/// (`EMFILE`) every accept fails at once, and a retry without a wait
/// spins a core until a descriptor frees.
fn accept_backoff(failures: u32) -> Duration {
    let doubled =
        Duration::from_millis(1).saturating_mul(2u32.saturating_pow(failures.saturating_sub(1)));
    doubled.min(Duration::from_secs(1))
}

/// Accept until stopped, then wait for the live connections to end.
/// Each accepted connection gets its own scoped thread and a registry
/// entry under a fresh id, which the thread removes when the connection
/// ends. A failed accept is counted and retried after a back-off
/// ([`accept_backoff`]) unless the stop flag is up (the shutdown
/// self-connect lands here too, and is discarded by the stop check); a
/// connection whose stream cannot be cloned for the registry is dropped
/// unserved, since shutdown could not sever it.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut failures = 0u32;
    std::thread::scope(|scope| {
        for id in 0u64.. {
            let accepted = listener
                .accept()
                .and_then(|(stream, _peer)| Ok((stream.try_clone()?, stream)));
            let mut conns = shared.conns();
            // ORDERING: Acquire pairs with begin_stop's Release store;
            // after observing the latch this thread only returns, so
            // Acquire is already more than it needs. It is read under
            // the lock `sever` takes after raising the flag, so a
            // connection registered below is one `sever` will see.
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let Ok((clone, stream)) = accepted else {
                drop(conns);
                failures = failures.saturating_add(1);
                shared.accept_errors.inc();
                std::thread::sleep(accept_backoff(failures));
                continue;
            };
            failures = 0;
            conns.insert(id, clone);
            shared.connections.set(conns.len() as u64);
            drop(conns);
            // Best-effort: probes are small request/response pairs.
            drop(stream.set_nodelay(true));
            scope.spawn(move || {
                serve_conn(&stream, shared);
                let mut conns = shared.conns();
                conns.remove(&id);
                shared.connections.set(conns.len() as u64);
            });
        }
    });
}

/// One connection's request/response loop. A read error means the
/// client hung up (or shutdown severed us) — the thread exits quietly;
/// the connection carries no state a coordinator could lose. A write
/// error likewise ends the connection: the client's own read fails
/// typed on its side.
///
/// When a request frame carries a span id (protocol v2 trace field),
/// the server opens a span under that id, times decode and execute as
/// children, and ships the finished tree back in the response frame —
/// the client grafts it under its own span for one cross-process
/// latency tree.
fn serve_conn(stream: &TcpStream, shared: &Shared) {
    let endpoint = match stream.peer_addr() {
        Ok(peer) => peer.to_string(),
        Err(_) => "peer".to_owned(),
    };
    let mut transfers = Transfers::default();
    // One buffer for the connection's life: a small request arrives in
    // one `recv`, and bytes read ahead stay for the next frame.
    let mut reader = BufReader::new(stream);
    loop {
        let (trace, payload) = match wire::read_frame(&mut reader, &endpoint) {
            Ok(frame) => frame,
            Err(
                e @ MmdbError::Transport {
                    fault: TransportFault::Version,
                    ..
                },
            ) => {
                // Version negotiation is explicit refusal: best-effort
                // ship the typed error (naming both versions) back
                // before hanging up. A peer too old to parse this frame
                // still raises its own Version error from our frame
                // header, so the skew is named on both sides.
                drop(wire::write_response(
                    &mut &*stream,
                    &endpoint,
                    &ShardResponse::Err(e),
                    None,
                ));
                return;
            }
            Err(_) => return,
        };
        // A malformed trace is a protocol error; hang up like any other
        // unreadable request.
        let Ok(span_id) = wire::decode_span_id(&trace, &endpoint) else {
            return;
        };
        shared.requests.inc();
        let mut span = (span_id != 0).then(|| obs::Span::with_id("server", span_id));
        let decoded = timed(&mut span, "decode", || {
            ShardRequest::decode(&payload, &endpoint)
        });
        let executing = std::time::Instant::now();
        // A payload that does not decode came in a whole, checksummed
        // frame, so the stream is still in step: its typed error is the
        // answer, and the connection serves on.
        let response = timed(&mut span, "execute", || match decoded {
            Ok(request) => respond(shared, &mut transfers, request),
            Err(e) => ShardResponse::Err(e),
        });
        shared.execute_ns.record(obs::elapsed_ns(&executing));
        let node = span.map(obs::Span::finish);
        if wire::write_response(&mut &*stream, &endpoint, &response, node.as_ref()).is_err() {
            return;
        }
    }
}

/// `f()`, timed as a child of `span` named `name` when the request is
/// traced.
fn timed<T>(span: &mut Option<obs::Span>, name: &str, f: impl FnOnce() -> T) -> T {
    match span {
        Some(span) => span.time(name, f),
        None => f(),
    }
}

/// `Ok` maps through `f`; `Err` becomes the typed wire error.
fn reply<T>(result: Result<T>, f: impl FnOnce(T) -> ShardResponse) -> ShardResponse {
    match result {
        Ok(value) => f(value),
        Err(e) => ShardResponse::Err(e),
    }
}

/// Execute one request against the shard. Reads pin a snapshot from the
/// lock-free handle and answer through its [`ShardRead`] /
/// [`CatalogRead`] impls; mutations serialize through the database
/// mutex; snapshot chunks advance this connection's `transfers`.
fn respond(shared: &Shared, transfers: &mut Transfers, request: ShardRequest) -> ShardResponse {
    use ShardResponse as A;
    match request {
        ShardRequest::Hello => A::Info {
            generation: shared.handle.generation(),
        },
        ShardRequest::PointProbeBatch {
            table,
            column,
            values,
        } => reply(
            shared
                .handle
                .snapshot()
                .point_probe_batch(&table, &column, &values),
            A::RidSets,
        ),
        ShardRequest::RangeProbeBatch {
            table,
            column,
            ranges,
        } => reply(
            shared
                .handle
                .snapshot()
                .range_probe_batch(&table, &column, &ranges),
            A::RidSets,
        ),
        ShardRequest::JoinProbeBatch {
            table,
            column,
            values,
            lanes,
            threads,
        } => reply(
            shared
                .handle
                .snapshot()
                .join_probe_batch(&table, &column, values, lanes, threads),
            A::RidSets,
        ),
        ShardRequest::ColumnValues {
            table,
            column,
            rids,
        } => reply(
            shared
                .handle
                .snapshot()
                .column_values(&table, &column, rids.as_deref()),
            A::Values,
        ),
        ShardRequest::RunSpec { spec } => reply(shared.handle.snapshot().run_spec(&spec), A::Rows),
        ShardRequest::Mutate(batch) => reply(lock_db(shared).apply(batch), |reports| A::Applied {
            sort_ns: (reports.iter())
                .map(|report| report.sort_time.as_nanos() as u64)
                .collect(),
        }),
        ShardRequest::SetExecOptions { exec } => {
            lock_db(shared).set_exec_options(exec);
            A::Unit
        }
        ShardRequest::Stats => A::Stats {
            json: shared.registry.to_json(),
        },
        ShardRequest::FetchSnapshot { chunk } => {
            fetch_snapshot_chunk(shared, &mut transfers.outbound, chunk)
        }
        ShardRequest::InstallSnapshotChunk {
            chunk,
            total_chunks,
            crc,
            bytes,
        } => install_snapshot_chunk(
            shared,
            &mut transfers.inbound,
            chunk,
            total_chunks,
            crc,
            &bytes,
        ),
    }
}

fn lock_db(shared: &Shared) -> std::sync::MutexGuard<'_, Database> {
    shared.db.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A snapshot-transfer protocol violation, typed.
fn transfer_error(fault: TransportFault, detail: String) -> ShardResponse {
    ShardResponse::Err(MmdbError::transport("snapshot transfer", fault, detail))
}

/// The committed tip's image: the one a live transfer already holds for
/// this generation, or a fresh encode. The lock is held across the
/// encode, so transfers starting together encode once.
fn snapshot_image(shared: &Shared) -> Arc<Vec<u8>> {
    let snapshot = shared.handle.snapshot();
    // One assignment updates the pair, so a poisoned lock loses nothing.
    let mut image = shared.image.lock().unwrap_or_else(PoisonError::into_inner);
    if image.0 == snapshot.generation() {
        if let Some(bytes) = image.1.upgrade() {
            return bytes;
        }
    }
    shared.snapshot_encodes.inc();
    let bytes = Arc::new(mmdb::catalog_to_bytes(&snapshot));
    *image = (snapshot.generation(), Arc::downgrade(&bytes));
    bytes
}

/// Answer one `FetchSnapshot` chunk. Chunk 0 fixes the committed tip's
/// image as the connection's `outbound` bytes; later chunks stream
/// those same bytes whatever commits meanwhile, and the last chunk
/// releases them.
fn fetch_snapshot_chunk(
    shared: &Shared,
    outbound: &mut Option<Arc<Vec<u8>>>,
    chunk: u32,
) -> ShardResponse {
    if chunk == 0 {
        *outbound = Some(snapshot_image(shared));
    }
    let Some(bytes) = outbound.as_deref().map(Vec::as_slice) else {
        return transfer_error(
            TransportFault::Protocol,
            format!("snapshot chunk {chunk} requested with no transfer open"),
        );
    };
    let total_chunks = bytes.len().div_ceil(wire::SNAPSHOT_CHUNK).max(1) as u32;
    if chunk >= total_chunks {
        return transfer_error(
            TransportFault::Protocol,
            format!("snapshot chunk {chunk} requested; snapshot has {total_chunks} chunk(s)"),
        );
    }
    let start = chunk as usize * wire::SNAPSHOT_CHUNK;
    let part = bytes[start..bytes.len().min(start + wire::SNAPSHOT_CHUNK)].to_vec();
    let total_len = bytes.len() as u64;
    if chunk + 1 == total_chunks {
        *outbound = None;
    }
    ShardResponse::SnapshotChunk {
        chunk,
        total_chunks,
        total_len,
        crc: wire::crc32(&part),
        bytes: part,
    }
}

/// Accept one `InstallSnapshotChunk`: validate its size, its claimed
/// total against [`MAX_INSTALL_BYTES`], its checksum and sequence
/// position, reassemble into the connection's `inbound` transfer, and on
/// the final chunk install the catalog through the engine's ordinary
/// commit cycle. Any violation discards the partial transfer and answers
/// typed.
fn install_snapshot_chunk(
    shared: &Shared,
    inbound: &mut Option<InstallBuf>,
    chunk: u32,
    total_chunks: u32,
    crc: u32,
    bytes: &[u8],
) -> ShardResponse {
    let open = inbound.take();
    if total_chunks == 0 || chunk >= total_chunks {
        return transfer_error(
            TransportFault::Protocol,
            format!("install chunk {chunk}/{total_chunks} is out of range"),
        );
    }
    if bytes.len() > wire::SNAPSHOT_CHUNK {
        return transfer_error(
            TransportFault::Protocol,
            format!(
                "install chunk {chunk} carries {} bytes; a chunk holds at most {}",
                bytes.len(),
                wire::SNAPSHOT_CHUNK
            ),
        );
    }
    if u64::from(total_chunks) * wire::SNAPSHOT_CHUNK as u64 > MAX_INSTALL_BYTES {
        return transfer_error(
            TransportFault::Protocol,
            format!("install of {total_chunks} chunk(s) exceeds the {MAX_INSTALL_BYTES}-byte cap"),
        );
    }
    if wire::crc32(bytes) != crc {
        return transfer_error(
            TransportFault::Checksum,
            format!("install chunk {chunk} failed its payload checksum"),
        );
    }
    let mut state = match open {
        // Chunk 0 begins a transfer, superseding any abandoned one.
        _ if chunk == 0 => InstallBuf {
            total_chunks,
            next: 0,
            bytes: Vec::new(),
        },
        Some(state) if state.next == chunk && state.total_chunks == total_chunks => state,
        Some(state) => {
            return transfer_error(
                TransportFault::Protocol,
                format!(
                    "install chunk {chunk}/{total_chunks} arrived while expecting chunk {}/{}",
                    state.next, state.total_chunks
                ),
            )
        }
        None => {
            return transfer_error(
                TransportFault::Protocol,
                format!("install chunk {chunk}/{total_chunks} arrived with no transfer open"),
            )
        }
    };
    state.bytes.extend_from_slice(bytes);
    state.next += 1;
    if state.next < state.total_chunks {
        *inbound = Some(state);
        return ShardResponse::Unit;
    }
    reply(
        lock_db(shared).restore_from_bytes(&state.bytes, "snapshot transfer"),
        |()| ShardResponse::Unit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb::TableBuilder;
    use std::time::Instant;

    /// Transfers of one generation share one image: four connections
    /// that fetch chunk 0 cause one encode, and once every transfer has
    /// ended — two streamed to their last chunk, two hung up mid-stream
    /// — no image is live.
    #[test]
    fn transfers_of_one_generation_share_one_image() {
        // Distinct values spread over 2^32, so the image spans chunks.
        let spread = |i: i64| (i * 2_654_435_761) % (1 << 32);
        let mut db = Database::new();
        let table = TableBuilder::new("t")
            .int_column("v", (0..400_000).map(spread))
            .build()
            .expect("one column");
        db.register(table).unwrap();
        let server = ShardServer::spawn(db).unwrap();
        let fetch = |stream: &mut TcpStream, chunk: u32| {
            let request = ShardRequest::FetchSnapshot { chunk };
            wire::write_request(&mut *stream, "test", &request, 0).unwrap();
            match wire::read_response(stream, "test").unwrap().0 {
                ShardResponse::SnapshotChunk { total_chunks, .. } => total_chunks,
                other => panic!("chunk {chunk}: {other:?}"),
            }
        };
        let mut streams: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let chunks: Vec<u32> = streams.iter_mut().map(|s| fetch(s, 0)).collect();
        assert!(chunks[0] >= 2, "{} chunk(s)", chunks[0]);
        let encodes = (server.registry())
            .find_counter("server.snapshot.encodes")
            .expect("registered at bind");
        assert_eq!(encodes.get(), 1, "one encode for one generation");
        let live = || server.shared.image.lock().unwrap().1.strong_count();
        assert_eq!(live(), 4, "four transfers hold one image");
        for stream in &mut streams[..2] {
            for chunk in 1..chunks[0] {
                fetch(stream, chunk);
            }
        }
        assert_eq!(live(), 2, "a finished transfer lets go of its image");
        drop(streams);
        let deadline = Instant::now() + Duration::from_secs(10);
        while live() > 0 {
            assert!(Instant::now() < deadline, "{} image holders left", live());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(encodes.get(), 1);
        server.shutdown();
    }

    #[test]
    fn accept_backoff_doubles_from_a_millisecond_to_a_one_second_cap() {
        let ms = |failures: u32| accept_backoff(failures).as_millis();
        let schedule = [1, 2, 3, 4, 10, 11, 12, 40, u32::MAX].map(ms);
        assert_eq!(schedule, [1, 2, 4, 8, 512, 1_000, 1_000, 1_000, 1_000]);
    }
}
