//! The batch-forming server: accumulate concurrent client requests in a
//! size- and time-bounded window, coalesce the compatible ones into the
//! engine's native batch shapes, execute over the shared worker pool,
//! and demultiplex per-client answers in submission order.

use crate::engine::{ServeSource, SnapshotInfo};
use ccindex_obs as obs;
use ccindex_parallel::sync::atomic::{AtomicUsize, Ordering};
use ccindex_parallel::sync::{thread, Arc, Instant};
use ccindex_parallel::{BlockingQueue, OneShot, WorkerPool};
use mmdb::{CatalogRead, MmdbError, QuerySpec, Request, Result, ResultRows};
use std::collections::BTreeMap;
use std::time::Duration;

// ---------------------------------------------------------------------
// Window knobs
// ---------------------------------------------------------------------

/// The batch-formation window bounds, [`ExecOptions`](mmdb::ExecOptions)
/// style: a window closes as soon as it holds [`batch_max`] requests
/// (the size bound) **or** [`batch_wait`] has elapsed since its first
/// request arrived (the time bound), whichever comes first. A waiting
/// request never waits on an empty window — the first arrival opens it.
///
/// `batch_max == 1` disables coalescing entirely: every request is its
/// own window, which is exactly the one-probe-at-a-time baseline.
///
/// [`batch_max`]: ServeOptions::batch_max
/// [`batch_wait`]: ServeOptions::batch_wait
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Most requests one window may hold (minimum 1; `usize::MAX` is a
    /// time-only window).
    pub batch_max: usize,
    /// Longest a window stays open after its first request
    /// (`Duration::MAX` is a size-only window).
    pub batch_wait: Duration,
}

/// Where a window's deadline saturates: a `batch_wait` beyond a century
/// (`Duration::MAX`, a size-only window) closes on size or shutdown alone,
/// and the deadline `opened + wait` cannot overflow `Instant`.
const LONGEST_WAIT: Duration = Duration::from_secs(100 * 365 * 24 * 60 * 60);

impl Default for ServeOptions {
    /// A 64-request window held open at most 200 µs — small enough to
    /// stay invisible next to an index descent, large enough to coalesce
    /// a burst of concurrent clients.
    fn default() -> Self {
        Self {
            batch_max: 64,
            batch_wait: Duration::from_micros(200),
        }
    }
}

impl ServeOptions {
    /// A window of up to `batch_max` requests at the default wait.
    pub fn batch_max(batch_max: usize) -> Self {
        Self {
            batch_max,
            ..Self::default()
        }
    }

    /// Apply the knobs' floors: a window must hold at least one request
    /// (`batch_max.max(1)` — the same treatment the engine knobs get). A
    /// zero wait is meaningful (close the window as soon as the queue
    /// runs dry) and passes through.
    pub fn normalized(self) -> Self {
        Self {
            batch_max: self.batch_max.max(1),
            batch_wait: self.batch_wait,
        }
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// The serving layer's pre-registered metric handles — resolved once at
/// server construction so the hot loop records through plain atomics
/// and never touches the registry lock.
#[derive(Debug, Clone)]
struct ServeMetrics {
    registry: Arc<obs::Registry>,
    /// `serve.window.wait.ns` — how long each window stayed open
    /// forming (first arrival to close).
    window_wait_ns: Arc<obs::Histogram>,
    /// `serve.window.size` — requests coalesced per window.
    window_size: Arc<obs::Histogram>,
    /// `serve.window.exec.ns` — execution time per window.
    window_exec_ns: Arc<obs::Histogram>,
    /// `serve.latency.ns` — per-request end-to-end latency, submit to
    /// answer.
    latency_ns: Arc<obs::Histogram>,
    /// `serve.queue.depth` — backlog at window close (the high-water
    /// mark is the gauge's own).
    queue_depth: Arc<obs::Gauge>,
    /// `serve.windows` — windows executed.
    windows: Arc<obs::Counter>,
    /// `serve.requests` — requests answered.
    requests: Arc<obs::Counter>,
    /// `catalog.generation` — the source's committed generation at last
    /// observation.
    catalog_generation: Arc<obs::Gauge>,
    /// `catalog.swaps` — generations committed so far.
    catalog_swaps: Arc<obs::Gauge>,
    /// `catalog.pinned` — snapshots pinned right now.
    catalog_pinned: Arc<obs::Gauge>,
}

impl ServeMetrics {
    /// Register (or re-resolve) every serving metric on `registry`.
    fn install(registry: Arc<obs::Registry>) -> Self {
        Self {
            window_wait_ns: registry.histogram("serve.window.wait.ns"),
            window_size: registry.histogram("serve.window.size"),
            window_exec_ns: registry.histogram("serve.window.exec.ns"),
            latency_ns: registry.histogram("serve.latency.ns"),
            queue_depth: registry.gauge("serve.queue.depth"),
            windows: registry.counter("serve.windows"),
            requests: registry.counter("serve.requests"),
            catalog_generation: registry.gauge("catalog.generation"),
            catalog_swaps: registry.gauge("catalog.swaps"),
            catalog_pinned: registry.gauge("catalog.pinned"),
            registry,
        }
    }

    /// Mirror the source's commit-slot counters onto the catalog
    /// gauges.
    fn observe_catalog(&self, info: &SnapshotInfo) {
        self.catalog_generation.set(info.generation);
        self.catalog_swaps.set(info.swaps);
        self.catalog_pinned.set(info.pinned as u64);
    }
}

// ---------------------------------------------------------------------
// Client handles
// ---------------------------------------------------------------------

/// The cell a request's answer lands in.
type Slot = OneShot<Result<ResultRows>>;

/// One queued request plus the slot its answer lands in.
struct Submission {
    request: Request,
    slot: Arc<Slot>,
    /// When the client enqueued it — the start of the end-to-end
    /// latency the server records when the answer is stored.
    submitted: Instant,
}

/// A submitted request's ticket; [`Pending::wait`] blocks until the
/// server has executed the window the request landed in.
#[must_use = "a pending request resolves only through wait()"]
pub struct Pending {
    slot: Arc<Slot>,
}

impl Pending {
    /// Block until the answer arrives.
    pub fn wait(self) -> Result<ResultRows> {
        self.slot.wait()
    }
}

/// A cheap client handle onto a serving session: [`Client::submit`]
/// enqueues without blocking (pipelining — many requests in flight per
/// client makes windows deeper than the client count),
/// [`Client::call`] is the synchronous submit-then-wait round trip.
#[derive(Clone, Copy)]
pub struct Client<'q> {
    queue: &'q BlockingQueue<Submission>,
}

impl Client<'_> {
    /// Enqueue `request` for the next window and return its ticket.
    pub fn submit(&self, request: Request) -> Pending {
        let slot = Arc::new(Slot::default());
        let pending = Pending { slot: slot.clone() };
        let submission = Submission {
            request,
            slot,
            submitted: Instant::now(),
        };
        if self.queue.push(submission).is_err() {
            // The session is shutting down; fail the ticket rather than
            // leaving its owner blocked forever. Nobody can be asleep on
            // a ticket not yet handed out, so there is no one to wake.
            let _ = pending.slot.store(Err(MmdbError::Unsupported {
                what: "batch server session is shut down".into(),
            }));
        }
        pending
    }

    /// Submit and block for the answer — one synchronous round trip.
    pub fn call(&self, request: Request) -> Result<ResultRows> {
        self.submit(request).wait()
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// What a serving session did, for inspection: how many windows formed,
/// how many requests they carried, how deep the deepest window was
/// (`largest_window > 1` is batch formation observably happening), and
/// the source's commit-slot counters at session end — generation number,
/// total swaps, and still-pinned snapshots ([`SnapshotInfo`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Windows executed.
    pub windows: usize,
    /// Requests answered.
    pub requests: usize,
    /// Requests in the deepest window.
    pub largest_window: usize,
    /// Requests still queued when the last window closed — the
    /// session-end reading of the backlog gauge.
    pub queue_depth: usize,
    /// The deepest backlog observed at any window close: clients
    /// submitting faster than windows drain show up here, so a
    /// persistently high value means the window bounds (or the engine)
    /// are the bottleneck, not the clients.
    pub queue_depth_high_water: usize,
    /// The source's snapshot counters, observed when the session ended.
    pub snapshot: SnapshotInfo,
}

impl ServeStats {
    /// Human-readable rendering, `explain()` style: the window shape on
    /// one line, the snapshot observability on the next.
    pub fn explain(&self) -> String {
        format!(
            "served {} request(s) in {} window(s), largest {}\n\
             queue depth {} at last close, high-water {}\n\
             catalog generation {}, {} swap(s), {} pinned snapshot(s)",
            self.requests,
            self.windows,
            self.largest_window,
            self.queue_depth,
            self.queue_depth_high_water,
            self.snapshot.generation,
            self.snapshot.swaps,
            self.snapshot.pinned,
        )
    }
}

/// The batch-formation serving front-end: fronts any [`ServeSource`]
/// (a [`Database`](mmdb::Database), a
/// [`ShardedDatabase`](ccindex_shard::ShardedDatabase), or one of their
/// reader handles) and turns N concurrent client requests into the
/// engine's native batch shapes.
///
/// Same-`table.column` point probes in one window merge into a single
/// [`point_probe_batch`](CatalogRead::point_probe_batch) call (one
/// batched domain search), range probes
/// likewise; full [`QuerySpec`] requests run as independent jobs. The
/// coalesced jobs execute over a shared
/// [`WorkerPool`](ccindex_parallel::WorkerPool) sized by the engine's
/// [`ExecOptions`](mmdb::ExecOptions), and each answer lands back in its
/// submitter's slot — per-probe results demultiplex in submission order,
/// byte-identical to running every request alone.
///
/// Every window executes against **one pinned snapshot** of the source,
/// taken when the window closes: the probe path holds no lock and takes
/// no `&mut`, concurrent commits never tear a window's answers (all of
/// a window sees one generation), and serving over a reader
/// [`Handle`](mmdb::Handle) lets a writer thread
/// keep committing batch-rebuild cycles at full speed while this server
/// answers probes against the latest committed generation.
pub struct BatchServer<'e, S: ServeSource + ?Sized> {
    source: &'e S,
    options: ServeOptions,
    metrics: ServeMetrics,
}

impl<'e, S: ServeSource + ?Sized> BatchServer<'e, S> {
    /// A server over `source` with the default window bounds
    /// ([`ServeOptions::default`]) and its own fresh metric registry.
    pub fn new(source: &'e S) -> Self {
        Self::with_options(source, ServeOptions::default())
    }

    /// A server over `source` with explicit window bounds and its own
    /// fresh metric registry.
    pub fn with_options(source: &'e S, options: ServeOptions) -> Self {
        Self::with_metrics(source, options, Arc::new(obs::Registry::new()))
    }

    /// A server recording onto a shared registry — pass
    /// [`Registry::disabled`](obs::Registry::disabled) for a
    /// metrics-off control, or a process-wide registry to aggregate
    /// several servers into one scrape.
    pub fn with_metrics(
        source: &'e S,
        options: ServeOptions,
        registry: Arc<obs::Registry>,
    ) -> Self {
        Self {
            source,
            options: options.normalized(),
            metrics: ServeMetrics::install(registry),
        }
    }

    /// The window bounds this server forms batches under.
    pub fn options(&self) -> ServeOptions {
        self.options
    }

    /// The metric registry this server records onto: the `serve.*`
    /// window, latency and queue instruments and the `catalog.*`
    /// commit-slot gauges, each documented on `ServeMetrics`' fields.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.metrics.registry
    }

    /// Execute one already-formed batch synchronously: pin the current
    /// generation, coalesce, run over the pool, and return one answer
    /// per request in submission order. This is the windowless core —
    /// useful directly when the caller already holds a batch (and what
    /// every formed window runs).
    pub fn run_batch(&self, requests: &[Request]) -> Vec<Result<ResultRows>> {
        let refs: Vec<&Request> = requests.iter().collect();
        self.execute(&self.source.pin(), &refs)
    }

    /// Run a serving session: spawn `clients` scoped client threads,
    /// each running `f(client_index, &client)`, while this thread forms
    /// and executes windows until every client has finished and the
    /// queue has drained. Returns the per-client results (in client
    /// order) and the session's [`ServeStats`].
    ///
    /// The hand-off is the blocking
    /// [`BlockingQueue`](ccindex_parallel::BlockingQueue): clients push
    /// submissions from their threads; the serving thread pops the first
    /// request of a window, then moves the rest in under one lock
    /// ([`pop_up_to`](ccindex_parallel::BlockingQueue::pop_up_to)),
    /// waiting only until the size or time bound closes the window.
    /// Answers come back through one-shot cells
    /// ([`OneShot`](ccindex_parallel::OneShot)): the serving thread
    /// stores a whole window's answers before it wakes any client, and
    /// wakes only the clients asleep on one.
    pub fn serve_concurrent<R, F>(&self, clients: usize, f: F) -> (Vec<R>, ServeStats)
    where
        R: Send,
        F: Fn(usize, &Client<'_>) -> R + Sync,
    {
        let queue: BlockingQueue<Submission> = BlockingQueue::new();
        let remaining = AtomicUsize::new(clients);
        if clients == 0 {
            queue.close();
        }
        thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let (queue, remaining, f) = (&queue, &remaining, &f);
                    scope.spawn(move || {
                        // Close the queue when the last client retires —
                        // through a drop guard, so a panicking client
                        // still releases the serving loop below.
                        struct Retire<'a> {
                            remaining: &'a AtomicUsize,
                            queue: &'a BlockingQueue<Submission>,
                        }
                        impl Drop for Retire<'_> {
                            fn drop(&mut self) {
                                // ORDERING: AcqRel — each retiring
                                // client Releases its session work into
                                // the counter; the last one (who sees
                                // 1) Acquires all of it before closing
                                // the queue, so the serving loop's
                                // drain observes every push.
                                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                    self.queue.close();
                                }
                            }
                        }
                        let _retire = Retire { remaining, queue };
                        f(i, &Client { queue })
                    })
                })
                .collect();
            let mut stats = self.serve_loop(&queue);
            stats.snapshot = self.source.observe();
            self.metrics.observe_catalog(&stats.snapshot);
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (results, stats)
        })
    }

    /// Form and execute windows until the queue closes **and drains**:
    /// `BlockingQueue::pop` keeps returning queued submissions after
    /// close, so requests pipelined just before shutdown are flushed
    /// through their windows, never dropped.
    fn serve_loop(&self, queue: &BlockingQueue<Submission>) -> ServeStats {
        let mut stats = ServeStats::default();
        // Both buffers live for the session and keep what the largest
        // window grew them to, so once windows reach their usual size a
        // window allocates neither. Nothing is reserved before requests
        // arrive: `batch_max` may be `usize::MAX` (a time-only window).
        let mut batch: Vec<Submission> = Vec::new();
        let mut sleepers: Vec<Arc<Slot>> = Vec::new();
        // The first request opens a window; the window then stays open
        // until the size bound fills it or the time bound expires.
        while let Some(first) = queue.pop() {
            let opened = Instant::now();
            batch.push(first);
            // The backlog gauge reads at window close: everything still
            // queued waited a full window without being admitted. The
            // registry gauge is the one source; `ServeStats` reads it
            // back below.
            let depth = queue.pop_up_to(
                &mut batch,
                self.options.batch_max,
                opened + self.options.batch_wait.min(LONGEST_WAIT),
            );
            self.metrics.window_wait_ns.record(obs::elapsed_ns(&opened));
            self.metrics.queue_depth.set(depth as u64);
            // One pinned generation per window: the whole window answers
            // from it, lock-free, whatever a writer commits meanwhile.
            let snapshot = self.source.pin();
            let refs: Vec<&Request> = batch.iter().map(|s| &s.request).collect();
            let executing = Instant::now();
            let results = self.execute(&snapshot, &refs);
            self.metrics
                .window_exec_ns
                .record(obs::elapsed_ns(&executing));
            self.metrics.window_size.record(batch.len() as u64);
            self.metrics.windows.inc();
            self.metrics.requests.add(batch.len() as u64);
            stats.windows += 1;
            stats.requests += batch.len();
            stats.largest_window = stats.largest_window.max(batch.len());
            stats.queue_depth = depth;
            stats.queue_depth_high_water = stats.queue_depth_high_water.max(depth);
            // Store every answer before waking anyone: a client woken
            // mid-window would preempt this thread on a shared CPU and
            // find the rest of its answers not yet stored. Clients that
            // are not asleep collect their answers without a wake.
            for (submission, result) in batch.drain(..).zip(results) {
                self.metrics
                    .latency_ns
                    .record(obs::elapsed_ns(&submission.submitted));
                if submission.slot.store(result) {
                    sleepers.push(submission.slot);
                }
            }
            for slot in sleepers.drain(..) {
                slot.wake();
            }
        }
        // The queue-depth fields migrated onto the registry gauge; read
        // them back from it so the gauge is the single source (the
        // local fields remain authoritative only when this server runs
        // with a disabled registry, e.g. a metrics-off control).
        if self.metrics.registry.is_enabled() {
            stats.queue_depth = self.metrics.queue_depth.get() as usize;
            stats.queue_depth_high_water = self.metrics.queue_depth.high_water() as usize;
        }
        stats
    }

    /// Coalesce one window's requests into jobs and execute them over
    /// the shared pool. Point (and range) probes naming the same
    /// `table.column` merge into one batched engine call whose per-value
    /// answers demultiplex back to their submission slots; a failed
    /// coalesced call fails every request it carried with the same typed
    /// error.
    fn execute(&self, engine: &S::Pinned, requests: &[&Request]) -> Vec<Result<ResultRows>> {
        enum Job<'r> {
            Points {
                table: &'r str,
                column: &'r str,
                slots: Vec<usize>,
                values: Vec<mmdb::Value>,
            },
            Ranges {
                table: &'r str,
                column: &'r str,
                slots: Vec<usize>,
                ranges: Vec<(mmdb::Value, mmdb::Value)>,
            },
            Query {
                slot: usize,
                spec: &'r QuerySpec,
            },
        }

        let mut jobs: Vec<Job> = Vec::new();
        let mut point_groups: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        let mut range_groups: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for (slot, request) in requests.iter().enumerate() {
            match request {
                Request::Point {
                    table,
                    column,
                    value,
                } => {
                    let at = *point_groups.entry((table, column)).or_insert_with(|| {
                        jobs.push(Job::Points {
                            table,
                            column,
                            slots: Vec::new(),
                            values: Vec::new(),
                        });
                        jobs.len() - 1
                    });
                    let Job::Points { slots, values, .. } = &mut jobs[at] else {
                        unreachable!("point group indexes a Points job");
                    };
                    slots.push(slot);
                    values.push(value.clone());
                }
                Request::Range {
                    table,
                    column,
                    lo,
                    hi,
                } => {
                    let at = *range_groups.entry((table, column)).or_insert_with(|| {
                        jobs.push(Job::Ranges {
                            table,
                            column,
                            slots: Vec::new(),
                            ranges: Vec::new(),
                        });
                        jobs.len() - 1
                    });
                    let Job::Ranges { slots, ranges, .. } = &mut jobs[at] else {
                        unreachable!("range group indexes a Ranges job");
                    };
                    slots.push(slot);
                    ranges.push((lo.clone(), hi.clone()));
                }
                Request::Query(spec) => jobs.push(Job::Query { slot, spec }),
            }
        }

        // One pool job per coalesced group / query. These are fat jobs
        // (each one a whole batched descent or plan execution), so the
        // pool is sized straight from the engine's thread knob — `0`
        // meaning one worker per core, the same reading the sharded
        // scatter gives it.
        let pool = WorkerPool::new(engine.exec_options().threads);
        let answered: Vec<Vec<(usize, Result<ResultRows>)>> = pool.run(jobs.len(), |i| {
            let rids_results = |slots: &[usize], batched: Result<Vec<Vec<u32>>>| match batched {
                Ok(per_probe) => slots
                    .iter()
                    .copied()
                    .zip(per_probe.into_iter().map(|r| Ok(ResultRows::Rids(r))))
                    .collect(),
                Err(e) => slots.iter().map(|&s| (s, Err(e.clone()))).collect(),
            };
            match &jobs[i] {
                Job::Points {
                    table,
                    column,
                    slots,
                    values,
                } => rids_results(slots, engine.point_probe_batch(table, column, values)),
                Job::Ranges {
                    table,
                    column,
                    slots,
                    ranges,
                } => rids_results(slots, engine.range_probe_batch(table, column, ranges)),
                Job::Query { slot, spec } => vec![(*slot, engine.run_spec(spec))],
            }
        });

        let mut out: Vec<Option<Result<ResultRows>>> = (0..requests.len()).map(|_| None).collect();
        for (slot, result) in answered.into_iter().flatten() {
            debug_assert!(out[slot].is_none(), "one answer per request");
            out[slot] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("every request slot answered"))
            .collect()
    }
}
