//! ccindex-check: correctness tooling for the ccindex serving stack.
//!
//! Three tools in one dependency-free crate:
//!
//! 1. **A deterministic concurrency model checker** in the spirit of
//!    loom: shim sync types ([`sync`], [`thread`], [`time`], [`cell`])
//!    whose every operation is a schedule point of a cooperative
//!    scheduler, and an explorer ([`Checker`]) that enumerates every
//!    bounded interleaving of a model by depth-first search over the
//!    schedule tree — with bounded preemptions and injected spurious
//!    condvar wakeups. See `src/rt.rs` for the scheduler design.
//! 2. **A happens-before race detector**: vector clocks ([`clock`])
//!    track the ordering each `Acquire`/`Release` edge actually
//!    establishes, `Relaxed` establishes none, and conflicting plain
//!    accesses ([`cell::RaceCell`], [`sync::Arc`] reclaim) with no edge
//!    between them are reported as data races with both source
//!    locations. An ordering downgraded too far is a reported finding,
//!    not a latent once-in-a-million corruption.
//! 3. **A workspace lint** ([`lint`], `cargo run -p check --bin lint`)
//!    for rules the compiler can't enforce: `// SAFETY:` on every
//!    `unsafe`, `// ORDERING:` on every explicit non-`SeqCst` atomic
//!    ordering choice, no `static mut` / `transmute`, crate-level
//!    lint hygiene, no unused `pub` item, and README examples that run.
//!
//! Production code doesn't depend on this crate directly: it imports
//! sync types from `ccindex_parallel::sync`, a facade that re-exports
//! `std::sync` normally and this crate's shims under
//! `RUSTFLAGS="--cfg ccindex_check"`. The model suites in
//! `crates/check/tests/` then exercise the *real* `SwapSlot`,
//! `BlockingQueue`, `OneShot`, and `WorkerPool` under exhaustive
//! scheduling.
//!
//! # Example
//!
//! ```
//! use check::cell::RaceCell;
//! use check::sync::atomic::Ordering;
//! use check::sync::{Arc, AtomicU64};
//! use check::{Checker, FindingKind};
//!
//! // A racy publish: the data write is ordered only by luck, and the
//! // checker reports it on the schedule where luck runs out.
//! let finding = Checker::new()
//!     .check_result(|| {
//!         let data = Arc::new(RaceCell::new(0u64));
//!         let flag = Arc::new(AtomicU64::new(0));
//!         let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
//!         let t = check::thread::spawn(move || {
//!             d2.set(42);
//!             f2.store(1, Ordering::Relaxed); // should be Release
//!         });
//!         if flag.load(Ordering::Acquire) == 1 {
//!             let _ = data.get();
//!         }
//!         t.join().unwrap();
//!     })
//!     .expect_err("the Relaxed publish races");
//! assert_eq!(finding.kind, FindingKind::DataRace);
//!
//! // The corrected protocol explores every schedule and comes back
//! // clean — `complete` certifies the space was exhausted, not capped.
//! let stats = Checker::new().check(|| {
//!     let data = Arc::new(RaceCell::new(0u64));
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
//!     let t = check::thread::spawn(move || {
//!         d2.set(42);
//!         f2.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.get(), 42);
//!     }
//!     t.join().unwrap();
//! });
//! assert!(stats.complete);
//! ```
//!
//! [`Checker::check_result`] returns the finding with the schedule and
//! per-thread trace that produced it; `tests/mutants.rs` seeds a bug of
//! this kind into each shipped protocol and asserts it is reported.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cell;
pub mod clock;
pub mod counting;
pub mod lint;
mod rt;
pub mod sync;
pub mod thread;
pub mod time;

pub use rt::{Config, Finding, FindingKind, Stats};

/// The model-checker front door: configure exploration bounds, then
/// [`check`](Checker::check) a model closure.
///
/// The closure is re-run once per explored schedule, so it must create
/// its shim objects (and threads) fresh each call and must be
/// deterministic apart from the scheduling the checker controls — no
/// real time, no randomness, no I/O.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    config: Config,
}

impl Checker {
    /// A checker with the default bounds (2 preemptions, spurious
    /// wakeups on, 100k executions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Max context switches away from a still-runnable thread per
    /// execution (`None` = unbounded). Switches at blocking points are
    /// always free, so protocol-forced schedules are never cut.
    pub fn preemption_bound(mut self, bound: Option<usize>) -> Self {
        self.config.preemption_bound = bound;
        self
    }

    /// Max executions before the search is reported incomplete.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.config.max_iterations = n;
        self
    }

    /// Enable/disable spurious condvar wakeup injection.
    pub fn spurious_wakeups(mut self, on: bool) -> Self {
        self.config.spurious_wakeups = on;
        self
    }

    /// Spurious wakeups injected per thread per execution (per-thread
    /// rather than per-wait so predicate loops can't re-wait forever).
    pub fn max_spurious_per_thread(mut self, n: usize) -> Self {
        self.config.max_spurious_per_thread = n;
        self
    }

    /// Explore every bounded interleaving of `model`; panics with a
    /// report (kind, message, schedule, trace) on the first finding.
    pub fn check<F>(self, model: F) -> Stats
    where
        F: Fn() + Send + Sync,
    {
        match self.check_result(model) {
            Ok(stats) => stats,
            Err(finding) => panic!("{finding}"),
        }
    }

    /// Like [`check`](Checker::check) but returns the finding instead
    /// of panicking — the mutation self-tests use this to assert that
    /// deliberately-broken protocols *are* caught.
    pub fn check_result<F>(self, model: F) -> Result<Stats, Finding>
    where
        F: Fn() + Send + Sync,
    {
        rt::explore(self.config, model)
    }
}

/// Explore `model` with the default [`Checker`]; panics on a finding.
pub fn model<F>(model: F) -> Stats
where
    F: Fn() + Send + Sync,
{
    Checker::default().check(model)
}
