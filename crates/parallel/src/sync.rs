//! The sync facade: the one place the serving stack names its
//! synchronisation primitives.
//!
//! Production builds re-export the `std` types unchanged — zero cost,
//! zero behavior change. Under `RUSTFLAGS="--cfg ccindex_check"` the
//! same names resolve to the `check` crate's instrumented shims, so the
//! model-check suites in `crates/check/tests/` explore every bounded
//! interleaving of the *real* `SwapSlot`, `BlockingQueue`, `OneShot`,
//! and `WorkerPool` code — not of a re-implementation that could drift.
//!
//! Code that wants to be model-checkable imports from here instead of
//! `std::sync`/`std::time`/`std::thread`:
//!
//! ```
//! use ccindex_parallel::sync::{Arc, Mutex, Condvar, Instant};
//! use ccindex_parallel::sync::atomic::{AtomicU64, Ordering};
//! use ccindex_parallel::sync::thread;
//! # let _ = (Arc::new(Mutex::new(0u64)), Condvar::new(), Instant::now());
//! # let _ = AtomicU64::new(0).load(Ordering::SeqCst);
//! # thread::scope(|_s| {});
//! ```
//!
//! `Ordering` is always the real `std::sync::atomic::Ordering` (the
//! shims take it as-is), so ordering choices written against the facade
//! mean exactly what they say in both modes.

#[cfg(not(ccindex_check))]
mod facade {
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    pub use std::time::Instant;

    /// The real atomics.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// The real threads.
    pub mod thread {
        pub use std::thread::{scope, spawn, JoinHandle, Scope, ScopedJoinHandle};

        /// Worker threads the host can usefully run (the facade's
        /// always-successful form of `std::thread::available_parallelism`).
        pub fn available_parallelism() -> usize {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(ccindex_check)]
mod facade {
    pub use check::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    pub use check::time::Instant;

    /// The model-checked atomics (`Ordering` is still std's enum).
    pub mod atomic {
        pub use check::sync::{AtomicBool, AtomicU64, AtomicUsize};
        pub use std::sync::atomic::Ordering;
    }

    /// The model-checked threads.
    pub mod thread {
        pub use check::thread::{scope, spawn, JoinHandle, Scope, ScopedJoinHandle};

        /// Fixed at 2 under the checker so models stay deterministic
        /// and the schedule space stays small.
        pub fn available_parallelism() -> usize {
            check::thread::available_parallelism()
        }
    }
}

pub use facade::*;
