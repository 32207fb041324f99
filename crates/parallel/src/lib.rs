//! A small hand-rolled scoped worker pool for partitioned execution.
//!
//! The decision-support workloads this workspace targets are
//! embarrassingly parallel across probe/RID partitions: a batched index
//! descent, an indexed nested-loop join, or a grouped aggregation can be
//! split into contiguous chunks, each answered independently, and stitched
//! back together in partition order. [`WorkerPool`] is exactly that
//! capability and nothing more — `std::thread::scope` workers pulling job
//! indexes from a shared atomic counter, so uneven partitions
//! self-balance, with results returned **in job order** so every parallel
//! operator built on top is deterministic and byte-identical to its
//! sequential counterpart.
//!
//! No dependencies (the workspace builds offline), no unsafe, no
//! channels: the scope guarantees worker lifetimes, the counter hands out
//! work, and each worker returns its `(job index, result)` pairs through
//! the join handle.
//!
//! Every primitive here is named through the [`sync`] facade rather than
//! `std::sync` directly, so the model-check suites in `crates/check`
//! explore this exact code under exhaustive scheduling (see the facade
//! docs); production builds still compile to the plain std types.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod sync;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{thread, Condvar, Instant, Mutex};
use std::collections::VecDeque;
use std::ops::Range;

/// Number of worker threads the host can usefully run — the meaning of
/// "use every core" (`threads == 0`) in [`WorkerPool::new`].
pub fn available_threads() -> usize {
    thread::available_parallelism()
}

/// Fewest items a worker must receive for the pool's per-call spawn
/// overhead (~10 µs) to be amortised away. The engine's adaptive thread
/// picker ([`adaptive_threads`]) hands out one worker per this many
/// items, so tiny probe sets run inline and never pay the spawns.
pub const ADAPTIVE_ITEMS_PER_WORKER: usize = 4096;

/// Pick a worker count for `items` work items: one worker per
/// [`ADAPTIVE_ITEMS_PER_WORKER`] items, clamped to `[1, available
/// cores]`. This is what `threads == 0` ("auto") means at the engine
/// layer — a 50-probe batch resolves to 1 (inline, no spawn overhead), a
/// million-RID join stage resolves to every core. Note [`WorkerPool::new`]
/// itself keeps the raw meaning of `0` = one worker per core; adaptivity
/// is a policy applied by callers that know their item counts.
pub fn adaptive_threads(items: usize) -> usize {
    (items / ADAPTIVE_ITEMS_PER_WORKER).clamp(1, available_threads())
}

/// Split `len` items into at most `parts` contiguous, near-equal,
/// non-empty ranges (fewer when `len < parts`). The concatenation of the
/// ranges is exactly `0..len`, so a partitioned operator that maps each
/// range and concatenates the results preserves item order.
pub fn partition(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts; // the first `extra` parts get one more item
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// A scoped worker pool of a fixed thread count.
///
/// The pool owns no threads between calls — each [`WorkerPool::run`]
/// opens a `std::thread::scope`, spawns up to `threads - 1` workers (the
/// calling thread is worker zero), drains the job queue, and joins. That
/// keeps the pool trivially correct (no shutdown protocol, no poisoned
/// state) at the cost of ~10 µs of spawn overhead per call, which the
/// hundred-thousand-probe batches it exists for amortise away.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers; `0` means one per available core and
    /// any other value is used as given (`1` = run inline, no spawns).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
        }
    }

    /// The worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `jobs` independent jobs, `f(i)` computing job `i`, and return
    /// the results **in job order**. Workers pull job indexes from a
    /// shared counter, so long jobs don't serialise short ones behind
    /// them. With one worker (or zero/one jobs) everything runs inline on
    /// the calling thread — the sequential fallback every degenerate
    /// configuration takes.
    pub fn run<R, F>(&self, jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            return (0..jobs).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done: Vec<(usize, R)> = Vec::new();
            loop {
                // ORDERING: Relaxed — the counter only hands out unique
                // job indexes (the RMW's atomicity does that alone); the
                // results travel through the scope join, which is the
                // synchronising edge. Verified by the model-check suite
                // (crates/check/tests/model_pool.rs).
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                done.push((i, f(i)));
            }
            done
        };
        let mut tagged: Vec<(usize, R)> = thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut all = worker();
            for h in handles {
                all.extend(h.join().expect("worker panicked"));
            }
            all
        });
        debug_assert_eq!(tagged.len(), jobs);
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Partition `items` into one contiguous chunk per worker, map each
    /// chunk with `f`, and return the per-chunk results in slice order.
    pub fn map_chunks<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a [T]) -> R + Sync,
    {
        let ranges = partition(items.len(), self.threads);
        self.run(ranges.len(), |i| f(&items[ranges[i].clone()]))
    }

    /// As [`WorkerPool::map_chunks`] with `Vec` results, concatenated in
    /// slice order — so for any `f` that maps each item independently the
    /// output is identical to `f(items)` run sequentially.
    pub fn flat_map_chunks<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a [T]) -> Vec<R> + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return f(items);
        }
        let mut out = Vec::with_capacity(items.len());
        for chunk in self.map_chunks(items, f) {
            out.extend(chunk);
        }
        out
    }
}

impl Default for WorkerPool {
    /// One worker per available core.
    fn default() -> Self {
        Self::new(0)
    }
}

// ---------------------------------------------------------------------
// Blocking hand-off
// ---------------------------------------------------------------------

/// A blocking FIFO hand-off between producers and a consumer — the
/// accumulator side of a batch-formation window: producers [`push`]
/// items from any thread, the consumer [`pop`]s the first item of a
/// window (blocking until one arrives) and then drains follow-ups with
/// [`pop_deadline`] until the window's size or time bound is hit.
///
/// Built on one `Mutex<VecDeque>` plus a `Condvar` — the same
/// no-dependencies, no-unsafe diet as [`WorkerPool`]. Closing the queue
/// ([`close`]) wakes every blocked consumer; pops then drain whatever
/// remains and return `None`, so a consumer loop terminates cleanly
/// without a separate shutdown protocol.
///
/// [`push`]: BlockingQueue::push
/// [`pop`]: BlockingQueue::pop
/// [`pop_deadline`]: BlockingQueue::pop_deadline
/// [`close`]: BlockingQueue::close
#[derive(Debug)]
pub struct BlockingQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for BlockingQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BlockingQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Append `item` and wake one blocked consumer. A closed queue
    /// accepts nothing: the item comes straight back as `Err` so the
    /// producer can fail its caller instead of losing work silently.
    pub fn push(&self, item: T) -> std::result::Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Block until an item arrives and take it; `None` once the queue is
    /// closed **and** drained (items pushed before the close still come
    /// out, in order).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock poisoned");
        }
    }

    /// As [`BlockingQueue::pop`], but give up at `deadline`: `None`
    /// means the deadline passed (or the queue closed) with nothing
    /// available — how a batch window's *time* bound is enforced while
    /// its *size* bound still has room.
    ///
    /// Spurious-wakeup hardened: every wake — notified, timed out, or
    /// spurious — re-runs the full predicate (item? closed? time
    /// remaining?) and re-waits with the *remaining* window, never the
    /// original one. The `timed_out()` flag is deliberately ignored: a
    /// wait can time out just as an item lands (the item must still be
    /// taken), and a spurious wake near the deadline must not be
    /// mistaken for expiry. Explored under injected spurious wakeups by
    /// crates/check/tests/model_queue.rs.
    pub fn pop_deadline(&self, deadline: Instant) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (s, _) = self
                .available
                .wait_timeout(state, deadline - now)
                .expect("queue lock poisoned");
            state = s;
        }
    }

    /// Close the queue: reject further pushes and wake every blocked
    /// consumer. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Items currently queued (racy by nature; for tests and stats).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn partition_covers_exactly_once() {
        for len in [0usize, 1, 2, 7, 8, 9, 1000] {
            for parts in [1usize, 2, 3, 8, 2000] {
                let ranges = partition(len, parts);
                let mut covered = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, covered, "len={len} parts={parts}");
                    assert!(!r.is_empty(), "len={len} parts={parts}");
                    covered = r.end;
                }
                assert_eq!(covered, len, "len={len} parts={parts}");
                assert!(ranges.len() <= parts.max(1));
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1, "len={len} parts={parts}");
                }
            }
        }
    }

    #[test]
    fn run_returns_results_in_job_order() {
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let got = pool.run(100, |i| i * i);
            let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_executes_every_job_exactly_once() {
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let pool = WorkerPool::new(4);
        pool.run(hits.len(), |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn flat_map_chunks_equals_sequential() {
        let items: Vec<u32> = (0..1234).collect();
        let seq: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for threads in [0usize, 1, 2, 5, 16] {
            let pool = WorkerPool::new(threads);
            let par = pool.flat_map_chunks(&items, |chunk| {
                chunk.iter().map(|&x| u64::from(x) * 3).collect()
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_all_cores_and_empty_input_is_fine() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(pool.threads(), available_threads());
        assert!(pool.run(0, |i| i).is_empty());
        let empty: &[u32] = &[];
        assert!(pool.flat_map_chunks(empty, |c| c.to_vec()).is_empty());
        assert!(partition(0, 8).is_empty());
    }

    #[test]
    fn adaptive_threads_scales_with_items() {
        // Tiny inputs run inline; growth is linear in items and capped by
        // the core count.
        assert_eq!(adaptive_threads(0), 1);
        assert_eq!(adaptive_threads(ADAPTIVE_ITEMS_PER_WORKER - 1), 1);
        let cores = available_threads();
        assert_eq!(
            adaptive_threads(ADAPTIVE_ITEMS_PER_WORKER * 2),
            2.clamp(1, cores)
        );
        assert_eq!(adaptive_threads(usize::MAX / 2), cores);
        for items in [0usize, 1, 5000, 100_000, 10_000_000] {
            let t = adaptive_threads(items);
            assert!((1..=cores).contains(&t), "items={items} -> {t}");
        }
    }

    #[test]
    fn blocking_queue_is_fifo_across_threads() {
        let q = BlockingQueue::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100u32 {
                    q.push(i).expect("open");
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(i) = q.pop() {
                got.push(i);
            }
            let expect: Vec<u32> = (0..100).collect();
            assert_eq!(got, expect, "single-producer order is preserved");
        });
        // Closed and drained: further pops return None, pushes bounce.
        assert!(q.pop().is_none());
        assert_eq!(q.push(7), Err(7));
    }

    #[test]
    fn blocking_queue_close_wakes_blocked_consumers() {
        let q: BlockingQueue<u32> = BlockingQueue::new();
        std::thread::scope(|s| {
            let popper = s.spawn(|| q.pop());
            // Give the popper a moment to block, then close.
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(popper.join().expect("no panic"), None);
        });
    }

    #[test]
    fn blocking_queue_deadline_pop_times_out_empty_handed() {
        let q: BlockingQueue<u32> = BlockingQueue::new();
        let t0 = Instant::now();
        let deadline = t0 + std::time::Duration::from_millis(20);
        assert_eq!(q.pop_deadline(deadline), None);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        // An already-queued item comes back instantly, even with a
        // deadline in the past (size bound beats time bound).
        q.push(5).expect("open");
        assert_eq!(q.pop_deadline(Instant::now()), Some(5));
        assert!(q.is_empty());
    }

    #[test]
    fn uneven_jobs_self_balance() {
        // Jobs of wildly different sizes still come back in order.
        let pool = WorkerPool::new(4);
        let got = pool.run(17, |i| {
            let work = if i % 5 == 0 { 20_000 } else { 10 };
            (0..work).map(|x| x as u64).sum::<u64>() ^ i as u64
        });
        let expect: Vec<u64> = (0..17)
            .map(|i| {
                let work = if i % 5 == 0 { 20_000 } else { 10 };
                (0..work).map(|x| x as u64).sum::<u64>() ^ i as u64
            })
            .collect();
        assert_eq!(got, expect);
    }
}
