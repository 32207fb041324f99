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
/// window (blocking until one arrives) and then moves the rest of the
/// window in with one [`pop_up_to`] call, which holds the lock once
/// and waits only while the window has room and the queue is empty.
///
/// Built on one `Mutex<VecDeque>` plus a `Condvar` — the same
/// no-dependencies, no-unsafe diet as [`WorkerPool`]. Consumers count
/// themselves asleep under the mutex, so a push notifies only when it
/// makes the queue non-empty while a consumer sleeps (a notify with no
/// waiter is still a syscall), and a consumer that leaves items behind
/// for another sleeper passes the wake on. Closing the queue
/// ([`close`]) wakes every blocked consumer; pops then drain whatever
/// remains and return `None`, so a consumer loop terminates cleanly
/// without a separate shutdown protocol.
///
/// [`push`]: BlockingQueue::push
/// [`pop`]: BlockingQueue::pop
/// [`pop_up_to`]: BlockingQueue::pop_up_to
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
    /// Consumers inside a wait on `available`, counted from before the
    /// wait until they hold the lock again.
    sleepers: usize,
}

impl<T> QueueState<T> {
    /// Whether a consumer that just took items must wake another: it
    /// left some behind and somebody sleeps who could take them.
    fn pass_on(&self) -> bool {
        !self.items.is_empty() && self.sleepers > 0
    }
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
                sleepers: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Append `item`, waking one blocked consumer if the queue was
    /// empty and one sleeps (a non-empty queue already has a consumer
    /// on its way: the one woken when it filled passes the wake on). A
    /// closed queue accepts nothing: the item comes straight back as
    /// `Err` so the producer can fail its caller instead of losing work
    /// silently.
    pub fn push(&self, item: T) -> std::result::Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(item);
        }
        let wake = state.items.is_empty() && state.sleepers > 0;
        state.items.push_back(item);
        drop(state);
        if wake {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Block until an item arrives and take it; `None` once the queue is
    /// closed **and** drained (items pushed before the close still come
    /// out, in order).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                let pass_on = state.pass_on();
                drop(state);
                if pass_on {
                    self.available.notify_one();
                }
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.sleepers += 1;
            state = self.available.wait(state).expect("queue lock poisoned");
            state.sleepers -= 1;
        }
    }

    /// Move queued items onto the end of `out` until it holds `max`,
    /// under one lock acquisition, and return how many items were left
    /// queued. While `out` has room and the queue is empty it waits for
    /// a push until `deadline` — how a batch window's *time* bound is
    /// enforced while its *size* bound still has room. It returns
    /// early, with room left, only once the queue is closed.
    ///
    /// Spurious-wakeup hardened: every wake — notified, timed out, or
    /// spurious — re-runs the full predicate (room? item? closed? time
    /// remaining?) and re-waits with the *remaining* window, never the
    /// original one. The `timed_out()` flag is deliberately ignored: a
    /// wait can time out just as an item lands (the item must still be
    /// taken), and a spurious wake near the deadline must not be
    /// mistaken for expiry. Explored under injected spurious wakeups by
    /// crates/check/tests/model_queue.rs.
    pub fn pop_up_to(&self, out: &mut Vec<T>, max: usize, deadline: Instant) -> usize {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            let take = max.saturating_sub(out.len()).min(state.items.len());
            out.extend(state.items.drain(..take));
            if out.len() >= max || state.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            state.sleepers += 1;
            let (s, _) = self
                .available
                .wait_timeout(state, deadline - now)
                .expect("queue lock poisoned");
            state = s;
            state.sleepers -= 1;
        }
        let (left, pass_on) = (state.items.len(), state.pass_on());
        drop(state);
        if pass_on {
            self.available.notify_one();
        }
        left
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

// ---------------------------------------------------------------------
// One-shot answer cell
// ---------------------------------------------------------------------

/// A one-shot cell: one thread [`store`]s a value, the cell's one owner
/// [`wait`]s for it. Storing and waking are separate steps so a
/// producer answering many cells can store all of them first and only
/// then wake their owners: a woken owner on the producer's CPU then
/// preempts a finished batch, not one half stored.
///
/// [`wait`] marks itself asleep under the lock before it blocks, and
/// [`store`] reports whether it found the owner asleep; only then is a
/// [`wake`] (one `notify_one`, since the cell has one owner) needed.
/// An owner that arrives after the store takes the value without
/// blocking and costs the producer nothing.
///
/// [`store`]: OneShot::store
/// [`wait`]: OneShot::wait
/// [`wake`]: OneShot::wake
#[derive(Debug)]
pub struct OneShot<T> {
    state: Mutex<OneShotState<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct OneShotState<T> {
    value: Option<T>,
    /// The owner is inside a wait on `ready`.
    asleep: bool,
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OneShot<T> {
    /// An empty cell.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(OneShotState {
                value: None,
                asleep: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Put `value` in the cell without waking anyone; `true` means the
    /// owner is asleep in [`OneShot::wait`] and must be woken with
    /// [`OneShot::wake`].
    #[must_use = "a sleeping owner is woken only by wake()"]
    pub fn store(&self, value: T) -> bool {
        let mut state = self.state.lock().expect("one-shot lock poisoned");
        state.value = Some(value);
        state.asleep
    }

    /// Wake the owner a [`OneShot::store`] found asleep.
    pub fn wake(&self) {
        self.ready.notify_one();
    }

    /// Block until a value is stored and take it.
    pub fn wait(&self) -> T {
        let mut state = self.state.lock().expect("one-shot lock poisoned");
        loop {
            if let Some(value) = state.value.take() {
                return value;
            }
            state.asleep = true;
            state = self.ready.wait(state).expect("one-shot lock poisoned");
            state.asleep = false;
        }
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
        let mut window = Vec::new();
        let t0 = Instant::now();
        let deadline = t0 + std::time::Duration::from_millis(20);
        assert_eq!(q.pop_up_to(&mut window, 4, deadline), 0);
        assert!(window.is_empty());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        // Already-queued items come back instantly, even with a
        // deadline in the past (size bound beats time bound), and a full
        // window leaves the rest queued.
        for i in 0..5 {
            q.push(i).expect("open");
        }
        assert_eq!(q.pop_up_to(&mut window, 3, Instant::now()), 2);
        assert_eq!(window, [0, 1, 2]);
        // A window that is already full takes nothing and never waits.
        let far = Instant::now() + std::time::Duration::from_secs(60);
        assert_eq!(q.pop_up_to(&mut window, 3, far), 2);
        assert_eq!(q.pop_up_to(&mut window, 5, Instant::now()), 0);
        assert_eq!(window, [0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn one_shot_hands_over_across_threads() {
        let cell = OneShot::new();
        // Stored before anyone waits: nobody to wake, no blocking.
        assert!(!cell.store(1u32));
        assert_eq!(cell.wait(), 1);
        std::thread::scope(|s| {
            let owner = s.spawn(|| cell.wait());
            // Give the owner a moment to fall asleep, then answer.
            std::thread::sleep(std::time::Duration::from_millis(10));
            if cell.store(2) {
                cell.wake();
            }
            assert_eq!(owner.join().expect("no panic"), 2);
        });
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
