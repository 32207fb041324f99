//! Mutation self-tests: seed deliberately-broken concurrency protocols
//! and assert the checker REPORTS them, then run the corrected twin of
//! each protocol and assert it comes back clean. A model checker that
//! has never been seen catching a bug proves nothing by passing; these
//! tests are the tool's own evidence. They run in the normal test tier
//! (no `--cfg ccindex_check` needed — they use the shim types
//! directly, not the production facade).

use check::cell::RaceCell;
use check::sync::atomic::Ordering;
use check::sync::{Arc, AtomicU64, AtomicUsize, Condvar, Mutex};
use check::{Checker, FindingKind};

fn quick() -> Checker {
    Checker::new().max_iterations(50_000)
}

// ---------------------------------------------------------------------
// Mutant 1: message-passing publish with a Relaxed store.
// ---------------------------------------------------------------------

/// The broken protocol `install` would be with a `Relaxed` publish: the
/// writer's plain initialization is not ordered before the reader's
/// use, even though the flag value itself flows through.
#[test]
fn relaxed_publish_is_reported_as_a_race() {
    let finding = quick()
        .check_result(|| {
            let data = Arc::new(RaceCell::new(0u64));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = check::thread::spawn(move || {
                d2.set(42);
                f2.store(1, Ordering::Relaxed); // MUTANT: should be Release
            });
            if flag.load(Ordering::Acquire) == 1 {
                let _ = data.get();
            }
            t.join().unwrap();
        })
        .expect_err("a Relaxed publish must be reported");
    assert_eq!(finding.kind, FindingKind::DataRace);
    assert!(
        finding.message.contains("data race"),
        "unexpected message: {}",
        finding.message
    );
}

/// The corrected twin: Release publish / Acquire consume is clean, and
/// the exploration is exhaustive (not cut off by a cap).
#[test]
fn release_acquire_publish_is_clean() {
    let stats = quick().check(|| {
        let data = Arc::new(RaceCell::new(0u64));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = check::thread::spawn(move || {
            d2.set(42);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.get(), 42);
        }
        t.join().unwrap();
    });
    assert!(stats.complete);
    assert!(stats.iterations >= 2);
}

/// Reading the flag with `Relaxed` breaks the same protocol from the
/// consumer side — the detector must not only blame writers.
#[test]
fn relaxed_consume_is_reported_as_a_race() {
    let finding = quick()
        .check_result(|| {
            let data = Arc::new(RaceCell::new(0u64));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = check::thread::spawn(move || {
                d2.set(42);
                f2.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                // MUTANT ^^^^^^^ should be Acquire
                let _ = data.get();
            }
            t.join().unwrap();
        })
        .expect_err("a Relaxed consume must be reported");
    assert_eq!(finding.kind, FindingKind::DataRace);
}

// ---------------------------------------------------------------------
// Mutant 2: quiescence check on a pin count with too-weak orderings.
// ---------------------------------------------------------------------

/// The reclaim idiom `snapshot.rs` relies on, modeled faithfully: a
/// reader registers its pin under the slot mutex (as `SwapSlot::pin`
/// does), reads the shared state outside the lock, then unpins
/// lock-free (as `Pinned::drop` does); a writer mutates under the same
/// mutex only after observing `pins == 0`.
///
/// Two distinct edges make it correct, and the checker verifies both:
/// the mutex orders writer-then-reader schedules, and the
/// `Release`-unpin / `Acquire`-count-read pair orders
/// reader-then-writer schedules. Downgrade the second and only a
/// once-in-a-million interleaving breaks — which is the point of
/// exploring all of them.
#[test]
fn quiescence_with_release_acquire_is_clean() {
    let stats = quick().check(|| {
        let state = Arc::new(RaceCell::new(0u64));
        let pins = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(Mutex::new(()));
        let (s2, p2, l2) = (Arc::clone(&state), Arc::clone(&pins), Arc::clone(&slot));
        let reader = check::thread::spawn(move || {
            let guard = l2.lock().unwrap();
            p2.fetch_add(1, Ordering::Relaxed);
            drop(guard);
            let _ = s2.get();
            p2.fetch_sub(1, Ordering::Release);
        });
        let guard = slot.lock().unwrap();
        if pins.load(Ordering::Acquire) == 0 {
            state.set(7);
        }
        drop(guard);
        reader.join().unwrap();
    });
    assert!(stats.complete);
}

/// MUTANT: downgrade the unpin to `Relaxed` — the count still reads 0,
/// but nothing orders the reader's use before the writer's mutation.
/// This is exactly the once-in-a-million reclaim-while-pinned race.
#[test]
fn quiescence_with_relaxed_unpin_is_reported() {
    let finding = quick()
        .check_result(|| {
            let state = Arc::new(RaceCell::new(0u64));
            let pins = Arc::new(AtomicUsize::new(0));
            let slot = Arc::new(Mutex::new(()));
            let (s2, p2, l2) = (Arc::clone(&state), Arc::clone(&pins), Arc::clone(&slot));
            let reader = check::thread::spawn(move || {
                let guard = l2.lock().unwrap();
                p2.fetch_add(1, Ordering::Relaxed);
                drop(guard);
                let _ = s2.get();
                p2.fetch_sub(1, Ordering::Relaxed); // MUTANT: should be Release
            });
            let guard = slot.lock().unwrap();
            if pins.load(Ordering::Acquire) == 0 {
                state.set(7);
            }
            drop(guard);
            reader.join().unwrap();
        })
        .expect_err("a Relaxed unpin must be reported");
    assert_eq!(finding.kind, FindingKind::DataRace);
}

/// MUTANT: a writer that ignores the pin count entirely (the "reclaim
/// that ignores one pin" seeded bug) — caught on the schedule where the
/// write lands between pin and unpin.
#[test]
fn reclaim_ignoring_pins_is_reported() {
    let finding = quick()
        .check_result(|| {
            let state = Arc::new(RaceCell::new(0u64));
            let pins = Arc::new(AtomicUsize::new(0));
            let slot = Arc::new(Mutex::new(()));
            let (s2, p2, l2) = (Arc::clone(&state), Arc::clone(&pins), Arc::clone(&slot));
            let reader = check::thread::spawn(move || {
                let guard = l2.lock().unwrap();
                p2.fetch_add(1, Ordering::Relaxed);
                drop(guard);
                let _ = s2.get();
                p2.fetch_sub(1, Ordering::Release);
            });
            let guard = slot.lock().unwrap();
            state.set(7); // MUTANT: no quiescence check at all
            drop(guard);
            reader.join().unwrap();
        })
        .expect_err("reclaim without a pin check must be reported");
    assert_eq!(finding.kind, FindingKind::DataRace);
}

// ---------------------------------------------------------------------
// Mutant 3: a close that forgets to notify blocked consumers.
// ---------------------------------------------------------------------

struct MiniQueue {
    state: Mutex<(Vec<u64>, bool)>,
    nonempty: Condvar,
}

impl MiniQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new((Vec::new(), false)),
            nonempty: Condvar::new(),
        }
    }

    fn pop(&self) -> Option<u64> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(v) = st.0.pop() {
                return Some(v);
            }
            if st.1 {
                return None;
            }
            st = self.nonempty.wait(st).unwrap();
        }
    }

    fn close(&self, notify: bool) {
        let mut st = self.state.lock().unwrap();
        st.1 = true;
        drop(st);
        if notify {
            self.nonempty.notify_all();
        }
    }
}

/// MUTANT: `close` sets the flag but never notifies — a blocked
/// consumer sleeps forever. Reported as a deadlock (spurious wakeups
/// are injected, but a bounded budget cannot substitute for the missing
/// notify on every schedule).
#[test]
fn close_without_notify_is_reported_as_deadlock() {
    let finding = quick()
        .check_result(|| {
            let q = Arc::new(MiniQueue::new());
            let q2 = Arc::clone(&q);
            let consumer = check::thread::spawn(move || q2.pop());
            q.close(false); // MUTANT: forgets notify_all
            let _ = consumer.join().unwrap();
        })
        .expect_err("close without notify must deadlock some schedule");
    assert_eq!(finding.kind, FindingKind::Deadlock);
}

/// The corrected twin: close notifies, every schedule terminates, and
/// the consumer always observes the close.
#[test]
fn close_with_notify_is_clean() {
    let stats = quick().check(|| {
        let q = Arc::new(MiniQueue::new());
        let q2 = Arc::clone(&q);
        let consumer = check::thread::spawn(move || q2.pop());
        q.close(true);
        assert_eq!(consumer.join().unwrap(), None);
    });
    assert!(stats.complete);
}

// ---------------------------------------------------------------------
// Mutant 4: a consumer that takes its item but does not pass the wake on.
// ---------------------------------------------------------------------

/// `BlockingQueue`'s wake protocol, modeled faithfully: consumers count
/// themselves asleep under the mutex, a push notifies only when it
/// makes the queue non-empty while a consumer sleeps, and a consumer
/// that leaves items behind for another sleeper passes the wake on.
struct CountedQueue {
    /// (items, sleepers)
    state: Mutex<(Vec<u64>, usize)>,
    available: Condvar,
    pass_on: bool,
}

impl CountedQueue {
    fn new(pass_on: bool) -> Self {
        Self {
            state: Mutex::new((Vec::new(), 0)),
            available: Condvar::new(),
            pass_on,
        }
    }

    fn push(&self, v: u64) {
        let mut st = self.state.lock().unwrap();
        let wake = st.0.is_empty() && st.1 > 0;
        st.0.insert(0, v);
        drop(st);
        if wake {
            self.available.notify_one();
        }
    }

    fn pop(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(v) = st.0.pop() {
                let pass_on = !st.0.is_empty() && st.1 > 0;
                drop(st);
                if pass_on && self.pass_on {
                    self.available.notify_one();
                }
                return v;
            }
            st.1 += 1;
            st = self.available.wait(st).unwrap();
            st.1 -= 1;
        }
    }
}

/// Two consumers asleep, two pushes: the second push finds the queue
/// non-empty and wakes nobody, so only a pass-on reaches the second
/// consumer.
fn two_sleepers_two_pushes(pass_on: bool) {
    let q = Arc::new(CountedQueue::new(pass_on));
    let (q1, q2) = (Arc::clone(&q), Arc::clone(&q));
    let c1 = check::thread::spawn(move || q1.pop());
    let c2 = check::thread::spawn(move || q2.pop());
    q.push(1);
    q.push(2);
    assert_eq!(c1.join().unwrap() + c2.join().unwrap(), 3);
}

/// MUTANT: the woken consumer takes its item and returns without
/// passing the wake on — the second consumer sleeps beside a queued
/// item forever.
#[test]
fn queue_without_wake_pass_on_is_reported_as_deadlock() {
    let finding = quick()
        .check_result(|| two_sleepers_two_pushes(false))
        .expect_err("a dropped pass-on must deadlock some schedule");
    assert_eq!(finding.kind, FindingKind::Deadlock);
}

/// The corrected twin: the pass-on reaches the second sleeper on every
/// schedule.
#[test]
fn queue_with_wake_pass_on_is_clean() {
    let stats = quick().check(|| two_sleepers_two_pushes(true));
    assert!(stats.complete);
    assert!(stats.iterations >= 2);
}

// ---------------------------------------------------------------------
// Mutant 5: a one-shot whose wait sleeps without marking itself asleep.
// ---------------------------------------------------------------------

/// `OneShot`'s store-then-wake protocol, modeled faithfully: `store`
/// reports whether the owner is asleep, and the producer wakes only
/// then.
struct MiniOneShot {
    /// (value, asleep)
    state: Mutex<(Option<u64>, bool)>,
    ready: Condvar,
    mark_asleep: bool,
}

impl MiniOneShot {
    fn new(mark_asleep: bool) -> Self {
        Self {
            state: Mutex::new((None, false)),
            ready: Condvar::new(),
            mark_asleep,
        }
    }

    fn store(&self, v: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        st.0 = Some(v);
        st.1
    }

    fn wait(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(v) = st.0.take() {
                return v;
            }
            st.1 = self.mark_asleep;
            st = self.ready.wait(st).unwrap();
            st.1 = false;
        }
    }
}

fn store_then_wake_sleeper(mark_asleep: bool) {
    let cell = Arc::new(MiniOneShot::new(mark_asleep));
    let owner = Arc::clone(&cell);
    let t = check::thread::spawn(move || owner.wait());
    if cell.store(7) {
        cell.ready.notify_one();
    }
    assert_eq!(t.join().unwrap(), 7);
}

/// MUTANT: `wait` blocks without marking itself asleep, so a store that
/// lands while it sleeps sees nobody to wake — the owner sleeps beside
/// its answer forever.
#[test]
fn one_shot_wait_without_asleep_mark_is_reported_as_deadlock() {
    let finding = quick()
        .check_result(|| store_then_wake_sleeper(false))
        .expect_err("an unmarked sleeper must deadlock some schedule");
    assert_eq!(finding.kind, FindingKind::Deadlock);
}

/// The corrected twin: a marked sleeper is always woken.
#[test]
fn one_shot_wait_with_asleep_mark_is_clean() {
    let stats = quick().check(|| store_then_wake_sleeper(true));
    assert!(stats.complete);
    assert!(stats.iterations >= 2);
}

// ---------------------------------------------------------------------
// Sanity: atomic RMWs really interleave.
// ---------------------------------------------------------------------

/// Both interleavings of two `fetch_add`s sum correctly — and a seeded
/// load-then-store "increment" loses an update on some schedule.
#[test]
fn atomic_increment_vs_load_store_mutant() {
    let stats = quick().check(|| {
        let a = Arc::new(AtomicU64::new(0));
        let a2 = Arc::clone(&a);
        let t = check::thread::spawn(move || {
            a2.fetch_add(1, Ordering::AcqRel);
        });
        a.fetch_add(1, Ordering::AcqRel);
        t.join().unwrap();
        assert_eq!(a.load(Ordering::Acquire), 2);
    });
    assert!(stats.complete);

    let finding = quick()
        .check_result(|| {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let t = check::thread::spawn(move || {
                // MUTANT: non-atomic increment written as load + store.
                let v = a2.load(Ordering::Acquire);
                a2.store(v + 1, Ordering::Release);
            });
            let v = a.load(Ordering::Acquire);
            a.store(v + 1, Ordering::Release);
            t.join().unwrap();
            assert_eq!(a.load(Ordering::Acquire), 2);
        })
        .expect_err("a torn increment must fail on some schedule");
    assert_eq!(finding.kind, FindingKind::Panic);
    assert!(finding.message.contains("assertion"));
}
