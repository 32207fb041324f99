//! Model-check suite for the real
//! [`ccindex_parallel::BlockingQueue`] — the batch-formation window's
//! hand-off. Compiled only under `RUSTFLAGS="--cfg ccindex_check"`,
//! where the queue's mutex, condvar, and `Instant` resolve to the
//! checker's shims: condvar waits get spurious wakeups injected, timed
//! waits run on the virtual clock, and a consumer asleep with nobody
//! left to wake it is reported as a deadlock (which is exactly how a
//! close that forgot its `notify_all` fails — see
//! `tests/mutants.rs::close_without_notify_is_reported_as_deadlock` —
//! and how a consumer that forgets to pass a wake on fails).
#![cfg(ccindex_check)]

use ccindex_parallel::sync::Instant;
use ccindex_parallel::BlockingQueue;
use check::Checker;
use std::sync::Arc as StdArc;
use std::time::Duration;

fn quick() -> Checker {
    Checker::new().max_iterations(50_000)
}

/// `close` wakes **every** blocked consumer, on every schedule: both
/// consumers may be asleep on the condvar when close fires, and each
/// must come back with `None`. A missed wakeup would surface as a
/// deadlock finding.
#[test]
fn close_wakes_every_blocked_consumer() {
    let stats = quick().check(|| {
        let queue: StdArc<BlockingQueue<u64>> = StdArc::new(BlockingQueue::new());
        let (q1, q2) = (StdArc::clone(&queue), StdArc::clone(&queue));
        let c1 = check::thread::spawn(move || q1.pop());
        let c2 = check::thread::spawn(move || q2.pop());
        queue.close();
        assert_eq!(c1.join().unwrap(), None);
        assert_eq!(c2.join().unwrap(), None);
    });
    assert!(stats.complete, "exploration was cut off");
    assert!(stats.iterations >= 2);
}

/// Items pushed before the close drain out FIFO after it; only then
/// does `pop` report the close. Nothing pipelined at shutdown is lost.
#[test]
fn close_drains_queued_items_in_order() {
    let stats = quick().check(|| {
        let queue: StdArc<BlockingQueue<u64>> = StdArc::new(BlockingQueue::new());
        let q2 = StdArc::clone(&queue);
        let producer = check::thread::spawn(move || {
            q2.push(1).unwrap();
            q2.push(2).unwrap();
            q2.close();
        });
        let mut got = Vec::new();
        while let Some(v) = queue.pop() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2]);
        assert!(queue.push(3).is_err(), "closed queue accepted a push");
    });
    assert!(stats.complete);
}

/// The window's time bound, under injected spurious wakeups: with a
/// producer racing the deadline, `pop_up_to` returns with room left
/// only once the (virtual) clock truly reached the deadline — a wake
/// near the bound never ends a window early — and what it took is the
/// pushed items in order. This is the schedule space the
/// `timed_out()`-flag bug class lives in.
#[test]
fn pop_up_to_never_ends_a_window_early() {
    let stats = quick().check(|| {
        let queue: StdArc<BlockingQueue<u64>> = StdArc::new(BlockingQueue::new());
        let q2 = StdArc::clone(&queue);
        let producer = check::thread::spawn(move || {
            q2.push(7).unwrap();
            q2.push(8).unwrap();
        });
        let deadline = Instant::now() + Duration::from_millis(5);
        let mut window = Vec::new();
        queue.pop_up_to(&mut window, 3, deadline);
        assert!(
            Instant::now() >= deadline,
            "pop_up_to closed a window with room before the deadline"
        );
        assert!([&[][..], &[7], &[7, 8]].contains(&window.as_slice()));
        producer.join().unwrap();
    });
    assert!(stats.complete);
    assert!(stats.iterations >= 2);
}

/// A timeout that lands together with a push still takes the item:
/// whichever way the wait presents (notified, timed out, spurious),
/// `pop_up_to` never returns with room in the window while an item is
/// queued — the depth it reports is zero whenever the window came back
/// short.
#[test]
fn pop_up_to_timeout_with_a_push_takes_the_item() {
    let stats = quick().check(|| {
        let queue: StdArc<BlockingQueue<u64>> = StdArc::new(BlockingQueue::new());
        let q2 = StdArc::clone(&queue);
        let producer = check::thread::spawn(move || {
            q2.push(7).unwrap();
        });
        let deadline = Instant::now() + Duration::from_millis(5);
        let mut window = Vec::new();
        let left = queue.pop_up_to(&mut window, 1, deadline);
        if window.is_empty() {
            assert_eq!(left, 0, "a short window left an item queued");
        } else {
            assert_eq!(window, [7]);
        }
        producer.join().unwrap();
        assert_eq!(window.len() + queue.len(), 1, "the item was lost");
    });
    assert!(stats.complete);
    assert!(stats.iterations >= 2);
}

/// With no producer at all, `pop_up_to` must ride out every spurious
/// wake (re-waiting with the remaining window each time) and return an
/// empty window exactly at the bound on the virtual clock.
#[test]
fn pop_up_to_times_out_empty() {
    let stats = quick().check(|| {
        let queue: BlockingQueue<u64> = BlockingQueue::new();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(5);
        let mut window = Vec::new();
        assert_eq!(queue.pop_up_to(&mut window, 4, deadline), 0);
        assert!(window.is_empty());
        assert!(Instant::now() >= deadline);
        assert!(Instant::now() - start >= Duration::from_millis(5));
    });
    assert!(stats.complete);
}

/// Two consumers asleep and two pushes: the first push wakes one
/// consumer, the second lands on a non-empty queue and wakes nobody, so
/// the woken consumer must pass the wake on when it leaves the second
/// item behind. Both consumers return an item on every schedule; a
/// dropped pass-on is a deadlock finding (see
/// `tests/mutants.rs::queue_without_wake_pass_on_is_reported_as_deadlock`).
#[test]
fn a_wake_is_passed_on_to_a_second_sleeper() {
    let stats = quick().check(|| {
        let queue: StdArc<BlockingQueue<u64>> = StdArc::new(BlockingQueue::new());
        let (q1, q2) = (StdArc::clone(&queue), StdArc::clone(&queue));
        let c1 = check::thread::spawn(move || q1.pop());
        let c2 = check::thread::spawn(move || q2.pop());
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        let mut got = [c1.join().unwrap(), c2.join().unwrap()];
        got.sort_unstable();
        assert_eq!(got, [Some(1), Some(2)]);
    });
    assert!(stats.complete, "exploration was cut off");
    assert!(stats.iterations >= 2);
}

/// The serving loop's shape — `pop` opens a window, `pop_up_to` fills
/// it — against a producer that pushes five items and closes: no
/// window ever exceeds `max`, and the windows concatenate to the pushed
/// items in FIFO order, including those drained after the close.
#[test]
fn pop_up_to_respects_max_and_fifo_across_close() {
    let stats = quick().check(|| {
        let queue: StdArc<BlockingQueue<u64>> = StdArc::new(BlockingQueue::new());
        let q2 = StdArc::clone(&queue);
        let producer = check::thread::spawn(move || {
            for v in 1..=5 {
                q2.push(v).unwrap();
            }
            q2.close();
        });
        let mut got = Vec::new();
        let mut window = Vec::new();
        while let Some(first) = queue.pop() {
            window.push(first);
            let deadline = Instant::now() + Duration::from_millis(5);
            queue.pop_up_to(&mut window, 2, deadline);
            assert!(window.len() <= 2, "a window exceeded max");
            got.append(&mut window);
        }
        producer.join().unwrap();
        assert_eq!(got, [1, 2, 3, 4, 5]);
    });
    assert!(stats.complete);
}
