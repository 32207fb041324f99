//! End-to-end check of the correctness tooling: a seeded `Relaxed`
//! publish is reported as a data race, and its `Release`/`Acquire` twin
//! explores clean to completion. The `check` crate's doc example runs
//! the same scenario; this is an ordinary test, not a copy to keep in step.

use check::cell::RaceCell;
use check::sync::atomic::Ordering;
use check::sync::{Arc, AtomicU64};
use check::{Checker, FindingKind};

fn demo() {
    // A racy publish: the data write is ordered only by luck, and the
    // checker reports it on the schedule where luck runs out.
    let finding = Checker::new()
        .check_result(|| {
            let data = Arc::new(RaceCell::new(0u64));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = check::thread::spawn(move || {
                d2.set(42);
                f2.store(1, Ordering::Relaxed); // should be Release
            });
            if flag.load(Ordering::Acquire) == 1 {
                let _ = data.get();
            }
            t.join().unwrap();
        })
        .expect_err("the Relaxed publish races");
    assert_eq!(finding.kind, FindingKind::DataRace);

    // The corrected protocol explores every schedule and comes back
    // clean — `complete` certifies the space was exhausted, not capped.
    let stats = Checker::new().check(|| {
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
}

#[test]
fn readme_correctness_tooling_example() {
    demo();
}
