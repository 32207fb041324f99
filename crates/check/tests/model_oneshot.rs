//! Model-check suite for the real [`ccindex_parallel::OneShot`] — the
//! cell a served request's answer lands in. Compiled only under
//! `RUSTFLAGS="--cfg ccindex_check"`, where the cell's mutex and condvar
//! resolve to the checker's shims: condvar waits get spurious wakeups
//! injected, and an owner asleep with nobody left to wake it is
//! reported as a deadlock (which is how a `wait` that sleeps without
//! marking itself asleep fails — see
//! `tests/mutants.rs::one_shot_wait_without_asleep_mark_is_reported_as_deadlock`).
#![cfg(ccindex_check)]

use ccindex_parallel::OneShot;
use check::Checker;
use std::sync::Arc as StdArc;

fn quick() -> Checker {
    Checker::new().max_iterations(50_000)
}

/// Store, then hand the cell to its owner: nobody can be asleep yet,
/// so the store reports no sleeper and the owner takes the value
/// without anyone waking it.
#[test]
fn store_before_wait_needs_no_wake() {
    let stats = quick().check(|| {
        let cell: StdArc<OneShot<u64>> = StdArc::new(OneShot::new());
        assert!(!cell.store(5), "a store before any wait found a sleeper");
        let owner = StdArc::clone(&cell);
        let t = check::thread::spawn(move || owner.wait());
        assert_eq!(t.join().unwrap(), 5);
    });
    assert!(stats.complete);
}

/// The owner waits while the producer stores and wakes only if the
/// store found it asleep: on every schedule — owner asleep before the
/// store, arriving after it, or woken spuriously in between — the owner
/// gets the value and nobody sleeps forever.
#[test]
fn wait_before_store_is_woken() {
    let stats = quick().check(|| {
        let cell: StdArc<OneShot<u64>> = StdArc::new(OneShot::new());
        let owner = StdArc::clone(&cell);
        let t = check::thread::spawn(move || owner.wait());
        if cell.store(9) {
            cell.wake();
        }
        assert_eq!(t.join().unwrap(), 9);
    });
    assert!(stats.complete, "exploration was cut off");
    assert!(stats.iterations >= 2);
}

/// The serving loop's order for one window: store both cells' answers,
/// then wake each cell whose store found its owner asleep. Whichever
/// owners were asleep, awake, or not yet waiting, both get their own
/// answer.
#[test]
fn a_window_stores_every_cell_then_wakes_the_sleepers() {
    let stats = quick().check(|| {
        let cells: Vec<StdArc<OneShot<u64>>> =
            (0..2).map(|_| StdArc::new(OneShot::new())).collect();
        let owners: Vec<_> = cells
            .iter()
            .map(|cell| {
                let cell = StdArc::clone(cell);
                check::thread::spawn(move || cell.wait())
            })
            .collect();
        let asleep: Vec<bool> = cells
            .iter()
            .zip([10, 20])
            .map(|(cell, answer)| cell.store(answer))
            .collect();
        for (cell, asleep) in cells.iter().zip(asleep) {
            if asleep {
                cell.wake();
            }
        }
        let got: Vec<u64> = owners.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(got, [10, 20]);
    });
    assert!(stats.complete, "exploration was cut off");
    assert!(stats.iterations >= 2);
}
