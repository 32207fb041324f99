//! Replay index probes through the paper's 1998 machines.
//!
//! The paper's whole argument is a cache-miss argument. This example runs
//! the same probe stream against binary search, a T-tree, a B+-tree and a
//! CSS-tree, replays each method's exact memory trace through simulated
//! UltraSparc II and Pentium II cache hierarchies, and prints per-lookup
//! misses and simulated time — the quantities behind Figs. 10–13.
//!
//! ```sh
//! cargo run --release --example cache_simulation
//! ```

use bench::methods::all_methods;
use ccindex::gen::{KeySetBuilder, LookupStream};
use ccindex::prelude::*;

fn main() {
    let n = 2_000_000usize;
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let stream = LookupStream::successful(&keys, 50_000, 3);

    for machine_name in ["ultrasparc", "pentium2", "modern"] {
        let mut machine = Machine::by_name(machine_name).expect("preset");
        println!(
            "\n=== {} ({} cache levels) ===",
            machine.spec.name,
            machine.hierarchy.depth()
        );
        println!(
            "{:>22} {:>12} {:>12} {:>14}",
            "method", "L1 miss/op", "LLC miss/op", "sim time (s)"
        );
        // Interpolation search is the one method left out: its probes
        // depend on the key distribution, not on the cache.
        for method in all_methods(&arr, 16) {
            if method.label == "interpolation search" {
                continue;
            }
            let index = method.as_search();
            machine.hierarchy.flush(true);
            {
                let mut tracer = SimTracer::new(&mut machine.hierarchy);
                for &p in stream.probes() {
                    let _ = index.search_traced(p, &mut tracer);
                }
            }
            let stats = machine.hierarchy.stats();
            let outcome = machine.spec.time_model().evaluate(&stats);
            let per = stream.len() as f64;
            let llc = stats.levels.len() - 1;
            println!(
                "{:>22} {:>12.2} {:>12.2} {:>14.4}",
                index.name(),
                stats.levels[0].misses as f64 / per,
                stats.levels[llc].misses as f64 / per,
                outcome.seconds
            );
        }
    }

    println!(
        "\nThe ranking — hash < CSS < B+ < binary/T-tree/BST — is the paper's\n\
         Figs. 10–11; the 1986-vs-1999 reversal (T-trees losing to arrays)\n\
         is entirely a cache-line-utilisation effect."
    );
}
