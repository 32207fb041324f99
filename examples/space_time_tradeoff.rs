//! The Fig. 2 / Fig. 14 story in miniature: measure every method's
//! (space, time) point over the same key set and print the frontier.
//!
//! ```sh
//! cargo run --release --example space_time_tradeoff
//! ```

use bench::methods::all_methods;
use ccindex::gen::{KeySetBuilder, LookupStream};

fn main() {
    let n = 2_000_000usize;
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = ccindex::common::SortedArray::from_slice(&keys);
    let stream = LookupStream::successful(&keys, 100_000, 11);

    println!(
        "{:>22} {:>14} {:>16} {:>10}",
        "method", "time (ms)", "space (bytes)", "ordered"
    );
    let mut rows = Vec::new();
    for method in all_methods(&arr, 16) {
        let index = method.as_search();
        let start = std::time::Instant::now();
        let mut found = 0usize;
        for &p in stream.probes() {
            if index.search(p).is_some() {
                found += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(found, stream.len());
        rows.push((
            index.name().to_string(),
            elapsed,
            index.space().direct_bytes,
            method.as_ordered().is_some(),
        ));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (name, ms, bytes, ordered) in &rows {
        println!(
            "{:>22} {:>14.2} {:>16} {:>10}",
            name,
            ms,
            bytes,
            if *ordered { "Y" } else { "N" }
        );
    }

    // The paper's conclusions, checked live:
    let get = |n: &str| rows.iter().find(|r| r.0 == n).expect("present");
    let css = get("full CSS-tree");
    let bin = get("array binary search");
    let hash = get("hash");
    println!();
    println!(
        "CSS-tree vs binary search: {:.2}x faster with {:.1}% space overhead",
        bin.1 / css.1,
        100.0 * css.2 as f64 / (n * 4) as f64
    );
    println!(
        "hash vs CSS-tree: {:.2}x faster but {:.1}x the space",
        css.1 / hash.1,
        hash.2 as f64 / css.2 as f64
    );
}
