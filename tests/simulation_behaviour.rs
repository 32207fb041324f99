//! Behavioural tests of the cache simulation layer: the phenomena the
//! paper's figures hinge on must be visible in the simulator.

use bench::methods::all_methods;
use bench::protocol::simulate_lookup_protocol;
use ccindex::prelude::*;
use workload::{KeySetBuilder, LookupStream};

fn setup(n: usize) -> (Vec<u32>, SortedArray<u32>) {
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    (keys, arr)
}

/// §6.3: "when all the data can fit in cache, there is hardly any
/// difference among all the algorithms" — cache-resident arrays give all
/// ordered methods near-zero steady-state L2 misses.
#[test]
fn cache_resident_data_converges() {
    let (keys, arr) = setup(2_000); // 8 kB: fits the UltraSparc L1
    let stream = LookupStream::successful(&keys, 20_000, 3);
    let mut machine = Machine::ultrasparc2();
    for m in all_methods(&arr, 16) {
        let r = simulate_lookup_protocol(m.as_search(), stream.probes(), &mut machine);
        assert!(
            r.misses_per_lookup[1] < 0.1,
            "{}: L2 misses/lookup = {}",
            m.label,
            r.misses_per_lookup[1]
        );
    }
}

/// The Figs. 10–11 ranking on both 1998 machines at a size well beyond
/// the caches.
#[test]
fn ranking_reproduces_on_both_machines() {
    let (keys, arr) = setup(1_000_000); // 4 MB >> both L2s
    let stream = LookupStream::successful(&keys, 30_000, 7);
    for mut machine in [Machine::ultrasparc2(), Machine::pentium2()] {
        let mut time = std::collections::HashMap::new();
        for m in all_methods(&arr, 16) {
            let r = simulate_lookup_protocol(m.as_search(), stream.probes(), &mut machine);
            time.insert(m.label.clone(), r.total_seconds);
        }
        let name = machine.spec.name;
        // hash < CSS < B+ < binary <= {T-tree, BST}.
        assert!(time["hash"] < time["full CSS-tree"], "{name}");
        assert!(time["full CSS-tree"] < time["B+-tree"], "{name}");
        assert!(time["level CSS-tree"] < time["B+-tree"], "{name}");
        assert!(time["B+-tree"] < time["array binary search"], "{name}");
        assert!(
            time["array binary search"] < time["tree binary search"],
            "{name}"
        );
        // §6.3 headline: binary search & T-trees "run more than twice as
        // slow as CSS-trees".
        assert!(
            time["array binary search"] / time["full CSS-tree"] > 2.0,
            "{name}: ratio {}",
            time["array binary search"] / time["full CSS-tree"]
        );
        assert!(
            time["T-tree"] / time["full CSS-tree"] > 2.0,
            "{name}: T-tree ratio {}",
            time["T-tree"] / time["full CSS-tree"]
        );
    }
}

/// Fig. 12's node-size story on the simulator: for CSS-trees, one cache
/// line per node (16 ints on the 64-byte-line machine) minimises misses;
/// much larger nodes degrade toward binary search.
#[test]
fn css_node_size_optimum_is_cache_line() {
    let (keys, arr) = setup(1_000_000);
    let stream = LookupStream::successful(&keys, 20_000, 11);
    // A machine with 64-byte lines at both levels keeps the story clean.
    let mut machine = Machine::modern();
    let mut at = |m: usize| {
        let t = css_tree::build_dyn(css_tree::CssVariant::Full, m, arr.clone());
        simulate_lookup_protocol(&*t, stream.probes(), &mut machine).misses_per_lookup[2]
    };
    let m16 = at(16);
    let m128 = at(128);
    let m4 = at(4);
    assert!(m16 <= m4 + 0.05, "16 ({m16}) should beat 4 ({m4})");
    assert!(m16 < m128, "16 ({m16}) should beat 128 ({m128})");
}

/// §5.1: "Since CSS-trees have fewer levels than all the other methods,
/// it will also gain the most benefit from a warm cache" — Zipf-skewed
/// probe streams cut CSS misses dramatically.
#[test]
fn warm_cache_benefits_skewed_probes() {
    let (keys, arr) = setup(1_000_000);
    let uniform = LookupStream::successful(&keys, 30_000, 1);
    let zipf = LookupStream::zipf(&keys, 30_000, 1.2, 1);
    let mut machine = Machine::ultrasparc2();
    let css = css_tree::FullCssTree::<u32, 16>::build(&keys);
    let u = simulate_lookup_protocol(&css, uniform.probes(), &mut machine);
    let z = simulate_lookup_protocol(&css, zipf.probes(), &mut machine);
    assert!(
        z.misses_per_lookup[1] < 0.7 * u.misses_per_lookup[1],
        "zipf {} vs uniform {}",
        z.misses_per_lookup[1],
        u.misses_per_lookup[1]
    );
    let _ = arr;
}

/// Associativity matters: the direct-mapped UltraSparc L1 suffers
/// conflict misses the 4-way Pentium avoids on a pathological stride.
#[test]
fn associativity_is_modelled() {
    let mut sparc_l1 = ccindex::sim::Cache::new(16 * 1024, 32, 1);
    let mut pentium_l1 = ccindex::sim::Cache::new(16 * 1024, 32, 4);
    // Two addresses 16 kB apart map to the same set in both caches.
    for _ in 0..100 {
        sparc_l1.access(0, 4);
        sparc_l1.access(16 * 1024, 4);
        pentium_l1.access(0, 4);
        pentium_l1.access(16 * 1024, 4);
    }
    assert!(sparc_l1.stats().misses >= 200, "direct-mapped thrashes");
    assert!(pentium_l1.stats().misses <= 2, "4-way absorbs the conflict");
}
