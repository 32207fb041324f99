//! The §5 analytical models versus the real structures and the cache
//! simulator: the paper's tables are not just printed, they are *checked*.

use analysis::space_model::{space_indirect, Method};
use analysis::time_model::cost_breakdown;
use analysis::Params;
use ccindex::prelude::*;
use ccindex::sim::SimTracer;
use workload::{KeySetBuilder, LookupStream};

fn keys(n: usize) -> Vec<u32> {
    KeySetBuilder::new(n).build()
}

/// `method` at the geometry the §5 models and Fig. 14 assume: 64-byte
/// nodes (m = 16, a B+-tree of branching 8), and the T-tree at 8
/// entries, whose 76-byte nodes are the nearest to one line.
fn build(method: Method, arr: &SortedArray<u32>) -> Box<dyn SearchIndex<u32>> {
    match method {
        Method::BinarySearch => Box::new(BinarySearch::from_shared(arr.clone())),
        Method::TTree => Box::new(TTree::<u32, 8>::build(arr.as_slice())),
        Method::BPlusTree => Box::new(BPlusTree::<u32, 8>::from_shared(arr.clone())),
        Method::FullCss => Box::new(FullCssTree::<u32, 16>::from_shared(arr.clone())),
        Method::LevelCss => Box::new(LevelCssTree::<u32, 16>::from_shared(arr.clone())),
        other => unreachable!("{other:?} is not validated here"),
    }
}

/// Measured `space_bytes` of each built index must track the Fig. 7
/// formulas (within discretisation slack for partially filled top levels).
#[test]
fn measured_space_matches_formulas() {
    let n = 1_000_000usize;
    let ks = keys(n);
    let arr = SortedArray::from_slice(&ks);
    let p = Params::default().with_n(n);

    for method in [
        Method::BinarySearch,
        Method::BPlusTree,
        Method::FullCss,
        Method::LevelCss,
    ] {
        let built = build(method, &arr);
        let measured = built.space().indirect_bytes as f64;
        let formula = space_indirect(method, &p);
        if formula == 0.0 {
            assert_eq!(measured, 0.0, "{method:?}");
        } else {
            let ratio = measured / formula;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{method:?}: measured {measured}, formula {formula}, ratio {ratio}"
            );
        }
    }

    // T-tree: 8 entries/node (12-byte header + 8*(4+4) = 76-byte nodes).
    // The Fig. 7 formula assumes header-free nodes of sc bytes, so we
    // compare against the exact arena expectation instead.
    let ttree = build(Method::TTree, &arr);
    let expected = (n / 8) * 76;
    let got = ttree.space().direct_bytes;
    assert!(
        (got as f64 / expected as f64 - 1.0).abs() < 0.05,
        "ttree arena {got} vs expected {expected}"
    );
    // And the direct-vs-indirect gap is exactly the embedded RIDs (Fig. 7).
    assert_eq!(
        ttree.space().direct_bytes - ttree.space().indirect_bytes,
        n * 4
    );
}

/// Cold-cache misses per lookup, simulated, must match the Fig. 6 model:
/// ~log_{m+1}(n) line touches for a CSS-tree vs ~log2(n) for binary
/// search on a large array.
#[test]
fn simulated_misses_match_cost_model() {
    let n = 2_000_000usize;
    let ks = keys(n);
    let arr = SortedArray::from_slice(&ks);
    let p = Params::default().with_n(n); // m = 16, c = 64

    // Use the modern machine's L1 only as "the cache": 64-byte lines to
    // match the model's c = 64, single level to avoid inclusive effects.
    let probe_stream = LookupStream::successful(&ks, 400, 5);

    for method in [
        Method::BinarySearch,
        Method::BPlusTree,
        Method::FullCss,
        Method::LevelCss,
    ] {
        let idx = build(method, &arr);
        let mut hierarchy =
            ccindex::sim::CacheHierarchy::new(vec![ccindex::sim::Cache::new(32 * 1024, 64, 8)]);
        let mut cold_misses = 0.0f64;
        for &probe in probe_stream.probes() {
            hierarchy.flush(false); // cold start per §5.1's model
            let before = hierarchy.stats().levels[0].misses;
            let mut tracer = SimTracer::new(&mut hierarchy);
            let _ = idx.search_traced(probe, &mut tracer);
            cold_misses += (hierarchy.stats().levels[0].misses - before) as f64;
        }
        let measured = cold_misses / probe_stream.len() as f64;
        let model = cost_breakdown(method, &p).expect("modelled").cache_misses;
        let ratio = measured / model;
        assert!(
            (0.55..1.45).contains(&ratio),
            "{method:?}: measured {measured:.2} misses/lookup vs model {model:.2} (ratio {ratio:.2})"
        );
    }
}

/// Fig. 6's structural columns (branching, levels) versus real trees.
#[test]
fn structural_stats_match_model() {
    let n = 1_000_000usize;
    let ks = keys(n);
    let arr = SortedArray::from_slice(&ks);
    let p = Params::default().with_n(n);

    for method in [Method::BPlusTree, Method::FullCss, Method::LevelCss] {
        let idx = build(method, &arr);
        let stats = idx.stats();
        let model = cost_breakdown(method, &p).expect("modelled");
        assert_eq!(
            stats.branching as f64, model.branching,
            "{method:?} branching"
        );
        // Levels: the model is real-valued; the tree rounds up.
        let model_levels = model.levels.ceil() as u32;
        assert!(
            (stats.levels as i64 - model_levels as i64).abs() <= 1,
            "{method:?}: tree {} vs model {}",
            stats.levels,
            model_levels
        );
    }
}

/// The space/time dominance claim of Fig. 14 on the simulated UltraSparc:
/// CSS-trees dominate B+-trees and T-trees in BOTH space and time.
#[test]
fn css_dominates_bplus_and_ttree() {
    let n = 500_000usize;
    let ks = keys(n);
    let arr = SortedArray::from_slice(&ks);
    let stream = LookupStream::successful(&ks, 20_000, 9);
    let mut machine = Machine::ultrasparc2();

    let mut run = |method: Method| {
        let idx = build(method, &arr);
        let m =
            bench::protocol::simulate_lookup_protocol(idx.as_ref(), stream.probes(), &mut machine);
        (m.total_seconds, idx.space().direct_bytes)
    };
    let (css_t, css_s) = run(Method::FullCss);
    let (bp_t, bp_s) = run(Method::BPlusTree);
    let (tt_t, tt_s) = run(Method::TTree);
    let (bin_t, bin_s) = run(Method::BinarySearch);

    assert!(css_t < bp_t && css_s < bp_s, "CSS must dominate B+");
    assert!(css_t < tt_t && css_s < tt_s, "CSS must dominate T-tree");
    // Binary search is on the frontier: less space, more time.
    assert!(bin_s < css_s && bin_t > css_t);
    // §6.3 headline at this scale on the 1998 machine: more than 1.5x.
    assert!(
        bin_t / css_t > 1.5,
        "binary {bin_t} vs css {css_t}: ratio {}",
        bin_t / css_t
    );
}
