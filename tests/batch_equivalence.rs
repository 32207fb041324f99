//! Batch/sequential equivalence: the batched entry points of every index
//! must be observationally identical to their per-probe counterparts —
//! over arbitrary key multisets, all lane counts, every standard node
//! size, both CSS variants, and the degenerate shapes (empty trees, empty
//! batches, single keys, ragged tails).

use bench::methods::all_methods;
use ccindex::common::{CountingTracer, SortedArray};
use ccindex::css::{build_dyn, CssVariant, STANDARD_NODE_SIZES};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved lower bounds equal per-probe lower bounds for every
    /// standard node size, both variants, across lane counts (including
    /// lanes of 1, lanes beyond the batch size, and non-powers).
    #[test]
    fn interleaved_matches_per_probe_all_sizes_and_lanes(
        mut keys in vec(0u32..4_000, 0..400),
        probes in vec(0u32..4_200, 0..120),
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        let expected: Vec<usize> = probes
            .iter()
            .map(|&p| keys.partition_point(|&k| k < p))
            .collect();
        for &m in STANDARD_NODE_SIZES {
            for variant in [CssVariant::Full, CssVariant::Level] {
                let t = build_dyn(variant, m, arr.clone());
                for lanes in [1usize, 2, 3, 8, 13, 1000] {
                    prop_assert_eq!(
                        t.lower_bound_batch_lanes(&probes, lanes),
                        expected.clone(),
                        "{:?} m={} lanes={}",
                        variant, m, lanes
                    );
                }
                prop_assert_eq!(
                    t.lower_bound_batch(&probes),
                    expected.clone(),
                    "{:?} m={} trait path",
                    variant, m
                );
            }
        }
        // Generic fallback sizes, including the m = 24 bump.
        for m in [3usize, 7, 24] {
            let t = build_dyn(CssVariant::Full, m, arr.clone());
            for lanes in [1usize, 5, 64] {
                prop_assert_eq!(
                    t.lower_bound_batch_lanes(&probes, lanes),
                    expected.clone(),
                    "generic m={} lanes={}",
                    m, lanes
                );
            }
        }
    }

    /// Every paper method's `search_batch` (default or interleaved
    /// override) equals the per-probe `search`, and the ordered methods'
    /// `lower_bound_batch` equals per-probe `lower_bound`, at 8 and 16
    /// integers per node.
    #[test]
    fn every_index_kind_batches_like_it_searches(
        mut keys in vec(0u32..3_000, 0..500),
        probes in vec(0u32..3_200, 0..80),
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        for method in [8, 16].into_iter().flat_map(|m| all_methods(&arr, m)) {
            let idx = method.as_search();
            let expected: Vec<Option<usize>> =
                probes.iter().map(|&p| idx.search(p)).collect();
            prop_assert_eq!(idx.search_batch(&probes), expected, "{}", method.label);
            let Some(idx) = method.as_ordered() else {
                continue;
            };
            let expected: Vec<usize> =
                probes.iter().map(|&p| idx.lower_bound(p)).collect();
            prop_assert_eq!(idx.lower_bound_batch(&probes), expected, "{}", method.label);
        }
    }

    /// Traced batch calls return the same answers as untraced ones and
    /// perform the same total work (reads/compares/descents) as the
    /// traced sequential protocol — interleaving reorders accesses, it
    /// must never add or drop any.
    #[test]
    fn traced_batches_agree_and_do_identical_work(
        mut keys in vec(0u32..2_000, 1..400),
        probes in vec(0u32..2_100, 1..60),
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        for method in [8, 16].into_iter().flat_map(|m| all_methods(&arr, m)) {
            let Some(idx) = method.as_ordered() else {
                continue;
            };
            let kind = &method.label;
            let mut seq = CountingTracer::new();
            let expected: Vec<usize> = probes
                .iter()
                .map(|&p| idx.lower_bound_traced(p, &mut seq))
                .collect();
            let mut bat = CountingTracer::new();
            prop_assert_eq!(
                idx.lower_bound_batch_traced(&probes, &mut bat),
                expected,
                "{}",
                kind
            );
            prop_assert_eq!(bat.reads, seq.reads, "{} reads", kind);
            prop_assert_eq!(bat.bytes_read, seq.bytes_read, "{} bytes", kind);
            prop_assert_eq!(bat.compares, seq.compares, "{} compares", kind);
            prop_assert_eq!(bat.descends, seq.descends, "{} descends", kind);
        }
    }
}

/// Deterministic degenerate shapes that property generators hit rarely:
/// empty trees, empty batches, one key, one probe, batches smaller than a
/// lane chunk, exact lane multiples and one-over sizes.
#[test]
fn degenerate_batches() {
    for &m in STANDARD_NODE_SIZES {
        for variant in [CssVariant::Full, CssVariant::Level] {
            let empty = build_dyn(variant, m, SortedArray::from_slice(&[]));
            assert!(empty.lower_bound_batch_lanes(&[], 8).is_empty());
            assert_eq!(empty.lower_bound_batch_lanes(&[7], 8), vec![0]);
            assert_eq!(empty.search_batch(&[7]), vec![None]);

            let one = build_dyn(variant, m, SortedArray::from_slice(&[5u32]));
            assert_eq!(one.lower_bound_batch_lanes(&[4, 5, 6], 2), vec![0, 0, 1]);
            assert_eq!(one.search_batch(&[4, 5, 6]), vec![None, Some(0), None]);
        }
    }
    // Batch lengths straddling the lane chunking.
    let keys: Vec<u32> = (0..1_000u32).map(|i| i * 2).collect();
    let t = build_dyn(CssVariant::Full, 16, SortedArray::from_slice(&keys));
    for len in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
        let probes: Vec<u32> = (0..len as u32).map(|i| i * 31 % 2_100).collect();
        let expected: Vec<usize> = probes
            .iter()
            .map(|&p| keys.partition_point(|&k| k < p))
            .collect();
        assert_eq!(t.lower_bound_batch(&probes), expected, "len={len}");
    }
}
