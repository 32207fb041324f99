//! Property tests focused on the CSS-tree itself: layout invariants,
//! batched search, and construction validity over arbitrary inputs.

use ccindex::common::{OrderedIndex, SortedArray};
use ccindex::css::{CssTree, FullCssTree, LevelCssTree, RuntimeFull};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Algorithm 4.1's invariant holds for arbitrary inputs — including
    /// heavy duplication and sizes straddling the layout's boundary cases.
    #[test]
    fn built_trees_validate(mut keys in vec(0u32..500, 0..700)) {
        keys.sort_unstable();
        FullCssTree::<u32, 4>::build(&keys).validate().map_err(|e| {
            TestCaseError::fail(format!("m=4: {e}"))
        })?;
        FullCssTree::<u32, 16>::build(&keys).validate().map_err(|e| {
            TestCaseError::fail(format!("m=16: {e}"))
        })?;
        // The level fill goes through the auxiliary slot, the check
        // through a rightmost descent: two routes to the same slots.
        LevelCssTree::<u32, 8>::build(&keys).validate().map_err(|e| {
            TestCaseError::fail(format!("level m=8: {e}"))
        })?;
        CssTree::new(RuntimeFull { m: 9 }, SortedArray::from_slice(&keys))
            .validate()
            .map_err(|e| TestCaseError::fail(format!("runtime m=9: {e}")))?;
    }

    /// Full, level and generic trees all agree with the reference on
    /// random inputs across a spread of node sizes.
    #[test]
    fn variants_agree_with_reference(
        mut keys in vec(0u32..2_000, 0..500),
        probes in vec(0u32..2_100, 40),
    ) {
        keys.sort_unstable();
        let full = FullCssTree::<u32, 5>::build(&keys);
        let level = LevelCssTree::<u32, 8>::build(&keys);
        let generic = CssTree::new(RuntimeFull { m: 9 }, SortedArray::from_slice(&keys));
        for probe in probes {
            let expected = keys.partition_point(|&k| k < probe);
            prop_assert_eq!(full.lower_bound(probe), expected);
            prop_assert_eq!(level.lower_bound(probe), expected);
            prop_assert_eq!(generic.lower_bound(probe), expected);
        }
    }

    /// The interleaved batch path is identical to the sequential path for
    /// any probe multiset and lane count.
    #[test]
    fn batch_matches_sequential(
        mut keys in vec(0u32..5_000, 1..800),
        probes in vec(0u32..5_200, 1..200),
    ) {
        keys.sort_unstable();
        let t = FullCssTree::<u32, 8>::build(&keys);
        let seq = t.lower_bound_batch_sequential(&probes);
        prop_assert_eq!(t.lower_bound_batch_lanes(&probes, 3), seq.clone());
        prop_assert_eq!(t.lower_bound_batch_lanes(&probes, 8), seq.clone());
        prop_assert_eq!(t.lower_bound_batch(&probes), seq);
    }

    /// `equal_range` over every ordered method equals the reference run
    /// bounds, for arbitrarily duplicated keys.
    #[test]
    fn equal_range_matches_reference(
        mut keys in vec(0u32..60, 1..400), // small domain -> many duplicates
        probe in 0u32..70,
    ) {
        keys.sort_unstable();
        let expected = (
            keys.partition_point(|&k| k < probe),
            keys.partition_point(|&k| k <= probe),
        );
        let arr = ccindex::common::SortedArray::from_slice(&keys);
        for method in bench::methods::all_methods(&arr, 16) {
            let Some(idx) = method.as_ordered() else {
                continue;
            };
            prop_assert_eq!(idx.equal_range(probe), expected, "{}", method.label);
            prop_assert_eq!(idx.count_key(probe), expected.1 - expected.0, "{}", method.label);
        }
    }
}

/// Deterministic regression corpus for layout boundary cases discovered
/// during development: exact powers of the branching factor, one-over
/// sizes, and the dangling-leaf configuration.
#[test]
fn layout_boundary_regression_corpus() {
    for (n, m) in [
        (100usize, 4usize), // B = 25 = 5^2: all leaves on one level
        (104, 4),           // dangling bottom leaves
        (103, 4),           // dangling + partial last leaf
        (4, 4),             // single full leaf
        (5, 4),             // two leaves, depth 1
        (624, 4),           // B = 156: within one of 5^3+...
        (625 * 4, 4),       // B = 625 = 5^4
        (16, 16),
        (17, 16),
        (4096, 16),
    ] {
        let keys: Vec<u32> = (0..n as u32).map(|i| i * 2 + 1).collect();
        let t = ccindex::css::build_dyn(
            ccindex::css::CssVariant::Full,
            m,
            ccindex::common::SortedArray::from_slice(&keys),
        );
        for probe in 0..(n as u32 * 2 + 3) {
            assert_eq!(
                t.lower_bound(probe),
                keys.partition_point(|&k| k < probe),
                "n={n} m={m} probe={probe}"
            );
        }
    }
}
