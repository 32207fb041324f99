//! Property tests: all eight index methods agree with the reference
//! semantics (leftmost match / `partition_point` lower bound) on
//! arbitrary key multisets — the §3.6 duplicate contract, across every
//! implementation at once.

use bench::methods::all_methods;
use ccindex::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// The node sizes every method is built at: the paper's 8 and 16
/// integers per node (Figs. 10–11).
const NODE_INTS: [usize; 2] = [8, 16];

fn reference_search(keys: &[u32], probe: u32) -> Option<usize> {
    let pos = keys.partition_point(|&k| k < probe);
    (pos < keys.len() && keys[pos] == probe).then_some(pos)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_methods_agree_on_search(
        mut keys in vec(0u32..5_000, 0..600),
        probes in vec(0u32..5_200, 50),
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        let methods: Vec<_> = NODE_INTS.iter().flat_map(|&m| all_methods(&arr, m)).collect();
        for probe in probes {
            let expected = reference_search(&keys, probe);
            for method in &methods {
                prop_assert_eq!(
                    method.as_search().search(probe),
                    expected,
                    "{} disagrees on probe {} over {} keys",
                    method.label, probe, keys.len()
                );
            }
        }
    }

    #[test]
    fn ordered_methods_agree_on_lower_bound(
        mut keys in vec(0u32..3_000, 0..500),
        probes in vec(0u32..3_200, 50),
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        let methods: Vec<_> = NODE_INTS.iter().flat_map(|&m| all_methods(&arr, m)).collect();
        for probe in probes {
            let expected = keys.partition_point(|&k| k < probe);
            for method in &methods {
                let Some(idx) = method.as_ordered() else {
                    continue;
                };
                prop_assert_eq!(
                    idx.lower_bound(probe),
                    expected,
                    "{} disagrees on probe {}",
                    method.label, probe
                );
            }
        }
    }

    #[test]
    fn lower_bound_is_monotone(
        mut keys in vec(0u32..10_000, 1..400),
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        for method in NODE_INTS.iter().flat_map(|&m| all_methods(&arr, m)) {
            let Some(idx) = method.as_ordered() else {
                continue;
            };
            let mut prev = 0usize;
            for probe in (0..10_050u32).step_by(97) {
                let lb = idx.lower_bound(probe);
                prop_assert!(lb >= prev, "{}: lower_bound not monotone", method.label);
                prop_assert!(lb <= keys.len());
                prev = lb;
            }
        }
    }

    #[test]
    fn css_node_size_sweep_agrees(
        mut keys in vec(0u32..2_000, 0..400),
        probe in 0u32..2_100,
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        let expected = keys.partition_point(|&k| k < probe);
        for &m in css_tree::STANDARD_NODE_SIZES {
            let full = css_tree::build_dyn(css_tree::CssVariant::Full, m, arr.clone());
            prop_assert_eq!(full.lower_bound(probe), expected, "full m={}", m);
            let level = css_tree::build_dyn(css_tree::CssVariant::Level, m, arr.clone());
            prop_assert_eq!(level.lower_bound(probe), expected, "level m={}", m);
        }
        // Odd sizes via the runtime-`m` tree, including the m=24 bump.
        for m in [3usize, 7, 24, 100] {
            let g = css_tree::CssTree::new(css_tree::RuntimeFull { m }, arr.clone());
            prop_assert_eq!(g.lower_bound(probe), expected, "generic m={}", m);
        }
    }

    #[test]
    fn traced_and_untraced_results_agree(
        mut keys in vec(0u32..1_000, 1..300),
        probe in 0u32..1_100,
    ) {
        keys.sort_unstable();
        let arr = SortedArray::from_slice(&keys);
        for method in NODE_INTS.iter().flat_map(|&m| all_methods(&arr, m)) {
            let idx = method.as_search();
            let mut tracer = ccindex::common::CountingTracer::new();
            prop_assert_eq!(
                idx.search_traced(probe, &mut tracer),
                idx.search(probe),
                "{}", method.label
            );
        }
    }
}
