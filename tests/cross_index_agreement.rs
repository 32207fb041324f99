//! Property tests: all eight index methods agree with the reference
//! semantics (leftmost match / `partition_point` lower bound) on
//! arbitrary key multisets — the §3.6 duplicate contract, across every
//! implementation at once.

use ccindex::db::{build_index, IndexHandle, IndexKind};
use ccindex::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

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
        let indexes: Vec<_> = IndexKind::ALL
            .iter()
            .map(|&k| (k, build_index(k, &arr)))
            .collect();
        for probe in probes {
            let expected = reference_search(&keys, probe);
            for (kind, idx) in &indexes {
                prop_assert_eq!(
                    idx.search(probe),
                    expected,
                    "{:?} disagrees on probe {} over {} keys",
                    kind, probe, keys.len()
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
        let indexes: Vec<_> = IndexKind::ORDERED
            .iter()
            .map(|&k| (k, IndexHandle::build(k, &arr)))
            .collect();
        for probe in probes {
            let expected = keys.partition_point(|&k| k < probe);
            for (kind, handle) in &indexes {
                prop_assert_eq!(
                    handle.as_ordered().expect("ordered kind").lower_bound(probe),
                    expected,
                    "{:?} disagrees on probe {}",
                    kind, probe
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
        for kind in IndexKind::ORDERED {
            let handle = IndexHandle::build(kind, &arr);
            let idx = handle.as_ordered().expect("ordered kind");
            let mut prev = 0usize;
            for probe in (0..10_050u32).step_by(97) {
                let lb = idx.lower_bound(probe);
                prop_assert!(lb >= prev, "{kind:?}: lower_bound not monotone");
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
            let full = css_tree::DynCssTree::build(css_tree::CssVariant::Full, m, arr.clone());
            prop_assert_eq!(full.lower_bound(probe), expected, "full m={}", m);
            let level = css_tree::DynCssTree::build(css_tree::CssVariant::Level, m, arr.clone());
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
        for kind in IndexKind::ALL {
            let idx = build_index(kind, &arr);
            let mut tracer = ccindex::common::CountingTracer::new();
            prop_assert_eq!(
                idx.search_traced(probe, &mut tracer),
                idx.search(probe),
                "{:?}", kind
            );
        }
    }
}
