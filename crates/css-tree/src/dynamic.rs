//! CSS-trees whose variant and node size are chosen at runtime.
//!
//! The benchmark harness sweeps node sizes (Figs. 12–13); [`build_dyn`]
//! picks the monomorphised tree for a standard size once and returns it
//! as a trait object, so the sweep stays a runtime loop while each
//! instantiation keeps its specialised search (§6.2).

use crate::layout::CssVariant;
use crate::search::RuntimeFull;
use crate::tree::{CssTree, FullCssTree, LevelCssTree};
use ccindex_common::{Key, OrderedIndex, SortedArray};

/// The one table of pre-monomorphised node sizes: the constant that lists
/// them and the constructor that dispatches on them.
macro_rules! standard_node_sizes {
    ($($m:literal),+) => {
        /// Node sizes (keys per node) with pre-monomorphised
        /// implementations. 8 and 16 are the paper's cache-line sizes (32 B
        /// / 64 B with 4-byte keys); the rest cover the Fig. 12–13 sweeps.
        pub const STANDARD_NODE_SIZES: &[usize] = &[$($m),+];

        /// Build a CSS-tree of the given variant and node size over a
        /// shared sorted array. Standard sizes get specialised code; any
        /// other size is a [`RuntimeFull`] tree (full variant only — level
        /// trees require power-of-two sizes, which are all standard).
        pub fn build_dyn<K: Key>(
            variant: CssVariant,
            m: usize,
            array: SortedArray<K>,
        ) -> Box<dyn OrderedIndex<K>> {
            match (variant, m) {
                $(
                    (CssVariant::Full, $m) => Box::new(FullCssTree::<K, $m>::from_shared(array)),
                    (CssVariant::Level, $m) => Box::new(LevelCssTree::<K, $m>::from_shared(array)),
                )+
                (CssVariant::Full, m) => Box::new(CssTree::new(RuntimeFull { m }, array)),
                (CssVariant::Level, m) => {
                    panic!("level CSS-trees require a power-of-two node size, got {m}")
                }
            }
        }
    };
}

standard_node_sizes!(2, 4, 8, 16, 32, 64, 128);

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<u32> {
        (0..n).map(|i| i * 3 + 1).collect()
    }

    #[test]
    fn all_standard_sizes_agree_with_reference() {
        let ks = keys(5000);
        let arr = SortedArray::from_slice(&ks);
        for &m in STANDARD_NODE_SIZES {
            for variant in [CssVariant::Full, CssVariant::Level] {
                let t = build_dyn(variant, m, arr.clone());
                for probe in (0..15_100u32).step_by(13) {
                    assert_eq!(
                        t.lower_bound(probe),
                        ks.partition_point(|&k| k < probe),
                        "m={m} {variant:?} probe={probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn nonstandard_size_falls_back_to_generic() {
        let ks = keys(1000);
        let arr = SortedArray::from_slice(&ks);
        let t = build_dyn(CssVariant::Full, 24, arr);
        assert_eq!(t.name(), "full CSS-tree (generic)");
        assert_eq!((t.stats().branching, t.stats().node_bytes), (25, 24 * 4));
        for probe in (0..3_100u32).step_by(7) {
            assert_eq!(t.lower_bound(probe), ks.partition_point(|&k| k < probe));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn nonstandard_level_size_panics() {
        let arr = SortedArray::from_slice(&keys(100));
        let _ = build_dyn(CssVariant::Level, 24, arr);
    }

    #[test]
    fn shares_rather_than_copies_the_array() {
        let arr = SortedArray::from_slice(&keys(1000));
        let _a = build_dyn(CssVariant::Full, 16, arr.clone());
        let _b = build_dyn(CssVariant::Level, 16, arr.clone());
        assert_eq!(arr.holders(), 3);
    }

    #[test]
    fn runtime_lanes_agree_with_per_probe_lookups() {
        let ks = keys(3000);
        let arr = SortedArray::from_slice(&ks);
        let probes: Vec<u32> = (0..500u32).map(|i| i * 19 % 9_100).collect();
        let expected: Vec<usize> = probes
            .iter()
            .map(|&p| ks.partition_point(|&k| k < p))
            .collect();
        for (variant, m) in [
            (CssVariant::Full, 16usize),
            (CssVariant::Level, 8),
            (CssVariant::Full, 24), // no monomorph: the runtime-`m` tree
        ] {
            let t = build_dyn(variant, m, arr.clone());
            let point: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
            // Lane count 0 is the documented sequential fallback, not a
            // panic; oversized lane counts clamp to the probe count.
            for lanes in [0usize, 1, 4, 8, 33, 10_000] {
                assert_eq!(
                    t.lower_bound_batch_lanes(&probes, lanes),
                    expected,
                    "{variant:?} m={m} lanes={lanes}"
                );
                assert_eq!(
                    t.search_batch_lanes(&probes, lanes),
                    point,
                    "{variant:?} m={m} lanes={lanes}"
                );
            }
            // The trait-level batch entry points route through the
            // interleaved descent and must agree too.
            assert_eq!(t.lower_bound_batch(&probes), expected, "{variant:?} m={m}");
            assert_eq!(t.search_batch(&probes), point, "{variant:?} m={m}");
        }
    }

    #[test]
    fn names_distinguish_variants() {
        let arr = SortedArray::from_slice(&keys(100));
        let f = build_dyn(CssVariant::Full, 16, arr.clone());
        let l = build_dyn(CssVariant::Level, 16, arr);
        assert_eq!(f.name(), "full CSS-tree");
        assert_eq!(l.name(), "level CSS-tree");
    }
}
