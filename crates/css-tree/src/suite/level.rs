//! The suite on [`Level`] trees (§4.2), plus what is true of level trees
//! only.

mod tests {
    use crate::suite::*;
    use crate::{FullCssTree, Level, LevelCssTree};
    use ccindex_common::{CountingTracer, SearchIndex};

    #[test]
    fn lower_bound_exhaustive_small_sizes() {
        check(Level::<2>);
        check(Level::<4>);
        check(Level::<8>);
        check(Level::<16>);
        check(Level::<32>);
    }

    #[test]
    fn finds_every_key() {
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2 + 1).collect();
        hits_and_misses(Level::<16>, &keys);
    }

    #[test]
    fn misses_are_none() {
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2 + 1).collect();
        let t = LevelCssTree::<u32, 16>::build(&keys);
        for i in (0..10_000).step_by(7) {
            assert_eq!(t.search(i * 2), None);
        }
        assert_eq!(t.search(u32::MAX), None);
    }

    #[test]
    fn duplicates_return_leftmost() {
        duplicates(Level::<8>, 50, 9, 100);
    }

    #[test]
    fn empty_tiny_and_beyond_max() {
        empty_and_tiny(Level::<8>);
        beyond_max(Level::<8>, &[5, 63, 64, 65, 512, 513]);
    }

    #[test]
    fn level_pages_reassemble_the_tree() {
        reassembly(Level::<8>);
    }

    #[test]
    fn wrong_slot_count_is_an_error_not_a_panic() {
        corrupt_last_slot(Level::<8>, 300);
    }

    #[test]
    fn validate_covers_the_auxiliary_slot() {
        validation(Level::<8>);
        validation(Level::<16>);
    }

    #[test]
    fn u64_keys() {
        let keys: Vec<u64> = (0..50_000u64).map(|i| i * 977).collect();
        hits_and_misses(Level::<8>, &keys);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two_m() {
        let keys: Vec<u32> = (0..100).collect();
        let _ = LevelCssTree::<u32, 24>::build(&keys);
    }

    #[test]
    fn exactly_log2_m_comparisons_per_node() {
        // §4.2: "The number of comparisons per node is t for a level
        // CSS-tree" (t = log2 M). Verify compares == descends * t + leaf.
        let keys: Vec<u32> = (0..1_000_000).collect();
        let t = LevelCssTree::<u32, 16>::build(&keys);
        let mut tr = CountingTracer::new();
        t.lower_bound_with(777_777, &mut tr);
        let per_node = 4; // log2(16)
        let leaf_cost = tr.compares - tr.descends * per_node;
        assert!(leaf_cost <= 5, "leaf comparisons = {leaf_cost}");
    }

    #[test]
    fn level_uses_more_space_than_full_same_node_size() {
        // §4.2: "A level CSS-tree uses a little more space than a full
        // CSS-tree."
        let keys: Vec<u32> = (0..1_000_000).collect();
        let full = FullCssTree::<u32, 16>::build(&keys);
        let level = LevelCssTree::<u32, 16>::build(&keys);
        assert!(level.space().indirect_bytes > full.space().indirect_bytes);
    }

    #[test]
    fn fewer_total_comparisons_than_full(/* Fig. 5's comparison ratio < 1 */) {
        let keys: Vec<u32> = (0..1_048_576u32).collect();
        let full = FullCssTree::<u32, 16>::build(&keys);
        let level = LevelCssTree::<u32, 16>::build(&keys);
        let (mut cf, mut cl) = (0u64, 0u64);
        for probe in (0..1_048_576u32).step_by(9973) {
            let mut a = CountingTracer::new();
            full.lower_bound_with(probe, &mut a);
            cf += a.compares;
            let mut b = CountingTracer::new();
            level.lower_bound_with(probe, &mut b);
            cl += b.compares;
        }
        assert!(cl < cf, "level {cl} vs full {cf} comparisons");
    }
}
