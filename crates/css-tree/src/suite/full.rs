//! The suite on [`Full`] trees (§4.1), plus what is true of full trees only.

mod tests {
    use crate::suite::*;
    use crate::{Full, FullCssTree};
    use ccindex_common::{CountingTracer, OrderedIndex, RecordingTracer, SearchIndex};

    #[test]
    fn lower_bound_exhaustive_small_sizes() {
        check(Full::<1>);
        check(Full::<2>);
        check(Full::<3>);
        check(Full::<4>);
        check(Full::<5>);
        check(Full::<8>);
        check(Full::<16>);
    }

    #[test]
    fn finds_every_key_paper_example_size() {
        // 260 = the Fig. 3 example (65 leaves of 4).
        let keys: Vec<u32> = (0..260).map(|i| i * 2 + 1).collect();
        hits_and_misses(Full::<4>, &keys);
    }

    #[test]
    fn misses_are_none() {
        let keys: Vec<u32> = (0..260).map(|i| i * 2 + 1).collect();
        let t = FullCssTree::<u32, 4>::build(&keys);
        assert_eq!(t.search(0), None);
        for i in 0..260 {
            assert_eq!(t.search(i * 2), None, "even probe {}", i * 2);
        }
        assert_eq!(t.search(10_000), None);
    }

    #[test]
    fn duplicates_return_leftmost() {
        duplicates(Full::<4>, 40, 7, 10);
    }

    #[test]
    fn empty_and_tiny_trees() {
        empty_and_tiny(Full::<16>);
    }

    #[test]
    fn probe_beyond_max_returns_n() {
        beyond_max(Full::<4>, &[5, 97, 104, 260, 1000]);
    }

    #[test]
    fn level_pages_reassemble_the_tree() {
        reassembly(Full::<4>);
    }

    #[test]
    fn wrong_slot_count_is_an_error_not_a_panic() {
        corrupt_last_slot(Full::<4>, 100);
    }

    #[test]
    fn u64_and_signed_keys() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i << 32).collect();
        hits_and_misses(Full::<8>, &keys);
        let keys: Vec<i32> = (-5_000..5_000).map(|i| i * 2).collect();
        hits_and_misses(Full::<16>, &keys);
        let t = FullCssTree::<i32, 16>::build(&keys);
        assert_eq!(t.search(-4_000), Some(3_000)); // (-4000/2) - (-5000) = 3000
        assert_eq!(t.lower_bound(i32::MAX), 10_000);
    }

    #[test]
    fn large_tree_correct_and_shallow() {
        let keys: Vec<u32> = (0..1_000_000u32).map(|i| i * 4).collect();
        let t = FullCssTree::<u32, 16>::build(&keys);
        for probe in (0..1_000_000u32).step_by(37_117) {
            assert_eq!(t.search(probe * 4), Some(probe as usize));
            assert_eq!(t.search(probe * 4 + 1), None);
        }
        // 62500 leaves; 17^4 = 83521 >= 62500 -> depth 4 -> 5 levels.
        assert_eq!(t.layout().levels(), 5);
        let mut tr = CountingTracer::new();
        t.search_with(123_456 * 4, &mut tr);
        assert!(tr.descends <= 4, "descends = {}", tr.descends);
        // Total comparisons stay ~log2 n (§4: "the total number of
        // comparisons is the same" as binary search).
        assert!(
            (18..=28).contains(&(tr.compares as usize)),
            "compares = {}",
            tr.compares
        );
    }

    #[test]
    fn one_cache_line_per_level() {
        // M = 16 u32 keys = 64 B/node: each internal level contributes
        // exactly one 64-byte-wide read.
        let keys: Vec<u32> = (0..100_000).collect();
        let t = FullCssTree::<u32, 16>::build(&keys);
        let mut tr = RecordingTracer::new();
        t.search_with(54_321, &mut tr);
        let node_reads = tr.accesses.iter().filter(|&&(_, _, len)| len == 64).count() as u32;
        // Bottom-level leaves are `depth` internal reads away, upper-level
        // leaves one fewer.
        let depth = t.layout().depth;
        assert!(
            node_reads == depth || node_reads + 1 == depth,
            "node reads = {node_reads}, depth = {depth}"
        );
    }

    #[test]
    fn space_is_directory_only_and_small() {
        let keys: Vec<u32> = (0..1_000_000).collect();
        let t = FullCssTree::<u32, 16>::build(&keys);
        let s = t.space();
        assert_eq!(s.indirect_bytes, s.direct_bytes);
        // nK/m * (m+1)/m-ish ≈ 0.26 MB for n = 10^6; must be well under
        // half the B+-tree's ~0.57 MB.
        assert!(s.indirect_bytes < 300_000, "space = {}", s.indirect_bytes);
        assert_eq!(s.indirect_bytes, t.directory().len() * 4);
    }
}
