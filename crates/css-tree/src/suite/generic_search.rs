//! The suite on [`RuntimeFull`] trees (the §6.2 ablation), plus their
//! agreement with the const-`M` tree they differ from only in spelling.

mod tests {
    use crate::suite::*;
    use crate::{FullCssTree, RuntimeFull};
    use ccindex_common::{OrderedIndex, SearchIndex};

    #[test]
    fn odd_node_sizes_work() {
        // m = 24 (the Fig. 12 bump) and other non-powers.
        for m in [3usize, 5, 7, 24, 48, 100] {
            check(RuntimeFull { m });
        }
    }

    #[test]
    fn agrees_with_specialised_tree_everywhere() {
        let keys: Vec<u32> = (0..3000u32).map(|i| i * 2 + 1).collect();
        let spec = FullCssTree::<u32, 16>::build(&keys);
        let gen = tree(RuntimeFull { m: 16 }, &keys);
        for probe in 0..6_100u32 {
            assert_eq!(
                gen.lower_bound(probe),
                spec.lower_bound(probe),
                "probe {probe}"
            );
            assert_eq!(gen.search(probe), spec.search(probe), "probe {probe}");
        }
    }

    #[test]
    fn identical_layout_to_specialised() {
        let keys: Vec<u32> = (0..10_000).collect();
        let spec = FullCssTree::<u32, 8>::build(&keys);
        let gen = tree(RuntimeFull { m: 8 }, &keys);
        assert_eq!(spec.layout(), gen.layout());
        assert_eq!(spec.space(), gen.space());
        assert_eq!(spec.stats(), gen.stats());
        assert_eq!(spec.directory(), gen.directory());
    }

    #[test]
    fn empty_input() {
        empty_and_tiny(RuntimeFull { m: 16 });
    }
}
