//! Building the paper's competing methods over one key set.

use bplus::BPlusTree;
use bst_index::BinaryTreeIndex;
use ccindex_common::{SearchIndex, SortedArray};
use css_tree::{CssVariant, DynCssTree};
use hashindex::HashIndex;
use sorted_search::{BinarySearch, InterpolationSearch};
use ttree::TTree;

/// One built method, ready for the lookup protocol.
pub struct MethodInstance {
    /// Label used in figure output (matches the paper's legends).
    pub label: String,
    /// The built index.
    pub index: Box<dyn SearchIndex<u32>>,
}

impl MethodInstance {
    fn new(label: impl Into<String>, index: Box<dyn SearchIndex<u32>>) -> Self {
        Self {
            label: label.into(),
            index,
        }
    }
}

/// Build a T-tree whose *entry count* is the given sweep value (entries
/// per node in the Fig. 12/13 sense).
pub fn build_ttree(keys: &SortedArray<u32>, entries: usize) -> Box<dyn SearchIndex<u32>> {
    macro_rules! sizes {
        ($($cap:literal),+) => {
            match entries {
                $( $cap => Box::new(TTree::<u32, $cap>::build(keys.as_slice())) as Box<dyn SearchIndex<u32>>, )+
                other => panic!("unsupported T-tree entry count {other}"),
            }
        };
    }
    sizes!(4, 8, 12, 16, 24, 32, 48, 64, 96, 128)
}

/// Build a B+-tree whose *slot count* is the given sweep value (slots =
/// 2 × branching).
pub fn build_bplus(keys: &SortedArray<u32>, slots: usize) -> Box<dyn SearchIndex<u32>> {
    macro_rules! sizes {
        ($($slots:literal => $br:literal),+ $(,)?) => {
            match slots {
                $( $slots => Box::new(BPlusTree::<u32, $br>::from_shared(keys.clone())) as Box<dyn SearchIndex<u32>>, )+
                other => panic!("unsupported B+-tree slot count {other}"),
            }
        };
    }
    sizes!(4 => 2, 8 => 4, 16 => 8, 24 => 12, 32 => 16, 48 => 24, 64 => 32, 128 => 64)
}

/// Build a hash index with an explicit directory size.
pub fn build_hash(keys: &SortedArray<u32>, directory: usize) -> Box<dyn SearchIndex<u32>> {
    Box::new(HashIndex::<u32, 7>::build_with_directory(
        keys.as_slice(),
        directory,
    ))
}

/// All eight methods of Figs. 10–11 at one node size (keys per node for
/// the tree methods; 8 or 16 integers in the paper).
pub fn all_methods(keys: &SortedArray<u32>, node_ints: usize) -> Vec<MethodInstance> {
    let css = |variant| {
        Box::new(DynCssTree::build(variant, node_ints, keys.clone())) as Box<dyn SearchIndex<u32>>
    };
    vec![
        MethodInstance::new(
            "array binary search",
            Box::new(BinarySearch::from_shared(keys.clone())),
        ),
        MethodInstance::new(
            "tree binary search",
            Box::new(BinaryTreeIndex::build(keys.as_slice())),
        ),
        MethodInstance::new(
            "interpolation search",
            Box::new(InterpolationSearch::from_shared(keys.clone())),
        ),
        MethodInstance::new("T-tree", build_ttree(keys, node_ints)),
        MethodInstance::new("B+-tree", build_bplus(keys, node_ints)),
        MethodInstance::new("full CSS-tree", css(CssVariant::Full)),
        MethodInstance::new("level CSS-tree", css(CssVariant::Level)),
        MethodInstance::new(
            "hash",
            Box::new(HashIndex::<u32, 7>::build(keys.as_slice())),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_are_built_and_consistent() {
        let keys = SortedArray::from_slice(&(0..10_000u32).map(|i| i * 2).collect::<Vec<_>>());
        for node_ints in [8usize, 16] {
            let methods = all_methods(&keys, node_ints);
            assert_eq!(methods.len(), 8);
            for m in &methods {
                assert_eq!(m.index.search(5000 * 2), Some(5000), "{}", m.label);
                assert_eq!(m.index.search(5000 * 2 + 1), None, "{}", m.label);
            }
        }
    }

    #[test]
    fn sweep_builders_cover_figure_12_sizes() {
        let keys = SortedArray::from_slice(&(0..5_000u32).collect::<Vec<_>>());
        for entries in [4usize, 8, 12, 16, 24, 32, 48, 64, 96, 128] {
            let t = build_ttree(&keys, entries);
            assert_eq!(t.search(100), Some(100), "ttree {entries}");
        }
        for slots in [4usize, 8, 16, 24, 32, 48, 64, 128] {
            let b = build_bplus(&keys, slots);
            assert_eq!(b.search(100), Some(100), "b+ {slots}");
        }
        let h = build_hash(&keys, 1 << 10);
        assert_eq!(h.search(100), Some(100));
    }
}
