//! Building the paper's competing methods over one key set: the one
//! constructor of the eight methods, for `figures` and every test and
//! example that measures or cross-checks them.
//!
//! Every method answers point lookups (`SearchIndex<u32>`); all but the
//! hash index also answer ordered access (`OrderedIndex<u32>`, §3.5).
//! [`MethodInstance`] keeps that distinction, so range probes reach
//! only the ordered methods.

use bplus::BPlusTree;
use bst_index::BinaryTreeIndex;
use ccindex_common::{OrderedIndex, SearchIndex, SortedArray};
use css_tree::{build_dyn, CssVariant};
use hashindex::{bucket::U32_BUCKET_ENTRIES, HashIndex};
use sorted_search::{BinarySearch, InterpolationSearch};
use ttree::TTree;

/// One built method, ready for the lookup protocol: the point view
/// every method has, and the ordered view every method but hash has.
pub struct MethodInstance {
    /// Label used in figure output (matches the paper's legends).
    pub label: String,
    index: Built,
}

/// A built index, remembering whether it preserves key order.
enum Built {
    /// Point lookups only (the hash index).
    Point(Box<dyn SearchIndex<u32>>),
    /// Full ordered access (every other method).
    Ordered(Box<dyn OrderedIndex<u32>>),
}

impl MethodInstance {
    fn ordered(label: &str, index: impl OrderedIndex<u32> + 'static) -> Self {
        Self {
            label: label.to_owned(),
            index: Built::Ordered(Box::new(index)),
        }
    }

    /// The point-lookup view every method supports.
    pub fn as_search(&self) -> &dyn SearchIndex<u32> {
        match &self.index {
            Built::Point(index) => index.as_ref(),
            Built::Ordered(index) => index.as_ref(),
        }
    }

    /// The ordered view; `None` only for the hash index.
    pub fn as_ordered(&self) -> Option<&dyn OrderedIndex<u32>> {
        match &self.index {
            Built::Point(_) => None,
            Built::Ordered(index) => Some(index.as_ref()),
        }
    }
}

/// Build a T-tree whose *entry count* is the given sweep value (entries
/// per node in the Fig. 12/13 sense).
pub fn build_ttree(keys: &SortedArray<u32>, entries: usize) -> MethodInstance {
    macro_rules! sizes {
        ($($cap:literal),+) => {
            match entries {
                $( $cap => MethodInstance::ordered("T-tree", TTree::<u32, $cap>::build(keys.as_slice())), )+
                other => panic!("unsupported T-tree entry count {other}"),
            }
        };
    }
    sizes!(4, 8, 12, 16, 24, 32, 48, 64, 96, 128)
}

/// Build a B+-tree whose *slot count* is the given sweep value (slots =
/// 2 × branching).
pub fn build_bplus(keys: &SortedArray<u32>, slots: usize) -> MethodInstance {
    macro_rules! sizes {
        ($($slots:literal => $br:literal),+ $(,)?) => {
            match slots {
                $( $slots => MethodInstance::ordered("B+-tree", BPlusTree::<u32, $br>::from_shared(keys.clone())), )+
                other => panic!("unsupported B+-tree slot count {other}"),
            }
        };
    }
    sizes!(4 => 2, 8 => 4, 16 => 8, 24 => 12, 32 => 16, 48 => 24, 64 => 32, 128 => 64)
}

/// Build a hash index with an explicit directory size.
pub fn build_hash(keys: &SortedArray<u32>, directory: usize) -> MethodInstance {
    hash(HashIndex::build_with_directory(keys.as_slice(), directory))
}

fn hash(index: HashIndex<u32, U32_BUCKET_ENTRIES>) -> MethodInstance {
    MethodInstance {
        label: "hash".to_owned(),
        index: Built::Point(Box::new(index)),
    }
}

/// All eight methods of Figs. 10–11 at one node size (keys per node for
/// the tree methods; 8 or 16 integers in the paper).
pub fn all_methods(keys: &SortedArray<u32>, node_ints: usize) -> Vec<MethodInstance> {
    let css = |label: &str, variant| MethodInstance {
        label: label.to_owned(),
        index: Built::Ordered(build_dyn(variant, node_ints, keys.clone())),
    };
    vec![
        MethodInstance::ordered(
            "array binary search",
            BinarySearch::from_shared(keys.clone()),
        ),
        MethodInstance::ordered(
            "tree binary search",
            BinaryTreeIndex::build(keys.as_slice()),
        ),
        MethodInstance::ordered(
            "interpolation search",
            InterpolationSearch::from_shared(keys.clone()),
        ),
        build_ttree(keys, node_ints),
        build_bplus(keys, node_ints),
        css("full CSS-tree", CssVariant::Full),
        css("level CSS-tree", CssVariant::Level),
        hash(HashIndex::build(keys.as_slice())),
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
                let index = m.as_search();
                assert_eq!(index.search(5000 * 2), Some(5000), "{}", m.label);
                assert_eq!(index.search(5000 * 2 + 1), None, "{}", m.label);
                assert_eq!(m.as_ordered().is_none(), m.label == "hash", "{}", m.label);
            }
        }
    }

    #[test]
    fn sweep_builders_cover_figure_12_sizes() {
        let keys = SortedArray::from_slice(&(0..5_000u32).collect::<Vec<_>>());
        for entries in [4usize, 8, 12, 16, 24, 32, 48, 64, 96, 128] {
            let t = build_ttree(&keys, entries);
            assert_eq!(t.as_search().search(100), Some(100), "ttree {entries}");
        }
        for slots in [4usize, 8, 16, 24, 32, 48, 64, 128] {
            let b = build_bplus(&keys, slots);
            assert_eq!(b.as_search().search(100), Some(100), "b+ {slots}");
        }
        let h = build_hash(&keys, 1 << 10);
        assert_eq!(h.as_search().search(100), Some(100));
    }
}
