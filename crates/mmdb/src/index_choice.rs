//! One constructor per paper method, behind the shared traits, and the
//! catalog's declared access paths.
//!
//! Every method implements `SearchIndex<u32>` (point lookups on domain
//! IDs) and all but the hash index implement `OrderedIndex<u32>` (range
//! queries). Node sizes default to one 64-byte cache line (16 four-byte
//! slots), the §5.1/§6.3 optimum. [`IndexHandle::build`] builds them over
//! a sorted key array: the paper's baselines, as `figures` and the
//! agreement suites measure them.
//!
//! The catalog builds none of them. A column's domain IDs are dense ranks,
//! so its sorted [`RidList`] answers every probe by addressing the run an
//! ID names; an [`IndexKind`] created on a column is a declared access
//! path — what the planner chooses between and a query may force — and
//! [`AccessPath`] is its view: the RID list behind the index traits.

use bplus::BPlusTree;
use bst_index::BinaryTreeIndex;
use ccindex_common::{OrderedIndex, SearchIndex, SortedArray};
use css_tree::{FullCssTree, LevelCssTree};
use hashindex::HashIndex;
use sorted_search::{BinarySearch, InterpolationSearch};
use ttree::TTree;

use crate::rid::RidList;

/// The index methods available to the database layer.
///
/// `Ord` follows declaration order and exists so catalogs can key maps by
/// kind deterministically; it is **not** a quality ranking — access-path
/// choice uses [`IndexKind::POINT_PREFERENCE`] /
/// [`IndexKind::ORDERED_PREFERENCE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexKind {
    /// Binary search on the sorted RID list — zero extra space.
    BinarySearch,
    /// Interpolation search — for near-linear key distributions only.
    InterpolationSearch,
    /// Pointer-based balanced BST.
    BinaryTree,
    /// T-tree (8 entries/node: 76-byte nodes, closest to one line).
    TTree,
    /// B+-tree (64-byte nodes: branching 8).
    BPlusTree,
    /// Full CSS-tree (64-byte nodes: m = 16) — the paper's recommendation.
    FullCss,
    /// Level CSS-tree (64-byte nodes: m = 16).
    LevelCss,
    /// Chained bucket hash — fastest point lookups, no ordered access.
    Hash,
}

impl IndexKind {
    /// Every kind.
    pub const ALL: [IndexKind; 8] = [
        IndexKind::BinarySearch,
        IndexKind::InterpolationSearch,
        IndexKind::BinaryTree,
        IndexKind::TTree,
        IndexKind::BPlusTree,
        IndexKind::FullCss,
        IndexKind::LevelCss,
        IndexKind::Hash,
    ];

    /// Kinds supporting ordered access (Fig. 7's RID-ordered column).
    pub const ORDERED: [IndexKind; 7] = [
        IndexKind::BinarySearch,
        IndexKind::InterpolationSearch,
        IndexKind::BinaryTree,
        IndexKind::TTree,
        IndexKind::BPlusTree,
        IndexKind::FullCss,
        IndexKind::LevelCss,
    ];

    /// Does this kind support `lower_bound`/range queries?
    pub fn is_ordered(&self) -> bool {
        !matches!(self, IndexKind::Hash)
    }

    /// Access-path preference for equality probes, best first: the hash
    /// index wins point lookups when present (§3.5 "fastest point
    /// lookups"), then the paper's recommendation (full CSS-tree) and the
    /// remaining directories by decreasing branching, with the zero-space
    /// array methods last.
    pub const POINT_PREFERENCE: [IndexKind; 8] = [
        IndexKind::Hash,
        IndexKind::FullCss,
        IndexKind::LevelCss,
        IndexKind::BPlusTree,
        IndexKind::TTree,
        IndexKind::BinaryTree,
        IndexKind::InterpolationSearch,
        IndexKind::BinarySearch,
    ];

    /// Access-path preference for range / ordered probes, best first —
    /// [`IndexKind::POINT_PREFERENCE`] minus the hash index, which cannot
    /// serve ordered access.
    pub const ORDERED_PREFERENCE: [IndexKind; 7] = [
        IndexKind::FullCss,
        IndexKind::LevelCss,
        IndexKind::BPlusTree,
        IndexKind::TTree,
        IndexKind::BinaryTree,
        IndexKind::InterpolationSearch,
        IndexKind::BinarySearch,
    ];
}

/// A built index that remembers whether it can serve ordered access, so
/// point probes reach `search_batch` on any kind while range probes are
/// confined, at the type level, to ordered kinds.
pub enum IndexHandle {
    /// Point lookups only (the hash index, §3.5).
    Point(Box<dyn SearchIndex<u32>>),
    /// Full ordered access (every other kind).
    Ordered(Box<dyn OrderedIndex<u32>>),
}

impl IndexHandle {
    /// Build the handle for `kind` over a shared sorted key array — the
    /// one index constructor. Only the hash kind (§3.5) comes back as
    /// [`IndexHandle::Point`].
    pub fn build(kind: IndexKind, keys: &SortedArray<u32>) -> Self {
        match ordered_index(kind, keys) {
            Some(index) => IndexHandle::Ordered(index),
            None => IndexHandle::Point(Box::new(HashIndex::<u32, 7>::build(keys.as_slice()))),
        }
    }

    /// The point-lookup view every kind supports.
    pub fn as_search(&self) -> &dyn SearchIndex<u32> {
        match self {
            IndexHandle::Point(i) => i.as_ref(),
            IndexHandle::Ordered(i) => i.as_ref(),
        }
    }

    /// The ordered view, when the kind preserves key order.
    pub fn as_ordered(&self) -> Option<&dyn OrderedIndex<u32>> {
        match self {
            IndexHandle::Point(_) => None,
            IndexHandle::Ordered(i) => Some(i.as_ref()),
        }
    }
}

impl std::fmt::Debug for IndexHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (shape, name) = match self {
            IndexHandle::Point(i) => ("Point", i.name()),
            IndexHandle::Ordered(i) => ("Ordered", i.name()),
        };
        write!(f, "IndexHandle::{shape}({name})")
    }
}

/// A declared access path on one catalog column, as
/// [`CatalogState::index`](crate::snapshot::CatalogState::index) hands it
/// out: the column's [`RidList`] seen through the index traits, ordered
/// unless the kind is [`IndexKind::Hash`].
#[derive(Debug, Clone, Copy)]
pub struct AccessPath<'c> {
    kind: IndexKind,
    rids: &'c RidList,
}

impl<'c> AccessPath<'c> {
    pub(crate) fn new(kind: IndexKind, rids: &'c RidList) -> Self {
        Self { kind, rids }
    }

    /// The point-lookup view every kind supports.
    pub fn as_search(self) -> &'c dyn SearchIndex<u32> {
        self.rids
    }

    /// The ordered view; `None` for the hash kind, which declares no
    /// ordered access.
    pub fn as_ordered(self) -> Option<&'c dyn OrderedIndex<u32>> {
        let ordered: &'c dyn OrderedIndex<u32> = self.rids;
        self.kind.is_ordered().then_some(ordered)
    }
}

/// Build a point-lookup index of the chosen kind over a shared sorted
/// key array: [`IndexHandle::build`] seen through its `SearchIndex` view.
pub fn build_index(kind: IndexKind, keys: &SortedArray<u32>) -> Box<dyn SearchIndex<u32>> {
    match IndexHandle::build(kind, keys) {
        IndexHandle::Point(index) => index,
        IndexHandle::Ordered(index) => index,
    }
}

/// The ordered arm of [`IndexHandle::build`]: `None` for
/// [`IndexKind::Hash`], which cannot provide ordered access (§3.5).
fn ordered_index(kind: IndexKind, keys: &SortedArray<u32>) -> Option<Box<dyn OrderedIndex<u32>>> {
    Some(match kind {
        IndexKind::BinarySearch => Box::new(BinarySearch::from_shared(keys.clone())),
        IndexKind::InterpolationSearch => Box::new(InterpolationSearch::from_shared(keys.clone())),
        IndexKind::BinaryTree => Box::new(BinaryTreeIndex::build(keys.as_slice())),
        IndexKind::TTree => Box::new(TTree::<u32, 8>::build(keys.as_slice())),
        IndexKind::BPlusTree => Box::new(BPlusTree::<u32, 8>::from_shared(keys.clone())),
        IndexKind::FullCss => Box::new(FullCssTree::<u32, 16>::from_shared(keys.clone())),
        IndexKind::LevelCss => Box::new(LevelCssTree::<u32, 16>::from_shared(keys.clone())),
        IndexKind::Hash => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> SortedArray<u32> {
        SortedArray::from_slice(&(0..5000u32).map(|i| i / 3).collect::<Vec<_>>())
    }

    #[test]
    fn every_kind_agrees_on_search() {
        let ks = keys();
        let reference = ks.as_slice().to_vec();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, &ks);
            for probe in (0..1700u32).step_by(7) {
                let expected = reference
                    .binary_search(&probe)
                    .ok()
                    .map(|_| reference.partition_point(|&k| k < probe));
                assert_eq!(idx.search(probe), expected, "{kind:?} probe {probe}");
            }
            assert_eq!(idx.search(u32::MAX), None, "{kind:?}");
        }
    }

    #[test]
    fn ordered_kinds_agree_on_lower_bound() {
        let ks = keys();
        let reference = ks.as_slice().to_vec();
        for kind in IndexKind::ORDERED {
            let handle = IndexHandle::build(kind, &ks);
            let idx = handle.as_ordered().expect("ordered kind");
            for probe in (0..1700u32).step_by(3) {
                assert_eq!(
                    idx.lower_bound(probe),
                    reference.partition_point(|&k| k < probe),
                    "{kind:?} probe {probe}"
                );
            }
        }
    }

    #[test]
    fn is_ordered_matches_build_support() {
        for kind in IndexKind::ALL {
            assert_eq!(kind.is_ordered(), kind != IndexKind::Hash);
        }
    }

    #[test]
    fn handle_preserves_orderedness() {
        let ks = keys();
        for kind in IndexKind::ALL {
            let h = IndexHandle::build(kind, &ks);
            assert_eq!(h.as_ordered().is_some(), kind.is_ordered(), "{kind:?}");
            assert_eq!(h.as_search().search(7), Some(21), "{kind:?}");
            assert!(format!("{h:?}").starts_with("IndexHandle::"));
            if let Some(o) = h.as_ordered() {
                assert_eq!(o.equal_range(7), (21, 24), "{kind:?}");
            }
        }
    }

    #[test]
    fn preference_orders_cover_the_kinds() {
        // Every kind appears exactly once in the point preference; the
        // ordered preference is the same list minus Hash.
        let mut point = IndexKind::POINT_PREFERENCE.to_vec();
        point.sort();
        let mut all = IndexKind::ALL.to_vec();
        all.sort();
        assert_eq!(point, all);
        assert!(IndexKind::ORDERED_PREFERENCE.iter().all(|k| k.is_ordered()));
        assert_eq!(
            IndexKind::ORDERED_PREFERENCE.len(),
            IndexKind::ALL.len() - 1
        );
    }

    #[test]
    fn css_space_is_smallest_directory(/* §1's headline, at the DB layer */) {
        let ks = SortedArray::from_slice(&(0..200_000u32).collect::<Vec<_>>());
        let css = build_index(IndexKind::FullCss, &ks).space().indirect_bytes;
        let bplus = build_index(IndexKind::BPlusTree, &ks)
            .space()
            .indirect_bytes;
        let ttree = build_index(IndexKind::TTree, &ks).space().indirect_bytes;
        let hash = build_index(IndexKind::Hash, &ks).space().indirect_bytes;
        assert!(css > 0 && css < bplus && bplus < ttree && css < hash);
    }
}
