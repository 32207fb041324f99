//! The catalog's declared access paths: the paper method an index on a
//! column names, and the view a query probes it through.
//!
//! The catalog builds none of the paper's methods; `bench::methods` is
//! their one constructor, for `figures` and the agreement suites. A
//! column's domain IDs are dense ranks, so its sorted [`RidList`] answers
//! every probe by addressing the run an ID names. An [`IndexKind`]
//! created on a column is a declaration: it makes the column indexed,
//! and says whether ranges may probe it (any kind but hash). The planner
//! checks declarations and chooses nothing, since every kind answers
//! through the same RID list; [`AccessPath`] is that list behind the
//! index traits.

use ccindex_common::{OrderedIndex, SearchIndex};

use crate::rid::RidList;

/// The paper's index methods, as a column's index declares them.
///
/// A declared kind is not a structure the catalog builds or a path the
/// planner picks: every kind on a column answers through its one RID
/// list. It decides only whether the column is indexed and whether a
/// range may probe it ([`IndexKind::is_ordered`]). `Ord` follows
/// declaration order and exists so catalogs can key maps by kind
/// deterministically; it is not a quality ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexKind {
    /// Binary search on the sorted RID list — zero extra space.
    BinarySearch,
    /// Interpolation search — for near-linear key distributions only.
    InterpolationSearch,
    /// Pointer-based balanced BST.
    BinaryTree,
    /// T-tree.
    TTree,
    /// B+-tree.
    BPlusTree,
    /// Full CSS-tree — the paper's recommendation.
    FullCss,
    /// Level CSS-tree.
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

#[cfg(test)]
mod tests {
    use super::*;
    use bench::methods::{all_methods, build_ttree, MethodInstance};
    use ccindex_common::SortedArray;

    fn keys() -> SortedArray<u32> {
        SortedArray::from_slice(&(0..5000u32).map(|i| i / 3).collect::<Vec<_>>())
    }

    /// Every kind beside the method it names, as `bench` builds the
    /// eight at 16 integers per node.
    fn methods(keys: &SortedArray<u32>) -> impl Iterator<Item = (IndexKind, MethodInstance)> {
        use IndexKind::*;
        let kinds = [
            BinarySearch,
            BinaryTree,
            InterpolationSearch,
            TTree,
            BPlusTree,
            FullCss,
            LevelCss,
            Hash,
        ];
        kinds.into_iter().zip(all_methods(keys, 16))
    }

    #[test]
    fn every_kind_agrees_on_search() {
        let ks = keys();
        let reference = ks.as_slice().to_vec();
        for (kind, method) in methods(&ks) {
            let idx = method.as_search();
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
        for (kind, method) in methods(&ks).filter(|(kind, _)| kind.is_ordered()) {
            let idx = method.as_ordered().expect("ordered kind");
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
        for (kind, method) in methods(&keys()) {
            assert_eq!(kind.is_ordered(), kind != IndexKind::Hash);
            assert_eq!(kind.is_ordered(), method.as_ordered().is_some(), "{kind:?}");
        }
    }

    #[test]
    fn handle_preserves_orderedness() {
        for (kind, method) in methods(&keys()) {
            assert_eq!(method.as_search().search(7), Some(21), "{kind:?}");
            if let Some(o) = method.as_ordered() {
                assert_eq!(o.equal_range(7), (21, 24), "{kind:?}");
            }
        }
    }

    #[test]
    fn preference_orders_cover_the_kinds() {
        // `ORDERED` is `ALL` without Hash, in declaration order.
        let unordered: Vec<IndexKind> = IndexKind::ALL
            .into_iter()
            .filter(|k| !k.is_ordered())
            .collect();
        assert_eq!(unordered, [IndexKind::Hash]);
        let ordered: Vec<IndexKind> = IndexKind::ALL
            .into_iter()
            .filter(IndexKind::is_ordered)
            .collect();
        assert_eq!(ordered, IndexKind::ORDERED);
    }

    #[test]
    fn css_space_is_smallest_directory(/* §1's headline, at the DB layer */) {
        let ks = SortedArray::from_slice(&(0..200_000u32).collect::<Vec<_>>());
        let space: Vec<_> = methods(&ks)
            .map(|(kind, method)| (kind, method.as_search().space().indirect_bytes))
            .collect();
        let of = |kind| space.iter().find(|&&(k, _)| k == kind).expect("built").1;
        let (css, bplus, hash) = (
            of(IndexKind::FullCss),
            of(IndexKind::BPlusTree),
            of(IndexKind::Hash),
        );
        // 8 entries: 76-byte T-tree nodes, the nearest to one line.
        let ttree = build_ttree(&ks, 8).as_search().space().indirect_bytes;
        assert!(css > 0 && css < bplus && bplus < ttree && css < hash);
    }
}
