//! Sorted RID lists (§2.2), addressed by domain ID.
//!
//! "A list of record identifiers sorted by some columns provides ordered
//! access to the base relation. Ordered access is useful for range queries
//! and for satisfying interesting orders. A sorted array is an index
//! structure itself since binary search can be used."
//!
//! A [`RidList`] is that structure: the RIDs of a column's rows ordered by
//! the column's value (i.e. by domain ID, ties broken by RID so results
//! are deterministic). The domain's IDs are dense ranks `0..d` in value
//! order (§2.1), so the sorted key array the paper's indexes search is
//! never stored: ID `id`'s rows sit at `rids[offsets[id]..offsets[id + 1]]`,
//! and an inclusive ID interval `lo..=hi` is the one [`RidList::run`]
//! `rids[offsets[lo]..offsets[hi + 1]]`. Once §2.2's "searching on the
//! domain" has turned a value into an ID, the run is addressed, not
//! searched.
//!
//! # Built by counting, not comparing
//!
//! [`RidList::for_column`] is a counting sort: a histogram of the IDs,
//! its prefix sums (each ID's first sorted position — the `offsets`
//! kept), then one scatter of the rows into place. The scatter walks the
//! rows in RID order and hands each ID's positions out left to right, so
//! rows with equal keys land in ascending RID order — the sort is
//! **stable** by construction, which is exactly the `(id, rid)` order a
//! comparison sort would produce.
//!
//! # The implicit key array as an index
//!
//! The list implements `SearchIndex<u32>`/`OrderedIndex<u32>` over the
//! sorted ID array it no longer stores: `lower_bound(id)` is
//! `offsets[min(id, d)]`, so any caller written against the paper's index
//! traits (the baselines' agreement suite, a benchmark rung) reads the
//! same positions a built directory over the expanded keys would return.

use crate::column::Column;
use ccindex_common::{AccessTracer, IndexStats, OrderedIndex, SearchIndex, SpaceReport};
use std::sync::Arc;

/// RIDs sorted by attribute value, with each domain ID's first position.
/// Cloning shares both arrays.
#[derive(Debug, Clone)]
pub struct RidList {
    /// `d + 1` prefix sums: ID `id`'s run is `offsets[id]..offsets[id + 1]`.
    offsets: Arc<[u32]>,
    rids: Arc<[u32]>,
}

impl RidList {
    /// Sort the column's rows by value (stable: equal keys keep RID
    /// order) — a counting sort over the column's dense IDs, see the
    /// [module docs](self).
    pub fn for_column(column: &Column) -> Self {
        let ids = column.ids();
        let mut offsets = vec![0u32; column.domain().len() + 1];
        for &id in ids {
            offsets[id as usize + 1] += 1;
        }
        for id in 1..offsets.len() {
            offsets[id] += offsets[id - 1];
        }
        // Each ID's next free sorted position, handed out in RID order.
        let mut next = offsets[..offsets.len() - 1].to_vec();
        let mut rids = vec![0u32; ids.len()];
        for (&id, rid) in ids.iter().zip(0u32..) {
            let at = &mut next[id as usize];
            rids[*at as usize] = rid;
            *at += 1;
        }
        Self::from_parts(offsets, rids)
    }

    /// Reassemble from a column's prefix sums and sorted RIDs (the
    /// storage reader, after proving them).
    pub(crate) fn from_parts(offsets: Vec<u32>, rids: Vec<u32>) -> Self {
        assert_eq!(
            offsets.last().map(|&end| end as usize),
            Some(rids.len()),
            "offsets must end at the RID count"
        );
        Self {
            offsets: offsets.into(),
            rids: rids.into(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// Size of the domain the list is addressed by: `offsets.len() - 1`.
    pub(crate) fn domain_len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The RIDs whose domain IDs lie in `lo..=hi`, in `(id, rid)` order —
    /// ascending when `lo == hi`. Empty for IDs no row carries.
    pub fn run(&self, lo: u32, hi: u32) -> &[u32] {
        let start = self.offsets[lo as usize] as usize;
        let end = self.offsets[hi as usize + 1] as usize;
        &self.rids[start..end]
    }

    /// The sorted ID array the list addresses instead of storing: ID
    /// `id` repeated once per row that carries it (what the storage
    /// format's `RidKeys` page holds, and what a baseline index is built
    /// over).
    pub fn expanded_ids(&self) -> Vec<u32> {
        let mut keys = Vec::with_capacity(self.len());
        for (id, run) in (0u32..).zip(self.offsets.windows(2)) {
            keys.resize(run[1] as usize, id);
        }
        keys
    }

    /// All RIDs in key order (ordered access to the base relation).
    pub fn rids(&self) -> &[u32] {
        &self.rids
    }
}

impl SearchIndex<u32> for RidList {
    fn name(&self) -> &'static str {
        "RID run directory"
    }

    fn len(&self) -> usize {
        self.rids.len()
    }

    fn search(&self, id: u32) -> Option<usize> {
        let start = self.lower_bound(id);
        (start < self.lower_bound(id.saturating_add(1))).then_some(start)
    }

    fn search_traced(&self, id: u32, _tracer: &mut dyn AccessTracer) -> Option<usize> {
        self.search(id)
    }

    fn space(&self) -> SpaceReport {
        SpaceReport::same(self.offsets.len() * 4)
    }

    fn stats(&self) -> IndexStats {
        IndexStats::default()
    }
}

impl OrderedIndex<u32> for RidList {
    fn lower_bound(&self, id: u32) -> usize {
        self.offsets[(id as usize).min(self.domain_len())] as usize
    }

    fn lower_bound_traced(&self, id: u32, _tracer: &mut dyn AccessTracer) -> usize {
        self.lower_bound(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Value;

    fn column() -> Column {
        let vals: Vec<Value> = [30i64, 10, 20, 10, 30, 10]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        Column::from_values(&vals)
    }

    #[test]
    fn rids_are_value_ordered_with_stable_ties() {
        let rl = RidList::for_column(&column());
        // Value order: 10 (rids 1,3,5), 20 (rid 2), 30 (rids 0,4).
        assert_eq!(rl.rids(), &[1, 3, 5, 2, 0, 4]);
        assert_eq!(rl.expanded_ids(), &[0, 0, 0, 1, 2, 2]);
        assert_eq!(
            (rl.run(0, 0), rl.run(1, 2)),
            (&[1, 3, 5][..], &[2, 0, 4][..])
        );
    }

    #[test]
    fn ordered_access_reconstructs_sorted_values(/* §2.2 */) {
        let col = column();
        let rl = RidList::for_column(&col);
        let sorted: Vec<Value> = rl.rids().iter().map(|&r| col.value(r)).collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn range_slicing() {
        let rl = RidList::for_column(&column());
        assert_eq!(rl.run(0, 0), &[1, 3, 5]);
        assert_eq!(rl.run(1, 1), &[2]);
        assert_eq!(rl.run(0, 2)[5], 4);
    }

    #[test]
    #[should_panic(expected = "offsets must end at the RID count")]
    fn from_parts_validates_lengths() {
        let _ = RidList::from_parts(vec![0, 1, 2], vec![0]);
    }
}
