//! Sorted RID lists (§2.2).
//!
//! "A list of record identifiers sorted by some columns provides ordered
//! access to the base relation. Ordered access is useful for range queries
//! and for satisfying interesting orders. A sorted array is an index
//! structure itself since binary search can be used."
//!
//! A [`RidList`] is that structure: the RIDs of a column's rows ordered by
//! the column's value (i.e. by domain ID, ties broken by RID so results
//! are deterministic), together with the parallel array of domain IDs in
//! sorted order — the **sorted array `a`** every directory structure in
//! this workspace sits on.
//!
//! # Built by counting, not comparing
//!
//! A column's IDs are dense integers in `0..domain.len()`, so
//! [`RidList::for_column`] is a counting sort: a histogram of the IDs,
//! its prefix sums (each ID's first sorted position), then one scatter of
//! the rows into place. The scatter walks the rows in RID order and hands
//! each ID's positions out left to right, so rows with equal keys land in
//! ascending RID order — the sort is **stable** by construction, which is
//! exactly the `(id, rid)` order a comparison sort would produce. The
//! sorted key array needs no rows at all: it is the histogram's
//! run-length expansion.

use crate::column::Column;
use ccindex_common::SortedArray;
use std::sync::Arc;

/// RIDs sorted by attribute value, with the sorted key (domain-ID) array.
/// Cloning shares both arrays.
#[derive(Debug, Clone)]
pub struct RidList {
    keys: SortedArray<u32>,
    rids: Arc<[u32]>,
}

impl RidList {
    /// Sort the column's rows by value (stable: equal keys keep RID
    /// order, which is what makes "leftmost match + scan right" return
    /// RIDs in deterministic order) — a counting sort over the column's
    /// dense IDs, see the [module docs](self).
    pub fn for_column(column: &Column) -> Self {
        let ids = column.ids();
        // Histogram, then in place: run-length expansion into the keys
        // and prefix sums into each ID's next free sorted position.
        let mut next = vec![0u32; column.domain().len()];
        for &id in ids {
            next[id as usize] += 1;
        }
        let mut keys: Vec<u32> = Vec::with_capacity(ids.len());
        for (id, slot) in next.iter_mut().enumerate() {
            let start = keys.len();
            keys.resize(start + *slot as usize, id as u32);
            *slot = start as u32;
        }
        let mut rids = vec![0u32; ids.len()];
        for (&id, rid) in ids.iter().zip(0u32..) {
            let at = &mut next[id as usize];
            rids[*at as usize] = rid;
            *at += 1;
        }
        Self {
            keys: SortedArray::from_vec(keys),
            rids: rids.into(),
        }
    }

    /// Reassemble from parts (used by the batch-update path).
    pub fn from_parts(keys: SortedArray<u32>, rids: Vec<u32>) -> Self {
        assert_eq!(keys.len(), rids.len(), "keys and rids must be parallel");
        Self {
            keys,
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

    /// The sorted domain-ID array (shared, cache-line aligned) — the
    /// array indexes are built over.
    pub fn keys(&self) -> &SortedArray<u32> {
        &self.keys
    }

    /// RID at sorted position `pos`.
    pub fn rid(&self, pos: usize) -> u32 {
        self.rids[pos]
    }

    /// RIDs for the half-open sorted-position range `[start, end)`.
    pub fn rids_in(&self, start: usize, end: usize) -> &[u32] {
        &self.rids[start..end]
    }

    /// All RIDs in key order (ordered access to the base relation).
    pub fn rids(&self) -> &[u32] {
        &self.rids
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
        assert_eq!(rl.keys().as_slice(), &[0, 0, 0, 1, 2, 2]);
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
        assert_eq!(rl.rids_in(0, 3), &[1, 3, 5]);
        assert_eq!(rl.rids_in(3, 4), &[2]);
        assert_eq!(rl.rid(5), 4);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn from_parts_validates_lengths() {
        let keys = SortedArray::from_slice(&[1u32, 2]);
        let _ = RidList::from_parts(keys, vec![0]);
    }
}
