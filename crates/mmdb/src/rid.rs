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

use crate::column::{zeroed, Column};
use ccindex_common::{prefetch, AccessTracer, IndexStats, OrderedIndex, SearchIndex, SpaceReport};
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
        // Both arrays are allocated once, in their final blocks.
        let mut offsets = zeroed(column.domain().len() + 1);
        let counts = Arc::get_mut(&mut offsets).expect("a fresh array has one owner");
        for &id in ids {
            counts[id as usize + 1] += 1;
        }
        for id in 1..counts.len() {
            counts[id] += counts[id - 1];
        }
        // Each ID's next free sorted position, handed out in RID order.
        let mut next = counts[..counts.len() - 1].to_vec();
        let mut rids = zeroed(ids.len());
        let sorted = Arc::get_mut(&mut rids).expect("a fresh array has one owner");
        for (&id, rid) in ids.iter().zip(0u32..) {
            let at = &mut next[id as usize];
            sorted[*at as usize] = rid;
            *at += 1;
        }
        Self::from_parts(offsets, rids)
    }

    /// Assemble from a column's prefix sums and sorted RIDs.
    pub(crate) fn from_parts(offsets: Arc<[u32]>, rids: Arc<[u32]>) -> Self {
        assert_eq!(
            offsets.last().map(|&end| end as usize),
            Some(rids.len()),
            "offsets must end at the RID count"
        );
        Self { offsets, rids }
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

    /// The run of each inclusive ID interval of a batch, in batch order
    /// (an empty run for `None`), resolved with `lanes` runs in flight.
    ///
    /// Resolving run `i` reads `offsets` at its interval and then `rids`
    /// at the offset found — two dependent misses per run on a list larger
    /// than cache. So while run `i` resolves, the `rids` line of run
    /// `i + lanes` (whose `offsets` line was asked for `lanes` runs ago)
    /// and the `offsets` line of run `i + 2·lanes` are prefetched: the same
    /// `lanes` the domain's descent keeps in flight, as a lookahead. The
    /// lookahead reads only through checked `get`s, so it stops at the
    /// batch's end and at the lists' ends whatever the batch holds.
    pub(crate) fn runs<'a>(
        &'a self,
        intervals: &'a [Option<(u32, u32)>],
        lanes: usize,
    ) -> impl Iterator<Item = &'a [u32]> + 'a {
        let lanes = lanes.max(1);
        let first_id = move |i: usize| match intervals.get(i) {
            Some(&Some((lo, _))) => Some(lo as usize),
            _ => None,
        };
        intervals.iter().enumerate().map(move |(i, interval)| {
            if let Some(offset) = first_id(i + 2 * lanes).and_then(|id| self.offsets.get(id)) {
                prefetch(offset);
            }
            if let Some(&start) = first_id(i + lanes).and_then(|id| self.offsets.get(id)) {
                prefetch(self.rids.as_ptr().wrapping_add(start as usize));
            }
            interval.map_or(&[][..], |(lo, hi)| self.run(lo, hi))
        })
    }

    /// The sorted ID array the list addresses instead of storing: ID
    /// `id` repeated once per row that carries it (what a baseline index
    /// is built over).
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

    /// [`RidList::runs`] reads ahead of the run it resolves; whatever the
    /// batch and the lane count, the answer is the plain runs, and the
    /// lookahead stays inside the batch and the lists: batches shorter
    /// than the lookahead, all misses, and intervals at the domain's last
    /// IDs, which no row carries (their offsets equal the RID count).
    #[test]
    fn runs_match_plain_runs_whatever_the_lookahead_reaches() {
        let domain = crate::domain::Domain::from_values((0..6).map(Value::Int).collect());
        let rl = RidList::for_column(&Column::from_parts(domain, vec![1, 0, 3, 1, 0]));
        assert_eq!(rl.run(4, 5), &[] as &[u32]);
        let batches: [&[Option<(u32, u32)>]; 6] = [
            &[],
            &[Some((1, 1))],
            &[None, None, None, None, None],
            &[Some((5, 5)), Some((4, 5)), Some((0, 5)), Some((3, 5))],
            &[
                Some((0, 0)),
                None,
                Some((3, 3)),
                None,
                Some((1, 4)),
                Some((5, 5)),
            ],
            &[
                None,
                Some((2, 2)),
                Some((0, 1)),
                Some((4, 4)),
                Some((1, 1)),
                None,
                Some((0, 5)),
            ],
        ];
        for batch in batches {
            let want: Vec<&[u32]> = batch
                .iter()
                .map(|interval| interval.map_or(&[][..], |(lo, hi)| rl.run(lo, hi)))
                .collect();
            for lanes in [0, 1, 2, 3, 8, 64] {
                let got: Vec<&[u32]> = rl.runs(batch, lanes).collect();
                assert_eq!(got, want, "{batch:?} lanes={lanes}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "offsets must end at the RID count")]
    fn from_parts_validates_lengths() {
        let _ = RidList::from_parts(vec![0, 1, 2].into(), vec![0].into());
    }
}
