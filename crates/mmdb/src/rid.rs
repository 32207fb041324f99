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
//! # Built by radix clustering, then counting
//!
//! [`RidList::for_column`] is a counting sort: a histogram of the IDs,
//! its prefix sums (each ID's first sorted position — the `offsets`
//! kept), then one scatter of the rows into place. Done directly over a
//! large domain, both passes are one random read-modify-write per row
//! into arrays far larger than cache. So unless the direct sort's
//! cursors and the lines they write fit in cache, the rows are first
//! radix-clustered (Boncz, Manegold and Kersten, VLDB 1999): they are
//! counting-sorted by their IDs' high bits, as `(id, rid)` pairs, into
//! clusters of consecutive IDs — at most `FANOUT` (64) sequential write
//! streams. Each cluster is then counting-sorted on its own, and its
//! arrays — its slice of `offsets` and of the RIDs — stay in cache
//! while it is. A sort that fits in cache is the one-cluster case: no
//! partition pass, no scratch.
//!
//! The sort is **stable** by construction: each counting sort walks its
//! rows backwards, handing each key's positions out right to left, so
//! each cluster holds its pairs in RID order, and so does each ID's run:
//! exactly the `(id, rid)` order a comparison sort would produce, so the
//! arrays do not depend on the cluster boundaries.
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

/// The most bytes the direct counting sort may address at random for
/// [`RidList::for_column`] to run it as one cluster, with no partition
/// pass: its `d` cursors, and the cache line each writes into (16 RIDs,
/// but no more lines than the rows fill). Three quarters of a 2 MB L2:
/// below it the cursors and their lines stay in cache, and clustering
/// only adds a pass and its scratch's page faults. Measured on a Xeon
/// with 48 KB L1d and 2 MB L2 a core: 2M rows over 10k IDs sort in
/// ≈ 18 ms directly and ≈ 37 ms in clusters of 2k–8k IDs, over 50k IDs
/// in ≈ 37 and ≈ 24; `serve-small`'s one-off build (64k rows, 64k IDs)
/// read `setup_s` 2.3 ms directly and 3.0 clustered; 256k rows over
/// 20k IDs sort in ≈ 1.9 ms directly and ≈ 3.0 clustered, and over 240k
/// IDs in ≈ 5.4 and ≈ 4.9 (first call in a fresh process).
const ONE_CLUSTER_BYTES: usize = 3 << 19;

/// The most clusters one partition pass scatters to: the cluster width
/// is the power of two that keeps the count at most this. Each cluster
/// is one write stream, and the streams' pages must stay in the TLB. On
/// `refresh`'s 2M-row key (1.57M IDs, same host) the scatter takes
/// ≈ 7 ms into 48 clusters and ≈ 17 ms into 96; the whole build reads
/// ≈ 28 ms against ≈ 47–98 ms for the direct counting sort, and
/// `engine-mix`'s `cust` (100k IDs) ≈ 23–36 ms against ≈ 38–66 ms.
const FANOUT: usize = 64;

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
    /// order) — a counting sort over the column's dense IDs, radix-
    /// clustered first unless the direct sort runs in cache; see
    /// the [module docs](self). The one scratch array, 8 bytes a row for
    /// a clustered domain, is freed before the list is returned.
    pub fn for_column(column: &Column) -> Self {
        let ids = column.ids();
        let d = column.domain().len();
        // Both arrays are allocated once, in their final blocks.
        let mut offsets = zeroed(d + 1);
        let mut rids = zeroed(ids.len());
        let firsts = Arc::get_mut(&mut offsets).expect("a fresh array has one owner");
        let sorted = Arc::get_mut(&mut rids).expect("a fresh array has one owner");
        let rows = ids.iter().copied().zip(0..ids.len() as u32);
        if one_cluster(d, ids.len()) {
            counting_sort(rows, 0, &mut firsts[..d], sorted);
        } else {
            // The same sort on the IDs' high bits partitions `(id, rid)`
            // pairs into clusters of `1 << shift` IDs, at most `FANOUT`.
            let shift = d.div_ceil(FANOUT).next_power_of_two().trailing_zeros();
            let mut bounds = vec![0u32; ((d - 1) >> shift) + 2];
            let mut pairs = vec![0u64; ids.len()];
            let keyed = rows.map(|(id, rid)| (id >> shift, u64::from(id) << 32 | u64::from(rid)));
            let clusters = bounds.len() - 1;
            counting_sort(keyed, 0, &mut bounds[..clusters], &mut pairs);
            bounds[clusters] = ids.len() as u32;
            let slices = bounds.windows(2).zip(firsts[..d].chunks_mut(1 << shift));
            for (lo, (run, firsts)) in (0u32..).step_by(1 << shift).zip(slices) {
                let cluster = &pairs[run[0] as usize..run[1] as usize];
                let rows = cluster.iter().map(|&p| ((p >> 32) as u32 - lo, p as u32));
                counting_sort(rows, run[0], firsts, sorted);
            }
        }
        firsts[d] = ids.len() as u32;
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

/// Whether `n` rows over `d` IDs sort as one cluster: see
/// [`ONE_CLUSTER_BYTES`].
fn one_cluster(d: usize, n: usize) -> bool {
    4 * (d + n.min(16 * d)) <= ONE_CLUSTER_BYTES
}

/// Counting-sort `(key, item)` rows, given in RID order, into `sorted`
/// by key: each key's count goes to its slot of `firsts`, the prefix
/// sums from `base` (the first sorted position) turn each slot into its
/// key's end, and walking the rows backwards hands positions out right
/// to left, so each slot ends at its key's first position and equal
/// keys keep RID order.
fn counting_sort<T>(
    rows: impl DoubleEndedIterator<Item = (u32, T)> + Clone,
    base: u32,
    firsts: &mut [u32],
    sorted: &mut [T],
) {
    for (key, _) in rows.clone() {
        firsts[key as usize] += 1;
    }
    let mut end = base;
    for first in firsts.iter_mut() {
        end += *first;
        *first = end;
    }
    for (key, item) in rows.rev() {
        let at = &mut firsts[key as usize];
        *at -= 1;
        sorted[*at as usize] = item;
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

    /// What [`RidList::for_column`] must equal: the `(id, rid)` pairs
    /// sorted by comparison, read off as each ID's first position and
    /// the RIDs in order.
    fn oracle(ids: &[u32], d: usize) -> (Vec<u32>, Vec<u32>) {
        let mut pairs: Vec<(u32, u32)> = ids.iter().copied().zip(0u32..).collect();
        pairs.sort_unstable();
        let offsets = (0..=d as u32)
            .map(|id| pairs.partition_point(|&(i, _)| i < id) as u32)
            .collect();
        (offsets, pairs.into_iter().map(|(_, rid)| rid).collect())
    }

    /// Build over `ids` in a domain of `d` consecutive integers and
    /// compare with the oracle.
    fn assert_matches_oracle(d: usize, ids: Vec<u32>) {
        let domain = crate::domain::Domain::from_values((0..d as i64).map(Value::Int).collect());
        assert_column_matches_oracle(&Column::from_parts(domain, ids));
    }

    fn assert_column_matches_oracle(column: &Column) {
        let d = column.domain().len();
        let list = RidList::for_column(column);
        let (offsets, rids) = oracle(column.ids(), d);
        assert_eq!(&list.offsets[..], &offsets[..], "offsets, d = {d}");
        assert_eq!(list.rids(), &rids[..], "RIDs, d = {d}");
    }

    /// `rows` IDs below `d` from a xorshift stream.
    fn random_ids(rows: usize, d: usize) -> Vec<u32> {
        let mut x = 0x5eed_u64;
        (0..rows)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % d as u64) as u32
            })
            .collect()
    }

    /// The widest domain sorted as one cluster when each ID carries
    /// `per_id` rows.
    fn widest_one_cluster(per_id: usize) -> usize {
        (1..)
            .find(|&d| !one_cluster(d + 1, per_id * (d + 1)))
            .unwrap()
    }

    /// Either side of the one-cluster bound, and clustered domains whose
    /// last cluster is full, one ID short of full, and one ID wide.
    #[test]
    fn the_build_matches_a_comparison_sort_at_the_cluster_edges() {
        let edge = widest_one_cluster(16);
        assert!(one_cluster(edge, 16 * edge) && !one_cluster(edge + 1, 16 * (edge + 1)));
        for d in [edge - 1, edge, edge + 1] {
            assert_matches_oracle(d, random_ids(16 * d, d));
        }
        // 512-ID clusters, 64 of them.
        let full = 512 * FANOUT;
        for d in [full, full - 1, full + 1] {
            assert!(!one_cluster(d, 12 * d));
            assert_matches_oracle(d, random_ids(12 * d, d));
        }
    }

    /// The shapes a cluster's sort meets at its extremes.
    #[test]
    fn the_build_matches_a_comparison_sort_on_extreme_shapes() {
        // One row per ID, in a scrambled order.
        let d = widest_one_cluster(1) + 3;
        let mut once: Vec<u32> = (0..d as u32).collect();
        let mut x = 0x9e37_79b9_u64;
        for i in (1..once.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            once.swap(i, (x % (i as u64 + 1)) as usize);
        }
        assert!(!one_cluster(d, d));
        assert_matches_oracle(d, once);
        // A domain wide enough to be clustered under a few rows.
        let d = ONE_CLUSTER_BYTES / 4 + 5;
        assert!(!one_cluster(d, 0));
        // Every row on one ID: the first, one inside, the last.
        for id in [0, d as u32 / 3, d as u32 - 1] {
            assert_matches_oracle(d, vec![id; 5000]);
        }
        // Every row in the last, partial cluster; and rows on one
        // cluster's last ID.
        let width = d.div_ceil(FANOUT).next_power_of_two();
        let last = (d - 1) / width * width;
        let tail = random_ids(5000, d - last)
            .into_iter()
            .map(|i| i + last as u32);
        assert_matches_oracle(d, tail.collect());
        assert_matches_oracle(1000, vec![999; 100]);
        // No rows: an empty domain, and a clustered one no row carries.
        assert_matches_oracle(0, Vec::new());
        assert_matches_oracle(d, Vec::new());
        assert_column_matches_oracle(&Column::from_values(&[]));
    }

    /// A ranked domain: gapped integers, IDs their ranks, wide enough to
    /// be clustered.
    #[test]
    fn the_build_matches_a_comparison_sort_over_a_ranked_domain() {
        let rows = 1 << 18;
        let values: Vec<Value> = random_ids(rows, 2 * rows)
            .into_iter()
            .map(|v| Value::Int(i64::from(v) - 1000))
            .collect();
        let column = Column::from_values(&values);
        assert_eq!(column.domain().arm(), "ranked");
        assert!(!one_cluster(column.domain().len(), rows));
        assert_column_matches_oracle(&column);
    }

    /// Paper scale, for the release-mode CI step: `refresh`'s key (2M
    /// rows uniform in `[0, 4M)`, ranked, ≈ 1.57M IDs) and `engine-mix`'s
    /// `cust` (100k IDs) and `amount` (10k IDs, one cluster) shapes.
    #[test]
    #[ignore = "2M rows; run with `cargo test --release -p mmdb -- --ignored`"]
    fn the_build_matches_a_comparison_sort_at_two_million_rows() {
        const ROWS: usize = 2_000_000;
        let key: Vec<Value> = random_ids(ROWS, 2 * ROWS)
            .into_iter()
            .map(|v| Value::Int(i64::from(v)))
            .collect();
        let key = Column::from_values(&key);
        assert_eq!(key.domain().arm(), "ranked");
        assert_column_matches_oracle(&key);
        for d in [100_000, 10_000] {
            assert_matches_oracle(d, random_ids(ROWS, d));
        }
    }

    #[test]
    #[should_panic(expected = "offsets must end at the RID count")]
    fn from_parts_validates_lengths() {
        let _ = RidList::from_parts(vec![0, 1, 2].into(), vec![0].into());
    }
}
