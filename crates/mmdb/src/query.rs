//! Query operators: the paper's three index consumers (§2.2), batched.
//!
//! 1. "searching an index is still useful for answering single value
//!    selection queries and range queries" — [`point_select_many`] and
//!    [`range_select_many`] (with [`point_select`] / [`range_select`] as
//!    the batch-of-one conveniences, and
//!    [`point_select_ordered`] / [`point_select_many_ordered`] asking an
//!    ordered index for whole duplicate runs via `equal_range` instead of
//!    the §3.6 rightward scan, which only the hash path needs);
//! 2. "cheaper random access makes indexed nested loop joins more
//!    affordable ... This approach requires a lot of searching through
//!    indexes on the inner relations" — [`indexed_nested_loop_join`];
//! 3. "transforming domain values to domain IDs requires searching on the
//!    domain" — every operator below starts with a batched domain
//!    [`encode_batch`](crate::domain::Domain::encode_batch).
//!
//! In the decision-support setting probes arrive by the hundred-thousand,
//! so every operator hands the index whole probe batches
//! (`search_batch` / `lower_bound_batch`); batch-aware structures such as
//! the CSS-trees answer them with interleaved multi-lane descents instead
//! of one serialised lookup per probe.

use crate::column::Column;
use crate::domain::Value;
use crate::index_choice::IndexHandle;
use crate::rid::RidList;
use ccindex_common::{OrderedIndex, SearchIndex, DEFAULT_BATCH_LANES};

/// One output row of an indexed nested-loop join.
///
/// Orders lexicographically by `(outer_rid, inner_rid)` — exactly the
/// order a join over an ascending outer RID stream emits, which is what
/// lets a scatter-gather layer sort per-shard partial outputs back into
/// the sequential join's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinRow {
    /// RID in the outer relation.
    pub outer_rid: u32,
    /// RID in the inner relation.
    pub inner_rid: u32,
}

/// How many outer rows an [`indexed_nested_loop_join`] hands to the inner
/// index per `search_batch` call. Large enough to fill every interleave
/// lane many times over, small enough that the probe scratch stays
/// cache-resident.
pub const JOIN_PROBE_BLOCK: usize = 1024;

/// The §3.6 duplicate primitive for indexes that only answer point
/// lookups (the hash index): given the leftmost match `first`, scan
/// rightward through the sorted key array for the end of the run of
/// `id`. Ordered indexes do **not** come through here — they answer the
/// same question with [`OrderedIndex::equal_range`] (or its batched
/// `lower_bound_batch` form), so this is the single place the hand-rolled
/// scan lives.
fn duplicate_run_end(keys: &[u32], first: usize, id: u32) -> usize {
    let mut end = first;
    while end < keys.len() && keys[end] == id {
        end += 1;
    }
    end
}

/// The half-open sorted-position run `[start, end)` of `rid_list` that
/// holds the domain IDs `lo..=hi`, located through `index`: two lower
/// bounds on an ordered kind ([`OrderedIndex::key_range`]), or on the hash
/// kind — which only ever receives a point, `lo == hi` — one search plus
/// the §3.6 rightward duplicate scan. The run is `(id, rid)`-ordered, so a
/// single ID's run is ascending by RID.
pub(crate) fn id_run(index: &IndexHandle, rid_list: &RidList, lo: u32, hi: u32) -> (usize, usize) {
    match index {
        IndexHandle::Ordered(idx) => idx.key_range(lo, hi),
        IndexHandle::Point(idx) => {
            debug_assert_eq!(lo, hi, "the hash kind answers points only");
            let keys = rid_list.keys().as_slice();
            idx.search(lo)
                .map_or((0, 0), |first| (first, duplicate_run_end(keys, first, lo)))
        }
    }
}

/// All RIDs whose column value equals `value`, via one index search plus
/// the §3.6 rightward duplicate scan. Single-probe fast path — batches of
/// constants should go through [`point_select_many`] instead (it is
/// equivalence-tested against this function for every index kind). With
/// an ordered index in hand, prefer [`point_select_ordered`], which asks
/// the index for the whole duplicate run directly.
pub fn point_select(
    column: &Column,
    rid_list: &RidList,
    index: &dyn SearchIndex<u32>,
    value: &Value,
) -> Vec<u32> {
    let Some(id) = column.domain().encode(value) else {
        return Vec::new(); // value not in the domain: no rows
    };
    let Some(first) = index.search(id) else {
        return Vec::new();
    };
    let end = duplicate_run_end(rid_list.keys().as_slice(), first, id);
    rid_list.rids_in(first, end).to_vec()
}

/// All RIDs whose column value equals `value`, asking an ordered index
/// for the duplicate run via [`OrderedIndex::equal_range`] — no manual
/// scan over the key array (§3.6 "find the leftmost element ... and
/// sequentially scan towards right" is the *hash-index* fallback; ordered
/// directories locate both ends of the run by descent).
pub fn point_select_ordered(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    value: &Value,
) -> Vec<u32> {
    let Some(id) = column.domain().encode(value) else {
        return Vec::new();
    };
    let (start, end) = index.equal_range(id);
    rid_list.rids_in(start, end).to_vec()
}

/// One RID set per probe value through an ordered index: a single batched
/// domain encoding, then one `lower_bound_batch` holding **both** ends of
/// every probe's duplicate run (the batched form of
/// [`OrderedIndex::equal_range`]) — no per-hit rightward scan.
pub fn point_select_many_ordered(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    values: &[Value],
) -> Vec<Vec<u32>> {
    point_select_many_ordered_lanes(column, rid_list, index, values, DEFAULT_BATCH_LANES)
}

/// [`point_select_many_ordered`] with an explicit interleave lane count,
/// forwarded to the index through
/// [`OrderedIndex::lower_bound_batch_lanes`] (ignored by structures that
/// are not batch-aware).
pub fn point_select_many_ordered_lanes(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    values: &[Value],
    lanes: usize,
) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); values.len()];
    let ids = column.domain().encode_batch(values);
    // (slot, end-probe present?) per in-domain value; probes laid out
    // flat as [id0, id0+1, id1, id1+1, ...] minus unrepresentable ends.
    let mut pending: Vec<(usize, bool)> = Vec::new();
    let mut probes: Vec<u32> = Vec::new();
    for (slot, id) in ids.into_iter().enumerate() {
        let Some(id) = id else { continue };
        probes.push(id);
        match id.checked_add(1) {
            Some(next) => {
                probes.push(next);
                pending.push((slot, true));
            }
            None => pending.push((slot, false)),
        }
    }
    let bounds = index.lower_bound_batch_lanes(&probes, lanes);
    let mut at = 0usize;
    for (slot, has_end) in pending {
        let start = bounds[at];
        at += 1;
        let end = if has_end {
            at += 1;
            bounds[at - 1]
        } else {
            index.len()
        };
        out[slot] = rid_list.rids_in(start, end.max(start)).to_vec();
    }
    out
}

/// Partitioned [`point_select_many_ordered`]: the probe values are
/// chunked across `threads` workers (`0` = one per core), each chunk
/// running the batched ordered select at `lanes`; per-value RID sets come
/// back in value order, byte-identical to the sequential operator.
pub fn point_select_many_ordered_par(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    values: &[Value],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    ccindex_parallel::WorkerPool::new(threads).flat_map_chunks(values, |chunk| {
        point_select_many_ordered_lanes(column, rid_list, index, chunk, lanes)
    })
}

/// One RID set per probe value: a single batched domain encoding followed
/// by a single batched index probe, plus the §3.6 rightward duplicate
/// scan per hit.
pub fn point_select_many(
    column: &Column,
    rid_list: &RidList,
    index: &dyn SearchIndex<u32>,
    values: &[Value],
) -> Vec<Vec<u32>> {
    point_select_many_lanes(column, rid_list, index, values, DEFAULT_BATCH_LANES)
}

/// [`point_select_many`] with an explicit interleave lane count (see
/// [`SearchIndex::search_batch_lanes`]).
pub fn point_select_many_lanes(
    column: &Column,
    rid_list: &RidList,
    index: &dyn SearchIndex<u32>,
    values: &[Value],
    lanes: usize,
) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); values.len()];
    // Consumer #3, batched: constants -> domain IDs. Values outside the
    // domain match no rows and are not probed at all.
    let ids = column.domain().encode_batch(values);
    let mut probe_ids = Vec::with_capacity(values.len());
    let mut probe_slots = Vec::with_capacity(values.len());
    for (slot, id) in ids.into_iter().enumerate() {
        if let Some(id) = id {
            probe_ids.push(id);
            probe_slots.push(slot);
        }
    }
    let keys = rid_list.keys().as_slice();
    for ((&slot, &id), hit) in probe_slots
        .iter()
        .zip(&probe_ids)
        .zip(index.search_batch_lanes(&probe_ids, lanes))
    {
        if let Some(first) = hit {
            let end = duplicate_run_end(keys, first, id);
            out[slot] = rid_list.rids_in(first, end).to_vec();
        }
    }
    out
}

/// Partitioned [`point_select_many`]; see
/// [`point_select_many_ordered_par`] for the chunking contract.
pub fn point_select_many_par(
    column: &Column,
    rid_list: &RidList,
    index: &dyn SearchIndex<u32>,
    values: &[Value],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    ccindex_parallel::WorkerPool::new(threads).flat_map_chunks(values, |chunk| {
        point_select_many_lanes(column, rid_list, index, chunk, lanes)
    })
}

/// All RIDs whose column value lies in the inclusive range `[lo, hi]`.
/// Requires an ordered index (hash indexes cannot serve range queries).
///
/// Single-range fast path using the trait's [`OrderedIndex::key_range`]
/// (the source of truth for inclusive-range semantics); batches of
/// ranges should go through [`range_select_many`], which is
/// equivalence-tested against this function for every ordered kind.
pub fn range_select(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    lo: &Value,
    hi: &Value,
) -> Vec<u32> {
    let Some((lo_id, hi_id)) = column.domain().id_range(lo, hi) else {
        return Vec::new();
    };
    let (start, end) = index.key_range(lo_id, hi_id);
    rid_list.rids_in(start, end).to_vec()
}

/// One RID set per inclusive value range. Each range contributes its two
/// positional bounds to a single `lower_bound_batch` over the index, so a
/// batch-aware structure descends for all ranges' endpoints concurrently.
pub fn range_select_many(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    ranges: &[(Value, Value)],
) -> Vec<Vec<u32>> {
    range_select_many_lanes(column, rid_list, index, ranges, DEFAULT_BATCH_LANES)
}

/// [`range_select_many`] with an explicit interleave lane count (see
/// [`OrderedIndex::lower_bound_batch_lanes`]).
pub fn range_select_many_lanes(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    ranges: &[(Value, Value)],
    lanes: usize,
) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); ranges.len()];
    // (slot, end-probe present?) per non-empty ID range; probes laid out
    // flat as [lo0, end0, lo1, end1, ...] minus any absent end probes.
    let mut pending: Vec<(usize, bool)> = Vec::new();
    let mut probes: Vec<u32> = Vec::new();
    for (slot, (lo, hi)) in ranges.iter().enumerate() {
        let Some((lo_id, hi_id)) = column.domain().id_range(lo, hi) else {
            continue;
        };
        probes.push(lo_id);
        // `hi_id + 1` is the exclusive ID bound; if it is unrepresentable
        // every key from `lo_id` on matches and the end is `len`.
        match hi_id.checked_add(1) {
            Some(next) => {
                probes.push(next);
                pending.push((slot, true));
            }
            None => pending.push((slot, false)),
        }
    }
    let bounds = index.lower_bound_batch_lanes(&probes, lanes);
    let mut at = 0usize;
    for (slot, has_end) in pending {
        let start = bounds[at];
        at += 1;
        let end = if has_end {
            at += 1;
            bounds[at - 1]
        } else {
            index.len()
        };
        out[slot] = rid_list.rids_in(start, end.max(start)).to_vec();
    }
    out
}

/// Partitioned [`range_select_many`]; see
/// [`point_select_many_ordered_par`] for the chunking contract.
pub fn range_select_many_par(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    ranges: &[(Value, Value)],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    ccindex_parallel::WorkerPool::new(threads).flat_map_chunks(ranges, |chunk| {
        range_select_many_lanes(column, rid_list, index, chunk, lanes)
    })
}

/// Indexed nested-loop join — "pipelinable, requiring minimal storage for
/// intermediate results" (§2.2). Equal inner duplicates all match.
///
/// Batch-shaped on both of the paper's search axes: the outer *domain*
/// (the distinct values the RID stream carries, not its rows) is
/// translated into inner-domain IDs with one batched dictionary search
/// up front, and outer rows then
/// stream through the inner index [`JOIN_PROBE_BLOCK`] probes at a time
/// via `search_batch`, which batch-aware indexes answer with interleaved
/// descents.
pub fn indexed_nested_loop_join(
    outer: &Column,
    inner: &Column,
    inner_rids: &RidList,
    inner_index: &dyn SearchIndex<u32>,
) -> Vec<JoinRow> {
    let all: Vec<u32> = (0..outer.len() as u32).collect();
    indexed_nested_loop_join_rids(outer, &all, inner, inner_rids, inner_index)
}

/// [`indexed_nested_loop_join`] restricted to a subset of outer rows —
/// the shape a query plan produces when selections precede the join
/// ("pipelinable": the RID set from a filter streams straight into the
/// probe blocks). `outer_rids` need not be sorted; output order follows
/// it. Joining every outer row is exactly
/// `indexed_nested_loop_join(..)`, which delegates here.
pub fn indexed_nested_loop_join_rids(
    outer: &Column,
    outer_rids: &[u32],
    inner: &Column,
    inner_rids: &RidList,
    inner_index: &dyn SearchIndex<u32>,
) -> Vec<JoinRow> {
    let translation = join_translation(outer, outer_rids, inner);
    join_rids_translated(
        outer,
        outer_rids,
        inner_rids,
        inner_index,
        &translation,
        DEFAULT_BATCH_LANES,
    )
}

/// Partitioned [`indexed_nested_loop_join_rids`]: the outer RID stream is
/// chunked across `threads` workers (`0` = one per core) over one shared
/// outer→inner domain translation, each chunk streaming through the
/// inner index in [`JOIN_PROBE_BLOCK`]-probe blocks at `lanes` interleave
/// lanes. Chunk outputs concatenate in outer-stream order, so the result
/// is byte-identical to the sequential join.
pub fn indexed_nested_loop_join_rids_par(
    outer: &Column,
    outer_rids: &[u32],
    inner: &Column,
    inner_rids: &RidList,
    inner_index: &dyn SearchIndex<u32>,
    lanes: usize,
    threads: usize,
) -> Vec<JoinRow> {
    let translation = join_translation(outer, outer_rids, inner);
    ccindex_parallel::WorkerPool::new(threads).flat_map_chunks(outer_rids, |chunk| {
        join_rids_translated(outer, chunk, inner_rids, inner_index, &translation, lanes)
    })
}

/// Consumer #3, batched and hoisted: the outer→inner domain translation,
/// indexed by outer domain ID — one inner-domain lookup per *distinct*
/// outer value the RID stream carries instead of one per outer row. A
/// selection that precedes the join usually carries far fewer values than
/// the outer domain has, so the stream first marks its IDs in a
/// domain-sized flag table; the marked IDs come out ascending (no sort,
/// no dedup), go through one batched dictionary search
/// (`i64` → `i64` when both domains are typed), and scatter into
/// the translation (entries for IDs the stream never reads stay `None`).
/// O(rows + domain), with at most one search per domain value.
fn join_translation(outer: &Column, outer_rids: &[u32], inner: &Column) -> Vec<Option<u32>> {
    let domain = outer.domain();
    let mut carried = vec![false; domain.len()];
    for &rid in outer_rids {
        carried[outer.id(rid) as usize] = true;
    }
    let ids: Vec<u32> = (0u32..)
        .zip(&carried)
        .filter_map(|(id, &carried)| carried.then_some(id))
        .collect();
    let mut translation = vec![None; domain.len()];
    for (&id, inner_id) in ids.iter().zip(domain.translate(&ids, inner.domain())) {
        translation[id as usize] = inner_id;
    }
    translation
}

/// The blocked probe loop shared by the sequential and partitioned joins:
/// stream `outer_rids` through `inner_index` with the outer→inner domain
/// `translation` already in hand.
fn join_rids_translated(
    outer: &Column,
    outer_rids: &[u32],
    inner_rids: &RidList,
    inner_index: &dyn SearchIndex<u32>,
    translation: &[Option<u32>],
    lanes: usize,
) -> Vec<JoinRow> {
    let mut out = Vec::new();
    let inner_keys = inner_rids.keys().as_slice();
    let mut probe_ids: Vec<u32> = Vec::with_capacity(JOIN_PROBE_BLOCK);
    let mut probe_rids: Vec<u32> = Vec::with_capacity(JOIN_PROBE_BLOCK);
    for block in outer_rids.chunks(JOIN_PROBE_BLOCK) {
        probe_ids.clear();
        probe_rids.clear();
        for &outer_rid in block {
            // Outer values the inner domain does not contain join nothing.
            if let Some(inner_id) = translation[outer.id(outer_rid) as usize] {
                probe_ids.push(inner_id);
                probe_rids.push(outer_rid);
            }
        }
        for ((&outer_rid, &inner_id), hit) in probe_rids
            .iter()
            .zip(&probe_ids)
            .zip(inner_index.search_batch_lanes(&probe_ids, lanes))
        {
            if let Some(first) = hit {
                let end = duplicate_run_end(inner_keys, first, inner_id);
                for pos in first..end {
                    out.push(JoinRow {
                        outer_rid,
                        inner_rid: inner_rids.rid(pos),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_choice::{build_index, build_ordered_index, IndexKind};
    use crate::table::TableBuilder;

    fn setup() -> (crate::table::Table, RidList) {
        let t = TableBuilder::new("sales")
            .int_column("amount", [30, 10, 20, 10, 30, 10, 40])
            .build()
            .expect("one column");
        let rl = RidList::for_column(t.column("amount").unwrap());
        (t, rl)
    }

    #[test]
    fn point_select_returns_all_duplicates() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, rl.keys());
            let mut rids = point_select(col, &rl, idx.as_ref(), &Value::Int(10));
            rids.sort_unstable();
            assert_eq!(rids, vec![1, 3, 5], "{kind:?}");
            assert!(point_select(col, &rl, idx.as_ref(), &Value::Int(99)).is_empty());
        }
    }

    #[test]
    fn range_select_inclusive_bounds() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        for kind in IndexKind::ORDERED {
            let idx = build_ordered_index(kind, rl.keys());
            let mut rids = range_select(col, &rl, idx.as_ref(), &Value::Int(15), &Value::Int(30));
            rids.sort_unstable();
            assert_eq!(rids, vec![0, 2, 4], "{kind:?}");
            // Band with no domain values.
            assert!(
                range_select(col, &rl, idx.as_ref(), &Value::Int(31), &Value::Int(39)).is_empty()
            );
            // Full range.
            assert_eq!(
                range_select(col, &rl, idx.as_ref(), &Value::Int(0), &Value::Int(100)).len(),
                7
            );
        }
    }

    #[test]
    fn point_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let probes: Vec<Value> = [10i64, 99, 30, 40, 10, -5]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, rl.keys());
            let many = point_select_many(col, &rl, idx.as_ref(), &probes);
            assert_eq!(many.len(), probes.len());
            for (value, got) in probes.iter().zip(&many) {
                assert_eq!(
                    got,
                    &point_select(col, &rl, idx.as_ref(), value),
                    "{kind:?}"
                );
            }
            assert!(point_select_many(col, &rl, idx.as_ref(), &[]).is_empty());
        }
    }

    #[test]
    fn ordered_point_selects_match_the_scan_path() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let probes: Vec<Value> = [10i64, 99, 30, 40, 10, -5]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        for kind in IndexKind::ORDERED {
            let ordered = build_ordered_index(kind, rl.keys());
            let scan = build_index(kind, rl.keys());
            for value in &probes {
                assert_eq!(
                    point_select_ordered(col, &rl, ordered.as_ref(), value),
                    point_select(col, &rl, scan.as_ref(), value),
                    "{kind:?} {value}"
                );
            }
            let many = point_select_many_ordered(col, &rl, ordered.as_ref(), &probes);
            assert_eq!(
                many,
                point_select_many(col, &rl, scan.as_ref(), &probes),
                "{kind:?}"
            );
            assert!(point_select_many_ordered(col, &rl, ordered.as_ref(), &[]).is_empty());
        }
    }

    #[test]
    fn filtered_join_restricts_to_the_outer_subset() {
        let orders = TableBuilder::new("orders")
            .int_column("cust", [5, 1, 2, 5, 9])
            .build()
            .expect("one column");
        let customers = TableBuilder::new("customers")
            .int_column("id", [1, 2, 3, 5, 5])
            .build()
            .expect("one column");
        let ccol = customers.column("id").unwrap();
        let crids = RidList::for_column(ccol);
        let ocol = orders.column("cust").unwrap();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, crids.keys());
            let full = indexed_nested_loop_join(ocol, ccol, &crids, idx.as_ref());
            // The subset path with rids {0, 3} must equal the full join
            // filtered to those outer rows.
            let subset = indexed_nested_loop_join_rids(ocol, &[0, 3], ccol, &crids, idx.as_ref());
            let expected: Vec<JoinRow> = full
                .iter()
                .filter(|j| j.outer_rid == 0 || j.outer_rid == 3)
                .copied()
                .collect();
            assert_eq!(subset, expected, "{kind:?}");
            assert!(
                indexed_nested_loop_join_rids(ocol, &[], ccol, &crids, idx.as_ref()).is_empty()
            );
        }
    }

    #[test]
    fn range_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let ranges: Vec<(Value, Value)> = [(15i64, 30i64), (0, 100), (31, 39), (40, 40)]
            .iter()
            .map(|&(a, b)| (Value::Int(a), Value::Int(b)))
            .collect();
        for kind in IndexKind::ORDERED {
            let idx = build_ordered_index(kind, rl.keys());
            let many = range_select_many(col, &rl, idx.as_ref(), &ranges);
            for ((lo, hi), got) in ranges.iter().zip(&many) {
                assert_eq!(
                    got,
                    &range_select(col, &rl, idx.as_ref(), lo, hi),
                    "{kind:?} [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn partitioned_operators_match_sequential_for_every_kind() {
        let n = 4_000i64;
        let t = TableBuilder::new("sales")
            .int_column("amount", (0..n).map(|i| (i * 7) % 500))
            .build()
            .expect("one column");
        let col = t.column("amount").unwrap();
        let rl = RidList::for_column(col);
        let values: Vec<Value> = (0..600i64).map(|v| Value::Int(v - 50)).collect();
        let ranges: Vec<(Value, Value)> = (0..300i64)
            .map(|v| (Value::Int(v - 20), Value::Int(v + 35)))
            .collect();
        let inner = TableBuilder::new("codes")
            .int_column("amount", (0..200i64).flat_map(|v| [v, v]))
            .build()
            .expect("one column");
        let icol = inner.column("amount").unwrap();
        let irl = RidList::for_column(icol);
        let all_outer: Vec<u32> = (0..col.len() as u32).collect();
        for kind in IndexKind::ALL {
            let idx = build_index(kind, rl.keys());
            let seq_points = point_select_many(col, &rl, idx.as_ref(), &values);
            let inner_idx = build_index(kind, irl.keys());
            let seq_join =
                indexed_nested_loop_join_rids(col, &all_outer, icol, &irl, inner_idx.as_ref());
            for threads in [0usize, 1, 2, 8] {
                assert_eq!(
                    point_select_many_par(col, &rl, idx.as_ref(), &values, 8, threads),
                    seq_points,
                    "{kind:?} threads={threads}"
                );
                assert_eq!(
                    indexed_nested_loop_join_rids_par(
                        col,
                        &all_outer,
                        icol,
                        &irl,
                        inner_idx.as_ref(),
                        8,
                        threads
                    ),
                    seq_join,
                    "{kind:?} threads={threads}"
                );
            }
        }
        for kind in IndexKind::ORDERED {
            let idx = build_ordered_index(kind, rl.keys());
            let seq_points = point_select_many_ordered(col, &rl, idx.as_ref(), &values);
            let seq_ranges = range_select_many(col, &rl, idx.as_ref(), &ranges);
            for threads in [0usize, 1, 2, 8] {
                assert_eq!(
                    point_select_many_ordered_par(col, &rl, idx.as_ref(), &values, 8, threads),
                    seq_points,
                    "{kind:?} threads={threads}"
                );
                assert_eq!(
                    range_select_many_par(col, &rl, idx.as_ref(), &ranges, 8, threads),
                    seq_ranges,
                    "{kind:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn join_blocks_larger_than_probe_block() {
        // More outer rows than JOIN_PROBE_BLOCK so the blocked streaming
        // path takes more than one batch.
        let n = JOIN_PROBE_BLOCK * 2 + 37;
        let outer_vals: Vec<i64> = (0..n as i64).map(|i| i % 50).collect();
        let inner_vals: Vec<i64> = (0..40i64).collect(); // values 0..40
        let ot = TableBuilder::new("o")
            .int_column("k", outer_vals.clone())
            .build()
            .expect("one column");
        let it = TableBuilder::new("i")
            .int_column("k", inner_vals.clone())
            .build()
            .expect("one column");
        let icol = it.column("k").unwrap();
        let irids = RidList::for_column(icol);
        let idx = build_index(IndexKind::FullCss, irids.keys());
        let joined = indexed_nested_loop_join(ot.column("k").unwrap(), icol, &irids, idx.as_ref());
        // Outer values 0..40 match exactly one inner row each; 40..50 none.
        let expected = outer_vals.iter().filter(|&&v| v < 40).count();
        assert_eq!(joined.len(), expected);
        for j in &joined {
            assert_eq!(
                outer_vals[j.outer_rid as usize],
                inner_vals[j.inner_rid as usize]
            );
        }
    }

    #[test]
    fn join_matches_brute_force() {
        let orders = TableBuilder::new("orders")
            .int_column("cust", [5, 1, 2, 5, 9])
            .build()
            .expect("one column");
        let customers = TableBuilder::new("customers")
            .int_column("id", [1, 2, 3, 5, 5])
            .build()
            .expect("one column");
        let ccol = customers.column("id").unwrap();
        let crids = RidList::for_column(ccol);
        let ocol = orders.column("cust").unwrap();

        for kind in IndexKind::ALL {
            let idx = build_index(kind, crids.keys());
            let mut joined = indexed_nested_loop_join(ocol, ccol, &crids, idx.as_ref());
            joined.sort_by_key(|j| (j.outer_rid, j.inner_rid));

            // Brute force reference.
            let mut expected = Vec::new();
            for o in 0..ocol.len() as u32 {
                for i in 0..ccol.len() as u32 {
                    if ocol.value(o) == ccol.value(i) {
                        expected.push(JoinRow {
                            outer_rid: o,
                            inner_rid: i,
                        });
                    }
                }
            }
            expected.sort_by_key(|j| (j.outer_rid, j.inner_rid));
            assert_eq!(joined, expected, "{kind:?}");
        }
    }

    /// Brute-force join of the `outer_rids` stream, in stream order with
    /// inner matches ascending — the order the RID list yields equal keys.
    fn brute_force_join(outer: &Column, outer_rids: &[u32], inner: &Column) -> Vec<JoinRow> {
        let mut rows = Vec::new();
        for &outer_rid in outer_rids {
            for inner_rid in 0..inner.len() as u32 {
                if outer.value(outer_rid) == inner.value(inner_rid) {
                    rows.push(JoinRow {
                        outer_rid,
                        inner_rid,
                    });
                }
            }
        }
        rows
    }

    #[test]
    fn selection_sized_translation_matches_brute_force() {
        // 60 distinct outer values over 240 rows; the inner side holds
        // only every third value, some of them twice, plus values the
        // outer side never has.
        let int = |i: usize| Value::Int((i as i64 * 37) % 60);
        let text = |i: usize| Value::Str(format!("k{:02}", (i * 37) % 60));
        let inner_int =
            |i: usize| Value::Int([0, 3, 3, 9, 12, 12, 57, 99, -4][i % 9] + (i / 9) as i64 * 15);
        let inner_text =
            |i: usize| Value::Str(format!("k{:02}", [0, 3, 3, 9, 12, 12, 57, 99, 71][i % 9]));
        for (outer_vals, inner_vals) in [
            (
                (0..240).map(int).collect::<Vec<_>>(),
                (0..36).map(inner_int).collect::<Vec<_>>(),
            ),
            (
                (0..240).map(text).collect::<Vec<_>>(),
                (0..18).map(inner_text).collect::<Vec<_>>(),
            ),
            // A typed outer domain against a mixed inner one, and back.
            (
                (0..240).map(int).collect::<Vec<_>>(),
                (0..36)
                    .map(inner_int)
                    .chain((0..18).map(inner_text))
                    .collect::<Vec<_>>(),
            ),
            (
                (0..240)
                    .map(|i| if i % 2 == 0 { int(i) } else { text(i) })
                    .collect::<Vec<_>>(),
                (0..36).map(inner_int).collect::<Vec<_>>(),
            ),
        ] {
            let outer = Column::from_values(&outer_vals);
            let inner = Column::from_values(&inner_vals);
            let inner_rids = RidList::for_column(&inner);
            let domain = outer.domain().len();
            assert_eq!(domain, 60);
            // Unsorted, with repeats; from no row to every row, with
            // lengths on both sides of the domain size.
            let stream = |len: usize| -> Vec<u32> {
                (0..len).map(|i| ((i * 101 + 7) % 240) as u32).collect()
            };
            for len in [0, 1, 5, domain - 1, domain, domain + 1, 240] {
                let outer_rids = stream(len);
                let want = brute_force_join(&outer, &outer_rids, &inner);
                for kind in IndexKind::ALL {
                    let idx = build_index(kind, inner_rids.keys());
                    assert_eq!(
                        indexed_nested_loop_join_rids(
                            &outer,
                            &outer_rids,
                            &inner,
                            &inner_rids,
                            idx.as_ref()
                        ),
                        want,
                        "{kind:?} len={len}"
                    );
                    for threads in [0usize, 1, 3] {
                        assert_eq!(
                            indexed_nested_loop_join_rids_par(
                                &outer,
                                &outer_rids,
                                &inner,
                                &inner_rids,
                                idx.as_ref(),
                                4,
                                threads
                            ),
                            want,
                            "{kind:?} len={len} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn join_with_string_keys_via_domains() {
        let left = TableBuilder::new("l")
            .str_column("k", ["b", "a", "z"])
            .build()
            .expect("one column");
        let right = TableBuilder::new("r")
            .str_column("k", ["a", "b", "b"])
            .build()
            .expect("one column");
        let rcol = right.column("k").unwrap();
        let rrids = RidList::for_column(rcol);
        let idx = build_index(IndexKind::FullCss, rrids.keys());
        let joined =
            indexed_nested_loop_join(left.column("k").unwrap(), rcol, &rrids, idx.as_ref());
        // "b" matches rids 1,2; "a" matches rid 0; "z" matches nothing.
        assert_eq!(joined.len(), 3);
        assert!(joined.contains(&JoinRow {
            outer_rid: 1,
            inner_rid: 0
        }));
        assert!(joined.contains(&JoinRow {
            outer_rid: 0,
            inner_rid: 1
        }));
        assert!(joined.contains(&JoinRow {
            outer_rid: 0,
            inner_rid: 2
        }));
    }
}
