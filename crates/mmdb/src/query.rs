//! Query operators: the paper's three index consumers (§2.2), batched,
//! one public form each.
//!
//! 1. "searching an index is still useful for answering single value
//!    selection queries and range queries" — [`point_select_many`] and
//!    [`range_select_many`];
//! 2. "cheaper random access makes indexed nested loop joins more
//!    affordable ... This approach requires a lot of searching through
//!    indexes on the inner relations" — [`indexed_nested_loop_join`];
//! 3. "transforming domain values to domain IDs requires searching on the
//!    domain" — every operator below starts with a batched domain search
//!    ([`encode_batch`](crate::domain::Domain::encode_batch),
//!    [`id_range`](crate::domain::Domain::id_range), or the join's
//!    outer→inner domain translation).
//!
//! In the decision-support setting probes arrive by the hundred-thousand,
//! so every operator hands the index whole probe batches at an explicit
//! interleave `lanes` count, and chunks its input across `threads`
//! workers of a [`WorkerPool`] (`1` runs inline, `0` is one worker per
//! core). Chunk outputs concatenate in input order, so the answer is the
//! same for every `lanes` and `threads`.
//!
//! Two run primitives over the sorted RID list sit under the operators:
//! * *point runs*, for every kind: one `search_batch_lanes` finds each
//!   ID's leftmost match, and the §3.6 "sequentially scan towards right"
//!   finds the end of its run. The run is copied out anyway, so the scan
//!   never costs more than the output;
//! * *interval runs*, for ordered kinds: one `lower_bound_batch_lanes`
//!   over every `[lo, hi + 1]` pair.

use crate::column::Column;
use crate::domain::Value;
use crate::index_choice::IndexHandle;
use crate::rid::RidList;
use ccindex_common::{OrderedIndex, SearchIndex};
use ccindex_parallel::WorkerPool;

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

/// The §3.6 duplicate primitive: given the leftmost match `first` of
/// `id`, scan rightward through the sorted key array for the end of its
/// run.
fn duplicate_run_end(keys: &[u32], first: usize, id: u32) -> usize {
    let mut end = first;
    while end < keys.len() && keys[end] == id {
        end += 1;
    }
    end
}

/// Point runs: the sorted-position run `[start, end)` of `rid_list` that
/// holds each ID of `ids` (`(0, 0)` for an ID no row has), from one
/// batched search plus the §3.6 rightward scan per hit.
fn point_runs<'a>(
    rid_list: &'a RidList,
    index: &dyn SearchIndex<u32>,
    ids: &'a [u32],
    lanes: usize,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let keys = rid_list.keys().as_slice();
    let hits = index.search_batch_lanes(ids, lanes);
    ids.iter().zip(hits).map(move |(&id, hit)| {
        hit.map_or((0, 0), |first| (first, duplicate_run_end(keys, first, id)))
    })
}

/// Interval runs: the sorted-position run `[start, end)` that holds the
/// IDs `lo..=hi` of each interval, from one batched lower bound over
/// every `[lo, hi + 1]` pair. `hi + 1` past `u32::MAX` lies past every
/// key, so such a run ends at the index's length.
fn interval_runs(
    index: &dyn OrderedIndex<u32>,
    intervals: &[(u32, u32)],
    lanes: usize,
) -> Vec<(usize, usize)> {
    let probes: Vec<u32> = intervals
        .iter()
        .flat_map(|&(lo, hi)| [lo, hi.saturating_add(1)])
        .collect();
    let bounds = index.lower_bound_batch_lanes(&probes, lanes);
    intervals
        .iter()
        .zip(bounds.chunks_exact(2))
        .map(|(&(_, hi), b)| (b[0], if hi == u32::MAX { index.len() } else { b[1] }))
        .collect()
}

/// The half-open sorted-position run `[start, end)` of `rid_list` that
/// holds the domain IDs `lo..=hi`, for one filter of a conjunction. An
/// ordered kind takes two key bounds ([`OrderedIndex::key_range`]): a
/// filter that does not drive the conjunction is only *located*, so it
/// must cost O(log n), not a scan of its run. The hash kind only ever
/// receives a point, `lo == hi`, and answers with its point run. The run
/// is `(id, rid)`-ordered, so a single ID's run is ascending by RID.
pub(crate) fn id_run(index: &IndexHandle, rid_list: &RidList, lo: u32, hi: u32) -> (usize, usize) {
    match index.as_ordered() {
        Some(idx) => idx.key_range(lo, hi),
        None => {
            debug_assert_eq!(lo, hi, "the hash kind answers points only");
            point_runs(rid_list, index.as_search(), &[lo], 1)
                .next()
                .expect("one run per ID")
        }
    }
}

/// One ascending RID set per probe value: a single batched domain
/// encoding, then one point run per value in the domain (a value outside
/// it matches no rows and is not probed). Any kind serves it.
pub fn point_select_many(
    column: &Column,
    rid_list: &RidList,
    index: &dyn SearchIndex<u32>,
    values: &[Value],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    WorkerPool::new(threads).flat_map_chunks(values, |chunk| {
        let ids = column.domain().encode_batch(chunk);
        let found: Vec<u32> = ids.iter().flatten().copied().collect();
        let mut runs = point_runs(rid_list, index, &found, lanes);
        ids.iter()
            .map(|id| {
                let (start, end) = id.and_then(|_| runs.next()).unwrap_or((0, 0));
                rid_list.rids_in(start, end).to_vec()
            })
            .collect()
    })
}

/// One ascending RID set per inclusive value range; an inverted range,
/// or one that holds no domain value, matches nothing. Each range's ID
/// interval is one interval run of a single batched lower bound, so an
/// ordered kind is required. A run spanning several IDs is ordered by
/// `(id, rid)`, so it is sorted once copied out.
pub fn range_select_many(
    column: &Column,
    rid_list: &RidList,
    index: &dyn OrderedIndex<u32>,
    ranges: &[(Value, Value)],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    WorkerPool::new(threads).flat_map_chunks(ranges, |chunk| {
        let intervals: Vec<Option<(u32, u32)>> = chunk
            .iter()
            .map(|(lo, hi)| column.domain().id_range(lo, hi))
            .collect();
        let found: Vec<(u32, u32)> = intervals.iter().flatten().copied().collect();
        let mut runs = interval_runs(index, &found, lanes).into_iter();
        intervals
            .iter()
            .map(|interval| {
                let Some((lo, hi)) = *interval else {
                    return Vec::new();
                };
                let (start, end) = runs.next().expect("one run per interval");
                let mut rids = rid_list.rids_in(start, end).to_vec();
                if lo != hi {
                    rids.sort_unstable();
                }
                rids
            })
            .collect()
    })
}

/// Indexed nested-loop join of the outer RID stream `outer_rids` against
/// `inner` — "pipelinable, requiring minimal storage for intermediate
/// results" (§2.2): the RID set of a filter streams straight into the
/// probe blocks. `outer_rids` need not be sorted; the output follows its
/// order, and each outer row's inner matches come out ascending.
///
/// Batch-shaped on both of the paper's search axes: the outer *domain*
/// (the distinct values the stream carries, not its rows) is translated
/// into inner-domain IDs with one batched dictionary search up front, and
/// outer rows then become point runs of the inner index
/// [`JOIN_PROBE_BLOCK`] probes at a time.
pub fn indexed_nested_loop_join(
    outer: &Column,
    outer_rids: &[u32],
    inner: &Column,
    inner_rids: &RidList,
    inner_index: &dyn SearchIndex<u32>,
    lanes: usize,
    threads: usize,
) -> Vec<JoinRow> {
    let translation = join_translation(outer, outer_rids, inner);
    WorkerPool::new(threads).flat_map_chunks(outer_rids, |chunk| {
        let mut out = Vec::new();
        let mut probe_ids: Vec<u32> = Vec::with_capacity(JOIN_PROBE_BLOCK);
        let mut probe_rids: Vec<u32> = Vec::with_capacity(JOIN_PROBE_BLOCK);
        for block in chunk.chunks(JOIN_PROBE_BLOCK) {
            probe_ids.clear();
            probe_rids.clear();
            for &outer_rid in block {
                // Outer values the inner domain does not contain join nothing.
                if let Some(inner_id) = translation[outer.id(outer_rid) as usize] {
                    probe_ids.push(inner_id);
                    probe_rids.push(outer_rid);
                }
            }
            let runs = point_runs(inner_rids, inner_index, &probe_ids, lanes);
            for (&outer_rid, (start, end)) in probe_rids.iter().zip(runs) {
                out.extend(
                    inner_rids
                        .rids_in(start, end)
                        .iter()
                        .map(|&inner_rid| JoinRow {
                            outer_rid,
                            inner_rid,
                        }),
                );
            }
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_choice::IndexKind;
    use crate::table::TableBuilder;

    fn setup() -> (crate::table::Table, RidList) {
        let t = TableBuilder::new("sales")
            .int_column("amount", [30, 10, 20, 10, 30, 10, 40])
            .build()
            .expect("one column");
        let rl = RidList::for_column(t.column("amount").unwrap());
        (t, rl)
    }

    fn ints(values: &[i64]) -> Vec<Value> {
        values.iter().map(|&v| Value::Int(v)).collect()
    }

    fn int_ranges(ranges: &[(i64, i64)]) -> Vec<(Value, Value)> {
        ranges
            .iter()
            .map(|&(a, b)| (Value::Int(a), Value::Int(b)))
            .collect()
    }

    /// Every row of `column`, in RID order: the whole-column outer stream.
    fn every_rid(column: &Column) -> Vec<u32> {
        (0..column.len() as u32).collect()
    }

    /// Join every outer row at the default lanes, inline.
    fn join_all(
        outer: &Column,
        inner: &Column,
        inner_rids: &RidList,
        index: &IndexHandle,
    ) -> Vec<JoinRow> {
        let all = every_rid(outer);
        indexed_nested_loop_join(outer, &all, inner, inner_rids, index.as_search(), 8, 1)
    }

    #[test]
    fn point_select_returns_all_duplicates() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        for kind in IndexKind::ALL {
            let idx = IndexHandle::build(kind, rl.keys());
            let got = point_select_many(col, &rl, idx.as_search(), &ints(&[10, 99]), 8, 1);
            assert_eq!(got, vec![vec![1, 3, 5], vec![]], "{kind:?}");
        }
    }

    #[test]
    fn range_select_inclusive_bounds() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        for kind in IndexKind::ORDERED {
            let handle = IndexHandle::build(kind, rl.keys());
            let idx = handle.as_ordered().expect("ordered kind");
            // A band, a band with no domain values, and the full range.
            let ranges = int_ranges(&[(15, 30), (31, 39), (0, 100)]);
            let got = range_select_many(col, &rl, idx, &ranges, 8, 1);
            assert_eq!(
                got,
                vec![vec![0, 2, 4], vec![], vec![0, 1, 2, 3, 4, 5, 6]],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn point_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let probes = ints(&[10, 99, 30, 40, 10, -5]);
        for kind in IndexKind::ALL {
            let idx = IndexHandle::build(kind, rl.keys());
            for lanes in [1, 3, 8] {
                let many = point_select_many(col, &rl, idx.as_search(), &probes, lanes, 1);
                assert_eq!(many.len(), probes.len());
                for (value, got) in probes.iter().zip(&many) {
                    let single = point_select_many(
                        col,
                        &rl,
                        idx.as_search(),
                        std::slice::from_ref(value),
                        lanes,
                        1,
                    );
                    assert_eq!(single, std::slice::from_ref(got), "{kind:?} lanes={lanes}");
                }
            }
            assert!(point_select_many(col, &rl, idx.as_search(), &[], 8, 1).is_empty());
        }
    }

    #[test]
    fn ordered_point_selects_match_the_scan_path() {
        // On ordered kinds the §3.6 scan must end each run exactly where
        // the directory's own `equal_range` does.
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let probes = ints(&[10, 99, 30, 40, 10, -5]);
        for kind in IndexKind::ORDERED {
            let handle = IndexHandle::build(kind, rl.keys());
            let ordered = handle.as_ordered().expect("ordered kind");
            let many = point_select_many(col, &rl, handle.as_search(), &probes, 8, 1);
            for (value, got) in probes.iter().zip(&many) {
                let want = col.domain().encode(value).map_or(&[][..], |id| {
                    let (start, end) = ordered.equal_range(id);
                    rl.rids_in(start, end)
                });
                assert_eq!(got, want, "{kind:?} {value}");
            }
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
            let idx = IndexHandle::build(kind, crids.keys());
            let full = join_all(ocol, ccol, &crids, &idx);
            // The subset stream {0, 3} must equal the full join filtered
            // to those outer rows.
            let subset =
                indexed_nested_loop_join(ocol, &[0, 3], ccol, &crids, idx.as_search(), 8, 1);
            let expected: Vec<JoinRow> = full
                .iter()
                .filter(|j| j.outer_rid == 0 || j.outer_rid == 3)
                .copied()
                .collect();
            assert_eq!(subset, expected, "{kind:?}");
            assert!(
                indexed_nested_loop_join(ocol, &[], ccol, &crids, idx.as_search(), 8, 1).is_empty()
            );
        }
    }

    #[test]
    fn range_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let ranges = int_ranges(&[(15, 30), (0, 100), (31, 39), (40, 40), (30, 15)]);
        for kind in IndexKind::ORDERED {
            let handle = IndexHandle::build(kind, rl.keys());
            let idx = handle.as_ordered().expect("ordered kind");
            for lanes in [1, 3, 8] {
                let many = range_select_many(col, &rl, idx, &ranges, lanes, 1);
                for (range, got) in ranges.iter().zip(&many) {
                    let single =
                        range_select_many(col, &rl, idx, std::slice::from_ref(range), lanes, 1);
                    assert_eq!(
                        single,
                        std::slice::from_ref(got),
                        "{kind:?} {range:?} lanes={lanes}"
                    );
                }
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
        let all_outer = every_rid(col);
        for kind in IndexKind::ALL {
            let idx = IndexHandle::build(kind, rl.keys());
            let inner_idx = IndexHandle::build(kind, irl.keys());
            let points = |lanes, threads| {
                point_select_many(col, &rl, idx.as_search(), &values, lanes, threads)
            };
            let join = |lanes, threads| {
                let search = inner_idx.as_search();
                indexed_nested_loop_join(col, &all_outer, icol, &irl, search, lanes, threads)
            };
            let bands = |lanes, threads| {
                idx.as_ordered()
                    .map(|o| range_select_many(col, &rl, o, &ranges, lanes, threads))
            };
            let (seq_points, seq_join, seq_bands) = (points(8, 1), join(8, 1), bands(8, 1));
            for threads in [0usize, 1, 2, 8] {
                for lanes in [1usize, 3, 8] {
                    let at = format!("{kind:?} threads={threads} lanes={lanes}");
                    assert_eq!(points(lanes, threads), seq_points, "{at}");
                    assert_eq!(join(lanes, threads), seq_join, "{at}");
                    assert_eq!(bands(lanes, threads), seq_bands, "{at}");
                }
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
        let idx = IndexHandle::build(IndexKind::FullCss, irids.keys());
        let joined = join_all(ot.column("k").unwrap(), icol, &irids, &idx);
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
            let idx = IndexHandle::build(kind, crids.keys());
            let joined = join_all(ocol, ccol, &crids, &idx);
            assert_eq!(
                joined,
                brute_force_join(ocol, &every_rid(ocol), ccol),
                "{kind:?}"
            );
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
                    let idx = IndexHandle::build(kind, inner_rids.keys());
                    for threads in [0usize, 1, 3] {
                        assert_eq!(
                            indexed_nested_loop_join(
                                &outer,
                                &outer_rids,
                                &inner,
                                &inner_rids,
                                idx.as_search(),
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
        let idx = IndexHandle::build(IndexKind::FullCss, rrids.keys());
        let joined = join_all(left.column("k").unwrap(), rcol, &rrids, &idx);
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
