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
//!    (an encoding, the range endpoints, or the join's outer→inner domain
//!    translation).
//!
//! That domain search is the only one. A domain ID is a dense rank, so
//! the rows it names are addressed in the column's sorted
//! [`RidList`] — [`RidList::run`] — not searched for a second time: the
//! index the paper's consumers "search" is the CSS-tree over the domain,
//! and the RID list behind it is an array indexed by what that search
//! returns.
//!
//! In the decision-support setting probes arrive by the hundred-thousand,
//! so every operator hands the domain whole probe batches at an explicit
//! interleave `lanes` count, and chunks its input across `threads`
//! workers of a [`WorkerPool`] (`1` runs inline, `0` is one worker per
//! core). Chunk outputs concatenate in input order, so the answer is the
//! same for every `lanes` and `threads`.

use crate::column::Column;
use crate::domain::Value;
use crate::rid::RidList;
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

/// One ascending RID set per probe value: a single batched domain
/// encoding, then each encoded value's run of `rid_list` (a value outside
/// the domain matches no rows).
pub fn point_select_many(
    column: &Column,
    rid_list: &RidList,
    values: &[Value],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    WorkerPool::new(threads).flat_map_chunks(values, |chunk| {
        column
            .domain()
            .encode_batch_lanes(chunk, lanes)
            .into_iter()
            .map(|id| id.map_or_else(Vec::new, |id| rid_list.run(id, id).to_vec()))
            .collect()
    })
}

/// One ascending RID set per inclusive value range; an inverted range,
/// or one that holds no domain value, matches nothing. The chunk's
/// endpoints resolve to ID intervals in one batched domain search, and
/// each interval is one run of `rid_list`. A run spanning several IDs is
/// ordered by `(id, rid)`, so it is sorted once copied out.
pub fn range_select_many(
    column: &Column,
    rid_list: &RidList,
    ranges: &[(Value, Value)],
    lanes: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    WorkerPool::new(threads).flat_map_chunks(ranges, |chunk| {
        let bounds: Vec<(&Value, &Value)> = chunk.iter().map(|(lo, hi)| (lo, hi)).collect();
        column
            .domain()
            .id_ranges(&bounds, lanes)
            .into_iter()
            .map(|interval| {
                let Some((lo, hi)) = interval else {
                    return Vec::new();
                };
                let mut rids = rid_list.run(lo, hi).to_vec();
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
/// inner side. `outer_rids` need not be sorted; the output follows its
/// order, and each outer row's inner matches come out ascending.
///
/// The outer *domain* (the distinct values the stream carries, not its
/// rows) is translated into inner-domain IDs with one batched dictionary
/// search up front; each outer row is then one run of the inner RID list
/// at its translated ID.
pub fn indexed_nested_loop_join(
    outer: &Column,
    outer_rids: &[u32],
    inner: &Column,
    inner_rids: &RidList,
    lanes: usize,
    threads: usize,
) -> Vec<JoinRow> {
    let translation = join_translation(outer, outer_rids, inner, lanes);
    WorkerPool::new(threads).flat_map_chunks(outer_rids, |chunk| {
        let mut out = Vec::new();
        for &outer_rid in chunk {
            // Outer values the inner domain does not contain join nothing.
            if let Some(inner_id) = translation[outer.id(outer_rid) as usize] {
                out.extend(
                    inner_rids
                        .run(inner_id, inner_id)
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
fn join_translation(
    outer: &Column,
    outer_rids: &[u32],
    inner: &Column,
    lanes: usize,
) -> Vec<Option<u32>> {
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
    for (&id, inner_id) in ids
        .iter()
        .zip(domain.translate(&ids, inner.domain(), lanes))
    {
        translation[id as usize] = inner_id;
    }
    translation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::index_choice::{IndexHandle, IndexKind};
    use crate::table::TableBuilder;
    use ccindex_common::SortedArray;

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
    fn join_all(outer: &Column, inner: &Column, inner_rids: &RidList) -> Vec<JoinRow> {
        indexed_nested_loop_join(outer, &every_rid(outer), inner, inner_rids, 8, 1)
    }

    #[test]
    fn point_select_returns_all_duplicates() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let got = point_select_many(col, &rl, &ints(&[10, 99]), 8, 1);
        assert_eq!(got, vec![vec![1, 3, 5], vec![]]);
    }

    #[test]
    fn range_select_inclusive_bounds() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        // A band, a band with no domain values, and the full range.
        let ranges = int_ranges(&[(15, 30), (31, 39), (0, 100)]);
        let got = range_select_many(col, &rl, &ranges, 8, 1);
        assert_eq!(got, vec![vec![0, 2, 4], vec![], vec![0, 1, 2, 3, 4, 5, 6]]);
    }

    #[test]
    fn point_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let probes = ints(&[10, 99, 30, 40, 10, -5]);
        for lanes in [1, 3, 8] {
            let many = point_select_many(col, &rl, &probes, lanes, 1);
            assert_eq!(many.len(), probes.len());
            for (value, got) in probes.iter().zip(&many) {
                let single = point_select_many(col, &rl, std::slice::from_ref(value), lanes, 1);
                assert_eq!(single, std::slice::from_ref(got), "lanes={lanes}");
            }
        }
        assert!(point_select_many(col, &rl, &[], 8, 1).is_empty());
    }

    #[test]
    fn ordered_point_selects_match_the_scan_path() {
        // The run directory must end each run exactly where every
        // ordered baseline over the expanded key array does, by its
        // `equal_range` (§3.6's leftmost match plus rightward scan).
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let keys = SortedArray::from_vec(rl.expanded_ids());
        let probes = ints(&[10, 99, 30, 40, 10, -5]);
        let many = point_select_many(col, &rl, &probes, 8, 1);
        for kind in IndexKind::ORDERED {
            let handle = IndexHandle::build(kind, &keys);
            let ordered = handle.as_ordered().expect("ordered kind");
            for (value, got) in probes.iter().zip(&many) {
                let want = col.domain().encode(value).map_or(&[][..], |id| {
                    let (start, end) = ordered.equal_range(id);
                    &rl.rids()[start..end]
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
        let full = join_all(ocol, ccol, &crids);
        // The subset stream {0, 3} must equal the full join filtered to
        // those outer rows.
        let subset = indexed_nested_loop_join(ocol, &[0, 3], ccol, &crids, 8, 1);
        let expected: Vec<JoinRow> = full
            .iter()
            .filter(|j| j.outer_rid == 0 || j.outer_rid == 3)
            .copied()
            .collect();
        assert_eq!(subset, expected);
        assert!(indexed_nested_loop_join(ocol, &[], ccol, &crids, 8, 1).is_empty());
    }

    #[test]
    fn range_select_many_matches_single_selects() {
        let (t, rl) = setup();
        let col = t.column("amount").unwrap();
        let ranges = int_ranges(&[(15, 30), (0, 100), (31, 39), (40, 40), (30, 15)]);
        for lanes in [1, 3, 8] {
            let many = range_select_many(col, &rl, &ranges, lanes, 1);
            for (range, got) in ranges.iter().zip(&many) {
                let single = range_select_many(col, &rl, std::slice::from_ref(range), lanes, 1);
                assert_eq!(single, std::slice::from_ref(got), "{range:?} lanes={lanes}");
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
        let points = |lanes, threads| point_select_many(col, &rl, &values, lanes, threads);
        let join =
            |lanes, threads| indexed_nested_loop_join(col, &all_outer, icol, &irl, lanes, threads);
        let bands = |lanes, threads| range_select_many(col, &rl, &ranges, lanes, threads);
        let (seq_points, seq_join, seq_bands) = (points(8, 1), join(8, 1), bands(8, 1));
        for threads in [0usize, 1, 2, 8] {
            for lanes in [1usize, 3, 8] {
                let at = format!("threads={threads} lanes={lanes}");
                assert_eq!(points(lanes, threads), seq_points, "{at}");
                assert_eq!(join(lanes, threads), seq_join, "{at}");
                assert_eq!(bands(lanes, threads), seq_bands, "{at}");
            }
        }
    }

    #[test]
    fn join_over_thousands_of_outer_rows_matches_values() {
        let n = 2_085;
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
        let joined = join_all(ot.column("k").unwrap(), icol, &irids);
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
        assert_eq!(
            join_all(ocol, ccol, &crids),
            brute_force_join(ocol, &every_rid(ocol), ccol)
        );
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
                for threads in [0usize, 1, 3] {
                    for lanes in [1, 4] {
                        assert_eq!(
                            indexed_nested_loop_join(
                                &outer,
                                &outer_rids,
                                &inner,
                                &inner_rids,
                                lanes,
                                threads
                            ),
                            want,
                            "len={len} threads={threads} lanes={lanes}"
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
        let joined = join_all(left.column("k").unwrap(), rcol, &rrids);
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

    #[test]
    fn domain_ids_no_row_carries_have_empty_runs() {
        // Domain 0..10 in steps of 10 where only 10, 40 and 90 occur.
        let domain = Domain::from_values((0..10).map(|i| Value::Int(i * 10)).collect());
        let col = Column::from_parts(domain, vec![4, 1, 9, 4, 1]);
        let rl = RidList::for_column(&col);
        assert_eq!(rl.domain_len(), 10);
        let got = point_select_many(&col, &rl, &ints(&[0, 10, 20, 40, 90, 95]), 3, 1);
        assert_eq!(
            got,
            vec![vec![], vec![1, 4], vec![], vec![0, 3], vec![2], vec![]]
        );
        let ranges = int_ranges(&[(0, 5), (0, 10), (15, 35), (20, 90), (i64::MIN, i64::MAX)]);
        let got = range_select_many(&col, &rl, &ranges, 3, 1);
        let every = vec![0, 1, 2, 3, 4];
        assert_eq!(got, vec![vec![], vec![1, 4], vec![], vec![0, 2, 3], every]);
    }
}
