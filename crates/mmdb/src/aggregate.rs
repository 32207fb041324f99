//! Grouped aggregation.
//!
//! OLAP queries (§1, §2.2) aggregate after selecting and joining. A RID
//! list sorted on the group-by column already clusters each group into a
//! contiguous run of equal domain IDs, so [`group_aggregate`] over a whole
//! column is a single linear pass — no hash table, and the per-group
//! ranges are exactly the `equal_range`s an ordered index reports. Rows a
//! plan has filtered or joined arrive in no group order; they go through
//! the one partitioned operator, [`group_aggregate_pairs`].

use crate::column::Column;
use crate::domain::{DomainView, Value};
use crate::rid::RidList;
use std::collections::BTreeMap;

/// Supported aggregate functions over an `Int` measure column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count per group.
    Count,
    /// Sum of the measure.
    Sum,
    /// Minimum of the measure.
    Min,
    /// Maximum of the measure.
    Max,
}

impl AggFn {
    /// Fold one value into an accumulator, or merge two partial
    /// aggregates (`Count` partials merge by addition like `Sum`).
    pub fn combine(self, acc: i64, v: i64) -> i64 {
        match self {
            AggFn::Count | AggFn::Sum => acc + v,
            AggFn::Min => acc.min(v),
            AggFn::Max => acc.max(v),
        }
    }
}

/// One output group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// The group's (decoded) key value.
    pub group: Value,
    /// The aggregate result (`Count` is reported as `Int`).
    pub value: i64,
}

/// A measure column resolved once per aggregation into its in-place IDs
/// and its domain's typed array, so the per-row read is two slice loads
/// and cannot meet a non-integer value.
#[derive(Clone, Copy)]
struct Measure<'a> {
    ids: &'a [u32],
    ints: &'a [i64],
}

impl<'a> Measure<'a> {
    /// `None` for `Count` (which reads no measure); otherwise the measure
    /// column, which callers have checked is integer-valued
    /// ([`Domain::is_int`](crate::domain::Domain::is_int) — the planner's
    /// `NonIntegerMeasure` check).
    fn resolve(measure: Option<&'a Column>, agg: AggFn) -> Option<Self> {
        if agg == AggFn::Count {
            return None;
        }
        let column = measure.expect("aggregate other than Count needs a measure column");
        let DomainView::Int(ints) = column.domain().view() else {
            panic!("aggregate other than Count needs an integer-valued measure column");
        };
        Some(Self {
            ids: column.ids(),
            ints,
        })
    }

    fn at(self, rid: u32) -> i64 {
        self.ints[self.ids[rid as usize] as usize]
    }
}

/// Grouped aggregation over `rows` `(group_rid, measure_rid)` pairs,
/// `pair(i)` being the `i`-th — the operator a query plan runs when
/// grouping *filtered* selections, join output or a whole table, where
/// rows no longer arrive clustered by group. Reading each pair out of its
/// row source (a RID list, join rows, or the position itself) means no
/// intermediate pair vector is materialised.
///
/// The pairs are partitioned into one contiguous range per worker of
/// `threads` (`1` runs inline, `0` is one per core). Each worker folds its
/// range into a partial accumulator keyed by domain ID in an ordered map,
/// and the partials merge at the join barrier. Every [`AggFn`] is
/// commutative and associative, so the result — group order included,
/// which is group-value order as in [`group_aggregate`] — is the same for
/// every thread count. The group keys are decoded in one
/// [`decode_batch`](crate::domain::Domain::decode_batch) at the end.
///
/// The two RIDs of a pair may address different relations (group column
/// from one join side, measure from the other); for plain selections pass
/// each RID twice. `measure` may be `None` for `Count`. Callers must have
/// checked that the measure column is integer-valued for Sum/Min/Max.
pub fn group_aggregate_pairs<F>(
    group_col: &Column,
    measure: Option<&Column>,
    rows: usize,
    pair: F,
    agg: AggFn,
    threads: usize,
) -> Vec<GroupRow>
where
    F: Fn(usize) -> (u32, u32) + Sync,
{
    let measure = Measure::resolve(measure, agg);
    let pool = ccindex_parallel::WorkerPool::new(threads);
    let ranges = ccindex_parallel::partition(rows, pool.threads());
    let partials = pool.run(ranges.len(), |i| {
        let mut acc = BTreeMap::new();
        let pairs = ranges[i].clone().map(&pair);
        accumulate_pairs(&mut acc, group_col, measure, pairs, agg);
        acc
    });
    decode_accumulator(group_col, merge_partials(agg, partials))
}

/// Merge per-worker partial accumulators at the join barrier, starting
/// from the first: a single worker's partial is the answer as it stands.
fn merge_partials(agg: AggFn, partials: Vec<BTreeMap<u32, i64>>) -> BTreeMap<u32, i64> {
    let mut partials = partials.into_iter();
    let mut merged = partials.next().unwrap_or_default();
    for partial in partials {
        for (id, v) in partial {
            merged
                .entry(id)
                .and_modify(|a| *a = agg.combine(*a, v))
                .or_insert(v);
        }
    }
    merged
}

/// One worker's accumulation loop (`measure` is `None` exactly for
/// `Count`, see [`Measure::resolve`]).
fn accumulate_pairs(
    acc: &mut BTreeMap<u32, i64>,
    group_col: &Column,
    measure: Option<Measure<'_>>,
    pairs: impl IntoIterator<Item = (u32, u32)>,
    agg: AggFn,
) {
    for (group_rid, measure_rid) in pairs {
        let id = group_col.id(group_rid);
        match measure {
            None => *acc.entry(id).or_insert(0) += 1,
            Some(measure) => {
                let v = measure.at(measure_rid);
                acc.entry(id)
                    .and_modify(|a| *a = agg.combine(*a, v))
                    .or_insert(v);
            }
        }
    }
}

/// Decode the accumulator's domain IDs in one batch and emit the rows in
/// group-value order (the map's iteration order).
fn decode_accumulator(group_col: &Column, acc: BTreeMap<u32, i64>) -> Vec<GroupRow> {
    let ids: Vec<u32> = acc.keys().copied().collect();
    let groups = group_col.domain().decode_batch(&ids);
    groups
        .into_iter()
        .zip(acc.into_values())
        .map(|(group, value)| GroupRow { group, value })
        .collect()
}

/// `SELECT group, agg(measure) FROM t GROUP BY group` where `rids` is the
/// RID list sorted on the group column. `measure` may be `None` for
/// `Count`. Results come out in group-value order (the "interesting
/// order" §2.2 mentions comes for free from the sorted RID list).
pub fn group_aggregate(
    group_col: &Column,
    rids: &RidList,
    measure: Option<&Column>,
    agg: AggFn,
) -> Vec<GroupRow> {
    let measure = Measure::resolve(measure, agg);
    if let Some(m) = measure {
        assert_eq!(m.ids.len(), group_col.len(), "measure length mismatch");
    }
    let keys = rids.keys().as_slice();
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < keys.len() {
        let id = keys[start];
        let mut end = start + 1;
        while end < keys.len() && keys[end] == id {
            end += 1;
        }
        let value = match measure {
            None => (end - start) as i64,
            Some(m) => rids
                .rids_in(start, end)
                .iter()
                .map(|&rid| m.at(rid))
                .reduce(|a, v| agg.combine(a, v))
                .expect("non-empty group"),
        };
        out.push(GroupRow {
            group: group_col.domain().decode(id),
            value,
        });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn setup() -> (crate::table::Table, RidList) {
        let t = TableBuilder::new("sales")
            .str_column("region", ["e", "w", "e", "n", "w", "e"])
            .int_column("amount", [10, 20, 30, 40, 50, 60])
            .build()
            .expect("equal-length columns");
        let rl = RidList::for_column(t.column("region").unwrap());
        (t, rl)
    }

    /// [`group_aggregate_pairs`] over a pair slice.
    fn over(
        group_col: &Column,
        measure: Option<&Column>,
        pairs: &[(u32, u32)],
        agg: AggFn,
        threads: usize,
    ) -> Vec<GroupRow> {
        group_aggregate_pairs(group_col, measure, pairs.len(), |i| pairs[i], agg, threads)
    }

    #[test]
    fn count_per_group() {
        let (t, rl) = setup();
        let rows = group_aggregate(t.column("region").unwrap(), &rl, None, AggFn::Count);
        assert_eq!(
            rows,
            vec![
                GroupRow {
                    group: "e".into(),
                    value: 3
                },
                GroupRow {
                    group: "n".into(),
                    value: 1
                },
                GroupRow {
                    group: "w".into(),
                    value: 2
                },
            ]
        );
    }

    #[test]
    fn sum_min_max_per_group() {
        let (t, rl) = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let sums = group_aggregate(region, &rl, Some(amount), AggFn::Sum);
        assert_eq!(
            sums[0],
            GroupRow {
                group: "e".into(),
                value: 100
            }
        ); // 10+30+60
        assert_eq!(
            sums[2],
            GroupRow {
                group: "w".into(),
                value: 70
            }
        ); // 20+50
        let mins = group_aggregate(region, &rl, Some(amount), AggFn::Min);
        assert_eq!(mins[0].value, 10);
        let maxs = group_aggregate(region, &rl, Some(amount), AggFn::Max);
        assert_eq!(maxs[0].value, 60);
    }

    #[test]
    fn groups_come_out_in_value_order() {
        let (t, rl) = setup();
        let rows = group_aggregate(t.column("region").unwrap(), &rl, None, AggFn::Count);
        let order: Vec<String> = rows.iter().map(|r| r.group.to_string()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn pairs_match_sorted_rid_list_on_whole_tables() {
        let (t, rl) = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let all: Vec<(u32, u32)> = (0..region.len() as u32).map(|r| (r, r)).collect();
        for agg in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max] {
            let measure = (agg != AggFn::Count).then_some(amount);
            assert_eq!(
                over(region, measure, &all, agg, 1),
                group_aggregate(region, &rl, measure, agg),
                "{agg:?}"
            );
        }
    }

    #[test]
    fn pairs_handle_filtered_subsets_and_cross_relation_measures() {
        let (t, _) = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        // Only rows 0, 2, 4: regions e, e, w with amounts 10, 30, 50.
        let pairs = [(0u32, 0u32), (2, 2), (4, 4)];
        let sums = over(region, Some(amount), &pairs, AggFn::Sum, 1);
        assert_eq!(
            sums,
            vec![
                GroupRow {
                    group: "e".into(),
                    value: 40
                },
                GroupRow {
                    group: "w".into(),
                    value: 50
                },
            ]
        );
        // Measure RID differing from group RID (the join shape): group by
        // row 0's region but measure row 5's amount.
        let cross = over(region, Some(amount), &[(0, 5)], AggFn::Max, 1);
        assert_eq!(cross[0].value, 60);
        assert!(over(region, None, &[], AggFn::Count, 1).is_empty());
    }

    #[test]
    fn parallel_pairs_match_sequential_for_every_aggregate() {
        // Enough rows that the chunking is non-trivial at 8 workers.
        let n = 5_000u32;
        let t = TableBuilder::new("sales")
            .str_column(
                "region",
                (0..n).map(|i| ["e", "w", "n", "s"][i as usize % 4]),
            )
            .int_column("amount", (0..n).map(|i| (i as i64 * 37) % 1_000 - 200))
            .build()
            .expect("equal-length columns");
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let pairs: Vec<(u32, u32)> = (0..n).map(|r| (r, (r + 7) % n)).collect();
        for agg in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max] {
            let measure = (agg != AggFn::Count).then_some(amount);
            let seq = over(region, measure, &pairs, agg, 1);
            for threads in [0usize, 2, 8] {
                assert_eq!(
                    over(region, measure, &pairs, agg, threads),
                    seq,
                    "{agg:?} threads={threads}"
                );
            }
        }
        assert!(over(region, None, &[], AggFn::Count, 8).is_empty());
    }

    #[test]
    fn empty_table_yields_no_groups() {
        let t = TableBuilder::new("empty")
            .int_column("g", [])
            .build()
            .expect("one column");
        let rl = RidList::for_column(t.column("g").unwrap());
        assert!(group_aggregate(t.column("g").unwrap(), &rl, None, AggFn::Count).is_empty());
    }

    #[test]
    #[should_panic(expected = "needs a measure column")]
    fn sum_requires_measure() {
        let (t, rl) = setup();
        let _ = group_aggregate(t.column("region").unwrap(), &rl, None, AggFn::Sum);
    }
}
