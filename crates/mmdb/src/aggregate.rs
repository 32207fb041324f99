//! Grouped aggregation: one operator.
//!
//! OLAP queries (§1, §2.2) aggregate after selecting and joining. A group
//! key is a domain ID, and domain IDs are dense ranks `0..d` in value
//! order (§2.1), so the accumulator is an array indexed by ID, not a map:
//! [`group_aggregate_pairs`] folds `(group RID, value)` pairs into a
//! `d`-slot array with [`AggFn::combine`], and the groups present, read in
//! ascending ID order, are already in group-value order.
//!
//! It is the only grouping there is: a plan's group stage over a
//! selection, join output or a whole table; a shard answering a grouped
//! request; and a coordinator merging shard partials, whose decoded group
//! values it dictionary-encodes first so that they are dense IDs too. A
//! measure column is resolved once per aggregation by
//! [`Measure::resolve`], the one place a non-integer measure becomes a
//! typed error.

use crate::column::Column;
use crate::domain::{DomainView, Ints, Value};
use crate::error::{MmdbError, Result};
use ccindex_common::prefetch;

/// Supported aggregate functions over an `Int` measure column.
///
/// Every one is commutative and associative, so a fold's answer does not
/// depend on the order its rows arrive in — a selection's or a worker
/// partition's. `Count` and `Sum` add with wrapping (two's-complement)
/// arithmetic to keep that true in every build: a checked `+` would
/// panic on a partial sum that overflows in one order and not in
/// another, and a release build wraps anyway.
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
            AggFn::Count | AggFn::Sum => acc.wrapping_add(v),
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

/// What an aggregation folds per row: `1` for `Count`, otherwise the
/// row's value in an integer measure column, resolved once into the
/// column's in-place IDs and its domain's typed values so that the
/// per-row read is two slice loads (one and an add on a dense domain).
#[derive(Debug, Clone, Copy)]
pub struct Measure<'a> {
    column: Option<(&'a [u32], Ints<'a>)>,
}

impl<'a> Measure<'a> {
    /// Resolve `agg` over an optional measure, given as `(table, column
    /// name, column)`. A named measure must be integer-valued
    /// ([`MmdbError::NonIntegerMeasure`], naming it), and every aggregate
    /// but `Count` needs one ([`MmdbError::Unsupported`]). The planner,
    /// the executor and a shard's grouped answer all check here, so a
    /// stale plan fails exactly as a fresh compile does.
    pub fn resolve(agg: AggFn, measure: Option<(&str, &str, &'a Column)>) -> Result<Self> {
        let column = match measure {
            None => None,
            Some((table, name, column)) => match column.domain().view() {
                DomainView::Int(ints) => Some((column.ids(), ints)),
                DomainView::Generic(_) => {
                    return Err(MmdbError::NonIntegerMeasure {
                        table: table.to_owned(),
                        column: name.to_owned(),
                    })
                }
            },
        };
        match (agg, column) {
            (AggFn::Count, _) => Ok(Self { column: None }),
            (_, Some(_)) => Ok(Self { column }),
            (_, None) => Err(MmdbError::Unsupported {
                what: format!("aggregate {agg:?} needs a measure column"),
            }),
        }
    }

    /// The value row `rid` contributes.
    #[inline]
    pub fn at(self, rid: u32) -> i64 {
        match self.column {
            None => 1,
            Some((ids, ints)) => ints.get(ids[rid as usize]),
        }
    }

    /// Ask for the line holding row `rid`'s measure ID, some rows before
    /// [`Measure::at`] reads it (nothing to fetch for `Count`).
    #[inline]
    pub(crate) fn prefetch(self, rid: u32) {
        if let Some((ids, _)) = self.column {
            prefetch(ids.as_ptr().wrapping_add(rid as usize));
        }
    }
}

/// A set of domain IDs `0..d`, one bit each, read back ascending: the
/// grouping's seen-set, and the outer IDs a join's RID stream carries.
pub(crate) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// The empty set over `0..d`.
    pub(crate) fn new(d: usize) -> Self {
        Self {
            words: vec![0; d.div_ceil(64)],
        }
    }

    /// Add `id`; whether it was absent.
    #[inline]
    pub(crate) fn insert(&mut self, id: usize) -> bool {
        let (word, bit) = (&mut self.words[id / 64], 1u64 << (id % 64));
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Each word's count of members before it, which makes
    /// [`IdSet::rank`] O(1).
    pub(crate) fn ranks(&self) -> Vec<u32> {
        let mut before = 0;
        self.words
            .iter()
            .map(|word| {
                let at = before;
                before += word.count_ones();
                at
            })
            .collect()
    }

    /// How many members lie below `id`, given this set's
    /// [`IdSet::ranks`]: a member's position in [`IdSet::iter`]'s order.
    #[inline]
    pub(crate) fn rank(&self, ranks: &[u32], id: usize) -> usize {
        let below = self.words[id / 64] & ((1u64 << (id % 64)) - 1);
        ranks[id / 64] as usize + below.count_ones() as usize
    }

    /// The IDs in the set, ascending: each word's set bits by
    /// `trailing_zeros`, so a word with no IDs costs one test.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let id = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    id
                })
            })
        })
    }
}

/// One worker's accumulator: a slot per domain ID, and the set of IDs
/// whose slot holds a value yet. Both come from zeroed allocations, which
/// the allocator maps lazily, so a grouping touches only the pages its
/// IDs land on.
struct Slots {
    acc: Vec<i64>,
    seen: IdSet,
}

impl Slots {
    fn new(d: usize) -> Self {
        Self {
            acc: vec![0; d],
            seen: IdSet::new(d),
        }
    }

    /// Fold `v` into group `id`. A group's first value seeds its slot, so
    /// the zero the slot starts from never reaches `Min` or `Max`.
    #[inline]
    fn fold(&mut self, agg: AggFn, id: usize, v: i64) {
        self.acc[id] = if self.seen.insert(id) {
            v
        } else {
            agg.combine(self.acc[id], v)
        };
    }
}

/// Grouped aggregation over `rows` `(group_rid, value)` pairs, `pair(i)`
/// being the `i`-th: the group is `group_col`'s domain ID at `group_rid`,
/// and `value` is what `agg` folds — `1` per row for `Count`, a measure
/// read through [`Measure::at`], or a partial aggregate being merged
/// (merging is the same fold). Reading each pair out of its row source (a
/// RID list, join rows, or the position itself) means no intermediate
/// pair vector is materialised; the group RID and the measure may come
/// from different relations (the join shape).
///
/// The pairs are partitioned into one contiguous range per worker of
/// `threads` (`1` runs inline, `0` is one per core). Each worker folds its
/// range into its own `d`-slot array (see the [module docs](self)), and
/// the partials merge slot by slot over the groups each one saw. Every
/// [`AggFn`] is commutative and associative, so the result is the same for
/// every thread count: the groups present in ascending ID order, which is
/// group-value order, decoded in one
/// [`decode_batch`](crate::domain::Domain::decode_batch).
pub fn group_aggregate_pairs<F>(
    group_col: &Column,
    rows: usize,
    pair: F,
    agg: AggFn,
    threads: usize,
) -> Vec<GroupRow>
where
    F: Fn(usize) -> (u32, i64) + Sync,
{
    let d = group_col.domain().len();
    let pool = ccindex_parallel::WorkerPool::new(threads);
    let ranges = ccindex_parallel::partition(rows, pool.threads());
    let partials = pool.run(ranges.len(), |i| {
        let mut slots = Slots::new(d);
        for (group_rid, v) in ranges[i].clone().map(&pair) {
            slots.fold(agg, group_col.id(group_rid) as usize, v);
        }
        slots
    });
    let mut partials = partials.into_iter();
    let Some(mut merged) = partials.next() else {
        return Vec::new();
    };
    for partial in partials {
        for id in partial.seen.iter() {
            merged.fold(agg, id, partial.acc[id]);
        }
    }
    let ids: Vec<u32> = merged.seen.iter().map(|id| id as u32).collect();
    let groups = group_col.domain().decode_batch(&ids);
    groups
        .into_iter()
        .zip(&ids)
        .map(|(group, &id)| GroupRow {
            group,
            value: merged.acc[id as usize],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rid::RidList;
    use crate::table::{Table, TableBuilder};

    const AGGS: [AggFn; 4] = [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max];

    fn setup() -> Table {
        TableBuilder::new("sales")
            .str_column("region", ["e", "w", "e", "n", "w", "e"])
            .int_column("amount", [10, 20, 30, 40, 50, 60])
            .build()
            .expect("equal-length columns")
    }

    /// [`group_aggregate_pairs`] over `(group_rid, measure_rid)` pairs,
    /// the measure being `sales.amount` unless `agg` is `Count`.
    fn over(
        group_col: &Column,
        measure: Option<&Column>,
        pairs: &[(u32, u32)],
        agg: AggFn,
        threads: usize,
    ) -> Vec<GroupRow> {
        let measure = measure.filter(|_| agg != AggFn::Count);
        let m = Measure::resolve(agg, measure.map(|c| ("sales", "amount", c))).unwrap();
        let pair = |i: usize| (pairs[i].0, m.at(pairs[i].1));
        group_aggregate_pairs(group_col, pairs.len(), pair, agg, threads)
    }

    /// Every row of `t`, each paired with itself.
    fn all_rows(t: &Table) -> Vec<(u32, u32)> {
        (0..t.rows() as u32).map(|r| (r, r)).collect()
    }

    fn row(group: &str, value: i64) -> GroupRow {
        GroupRow {
            group: group.into(),
            value,
        }
    }

    #[test]
    fn count_per_group() {
        let t = setup();
        let rows = over(
            t.column("region").unwrap(),
            None,
            &all_rows(&t),
            AggFn::Count,
            1,
        );
        assert_eq!(rows, vec![row("e", 3), row("n", 1), row("w", 2)]);
    }

    #[test]
    fn sum_min_max_per_group() {
        let t = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let all = all_rows(&t);
        let sums = over(region, Some(amount), &all, AggFn::Sum, 1);
        assert_eq!(sums[0], row("e", 100)); // 10+30+60
        assert_eq!(sums[2], row("w", 70)); // 20+50
        let mins = over(region, Some(amount), &all, AggFn::Min, 1);
        assert_eq!(mins[0].value, 10);
        let maxs = over(region, Some(amount), &all, AggFn::Max, 1);
        assert_eq!(maxs[0].value, 60);
    }

    #[test]
    fn groups_come_out_in_value_order() {
        let t = setup();
        let rows = over(
            t.column("region").unwrap(),
            None,
            &all_rows(&t),
            AggFn::Count,
            1,
        );
        let order: Vec<String> = rows.iter().map(|r| r.group.to_string()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    /// The operator over a whole table against a fold of the RID list
    /// sorted on the group column, one run of equal IDs per group.
    #[test]
    fn pairs_match_sorted_rid_list_on_whole_tables() {
        let t = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        let rids = RidList::for_column(region);
        let rids = rids.rids();
        for agg in AGGS {
            let m = Measure::resolve(agg, Some(("sales", "amount", amount))).unwrap();
            let mut want: Vec<GroupRow> = Vec::new();
            let mut last_id = None;
            for &rid in rids {
                let (id, v) = (region.id(rid), m.at(rid));
                match want.last_mut() {
                    Some(g) if last_id == Some(id) => g.value = agg.combine(g.value, v),
                    _ => want.push(GroupRow {
                        group: region.value(rid),
                        value: v,
                    }),
                }
                last_id = Some(id);
            }
            assert_eq!(
                over(region, Some(amount), &all_rows(&t), agg, 1),
                want,
                "{agg:?}"
            );
        }
    }

    #[test]
    fn pairs_handle_filtered_subsets_and_cross_relation_measures() {
        let t = setup();
        let region = t.column("region").unwrap();
        let amount = t.column("amount").unwrap();
        // Only rows 0, 2, 4: regions e, e, w with amounts 10, 30, 50.
        let pairs = [(0u32, 0u32), (2, 2), (4, 4)];
        let sums = over(region, Some(amount), &pairs, AggFn::Sum, 1);
        assert_eq!(sums, vec![row("e", 40), row("w", 50)]);
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
        for agg in AGGS {
            let seq = over(region, Some(amount), &pairs, agg, 1);
            for threads in [0usize, 2, 8] {
                assert_eq!(
                    over(region, Some(amount), &pairs, agg, threads),
                    seq,
                    "{agg:?} threads={threads}"
                );
            }
        }
        assert!(over(region, None, &[], AggFn::Count, 8).is_empty());
    }

    /// All-negative groups under `Max` and all-positive ones under `Min`:
    /// the zero an unseen slot holds must not win, in a worker's fold or
    /// in the merge of the workers' partials (groups 2 and 3 live only in
    /// the second half of the rows, so at two threads only the second
    /// worker sees them).
    #[test]
    fn min_and_max_never_see_an_empty_slot() {
        let t = TableBuilder::new("sales")
            .int_column("g", (0..64).map(|i| if i < 32 { i % 2 } else { i % 4 }))
            .int_column(
                "amount",
                (0..64).map(|i| if i % 2 == 0 { -5 - i } else { 3 + i }),
            )
            .build()
            .expect("equal-length columns");
        let g = t.column("g").unwrap();
        let amount = t.column("amount").unwrap();
        let all = all_rows(&t);
        for threads in [1, 2, 8] {
            let max = over(g, Some(amount), &all, AggFn::Max, threads);
            let min = over(g, Some(amount), &all, AggFn::Min, threads);
            assert_eq!(max[0].value, -5, "threads={threads}");
            assert_eq!(max[2].value, -39, "threads={threads}");
            assert_eq!(min[1].value, 4, "threads={threads}");
            assert_eq!(min[3].value, 38, "threads={threads}");
        }
    }

    /// Whether a partial `Sum` overflows depends on the order the rows
    /// fold in — a selection's `(id, rid)` order, a worker's partition —
    /// so the fold wraps: a group of `i64::MAX, 1, -1` sums to `i64::MAX`
    /// in every order at every thread count, through the operator and
    /// through a grouped selection whose run is in RID order or not.
    #[test]
    fn sums_wrap_so_every_fold_order_answers_alike() {
        use crate::{between, sum, CatalogRead, Database, ExecOptions, IndexKind, QuerySpec};
        let amounts = [i64::MAX, 1, -1];
        let t = TableBuilder::new("sales")
            .int_column("g", [7; 3])
            .int_column("amount", amounts)
            .build()
            .expect("equal-length columns");
        let (g, amount) = (t.column("g").unwrap(), t.column("amount").unwrap());
        let want = vec![GroupRow {
            group: Value::Int(7),
            value: i64::MAX,
        }];
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 1, 0]] {
            let pairs = order.map(|r| (r, r));
            for threads in [1, 2, 8] {
                let got = over(g, Some(amount), &pairs, AggFn::Sum, threads);
                assert_eq!(got, want, "{order:?} threads={threads}");
            }
        }
        // The band over `k` drives in `(id, rid)` order: RID order, then
        // its reverse.
        for k in [[0, 1, 2], [2, 1, 0]] {
            let mut db = Database::new();
            let t = TableBuilder::new("sales")
                .int_column("k", k)
                .int_column("g", [7; 3])
                .int_column("amount", amounts);
            db.register(t.build().unwrap()).unwrap();
            db.create_index("sales", "k", IndexKind::FullCss).unwrap();
            for threads in [1, 2, 8] {
                let spec = QuerySpec::table("sales")
                    .filter(between("k", 0, 2))
                    .group_by("g", sum("amount"))
                    .exec(ExecOptions {
                        threads,
                        ..ExecOptions::default()
                    });
                let got = db.run_spec(&spec).unwrap();
                assert_eq!(
                    got,
                    crate::ResultRows::Groups(want.clone()),
                    "{k:?} {threads}"
                );
            }
        }
    }

    /// Members come back ascending across word boundaries, and a
    /// member's rank is its position among them.
    #[test]
    fn id_sets_iterate_ascending_and_rank_their_members() {
        let members = [0usize, 1, 63, 64, 65, 127, 128, 500, 1_023, 1_024, 1_999];
        let mut set = IdSet::new(2_000);
        for &id in members.iter().rev() {
            assert!(set.insert(id), "{id} is new");
        }
        assert!(!set.insert(64), "64 is already a member");
        assert_eq!(set.iter().collect::<Vec<_>>(), members);
        let ranks = set.ranks();
        for (position, &id) in members.iter().enumerate() {
            assert_eq!(set.rank(&ranks, id), position, "{id}");
        }
        assert_eq!(set.rank(&ranks, 129), 7, "a non-member counts those below");
        assert_eq!(IdSet::new(0).iter().count(), 0);
    }

    #[test]
    fn empty_table_yields_no_groups() {
        let t = TableBuilder::new("empty")
            .int_column("g", [])
            .build()
            .expect("one column");
        let g = t.column("g").unwrap();
        assert!(group_aggregate_pairs(g, 0, |_| (0, 1), AggFn::Count, 1).is_empty());
    }

    #[test]
    fn sum_requires_measure() {
        let t = setup();
        assert_eq!(
            Measure::resolve(AggFn::Sum, None).unwrap_err(),
            MmdbError::Unsupported {
                what: "aggregate Sum needs a measure column".into()
            }
        );
        let region = t.column("region").unwrap();
        for agg in AGGS {
            assert_eq!(
                Measure::resolve(agg, Some(("sales", "region", region))).unwrap_err(),
                MmdbError::NonIntegerMeasure {
                    table: "sales".into(),
                    column: "region".into()
                },
                "{agg:?}"
            );
        }
        assert_eq!(Measure::resolve(AggFn::Count, None).unwrap().at(3), 1);
    }
}
