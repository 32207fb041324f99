//! Domain-encoded columns.
//!
//! A column stores one 4-byte domain ID per row ("only pointers to domain
//! values are stored in place in each column", §2.1); the values live in
//! the column's [`Domain`]. This gives the paper's three benefits:
//! duplicate-free value storage, fixed-width rows regardless of value
//! type, and ID comparisons standing in for value comparisons.
//!
//! # One read of the rows, then one pass or one sort, three products
//!
//! [`Column::from_values`] takes the rows by value and reads them once:
//! each `Int` moves out as its `i64` into the rows' own buffer, so an
//! integer column (or one from
//! [`TableBuilder::int_column`](crate::table::TableBuilder::int_column))
//! is encoded from 8-byte integers and no 24-byte `Value` outlives the
//! read. Everything then comes off the values' order, found one of two
//! ways. A dense-enough integer column is ranked, not sorted: one pass
//! over the integers finds `min` and `max`, a second sets a presence bit
//! per row in the ranked domain's lines, and a third writes each row's
//! ID — its value's rank in those lines, the rank a probe computes —
//! straight into the ID array. When every bit is set the column holds
//! every integer of its span: its domain is dense, just `(min, len)`,
//! and each row's ID is its value minus `min`, with no rank and no
//! value array. Every other column sorts `(value, rid)` pairs once —
//! `(i64, u32)` pairs over the integers, `(&Value, u32)` when a `Str` is
//! present: the deduplicated key run *is* the sorted domain, and the
//! rank of a row's run *is* its domain ID. Both ways choose the domain's
//! representation by the same rule over the same values, so they build
//! equal columns. The rank path is tried only when the row count could
//! rank over the span (a column that fails it allocates nothing before
//! its sort). Either way encoding is by rank, not by one dictionary
//! search per row; and because the IDs are dense, the column's sorted
//! RID list ([`RidList::for_column`](crate::rid::RidList::for_column)) is
//! a counting sort away, radix-clustered so it runs in cache — no second
//! comparison sort. A column holding a `Str` is read as `Value`s: if its
//! first row is one it is sorted at once, by reference, cloning each
//! distinct value once; a `Str` met later is set aside with its row
//! while the rest convert, and the rows are reassembled for the sort.

use crate::domain::{Domain, Value};
use ccindex_common::prefetch;
use std::borrow::Cow;
use std::sync::Arc;

/// One domain-encoded column. Cloning shares the domain and the ID array
/// (a catalog commit copy-on-writes table entries, and must not copy
/// rows to do it). Two columns are equal when their domains and IDs are;
/// [`Column::from_values`] encodes canonically, so two columns it built
/// are equal exactly when their values are.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    domain: Domain,
    ids: Arc<[u32]>,
}

/// `len` zeros in a fresh `Arc<[u32]>`, one allocation, for a builder to
/// fill in place through [`Arc::get_mut`]: filling a `Vec` and
/// converting it would allocate the array again and copy it.
pub(crate) fn zeroed(len: usize) -> Arc<[u32]> {
    std::iter::repeat_n(0, len).collect()
}

/// Sort rows by `(key, rid)` and read off the deduplicated key run and
/// each row's rank in it. The pairs are distinct (RIDs are), so the
/// unstable sort is deterministic.
fn rank_rows<K: Ord + Copy>(mut keyed: Vec<(K, u32)>) -> (Vec<K>, Arc<[u32]>) {
    keyed.sort_unstable();
    let mut run: Vec<K> = Vec::new();
    let mut block = zeroed(keyed.len());
    let ids = Arc::get_mut(&mut block).expect("a fresh array has one owner");
    for (key, rid) in keyed {
        if run.last() != Some(&key) {
            run.push(key);
        }
        ids[rid as usize] = (run.len() - 1) as u32;
    }
    (run, block)
}

impl Column {
    /// Encode raw row values into a fresh column (builds the domain), see
    /// the [module docs](self). The rows are taken by value (a borrowed
    /// slice is cloned first, unless its first row is a `Str`) and read
    /// once: each `Int` moves out as its `i64` into the rows' own buffer,
    /// which is freed before this returns, and the column is encoded from
    /// those integers. A `Str` met on the way is set aside with its row,
    /// and the rows are reassembled and sorted generically; a column whose
    /// first row is a `Str` is sorted generically at once, with no
    /// conversion.
    pub fn from_values<'a>(values: impl Into<Cow<'a, [Value]>>) -> Self {
        let values = values.into();
        if let Some(Value::Str(_)) = values.first() {
            return Self::from_generic(&values);
        }
        let mut strs = Vec::new();
        let ints: Vec<i64> = (values.into_owned().into_iter().enumerate())
            .map(|(rid, value)| match value {
                Value::Int(v) => v,
                value => {
                    strs.push((rid, value));
                    0
                }
            })
            .collect();
        if strs.is_empty() {
            return Self::from_ints(&ints);
        }
        let mut values: Vec<Value> = ints.into_iter().map(Value::Int).collect();
        for (rid, value) in strs {
            values[rid] = value;
        }
        Self::from_generic(&values)
    }

    /// Encode integer rows: one pass finds `min` and `max`; a column
    /// dense enough to rank is then read twice more (its presence bits,
    /// then each row's ID), any other is built by one sort of
    /// `(i64, u32)` pairs.
    pub(crate) fn from_ints(ints: &[i64]) -> Self {
        assert!(
            u32::try_from(ints.len()).is_ok(),
            "row IDs are 32 bits wide"
        );
        let (min, max) = (ints.iter()).fold((i64::MAX, i64::MIN), |(min, max), &v| {
            (min.min(v), max.max(v))
        });
        let (domain, ids) = Domain::ranked_rows(ints, min, max).unwrap_or_else(|| {
            let (run, ids) = rank_rows(ints.iter().copied().zip(0u32..).collect());
            (Domain::from_sorted_ints(run), ids)
        });
        Self::from_proven_parts(domain, ids)
    }

    /// Encode rows holding a `Str`: one sort of `(&Value, u32)` pairs,
    /// cloning each distinct value once.
    fn from_generic(values: &[Value]) -> Self {
        assert!(
            u32::try_from(values.len()).is_ok(),
            "row IDs are 32 bits wide"
        );
        let (run, ids) = rank_rows(values.iter().zip(0u32..).collect());
        let run = run.into_iter().cloned().collect();
        Self::from_proven_parts(Domain::from_sorted_values(run), ids)
    }

    /// Construct from pre-encoded parts, checking every ID against the
    /// domain.
    pub fn from_parts(domain: Domain, ids: Vec<u32>) -> Self {
        assert!(
            ids.iter().all(|&id| (id as usize) < domain.len()),
            "id out of domain range"
        );
        Self::from_proven_parts(domain, ids.into())
    }

    /// [`Column::from_parts`] for a caller that has already proven every
    /// ID in range (the rank encoder, the storage validator), over the
    /// array it built.
    pub(crate) fn from_proven_parts(domain: Domain, ids: Arc<[u32]>) -> Self {
        debug_assert!(ids.iter().all(|&id| (id as usize) < domain.len()));
        Self { domain, ids }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The column's domain dictionary.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Domain ID of row `rid`.
    pub fn id(&self, rid: u32) -> u32 {
        self.ids[rid as usize]
    }

    /// Ask for the line holding row `rid`'s domain ID, some rows before
    /// [`Column::id`] reads it — the gathers' lookahead.
    #[inline]
    pub(crate) fn prefetch_id(&self, rid: u32) {
        prefetch(self.ids.as_ptr().wrapping_add(rid as usize));
    }

    /// Decoded value of row `rid`.
    pub fn value(&self, rid: u32) -> Value {
        self.domain.decode(self.id(rid))
    }

    /// All row IDs (the fixed-width in-place data).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::LINE_INTS;
    use crate::rid::RidList;
    use crate::table::TableBuilder;
    use css_tree::CssLayout;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn encodes_and_decodes_rows() {
        let vals: Vec<Value> = ["b", "a", "c", "a", "b"]
            .iter()
            .map(|&s| s.into())
            .collect();
        let col = Column::from_values(&vals);
        assert_eq!(col.len(), 5);
        assert_eq!(col.domain().len(), 3);
        for (rid, v) in vals.iter().enumerate() {
            assert_eq!(&col.value(rid as u32), v);
        }
        // "a" < "b" < "c" => ids 0,1,2 in value order.
        assert_eq!(col.ids(), &[1, 0, 2, 0, 1]);
    }

    #[test]
    fn duplicates_share_domain_entries() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i % 10)).collect();
        let col = Column::from_values(&vals);
        assert_eq!(col.domain().len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of domain range")]
    fn from_parts_validates_ids() {
        let d = Domain::from_values(vec![Value::Int(1)]);
        let _ = Column::from_parts(d, vec![0, 1]);
    }

    /// The build `from_values` + `RidList::for_column` replaced, kept as
    /// the oracle: sort and dedup a clone into the domain, one binary
    /// search per row, then a comparison sort of the rows by `(id, rid)`.
    /// Returns `(domain, ids, rids, keys)`.
    fn reference_build(values: &[Value]) -> (Vec<Value>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut domain = values.to_vec();
        domain.sort_unstable();
        domain.dedup();
        let ids: Vec<u32> = values
            .iter()
            .map(|v| domain.binary_search(v).expect("value came from this input") as u32)
            .collect();
        let mut rids: Vec<u32> = (0..values.len() as u32).collect();
        rids.sort_by_key(|&rid| (ids[rid as usize], rid));
        let keys = rids.iter().map(|&rid| ids[rid as usize]).collect();
        (domain, ids, rids, keys)
    }

    /// Identical domain, representation, IDs, RID order and key array.
    fn assert_matches_reference(values: &[Value]) {
        let col = Column::from_values(values);
        let rl = RidList::for_column(&col);
        let (domain, ids, rids, keys) = reference_build(values);
        let all_ids: Vec<u32> = (0..col.domain().len() as u32).collect();
        assert_eq!(col.domain().decode_batch(&all_ids), domain);
        assert_eq!(
            col.domain().is_int(),
            domain.iter().all(|v| matches!(v, Value::Int(_)))
        );
        // The sort path's domain: equal values, and the same arm.
        let sorted = Domain::from_values(values.to_vec());
        assert_eq!(col.domain(), &sorted);
        assert_eq!(col.domain().arm(), sorted.arm());
        assert_eq!(col.ids(), ids);
        assert_eq!(rl.rids(), rids);
        assert_eq!(rl.expanded_ids(), keys);
    }

    fn ints(values: impl IntoIterator<Item = i64>) -> Vec<Value> {
        values.into_iter().map(Value::Int).collect()
    }

    /// `distinct` integers spread over `[min, min + span)`, both ends
    /// present, as `rows` rows in a scrambled order: each value at least
    /// once, the rest repeats.
    fn spread(min: i64, span: u64, distinct: u64, rows: u64) -> Vec<Value> {
        let value = |i: u64| min.wrapping_add((i * (span - 1) / (distinct - 1)) as i64);
        (0..rows)
            .map(|r| Value::Int(value(r * 7_919 % rows % distinct)))
            .collect()
    }

    /// The widest span `n` distinct values rank over: as many lines as
    /// the directory over `n` has bytes of 64.
    fn widest(n: u64) -> u64 {
        CssLayout::full(n as usize, 8).space_bytes(8) as u64 / 64 * LINE_INTS
    }

    /// Both builds (the `one_sort_` names predate the rank path): a dense
    /// integer shape here (`0..300`, its reverse, the `% 11` repeats) is
    /// built by rank and takes the dense arm, the others are sorted.
    #[test]
    fn one_sort_build_matches_the_reference_on_edge_shapes() {
        let text = |i: i64| Value::Str(format!("k{:03}", i.rem_euclid(7)));
        let shapes: Vec<Vec<Value>> = vec![
            vec![],
            ints([42]),
            vec![Value::from("only")],
            ints([5; 64]),
            ints([i64::MAX, 0, i64::MIN, -1, i64::MAX, i64::MIN, 1]),
            ints(0..300),
            ints((0..300).rev()),
            ints((0..300).map(|i| (i * 37) % 11)),
            (0..300).map(text).collect(),
            (0..300).rev().map(text).collect(),
            // Mixed: every `Int` sorts before every `Str`.
            (0..300)
                .map(|i| {
                    if i % 3 == 0 {
                        text(i)
                    } else {
                        Value::Int(i % 5)
                    }
                })
                .collect(),
            vec![Value::from("z"), Value::Int(i64::MAX), Value::from("")],
        ];
        for values in &shapes {
            assert_matches_reference(values);
        }
    }

    /// A dense-enough integer column is built by rank without a sort;
    /// these shapes sit at each edge of that build: the arm rule on the
    /// distinct count, the pre-check on the row count, every integer of
    /// the span present or all but one, and the ends of `i64`.
    #[test]
    fn one_sort_build_matches_the_reference_on_rank_edges() {
        let arm = |values: &[Value]| {
            assert_matches_reference(values);
            Column::from_values(values).domain().arm()
        };
        // The arm rule: 1,000 distinct values over 3,000 rows.
        let (d, rows) = (1_000, 3_000);
        assert_eq!(arm(&spread(0, widest(d), d, rows)), "ranked");
        assert_eq!(arm(&spread(0, widest(d) + 1, d, rows)), "css");
        // The pre-check: spans the row count could rank over, but the
        // distinct count cannot, at the row count's limit and one past.
        assert!(widest(rows) > widest(d) + 1);
        assert_eq!(arm(&spread(0, widest(rows), d, rows)), "css");
        assert_eq!(arm(&spread(0, widest(rows) + 1, d, rows)), "css");
        // Every row distinct: the pre-check is the arm rule.
        assert_eq!(arm(&spread(0, widest(rows), rows, rows)), "ranked");
        assert_eq!(arm(&spread(0, widest(rows) + 1, rows, rows)), "css");
        // One distinct value short of ranking: the smallest count whose
        // successor has a larger directory, over the successor's widest
        // span.
        let short = (9..).find(|&n| widest(n + 1) > widest(n)).unwrap();
        assert_eq!(arm(&spread(0, widest(short + 1), short, 4 * short)), "css");
        assert_eq!(
            arm(&spread(0, widest(short + 1), short + 1, 4 * short)),
            "ranked"
        );
        // Every integer of the span in many rows is dense, one value
        // included; one integer short of that stays ranked.
        assert_eq!(arm(&ints([-3; 500])), "dense");
        assert_eq!(arm(&spread(-700, 900, 900, 2_500)), "dense");
        let mut short_of_dense = spread(-700, 900, 900, 2_500);
        short_of_dense.retain(|v| *v != Value::Int(-650));
        assert_eq!(arm(&short_of_dense), "ranked");
        // A negative `min`, and against each end of `i64`, where the
        // offsets from `min` wrap.
        assert_eq!(arm(&spread(-700, 2_000, 900, 2_500)), "ranked");
        assert_eq!(arm(&spread(i64::MIN, 2_000, 900, 2_500)), "ranked");
        assert_eq!(arm(&spread(i64::MAX - 1_999, 2_000, 900, 2_500)), "ranked");
        assert_eq!(arm(&spread(i64::MIN, 900, 900, 2_500)), "dense");
        assert_eq!(arm(&spread(i64::MAX - 899, 900, 900, 2_500)), "dense");
        // Both ends of `i64`: the span wraps to all of `u64`.
        let mut wide = spread(-450, 1_000, 1_000, 2_500);
        wide[7] = Value::Int(i64::MIN);
        wide[1_900] = Value::Int(i64::MAX);
        assert_eq!(arm(&wide), "css");
    }

    /// The edges of the typed conversion: where the first `Str` sits
    /// decides whether the rows are converted, then reassembled, or
    /// sorted generically at once; each must build what the reference
    /// does, whether the rows are owned or borrowed.
    #[test]
    fn one_sort_build_matches_the_reference_where_the_strings_sit() {
        let text = |i: i64| Value::Str(format!("k{:03}", i % 7));
        let mixed = |is_str: &dyn Fn(i64) -> bool| -> Vec<Value> {
            (0..300)
                .map(|i| {
                    if is_str(i) {
                        text(i)
                    } else {
                        Value::Int(i % 5)
                    }
                })
                .collect()
        };
        let shapes = [
            vec![],
            mixed(&|i| i == 0),
            mixed(&|i| i == 299),
            mixed(&|i| i % 37 == 5),
            mixed(&|i| i % 37 == 0),
            mixed(&|i| i == 0 || i % 2 == 1),
        ];
        for values in shapes {
            assert_matches_reference(&values);
            assert_eq!(
                Column::from_values(values.clone()),
                Column::from_values(&values)
            );
        }
    }

    /// The builder encodes each column as it is added, and still refuses
    /// a ragged column and a repeated name at `build`, in the same words.
    #[test]
    fn the_builder_refuses_ragged_and_repeated_columns_at_build() {
        let good = || TableBuilder::new("t").column("a", ints(0..3));
        let ragged = good().column("b", vec![Value::from("x")]).build();
        assert_eq!(
            ragged.unwrap_err().to_string(),
            "table `t`: column `b` has 1 rows, expected 3"
        );
        let repeated = good().str_column("a", ["x", "y", "z"]).build();
        assert_eq!(
            repeated.unwrap_err().to_string(),
            "table `t` declares column `a` twice"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Narrow value ranges so duplicates are the rule; `shape` picks
        /// an all-`Int`, all-`Str` or mixed column. An all-`Int` column
        /// holding every integer of its range is dense; else one with
        /// nine or more distinct values is ranked, fewer sorted.
        #[test]
        fn one_sort_build_matches_the_reference(
            shape in 0u8..3,
            rows in vec((0u8..2, -6i64..7), 0..240),
        ) {
            let values: Vec<Value> = rows
                .into_iter()
                .map(|(coin, v)| match (shape, coin) {
                    (0, _) | (2, 0) => Value::Int(v),
                    _ => Value::Str(format!("s{v}")),
                })
                .collect();
            assert_matches_reference(&values);
        }
    }

    /// Paper scale, for the release-mode CI step: ranks up to the row
    /// count, prefix sums up to the row count, both extremes of `i64`,
    /// and `refresh`'s column (uniform in `[0, 4M)`), built by rank.
    #[test]
    #[ignore = "2M rows; run with --release -- --ignored"]
    fn one_sort_build_matches_the_reference_at_two_million_rows() {
        const ROWS: i64 = 2_000_000;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform: Vec<Value> = (0..ROWS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Value::Int((x % (2 * ROWS as u64)) as i64)
            })
            .collect();
        assert_matches_reference(&uniform);
        assert_eq!(Column::from_values(&uniform).domain().arm(), "ranked");
        uniform[17] = Value::Int(i64::MIN);
        uniform[ROWS as usize - 3] = Value::Int(i64::MAX);
        assert_matches_reference(&uniform);
        // All distinct, descending: every rank is used exactly once.
        assert_matches_reference(&ints((0..ROWS).rev()));
        // A thousand groups of two thousand rows each.
        assert_matches_reference(&ints((0..ROWS).map(|i| (i * 7919) % 1000)));
        // Mixed, a `Str` at each end: sorted generically at once. Then
        // an `Int` first and the `Str` one row in: converted, then
        // reassembled.
        uniform[0] = Value::from("first");
        uniform[ROWS as usize - 1] = Value::from("last");
        assert_matches_reference(&uniform);
        uniform.swap(0, 1);
        assert_matches_reference(&uniform);
    }
}
