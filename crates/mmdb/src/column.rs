//! Domain-encoded columns.
//!
//! A column stores one 4-byte domain ID per row ("only pointers to domain
//! values are stored in place in each column", §2.1); the values live in
//! the column's [`Domain`]. This gives the paper's three benefits:
//! duplicate-free value storage, fixed-width rows regardless of value
//! type, and ID comparisons standing in for value comparisons.
//!
//! # One sort, three products
//!
//! [`Column::from_values`] sorts `(value, rid)` pairs once — `(i64, u32)`
//! pairs when every value is an `Int`, `(&Value, u32)` otherwise — and
//! reads everything off that order. The deduplicated key run *is* the
//! sorted domain; the rank of a row's run *is* its domain ID, so encoding
//! is by rank, not by one dictionary search per row; and because those IDs
//! are dense, the column's sorted RID list
//! ([`RidList::for_column`](crate::rid::RidList::for_column)) is a
//! counting sort away — no second comparison sort. The input is never
//! cloned: the typed path copies out 8-byte keys, the generic path sorts
//! references and clones each distinct value once.

use crate::domain::{Domain, Value};
use std::sync::Arc;

/// One domain-encoded column. Cloning shares the domain and the ID array
/// (a catalog commit copy-on-writes table entries, and must not copy
/// rows to do it).
#[derive(Debug, Clone)]
pub struct Column {
    domain: Domain,
    ids: Arc<[u32]>,
}

/// Sort rows by `(key, rid)` and read off the deduplicated key run and
/// each row's rank in it. The pairs are distinct (RIDs are), so the
/// unstable sort is deterministic.
fn rank_rows<K: Ord + Copy>(mut keyed: Vec<(K, u32)>) -> (Vec<K>, Vec<u32>) {
    keyed.sort_unstable();
    let mut run: Vec<K> = Vec::new();
    let mut ids = vec![0u32; keyed.len()];
    for (key, rid) in keyed {
        if run.last() != Some(&key) {
            run.push(key);
        }
        ids[rid as usize] = (run.len() - 1) as u32;
    }
    (run, ids)
}

/// `(value, rid)` sort keys if every value is an `Int`.
fn int_keys(values: &[Value]) -> Option<Vec<(i64, u32)>> {
    let mut keyed = Vec::with_capacity(values.len());
    for (value, rid) in values.iter().zip(0u32..) {
        match value {
            Value::Int(v) => keyed.push((*v, rid)),
            Value::Str(_) => return None,
        }
    }
    Some(keyed)
}

impl Column {
    /// Encode raw row values into a fresh column (builds the domain):
    /// one sort of the rows, see the [module docs](self).
    pub fn from_values(values: &[Value]) -> Self {
        assert!(
            u32::try_from(values.len()).is_ok(),
            "row IDs are 32 bits wide"
        );
        let (domain, ids) = match int_keys(values) {
            Some(keyed) => {
                let (run, ids) = rank_rows(keyed);
                (Domain::from_sorted_ints(run), ids)
            }
            None => {
                let (run, ids) = rank_rows(values.iter().zip(0u32..).collect());
                let run = run.into_iter().cloned().collect();
                (Domain::from_sorted_values(run), ids)
            }
        };
        Self::from_proven_parts(domain, ids)
    }

    /// Construct from pre-encoded parts, checking every ID against the
    /// domain.
    pub fn from_parts(domain: Domain, ids: Vec<u32>) -> Self {
        assert!(
            ids.iter().all(|&id| (id as usize) < domain.len()),
            "id out of domain range"
        );
        Self::from_proven_parts(domain, ids)
    }

    /// [`Column::from_parts`] for a caller that has already proven every
    /// ID in range (the rank encoder, the storage validator).
    pub(crate) fn from_proven_parts(domain: Domain, ids: Vec<u32>) -> Self {
        debug_assert!(ids.iter().all(|&id| (id as usize) < domain.len()));
        Self {
            domain,
            ids: ids.into(),
        }
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
    use crate::rid::RidList;
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

    /// Identical domain, IDs, RID order and key array.
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
        assert_eq!(col.domain(), &Domain::from_values(values.to_vec()));
        assert_eq!(col.ids(), ids);
        assert_eq!(rl.rids(), rids);
        assert_eq!(rl.expanded_ids(), keys);
    }

    fn ints(values: impl IntoIterator<Item = i64>) -> Vec<Value> {
        values.into_iter().map(Value::Int).collect()
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Narrow value ranges so duplicates are the rule; `shape` picks
        /// an all-`Int`, all-`Str` or mixed column.
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
    /// count, prefix sums up to the row count, both extremes of `i64`.
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
        uniform[17] = Value::Int(i64::MIN);
        uniform[ROWS as usize - 3] = Value::Int(i64::MAX);
        assert_matches_reference(&uniform);
        // All distinct, descending: every rank is used exactly once.
        assert_matches_reference(&ints((0..ROWS).rev()));
        // A thousand groups of two thousand rows each.
        assert_matches_reference(&ints((0..ROWS).map(|i| (i * 7919) % 1000)));
    }
}
