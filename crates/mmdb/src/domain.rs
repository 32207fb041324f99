//! Sorted domain dictionaries (§2.1).
//!
//! "When data is first loaded into main memory, distinct data values are
//! stored in an external structure — domain — and only pointers to domain
//! values are stored in place in each column. ... We go further than
//! \[AHK85\] by keeping the domain values in order and associate each value
//! with a domain ID (represented by an integer). As a result, we can
//! process both equality and inequality tests on domain IDs directly."
//!
//! Because the domain is sorted, **domain-ID order equals value order**:
//! `encode(a) < encode(b) ⇔ a < b`, which is what lets range predicates run
//! on the 4-byte IDs and lets every index in this workspace index IDs
//! instead of (possibly variable-length) values.

use std::borrow::Borrow;
use std::sync::Arc;

/// A database value. Variable-length strings demonstrate benefit (b) of
/// domain encoding ("simplified handling of variable-length fields").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A sorted dictionary of the distinct values of one column.
///
/// Domain IDs are dense `0..len` integers in value order. "Transforming
/// domain values to domain IDs ... requires searching on the domain"
/// (§2.2) — [`Domain::encode`] is that search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    values: Arc<Vec<Value>>,
}

impl Domain {
    /// Build from any collection of values (deduplicated and sorted).
    pub fn from_values(mut values: Vec<Value>) -> Self {
        values.sort_unstable();
        values.dedup();
        Self {
            values: Arc::new(values),
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Domain ID of `value`, if present (binary search on the sorted
    /// domain — itself one of the paper's three index consumers).
    pub fn encode(&self, value: &Value) -> Option<u32> {
        self.values.binary_search(value).ok().map(|i| i as u32)
    }

    /// Domain IDs for a whole batch of values; `out[i]` is
    /// `encode(values[i])`.
    ///
    /// "Transforming domain values to domain IDs requires searching on
    /// the domain" (§2.2), and the query operators transform constants by
    /// the batch, so the search runs [`DEFAULT_BATCH_LANES`] interleaved
    /// bisections: every live probe advances one step per round, keeping
    /// the round's dictionary accesses independent of one another — the
    /// same software pipelining the CSS-trees apply to directory descents.
    /// Probes may be owned or borrowed (`&[Value]` or `&[&Value]`), so a
    /// caller whose probes already live in another dictionary — the
    /// join's outer→inner domain translation — clones nothing.
    ///
    /// [`DEFAULT_BATCH_LANES`]: ccindex_common::DEFAULT_BATCH_LANES
    pub fn encode_batch<V: Borrow<Value>>(&self, values: &[V]) -> Vec<Option<u32>> {
        const LANES: usize = ccindex_common::DEFAULT_BATCH_LANES;
        let n = self.values.len();
        let mut out = vec![None; values.len()];
        if n == 0 {
            return out;
        }
        for (chunk_idx, chunk) in values.chunks(LANES).enumerate() {
            let base = chunk_idx * LANES;
            let mut lo = [0usize; LANES];
            let mut hi = [n; LANES];
            let mut live = true;
            while live {
                live = false;
                for (lane, probe) in chunk.iter().enumerate() {
                    if lo[lane] < hi[lane] {
                        let mid = lo[lane] + (hi[lane] - lo[lane]) / 2;
                        if self.values[mid] < *probe.borrow() {
                            lo[lane] = mid + 1;
                        } else {
                            hi[lane] = mid;
                        }
                        live |= lo[lane] < hi[lane];
                    }
                }
            }
            for (lane, probe) in chunk.iter().enumerate() {
                let pos = lo[lane];
                if pos < n && self.values[pos] == *probe.borrow() {
                    out[base + lane] = Some(pos as u32);
                }
            }
        }
        out
    }

    /// ID of the first domain value `>= value` (equals `len` when every
    /// value is smaller). This is how inequality predicates on raw values
    /// become inequality predicates on IDs.
    pub fn lower_bound_id(&self, value: &Value) -> u32 {
        self.values.partition_point(|v| v < value) as u32
    }

    /// Inclusive ID range corresponding to the inclusive value range
    /// `[lo, hi]`; `None` when no domain value falls inside. An inverted
    /// range (`lo > hi`) contains no value, so it is `None` too — not a
    /// panic: range predicates arrive from untrusted query (and, through
    /// the serving layer, client) input, and the physical layer stays
    /// panic-free by construction.
    pub fn id_range(&self, lo: &Value, hi: &Value) -> Option<(u32, u32)> {
        if lo > hi {
            return None;
        }
        let start = self.lower_bound_id(lo);
        let end = self.values.partition_point(|v| v <= hi) as u32;
        (start < end).then(|| (start, end - 1))
    }

    /// The value for `id`.
    pub fn decode(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// Decoded values for a whole batch of IDs; `out[i]` is
    /// `decode(ids[i]).clone()` — the inverse of [`Domain::encode_batch`].
    ///
    /// Decoding is a plain array gather (no search), so unlike encoding it
    /// needs no interleaving; the batch form exists so result sets can
    /// surface decoded values in one call instead of a per-row `decode`.
    pub fn decode_batch(&self, ids: &[u32]) -> Vec<Value> {
        ids.iter()
            .map(|&id| self.values[id as usize].clone())
            .collect()
    }

    /// All values in ID (= value) order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Approximate heap footprint of the dictionary in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values
            .iter()
            .map(|v| match v {
                Value::Int(_) => core::mem::size_of::<Value>(),
                Value::Str(s) => core::mem::size_of::<Value>() + s.len(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Domain {
        Domain::from_values(vec![
            "cherry".into(),
            "apple".into(),
            "banana".into(),
            "apple".into(), // duplicate collapses
        ])
    }

    #[test]
    fn ids_are_dense_and_value_ordered() {
        let d = domain();
        assert_eq!(d.len(), 3);
        assert_eq!(d.encode(&"apple".into()), Some(0));
        assert_eq!(d.encode(&"banana".into()), Some(1));
        assert_eq!(d.encode(&"cherry".into()), Some(2));
        assert_eq!(d.encode(&"durian".into()), None);
    }

    #[test]
    fn id_order_equals_value_order() {
        // The §2.1 property: comparisons on IDs == comparisons on values.
        let d = Domain::from_values((0..100).map(|i| Value::Int(i * 7)).collect());
        for a in 0..100u32 {
            for b in 0..100u32 {
                assert_eq!(
                    d.decode(a) < d.decode(b),
                    a < b,
                    "IDs must be value-ordered"
                );
            }
        }
    }

    #[test]
    fn inequality_predicates_on_ids() {
        let d = Domain::from_values((0..50).map(|i| Value::Int(i * 10)).collect());
        // value < 95  <=>  id < lower_bound_id(95) = 10.
        assert_eq!(d.lower_bound_id(&Value::Int(95)), 10);
        assert_eq!(d.lower_bound_id(&Value::Int(90)), 9);
        assert_eq!(d.lower_bound_id(&Value::Int(-5)), 0);
        assert_eq!(d.lower_bound_id(&Value::Int(10_000)), 50);
    }

    #[test]
    fn id_range_maps_value_ranges() {
        let d = Domain::from_values((0..50).map(|i| Value::Int(i * 10)).collect());
        assert_eq!(
            d.id_range(&Value::Int(95), &Value::Int(130)),
            Some((10, 13))
        );
        assert_eq!(
            d.id_range(&Value::Int(100), &Value::Int(100)),
            Some((10, 10))
        );
        assert_eq!(d.id_range(&Value::Int(101), &Value::Int(109)), None);
    }

    #[test]
    fn encode_batch_matches_encode() {
        let d = Domain::from_values((0..137).map(|i| Value::Int(i * 3)).collect());
        let probes: Vec<Value> = (0..450).map(|i| Value::Int(i - 20)).collect();
        let expected: Vec<Option<u32>> = probes.iter().map(|v| d.encode(v)).collect();
        assert_eq!(d.encode_batch(&probes), expected);
        // Degenerate shapes: empty batch, empty domain, ragged tails.
        assert!(d.encode_batch::<Value>(&[]).is_empty());
        let empty = Domain::from_values(vec![]);
        assert_eq!(empty.encode_batch(&probes[..3]), vec![None, None, None]);
        for len in [1usize, 7, 8, 9, 15, 16, 17] {
            assert_eq!(d.encode_batch(&probes[..len]), expected[..len]);
        }
    }

    #[test]
    fn decode_batch_inverts_encode_batch() {
        let d = Domain::from_values((0..97).map(|i| Value::Int(i * 5)).collect());
        let probes: Vec<Value> = (0..97).rev().map(|i| Value::Int(i * 5)).collect();
        let ids: Vec<u32> = d
            .encode_batch(&probes)
            .into_iter()
            .map(|id| id.expect("all present"))
            .collect();
        assert_eq!(d.decode_batch(&ids), probes);
        assert!(d.decode_batch(&[]).is_empty());
    }

    #[test]
    fn decode_roundtrip() {
        let d = domain();
        for id in 0..d.len() as u32 {
            assert_eq!(d.encode(d.decode(id)).unwrap(), id);
        }
    }

    #[test]
    fn mixed_type_ordering_is_total() {
        // Ints sort before strings (enum variant order): a quirk, but
        // total — domains with mixed types still behave.
        let d = Domain::from_values(vec![Value::Str("a".into()), Value::Int(5)]);
        assert_eq!(d.encode(&Value::Int(5)), Some(0));
        assert_eq!(d.encode(&Value::Str("a".into())), Some(1));
    }

    #[test]
    fn id_range_answers_inverted_with_none() {
        // An inverted range contains no value — empty, never a panic
        // (ranges arrive from untrusted query/client input).
        let d = domain();
        assert_eq!(d.id_range(&Value::Int(5), &Value::Int(1)), None);
    }
}
