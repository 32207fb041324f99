//! Sorted domain dictionaries (§2.1), searched by the paper's own index
//! (§2.2).
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
//!
//! # Two representations, one canonical choice
//!
//! * **Typed** — every value is an [`Value::Int`] (the empty domain
//!   included): a flat, cache-line-aligned sorted `i64` array, 8 bytes per
//!   value, under a [`FullCssTree<i64, 8>`](css_tree::FullCssTree)
//!   directory (eight 8-byte keys = one 64-byte line per node). The
//!   directory is built where the domain is built and never stored: it is
//!   a deterministic function of the array, rebuilt in a millisecond or
//!   two when a saved catalog is opened.
//! * **Generic** — anything holding a [`Value::Str`] (strings, mixed): a
//!   sorted `[Value]`, searched by bisection over enum compares.
//!
//! The choice is made from the values, never by the caller, and an
//! all-`Int` domain is *never* held generically — so two domains are
//! equal exactly when they hold the same values, however each was built
//! (from rows, from a sort's key run, from a stored page).
//!
//! # The §2.2 searches
//!
//! "Transforming domain values to domain IDs ... requires searching on
//! the domain" — that search is [`Domain::encode`] for one constant and
//! [`Domain::encode_batch`] for the batches the operators hand over, and
//! on a typed domain both are `search`/`search_batch_lanes` calls on the
//! CSS-tree, so the engine's dictionary lookups descend the structure the
//! paper proposes instead of the binary search it beats. It is the only
//! search a probe makes: an ID addresses its rows in the column's
//! [`RidList`](crate::rid::RidList) directly. "We can process both
//! equality and inequality tests on domain IDs directly" —
//! [`Domain::lower_bound_id`] and [`Domain::id_range`] turn a value bound
//! into an ID bound with the tree's `lower_bound`, and a batch of ranges
//! resolves all of its endpoints in one batched descent. Enum order (`Int` before `Str`) is kept on both
//! representations: a `Str` probe sorts after every value of a typed
//! domain, so it encodes to `None` and lower-bounds to `len`.

use ccindex_common::{OrderedIndex, SearchIndex, SortedArray, DEFAULT_BATCH_LANES};
use css_tree::FullCssTree;
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

/// The directory over a typed domain: 8 eight-byte keys per node, one
/// 64-byte cache line (§5.1's node-size optimum at this key width).
type IntDirectory = FullCssTree<i64, 8>;

/// A sorted dictionary of the distinct values of one column.
///
/// Domain IDs are dense `0..len` integers in value order. Cloning shares
/// the dictionary (and its directory); see the [module docs](self) for
/// the two representations.
#[derive(Debug, Clone)]
pub struct Domain {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// All `Int` (or empty): the tree owns the flat sorted array.
    Int(Arc<IntDirectory>),
    /// Sorted, deduplicated, with at least one `Str`.
    Generic(Arc<[Value]>),
}

/// A domain's values as its representation stores them, for the callers
/// inside the crate that work on the typed array directly (the measure
/// scan, the storage writer).
pub(crate) enum DomainView<'a> {
    /// A typed domain's flat sorted array.
    Int(&'a [i64]),
    /// A generic domain's sorted values.
    Generic(&'a [Value]),
}

impl PartialEq for Domain {
    fn eq(&self, other: &Self) -> bool {
        match (self.view(), other.view()) {
            (DomainView::Int(a), DomainView::Int(b)) => a == b,
            (DomainView::Generic(a), DomainView::Generic(b)) => a == b,
            // Canonical representations: an all-`Int` domain is never
            // generic, so differing representations differ in values.
            _ => false,
        }
    }
}

impl Eq for Domain {}

/// One batched descent of a typed domain's directory — `lanes`
/// interleaved probes — as domain IDs.
fn search_ints(
    tree: &IntDirectory,
    probes: &[i64],
    lanes: usize,
) -> impl Iterator<Item = Option<u32>> {
    tree.search_batch_lanes(probes, lanes)
        .into_iter()
        .map(|hit| hit.map(|pos| pos as u32))
}

/// The `i64`s of `values` if every one is an `Int`.
fn all_ints(values: &[Value]) -> Option<Vec<i64>> {
    values
        .iter()
        .map(|v| match v {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        })
        .collect()
}

impl Domain {
    /// Build from any collection of values (deduplicated and sorted).
    pub fn from_values(mut values: Vec<Value>) -> Self {
        match all_ints(&values) {
            Some(mut ints) => {
                ints.sort_unstable();
                ints.dedup();
                Self::from_sorted_ints(ints)
            }
            None => {
                values.sort_unstable();
                values.dedup();
                Self::from_sorted_values(values)
            }
        }
    }

    /// A typed domain over `ints`, which the caller has proven strictly
    /// increasing (a sort's deduplicated key run, a validated page).
    pub(crate) fn from_sorted_ints(ints: Vec<i64>) -> Self {
        debug_assert!(ints.windows(2).all(|w| w[0] < w[1]));
        let directory = IntDirectory::from_shared(SortedArray::from_vec(ints));
        Self {
            repr: Repr::Int(Arc::new(directory)),
        }
    }

    /// A generic domain over `values`, which the caller has proven
    /// strictly increasing and to hold at least one `Str` (all-`Int`
    /// input belongs in [`Domain::from_sorted_ints`]).
    pub(crate) fn from_sorted_values(values: Vec<Value>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(matches!(values.last(), Some(Value::Str(_))));
        Self {
            repr: Repr::Generic(values.into()),
        }
    }

    /// The values, as this domain's representation stores them.
    pub(crate) fn view(&self) -> DomainView<'_> {
        match &self.repr {
            Repr::Int(tree) => DomainView::Int(tree.array().as_slice()),
            Repr::Generic(values) => DomainView::Generic(values),
        }
    }

    /// Whether every value is an `Int` (true of the empty domain) — a
    /// property of the representation, so O(1).
    pub fn is_int(&self) -> bool {
        matches!(self.repr, Repr::Int(_))
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        match self.view() {
            DomainView::Int(ints) => ints.len(),
            DomainView::Generic(values) => values.len(),
        }
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Domain ID of `value`, if present — §2.2's "searching on the
    /// domain": a CSS-tree descent on a typed domain, a binary search on
    /// a generic one.
    pub fn encode(&self, value: &Value) -> Option<u32> {
        match (&self.repr, value) {
            (Repr::Int(tree), Value::Int(v)) => tree.search(*v).map(|pos| pos as u32),
            (Repr::Int(_), Value::Str(_)) => None,
            (Repr::Generic(values), _) => values.binary_search(value).ok().map(|i| i as u32),
        }
    }

    /// Domain IDs for a whole batch of values; `out[i]` is
    /// `encode(values[i])`.
    ///
    /// "Transforming domain values to domain IDs requires searching on
    /// the domain" (§2.2), and the query operators transform constants by
    /// the batch. A typed domain answers with one `search_batch_lanes`
    /// over its directory; a generic domain runs as many interleaved
    /// bisections. Probes may be owned or borrowed
    /// (`&[Value]` or `&[&Value]`), so a caller whose probes already live
    /// in another dictionary clones nothing.
    pub fn encode_batch<V: Borrow<Value>>(&self, values: &[V]) -> Vec<Option<u32>> {
        self.encode_batch_lanes(values, DEFAULT_BATCH_LANES)
    }

    /// [`Domain::encode_batch`] at an explicit interleave lane count —
    /// what the operators call with their `ExecOptions::lanes`.
    pub(crate) fn encode_batch_lanes<V: Borrow<Value>>(
        &self,
        values: &[V],
        lanes: usize,
    ) -> Vec<Option<u32>> {
        match &self.repr {
            Repr::Int(tree) => {
                // `Str` probes sort after every `Int`: absent, unprobed.
                let ints: Vec<i64> = values
                    .iter()
                    .filter_map(|v| match v.borrow() {
                        Value::Int(i) => Some(*i),
                        Value::Str(_) => None,
                    })
                    .collect();
                let mut hits = search_ints(tree, &ints, lanes);
                values
                    .iter()
                    .map(|v| match v.borrow() {
                        Value::Int(_) => hits.next().flatten(),
                        Value::Str(_) => None,
                    })
                    .collect()
            }
            Repr::Generic(dictionary) => bisect_batch(dictionary, values),
        }
    }

    /// The IDs in `other` of this domain's values at the ascending `ids`
    /// (`None` where `other` lacks the value) — the join's outer→inner
    /// translation. Between two typed domains the probes are a gather of
    /// `i64`s, ascending because the IDs are, so they take the CSS-tree's
    /// ascending walk (`search_ascending`) instead of one root descent
    /// each; a generic source lends its values by reference.
    pub(crate) fn translate(&self, ids: &[u32], other: &Domain, lanes: usize) -> Vec<Option<u32>> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        match (self.view(), &other.repr) {
            (DomainView::Int(ints), Repr::Int(tree)) => {
                let probes: Vec<i64> = ids.iter().map(|&id| ints[id as usize]).collect();
                tree.search_ascending(&probes, lanes)
                    .into_iter()
                    .map(|hit| hit.map(|pos| pos as u32))
                    .collect()
            }
            (DomainView::Int(_), Repr::Generic(_)) => other.encode_batch(&self.decode_batch(ids)),
            (DomainView::Generic(values), _) => {
                let probes: Vec<&Value> = ids.iter().map(|&id| &values[id as usize]).collect();
                other.encode_batch_lanes(&probes, lanes)
            }
        }
    }

    /// ID of the first domain value `>= value` (equals `len` when every
    /// value is smaller). This is how inequality predicates on raw values
    /// become inequality predicates on IDs.
    pub fn lower_bound_id(&self, value: &Value) -> u32 {
        (match (&self.repr, value) {
            (Repr::Int(tree), Value::Int(v)) => tree.lower_bound(*v),
            (Repr::Int(tree), Value::Str(_)) => tree.len(),
            (Repr::Generic(values), _) => values.partition_point(|v| v < value),
        }) as u32
    }

    /// Inclusive ID range corresponding to the inclusive value range
    /// `[lo, hi]`; `None` when no domain value falls inside. An inverted
    /// range (`lo > hi`) contains no value, so it is `None` too — not a
    /// panic: range predicates arrive from untrusted query (and, through
    /// the serving layer, client) input, and the physical layer stays
    /// panic-free by construction. The one-range case of the batch the
    /// range operators resolve (`id_ranges`).
    pub fn id_range(&self, lo: &Value, hi: &Value) -> Option<(u32, u32)> {
        self.id_ranges(&[(lo, hi)], DEFAULT_BATCH_LANES)[0]
    }

    /// [`Domain::id_range`] for a whole batch of ranges, from one batched
    /// lower bound over every range's two endpoints: the first ID
    /// `>= lo` and the first ID `> hi`, which on a typed domain is the
    /// lower bound of `hi + 1`. A `Str` endpoint sorts after every `Int`,
    /// and `i64::MAX` has no successor, so such an endpoint resolves to
    /// `len` unprobed.
    pub(crate) fn id_ranges(
        &self,
        ranges: &[(&Value, &Value)],
        lanes: usize,
    ) -> Vec<Option<(u32, u32)>> {
        let bounds: Vec<usize> = match &self.repr {
            Repr::Int(tree) => {
                let probe = |v: &Value, past: i64| match v {
                    Value::Int(i) => i.checked_add(past),
                    Value::Str(_) => None,
                };
                let endpoints: Vec<Option<i64>> = ranges
                    .iter()
                    .flat_map(|&(lo, hi)| [probe(lo, 0), probe(hi, 1)])
                    .collect();
                let probes: Vec<i64> = endpoints.iter().flatten().copied().collect();
                let mut found = tree.lower_bound_batch_lanes(&probes, lanes).into_iter();
                endpoints
                    .iter()
                    .map(|e| e.and_then(|_| found.next()).unwrap_or(tree.len()))
                    .collect()
            }
            Repr::Generic(values) => ranges
                .iter()
                .flat_map(|&(lo, hi)| {
                    [
                        values.partition_point(|v| v < lo),
                        values.partition_point(|v| v <= hi),
                    ]
                })
                .collect(),
        };
        ranges
            .iter()
            .zip(bounds.chunks_exact(2))
            .map(|(&(lo, hi), b)| (lo <= hi && b[0] < b[1]).then(|| (b[0] as u32, b[1] as u32 - 1)))
            .collect()
    }

    /// The value for `id` (owned: an `Int` is a copy, and a typed domain
    /// holds no `Value` to lend).
    pub fn decode(&self, id: u32) -> Value {
        match self.view() {
            DomainView::Int(ints) => Value::Int(ints[id as usize]),
            DomainView::Generic(values) => values[id as usize].clone(),
        }
    }

    /// Decoded values for a whole batch of IDs; `out[i]` is
    /// `decode(ids[i])` — the inverse of [`Domain::encode_batch`].
    ///
    /// Decoding is a plain array gather (no search), so unlike encoding it
    /// needs no interleaving; the batch form exists so result sets can
    /// surface decoded values in one call instead of a per-row `decode`.
    pub fn decode_batch(&self, ids: &[u32]) -> Vec<Value> {
        match self.view() {
            DomainView::Int(ints) => ids
                .iter()
                .map(|&id| Value::Int(ints[id as usize]))
                .collect(),
            DomainView::Generic(values) => {
                ids.iter().map(|&id| values[id as usize].clone()).collect()
            }
        }
    }

    /// Heap footprint of the dictionary in bytes: 8 per value plus the
    /// directory for a typed domain; the enum slots plus the string bytes
    /// for a generic one.
    pub fn size_bytes(&self) -> usize {
        match &self.repr {
            Repr::Int(tree) => tree.array().size_bytes() + tree.space().indirect_bytes,
            Repr::Generic(values) => values
                .iter()
                .map(|v| match v {
                    Value::Int(_) => core::mem::size_of::<Value>(),
                    Value::Str(s) => core::mem::size_of::<Value>() + s.len(),
                })
                .sum(),
        }
    }
}

/// The generic representation's batch search: [`DEFAULT_BATCH_LANES`]
/// interleaved bisections over the enum dictionary. Every live probe
/// advances one step per round, keeping the round's dictionary accesses
/// independent of one another — the same software pipelining the CSS-trees
/// apply to directory descents.
fn bisect_batch<V: Borrow<Value>>(dictionary: &[Value], probes: &[V]) -> Vec<Option<u32>> {
    const LANES: usize = DEFAULT_BATCH_LANES;
    let n = dictionary.len();
    let mut out = vec![None; probes.len()];
    for (chunk_idx, chunk) in probes.chunks(LANES).enumerate() {
        let base = chunk_idx * LANES;
        let mut lo = [0usize; LANES];
        let mut hi = [n; LANES];
        let mut live = true;
        while live {
            live = false;
            for (lane, probe) in chunk.iter().enumerate() {
                if lo[lane] < hi[lane] {
                    let mid = lo[lane] + (hi[lane] - lo[lane]) / 2;
                    if dictionary[mid] < *probe.borrow() {
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
            if pos < n && dictionary[pos] == *probe.borrow() {
                out[base + lane] = Some(pos as u32);
            }
        }
    }
    out
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
            assert_eq!(d.encode(&d.decode(id)).unwrap(), id);
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

    /// A typed, a string and a mixed domain, each with probes that hit,
    /// miss between values, and fall off both ends — in both variants.
    fn representations() -> [(Domain, Vec<Value>); 3] {
        let text = |i: i64| Value::Str(format!("k{i:03}"));
        let mut probes: Vec<Value> = (-3..140).map(Value::Int).collect();
        probes.extend((-3..140).map(text));
        probes.extend([Value::Int(i64::MIN), Value::Int(i64::MAX), "".into()]);
        let int: Vec<Value> = (0..67).map(|i| Value::Int(i * 2)).collect();
        let string: Vec<Value> = (0..67).map(|i| text(i * 2)).collect();
        let mixed: Vec<Value> = int.iter().chain(&string).cloned().collect();
        [int, string, mixed].map(|values| (Domain::from_values(values), probes.clone()))
    }

    /// What every search must agree with: the sorted values themselves.
    fn sorted_values(d: &Domain) -> Vec<Value> {
        d.decode_batch(&(0..d.len() as u32).collect::<Vec<_>>())
    }

    #[test]
    fn representation_follows_the_values() {
        let [int, string, mixed] = representations().map(|(d, _)| d);
        assert!(int.is_int() && !string.is_int() && !mixed.is_int());
        assert!(Domain::from_values(vec![]).is_int(), "empty is typed");
        // Equality is about values, however the domain was built.
        assert_eq!(
            int,
            Domain::from_sorted_ints((0..67).map(|i| i * 2).collect())
        );
        assert_eq!(mixed, Domain::from_sorted_values(sorted_values(&mixed)));
        assert_ne!(int, mixed);
        assert_ne!(int, Domain::from_values(vec![Value::Int(0)]));
    }

    #[test]
    fn searches_agree_with_the_sorted_values_on_both_representations() {
        for (d, probes) in representations() {
            let values = sorted_values(&d);
            assert!(values.windows(2).all(|w| w[0] < w[1]));
            for probe in &probes {
                assert_eq!(
                    d.encode(probe),
                    values.binary_search(probe).ok().map(|i| i as u32),
                    "encode {probe:?}"
                );
                assert_eq!(
                    d.lower_bound_id(probe) as usize,
                    values.partition_point(|v| v < probe),
                    "lower_bound_id {probe:?}"
                );
            }
            // Batches around the lane count, owned and borrowed probes.
            let expected: Vec<Option<u32>> = probes.iter().map(|v| d.encode(v)).collect();
            for len in [0usize, 1, 7, 8, 9, 15, 16, 17, probes.len()] {
                assert_eq!(d.encode_batch(&probes[..len]), expected[..len]);
            }
            let borrowed: Vec<&Value> = probes.iter().rev().collect();
            let mut reversed = expected.clone();
            reversed.reverse();
            assert_eq!(d.encode_batch(&borrowed), reversed);
            // decode_batch inverts encode_batch on the hits.
            let hits: Vec<u32> = expected.iter().flatten().copied().collect();
            let present: Vec<Value> = probes
                .iter()
                .zip(&expected)
                .filter_map(|(v, id)| id.map(|_| v.clone()))
                .collect();
            assert_eq!(d.decode_batch(&hits), present);
        }
    }

    #[test]
    fn id_ranges_follow_enum_order_across_types() {
        for (d, probes) in representations() {
            let values = sorted_values(&d);
            // Every 7th probe as a bound keeps the square small.
            let bounds: Vec<&Value> = probes.iter().step_by(7).collect();
            let mut square = Vec::new();
            for &lo in &bounds {
                for &hi in &bounds {
                    let inside: Vec<u32> = (0u32..)
                        .zip(&values)
                        .filter_map(|(id, v)| (lo <= v && v <= hi).then_some(id))
                        .collect();
                    let want = inside
                        .first()
                        .map(|&first| (first, inside[inside.len() - 1]));
                    assert_eq!(d.id_range(lo, hi), want, "[{lo:?}, {hi:?}]");
                    square.push(((lo, hi), want));
                }
            }
            // The whole square as one batch of endpoints, at every lane count.
            let (ranges, want): (Vec<_>, Vec<_>) = square.into_iter().unzip();
            for lanes in [1, 3, 8] {
                assert_eq!(d.id_ranges(&ranges, lanes), want, "lanes={lanes}");
            }
        }
        let [int, string, _] = representations().map(|(d, _)| d);
        // A `Str` sorts after every `Int`, on either side of the probe.
        assert_eq!(int.encode(&"k000".into()), None);
        assert_eq!(int.lower_bound_id(&"".into()), 67);
        assert_eq!(int.id_range(&Value::Int(100), &"z".into()), Some((50, 66)));
        assert_eq!(int.id_range(&"a".into(), &"z".into()), None);
        assert_eq!(int.id_range(&"a".into(), &Value::Int(5)), None, "inverted");
        assert_eq!(string.encode(&Value::Int(0)), None);
        assert_eq!(string.lower_bound_id(&Value::Int(i64::MAX)), 0);
        assert_eq!(
            string.id_range(&Value::Int(0), &"k003".into()),
            Some((0, 1))
        );
        // The top of the integer range has no successor to probe.
        let top = Domain::from_values(vec![Value::Int(i64::MAX), Value::Int(0)]);
        assert_eq!(
            top.id_range(&Value::Int(1), &Value::Int(i64::MAX)),
            Some((1, 1))
        );
    }

    #[test]
    fn translate_matches_per_value_encode_for_every_pairing() {
        let domains = representations().map(|(d, _)| d);
        // Targets that hold some of the source's values and some others.
        let targets = [
            Domain::from_values((0..200).map(|i| Value::Int(i * 3)).collect()),
            Domain::from_values(
                (0..200)
                    .map(|i| Value::Str(format!("k{:03}", i * 3)))
                    .collect(),
            ),
            Domain::from_values(
                (0..200)
                    .flat_map(|i| [Value::Int(i * 3), Value::Str(format!("k{:03}", i * 3))])
                    .collect(),
            ),
            Domain::from_values(vec![]),
        ];
        for source in &domains {
            let ids: Vec<u32> = (0..source.len() as u32).filter(|id| id % 5 != 1).collect();
            for target in &targets {
                let want: Vec<Option<u32>> = ids
                    .iter()
                    .map(|&id| target.encode(&source.decode(id)))
                    .collect();
                for lanes in [1, 3, 8] {
                    assert_eq!(source.translate(&ids, target, lanes), want);
                }
            }
            assert!(source.translate(&[], &targets[0], 8).is_empty());
        }
    }

    /// Between typed domains the translation takes the CSS-tree's
    /// ascending walk; these ID sets push it through each of its regimes:
    /// every ID (a merge), one in a hundred (a descent each), and runs of
    /// consecutive IDs broken by gaps that alternate between short (still
    /// beside the last answer) and long (a descent).
    #[test]
    fn translate_walks_dense_sparse_and_gapped_id_sets() {
        let source = Domain::from_values((0..5_000).map(|i| Value::Int(i * 2)).collect());
        let target = Domain::from_values((0..4_000).map(|i| Value::Int(i * 3 - 600)).collect());
        let n = source.len() as u32;
        let dense: Vec<u32> = (0..n).collect();
        let sparse: Vec<u32> = (0..n).filter(|id| id % 100 == 37).collect();
        let gapped: Vec<u32> = (0..n)
            .filter(|id| {
                let (block, at) = (id / 40, id % 40);
                at < 10 || (block % 2 == 0 && (at == 14 || at == 31))
            })
            .collect();
        for ids in [dense, sparse, gapped] {
            let want: Vec<Option<u32>> = ids
                .iter()
                .map(|&id| target.encode(&source.decode(id)))
                .collect();
            assert!(want.iter().any(Option::is_some) && want.iter().any(Option::is_none));
            for lanes in [1, 3, 8] {
                assert_eq!(
                    source.translate(&ids, &target, lanes),
                    want,
                    "lanes={lanes}"
                );
            }
        }
    }

    #[test]
    fn size_bytes_counts_the_typed_array_and_its_directory() {
        let typed = Domain::from_values((0..10_000).map(Value::Int).collect());
        let bytes = typed.size_bytes();
        // 8 bytes a value, plus a directory of about an eighth of that.
        assert!((80_000..80_000 * 5 / 4).contains(&bytes), "{bytes}");
        let strings = Domain::from_values(vec!["ab".into(), "c".into()]);
        assert_eq!(strings.size_bytes(), 2 * core::mem::size_of::<Value>() + 3);
    }

    #[test]
    fn id_range_answers_inverted_with_none() {
        // An inverted range contains no value — empty, never a panic
        // (ranges arrive from untrusted query/client input).
        let d = domain();
        assert_eq!(d.id_range(&Value::Int(5), &Value::Int(1)), None);
    }
}
