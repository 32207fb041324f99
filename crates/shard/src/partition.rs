//! Key-space partitioners: who owns which row.
//!
//! A [`Partitioner`] maps a table's shard-key values onto `0..shards`.
//! It answers three questions, in increasing order of selectivity:
//! placement (`shard_of`: where does a *row* live — a typed error when
//! no shard owns the key), equality routing (`probe_shards`: which
//! shards could an `=` probe match — empty when none can), and range
//! routing (`range_shards`: which shards could a `[lo, hi]` probe
//! match). The sharded executor uses the latter two to *prune* the
//! scatter set; the conservative defaults (route everywhere) are always
//! correct, so a custom partitioner only overrides what it can prune.

use mmdb::{MmdbError, Result, Value};

/// A deterministic mapping from shard-key values to shard indexes.
pub trait Partitioner: std::fmt::Debug + Send + Sync {
    /// Number of shards this partitioner declares (always ≥ 1).
    fn shards(&self) -> usize;

    /// The shard that owns rows keyed by `key` — the placement function
    /// used when registering tables and splitting update batches. Fails
    /// with [`MmdbError::ShardKeyOutOfRange`] when no shard owns the key.
    fn shard_of(&self, key: &Value) -> Result<usize>;

    /// Shards an equality probe for `key` could match. The default
    /// derives from placement: the owning shard, or no shard at all when
    /// the key is outside the partitioned key space (such a probe can
    /// match no stored row, so an empty route is the correct answer —
    /// not an error).
    fn probe_shards(&self, key: &Value) -> Vec<usize> {
        match self.shard_of(key) {
            Ok(s) => vec![s],
            Err(_) => Vec::new(),
        }
    }

    /// Shards whose keys can fall in the inclusive range `[lo, hi]`,
    /// ascending. The conservative default routes to every shard (a hash
    /// partitioner scatters neighbouring keys, so it cannot prune
    /// ranges); order-preserving partitioners override this.
    fn range_shards(&self, lo: &Value, hi: &Value) -> Vec<usize> {
        let _ = (lo, hi);
        (0..self.shards()).collect()
    }

    /// One-line description for plan explain output, e.g. `hash x4`.
    fn describe(&self) -> String;
}

/// Multiplicative-FNV hash partitioning: shard = `fnv1a(key) % shards`.
///
/// The hash is a fixed-key FNV-1a over a canonical byte encoding of the
/// value, so placement is deterministic across processes and platforms
/// (a catalog written by one node routes identically on another).
/// Equality probes prune to exactly one shard; range probes cannot prune
/// (neighbouring keys scatter) and fan to all shards.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    shards: usize,
}

impl HashPartitioner {
    /// A hash partitioner over `shards` shards (must be ≥ 1).
    pub fn new(shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(MmdbError::InvalidPartitioner {
                reason: "shard count must be at least 1".into(),
            });
        }
        Ok(Self { shards })
    }
}

/// Fixed-key FNV-1a over a canonical encoding: a type tag byte, then the
/// little-endian integer bytes or the UTF-8 string bytes.
fn fnv1a(value: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    match value {
        Value::Int(i) => {
            eat(0);
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        Value::Str(s) => {
            eat(1);
            for &b in s.as_bytes() {
                eat(b);
            }
        }
    }
    h
}

impl Partitioner for HashPartitioner {
    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, key: &Value) -> Result<usize> {
        Ok((fnv1a(key) % self.shards as u64) as usize)
    }

    fn describe(&self) -> String {
        format!("hash x{}", self.shards)
    }
}

/// Range partitioning over explicitly declared inclusive key ranges,
/// one per shard: shard `i` owns every key in `ranges[i]`.
///
/// Ranges must be ascending and non-overlapping (validated at
/// construction with a typed [`MmdbError::InvalidPartitioner`]); they
/// need not be contiguous, and a shard whose range ends up holding no
/// rows is fine — an **empty shard** answers every query with empty
/// partial results. A key between or beyond the declared ranges has no
/// owner: placement fails with [`MmdbError::ShardKeyOutOfRange`]
/// (a typed error, never a panic), while equality/range *probes* for
/// such keys simply route to no shard / only the overlapping shards.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    ranges: Vec<(Value, Value)>,
}

impl RangePartitioner {
    /// A range partitioner owning the given inclusive `(lo, hi)` ranges,
    /// one shard per range in the given order.
    pub fn new(ranges: Vec<(Value, Value)>) -> Result<Self> {
        if ranges.is_empty() {
            return Err(MmdbError::InvalidPartitioner {
                reason: "a range partitioner needs at least one range".into(),
            });
        }
        for (i, (lo, hi)) in ranges.iter().enumerate() {
            if lo > hi {
                return Err(MmdbError::InvalidPartitioner {
                    reason: format!("range {i} is inverted: [{lo}, {hi}]"),
                });
            }
            if let Some((_, prev_hi)) = ranges.get(i.wrapping_sub(1)) {
                if prev_hi >= lo {
                    return Err(MmdbError::InvalidPartitioner {
                        reason: format!(
                            "range {i} starting at {lo} overlaps or precedes \
                             the previous range ending at {prev_hi}"
                        ),
                    });
                }
            }
        }
        Ok(Self { ranges })
    }

    /// Convenience: `shards` near-equal integer ranges covering
    /// `[lo, hi]` inclusive; the first `(hi - lo + 1) % shards` shards
    /// take one key more than the rest. The span may reach both ends of
    /// `i64`; it needs at least one key per shard.
    pub fn int_spans(lo: i64, hi: i64, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(MmdbError::InvalidPartitioner {
                reason: "shard count must be at least 1".into(),
            });
        }
        if lo > hi {
            return Err(MmdbError::InvalidPartitioner {
                reason: format!("inverted key span [{lo}, {hi}]"),
            });
        }
        // The key count of a full `i64` span is 2^64, so count in i128.
        let span = i128::from(hi) - i128::from(lo) + 1;
        let (base, extra) = (span / shards as i128, span % shards as i128);
        if base == 0 {
            return Err(MmdbError::InvalidPartitioner {
                reason: format!("span [{lo}, {hi}] is too narrow for {shards} non-empty shards"),
            });
        }
        // Every bound lies in `[lo, hi]`, so it converts back exactly.
        let key = |k: i128| Value::Int(i64::try_from(k).expect("a bound within [lo, hi]"));
        let mut ranges = Vec::with_capacity(shards);
        let mut start = i128::from(lo);
        for s in 0..shards as i128 {
            let width = base + i128::from(s < extra);
            ranges.push((key(start), key(start + width - 1)));
            start += width;
        }
        debug_assert_eq!(start, i128::from(hi) + 1);
        Self::new(ranges)
    }

    /// The declared ranges, in shard order.
    pub fn ranges(&self) -> &[(Value, Value)] {
        &self.ranges
    }
}

impl Partitioner for RangePartitioner {
    fn shards(&self) -> usize {
        self.ranges.len()
    }

    fn shard_of(&self, key: &Value) -> Result<usize> {
        // Ranges are ascending and disjoint: find the first range whose
        // upper bound admits the key, then check its lower bound.
        let i = self.ranges.partition_point(|(_, hi)| hi < key);
        match self.ranges.get(i) {
            Some((lo, _)) if lo <= key => Ok(i),
            _ => Err(MmdbError::ShardKeyOutOfRange {
                key: key.to_string(),
                shards: self.ranges.len(),
            }),
        }
    }

    fn range_shards(&self, lo: &Value, hi: &Value) -> Vec<usize> {
        if lo > hi {
            return Vec::new();
        }
        // The declared ranges are ascending and disjoint, so the shards
        // a probe `[lo, hi]` can touch form one contiguous span: those
        // with `shard_hi >= lo` are a suffix, those with `shard_lo <=
        // hi` are a prefix, and the overlap is everything between the
        // two partition points — found in O(log shards) instead of the
        // per-probe linear scan over every shard.
        let start = self.ranges.partition_point(|(_, shi)| shi < lo);
        let end = self.ranges.partition_point(|(slo, _)| slo <= hi);
        (start..end).collect()
    }

    fn describe(&self) -> String {
        let spans: Vec<String> = self
            .ranges
            .iter()
            .map(|(lo, hi)| format!("[{lo}, {hi}]"))
            .collect();
        format!("range x{}: {}", self.ranges.len(), spans.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_total() {
        let p = HashPartitioner::new(4).unwrap();
        assert_eq!(p.shards(), 4);
        for v in [Value::Int(-5), Value::Int(0), Value::Str("east".into())] {
            let s = p.shard_of(&v).unwrap();
            assert!(s < 4);
            assert_eq!(p.shard_of(&v).unwrap(), s, "stable");
            assert_eq!(p.probe_shards(&v), vec![s], "eq probes prune to one");
        }
        // Ranges cannot prune under hashing.
        assert_eq!(
            p.range_shards(&Value::Int(1), &Value::Int(2)),
            vec![0, 1, 2, 3]
        );
        assert!(p.describe().contains("hash x4"));
        assert!(matches!(
            HashPartitioner::new(0).unwrap_err(),
            MmdbError::InvalidPartitioner { .. }
        ));
    }

    #[test]
    fn hash_spreads_across_shards() {
        let p = HashPartitioner::new(8).unwrap();
        let mut hit = [false; 8];
        for i in 0..1000i64 {
            hit[p.shard_of(&Value::Int(i)).unwrap()] = true;
        }
        assert!(hit.iter().all(|&h| h), "every shard receives keys");
    }

    #[test]
    fn range_partitioner_places_and_prunes() {
        let p = RangePartitioner::new(vec![
            (Value::Int(0), Value::Int(9)),
            (Value::Int(10), Value::Int(19)),
            (Value::Int(30), Value::Int(39)), // gap: 20..=29 owned by nobody
        ])
        .unwrap();
        assert_eq!(p.shards(), 3);
        assert_eq!(p.shard_of(&Value::Int(0)).unwrap(), 0);
        assert_eq!(p.shard_of(&Value::Int(19)).unwrap(), 1);
        assert_eq!(p.shard_of(&Value::Int(35)).unwrap(), 2);
        // Out-of-range placement is a typed error naming the key.
        let err = p.shard_of(&Value::Int(25)).unwrap_err();
        assert_eq!(
            err,
            MmdbError::ShardKeyOutOfRange {
                key: "25".into(),
                shards: 3
            }
        );
        assert!(p.shard_of(&Value::Int(40)).is_err());
        assert!(p.shard_of(&Value::Int(-1)).is_err());
        // ... but an equality probe for it just routes nowhere.
        assert!(p.probe_shards(&Value::Int(25)).is_empty());
        // Range pruning keeps only intersecting shards.
        assert_eq!(p.range_shards(&Value::Int(5), &Value::Int(12)), vec![0, 1]);
        assert_eq!(p.range_shards(&Value::Int(20), &Value::Int(29)), vec![]);
        assert_eq!(
            p.range_shards(&Value::Int(-100), &Value::Int(100)),
            vec![0, 1, 2]
        );
        assert_eq!(p.range_shards(&Value::Int(12), &Value::Int(5)), vec![]);
        assert!(p.describe().starts_with("range x3"));
    }

    #[test]
    fn range_shards_matches_linear_reference_on_boundary_matrix() {
        // The linear scan the partition-point span replaced: keep shard
        // i iff its declared range intersects [lo, hi]. Routing must
        // stay byte-identical across the full boundary matrix.
        fn linear(p: &RangePartitioner, lo: &Value, hi: &Value) -> Vec<usize> {
            if lo > hi {
                return Vec::new();
            }
            (0..p.ranges().len())
                .filter(|&i| {
                    let (slo, shi) = &p.ranges()[i];
                    slo <= hi && lo <= shi
                })
                .collect()
        }
        // Gapped layout: every boundary class is reachable (before the
        // first range, on edges, inside gaps, past the last range).
        let gapped = RangePartitioner::new(vec![
            (Value::Int(0), Value::Int(9)),
            (Value::Int(10), Value::Int(19)),
            (Value::Int(30), Value::Int(39)),
        ])
        .unwrap();
        let contiguous = RangePartitioner::int_spans(0, 39, 4).unwrap();
        let single = RangePartitioner::new(vec![(Value::Int(5), Value::Int(5))]).unwrap();
        let probes: Vec<i64> = vec![
            -100, -1, 0, 1, 4, 5, 6, 9, 10, 11, 19, 20, 25, 29, 30, 35, 39, 40, 100,
        ];
        for p in [&gapped, &contiguous, &single] {
            for &a in &probes {
                for &b in &probes {
                    // The full matrix includes inverted bounds (a > b),
                    // which must route nowhere on both paths.
                    let (lo, hi) = (Value::Int(a), Value::Int(b));
                    let got = p.range_shards(&lo, &hi);
                    assert_eq!(got, linear(p, &lo, &hi), "{} [{a}, {b}]", p.describe());
                    // The span is contiguous and every listed shard is
                    // in bounds, ascending.
                    assert!(got.windows(2).all(|w| w[1] == w[0] + 1), "[{a}, {b}]");
                    assert!(got.iter().all(|&s| s < p.shards()), "[{a}, {b}]");
                }
            }
        }
        // String-keyed ranges take the same code path.
        let s = RangePartitioner::new(vec![
            (Value::from("a"), Value::from("f")),
            (Value::from("g"), Value::from("m")),
        ])
        .unwrap();
        assert_eq!(
            s.range_shards(&Value::from("e"), &Value::from("h")),
            linear(&s, &Value::from("e"), &Value::from("h"))
        );
        assert_eq!(s.range_shards(&Value::from("z"), &Value::from("a")), vec![]);
    }

    #[test]
    fn range_partitioner_rejects_bad_specs() {
        for (ranges, what) in [
            (vec![], "empty"),
            (vec![(Value::Int(5), Value::Int(1))], "inverted"),
            (
                vec![
                    (Value::Int(0), Value::Int(9)),
                    (Value::Int(9), Value::Int(20)),
                ],
                "overlapping",
            ),
            (
                vec![
                    (Value::Int(10), Value::Int(19)),
                    (Value::Int(0), Value::Int(9)),
                ],
                "descending",
            ),
        ] {
            assert!(
                matches!(
                    RangePartitioner::new(ranges.clone()),
                    Err(MmdbError::InvalidPartitioner { .. })
                ),
                "{what}: {ranges:?}"
            );
        }
    }

    #[test]
    fn int_spans_cover_the_whole_span() {
        let p = RangePartitioner::int_spans(0, 99, 4).unwrap();
        assert_eq!(p.shards(), 4);
        for k in 0..100i64 {
            assert!(p.shard_of(&Value::Int(k)).is_ok(), "key {k}");
        }
        assert!(p.shard_of(&Value::Int(100)).is_err());
        // Uneven width: the first `11 % 4` shards take one key more.
        let p = RangePartitioner::int_spans(0, 10, 4).unwrap();
        assert_eq!(p.ranges(), spans(&[(0, 2), (3, 5), (6, 8), (9, 10)]));
        for k in 0..=10i64 {
            assert!(p.shard_of(&Value::Int(k)).is_ok(), "key {k}");
        }
        // A span with exactly one key per shard (and a little remainder)
        // is feasible and must not be rejected.
        let p = RangePartitioner::int_spans(0, 4, 4).unwrap();
        assert_eq!(p.shards(), 4);
        for k in 0..=4i64 {
            assert!(p.shard_of(&Value::Int(k)).is_ok(), "key {k}");
        }
        let p = RangePartitioner::int_spans(0, 8, 4).unwrap();
        for k in 0..=8i64 {
            assert!(p.shard_of(&Value::Int(k)).is_ok(), "key {k}");
        }
        assert!(RangePartitioner::int_spans(0, 1, 8).is_err(), "too narrow");
        assert!(RangePartitioner::int_spans(5, 1, 2).is_err(), "inverted");
        assert!(RangePartitioner::int_spans(0, 9, 0).is_err(), "zero shards");
    }

    fn spans(bounds: &[(i64, i64)]) -> Vec<(Value, Value)> {
        bounds
            .iter()
            .map(|&(lo, hi)| (Value::Int(lo), Value::Int(hi)))
            .collect()
    }

    #[test]
    fn int_spans_reach_both_ends_of_i64() {
        const MIN: i64 = i64::MIN;
        const MAX: i64 = i64::MAX;
        for (lo, hi, shards, want) in [
            (MIN, MAX, 1, spans(&[(MIN, MAX)])),
            (MIN, MAX, 2, spans(&[(MIN, -1), (0, MAX)])),
            (0, MAX, 1, spans(&[(0, MAX)])),
            (0, MAX, 2, spans(&[(0, MAX / 2), (MAX / 2 + 1, MAX)])),
            (MIN, -1, 2, spans(&[(MIN, MIN / 2 - 1), (MIN / 2, -1)])),
            (MIN, MIN, 1, spans(&[(MIN, MIN)])),
            (
                MAX - 2,
                MAX,
                3,
                spans(&[(MAX - 2, MAX - 2), (MAX - 1, MAX - 1), (MAX, MAX)]),
            ),
            // 2^63 + 1 keys: the first shard takes the one extra.
            (
                -1,
                MAX,
                4,
                spans(&[
                    (-1, (1 << 61) - 1),
                    (1 << 61, (1 << 62) - 1),
                    (1 << 62, (3 << 61) - 1),
                    (3 << 61, MAX),
                ]),
            ),
        ] {
            let p = RangePartitioner::int_spans(lo, hi, shards)
                .unwrap_or_else(|e| panic!("[{lo}, {hi}] x{shards}: {e}"));
            assert_eq!(p.ranges(), want, "[{lo}, {hi}] x{shards}");
            for key in [lo, hi] {
                assert!(p.shard_of(&Value::Int(key)).is_ok(), "key {key}");
            }
        }
        assert!(
            RangePartitioner::int_spans(MAX, MAX, 2).is_err(),
            "one key, two shards"
        );
    }
}
