//! The common interface implemented by all seven competing index methods.
//!
//! The paper compares methods on two axes: lookup time and space (§2.3).
//! [`SearchIndex`] exposes both — `search` for timing and [`SpaceReport`]
//! for the "indirect" and "direct" space columns of Fig. 7 — plus a traced
//! variant of every probe so the cache simulator can replay the exact access
//! pattern of the timed code.
//!
//! Ordered methods (everything except the hash index) additionally implement
//! [`OrderedIndex`], which provides the leftmost-match `lower_bound` used
//! for duplicate handling (§3.6) and range queries (§2.2).

use crate::key::Key;
use crate::tracer::AccessTracer;

/// Default number of interleaved probe lanes used by batch-aware indexes
/// when a caller names no lane count: the batch methods without one
/// (`search_batch`, `lower_bound_batch` and their traced forms) run at
/// it, while `search_batch_lanes` and `lower_bound_batch_lanes`, trait
/// methods too, take the count as an argument. Eight in-flight probes is enough to cover a random-access
/// miss on current memory subsystems without spilling the per-lane state
/// out of registers.
pub const DEFAULT_BATCH_LANES: usize = 8;

/// Space occupied by an index structure, following Fig. 7's two columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceReport {
    /// "Space (indirect)": the structure indexes a rearrangeable list of
    /// record identifiers; RIDs themselves are not charged because every
    /// method shares that cost.
    pub indirect_bytes: usize,
    /// "Space (direct)": the indexed records cannot be rearranged, so
    /// methods that must keep RIDs inside their own structure (T-trees,
    /// hash tables) are charged `n * R` extra.
    pub direct_bytes: usize,
}

impl SpaceReport {
    /// A report where both accounting modes coincide (true for binary
    /// search, interpolation search, CSS-trees and B+-trees in Fig. 7).
    pub fn same(bytes: usize) -> Self {
        Self {
            indirect_bytes: bytes,
            direct_bytes: bytes,
        }
    }
}

/// Structural statistics describing a built index, used by tests that check
/// the analytical model of §5 against real structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Number of levels traversed by a worst-case probe, counting the leaf
    /// level (binary search over an array of n keys reports `ceil(log2 n)`).
    pub levels: u32,
    /// Number of internal (directory) nodes, 0 for array methods.
    pub internal_nodes: usize,
    /// Branching factor of the directory (2 for binary methods).
    pub branching: usize,
    /// Bytes per directory node (0 for array methods).
    pub node_bytes: usize,
}

/// A read-only search structure over `n` keyed entries.
///
/// `search` returns the position of the probed key in the underlying sorted
/// RID order — the *leftmost* position when duplicates exist (§3.6) — or
/// `None` if the key is absent. For the hash index, which does not preserve
/// order, the returned position is the entry's position in the original
/// sorted array (hash entries carry it as their RID), so all methods can be
/// cross-checked against each other.
pub trait SearchIndex<K: Key>: Send + Sync {
    /// Short stable name used in benchmark output ("full CSS-tree", ...).
    fn name(&self) -> &'static str;

    /// Number of indexed entries.
    fn len(&self) -> usize;

    /// Whether the index contains no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key`; returns the leftmost matching position, if any.
    fn search(&self, key: K) -> Option<usize>;

    /// As [`SearchIndex::search`], reporting every memory access to
    /// `tracer` (used by the cache simulator).
    fn search_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> Option<usize>;

    /// Look up a whole batch of probes; `out[i]` is `search(probes[i])`.
    ///
    /// The paper's index consumers are batch-shaped — an indexed
    /// nested-loop join performs "a lot of searching through indexes on
    /// the inner relations" (§2.2) — so the batch, not the single probe,
    /// is the unit the database layer hands to an index. The default is
    /// the sequential per-probe loop; cache-conscious structures override
    /// it with a software-pipelined descent that keeps several
    /// independent probes' node fetches in flight at once (the batching
    /// counterpart of the paper's cache-line node sizing).
    fn search_batch(&self, probes: &[K]) -> Vec<Option<usize>> {
        probes.iter().map(|&p| self.search(p)).collect()
    }

    /// As [`SearchIndex::search_batch`] with an explicit interleave lane
    /// count. Structures that are not batch-aware ignore `lanes` (the
    /// default just forwards to [`SearchIndex::search_batch`]); the CSS
    /// trees override it so callers holding only a trait object — e.g.
    /// the database executor honouring its `ExecOptions { lanes, .. }`
    /// knob — can still tune the interleaved descent. Degenerate lane
    /// counts (`0`, or more lanes than probes) must behave like the
    /// sequential descent, never panic.
    fn search_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<Option<usize>> {
        let _ = lanes;
        self.search_batch(probes)
    }

    /// As [`SearchIndex::search_batch`], reporting every memory access to
    /// `tracer` so the cache simulator can replay the batched access
    /// pattern (which differs from the sequential one precisely when an
    /// override interleaves probes).
    fn search_batch_traced(
        &self,
        probes: &[K],
        tracer: &mut dyn AccessTracer,
    ) -> Vec<Option<usize>> {
        probes
            .iter()
            .map(|&p| self.search_traced(p, tracer))
            .collect()
    }

    /// Space accounting per Fig. 7.
    fn space(&self) -> SpaceReport;

    /// Structural statistics (levels, node counts) for model validation.
    fn stats(&self) -> IndexStats;
}

/// An index that preserves key order, supporting range scans and ordered
/// (RID-order) access — the "RID-Ordered Access" column of Fig. 7, which is
/// "Y" for every method except the hash table.
pub trait OrderedIndex<K: Key>: SearchIndex<K> {
    /// Position of the first entry whose key is `>= key` (equals `len()` if
    /// every key is smaller). This is the primitive from which point lookup
    /// (`lower_bound` + equality check) and range queries are derived.
    fn lower_bound(&self, key: K) -> usize;

    /// As [`OrderedIndex::lower_bound`], with access tracing.
    fn lower_bound_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> usize;

    /// Lower bounds for a whole batch; `out[i]` is
    /// `lower_bound(probes[i])`. Sequential by default; batch-aware
    /// structures override it with an interleaved multi-lane descent (see
    /// [`SearchIndex::search_batch`] for the rationale).
    fn lower_bound_batch(&self, probes: &[K]) -> Vec<usize> {
        probes.iter().map(|&p| self.lower_bound(p)).collect()
    }

    /// As [`OrderedIndex::lower_bound_batch`] with an explicit interleave
    /// lane count; see [`SearchIndex::search_batch_lanes`] for the
    /// contract (default ignores `lanes`, batch-aware structures
    /// override, degenerate lane counts fall back to sequential descent).
    fn lower_bound_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<usize> {
        let _ = lanes;
        self.lower_bound_batch(probes)
    }

    /// As [`OrderedIndex::lower_bound_batch`], with access tracing for
    /// cache-simulator replay of the batched pattern.
    fn lower_bound_batch_traced(&self, probes: &[K], tracer: &mut dyn AccessTracer) -> Vec<usize> {
        probes
            .iter()
            .map(|&p| self.lower_bound_traced(p, tracer))
            .collect()
    }

    /// Half-open positional range `[start, end)` of entries with keys in
    /// the inclusive key range `[lo, hi]`. Used for range selections (§2.2).
    fn key_range(&self, lo: K, hi: K) -> (usize, usize) {
        assert!(lo <= hi, "inverted key range");
        let start = self.lower_bound(lo);
        let end = match hi.to_rank().checked_add(1) {
            Some(next) if K::from_rank(next) > hi => self.lower_bound(K::from_rank(next)),
            _ => self.len(),
        };
        (start, end.max(start))
    }

    /// Positional range `[start, end)` of entries equal to `key` — the
    /// §3.6 duplicate primitive ("find the leftmost element of all the
    /// duplicates and sequentially scan towards right"), expressed without
    /// needing access to the key array. Empty (`start == end`) when the
    /// key is absent.
    fn equal_range(&self, key: K) -> (usize, usize) {
        self.key_range(key, key)
    }

    /// Number of entries equal to `key`.
    fn count_key(&self, key: K) -> usize {
        let (s, e) = self.equal_range(key);
        e - s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::NoopTracer;

    /// Minimal reference implementation used to exercise trait defaults.
    struct VecIndex(Vec<u32>);

    impl SearchIndex<u32> for VecIndex {
        fn name(&self) -> &'static str {
            "vec"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn search(&self, key: u32) -> Option<usize> {
            let pos = self.lower_bound(key);
            (pos < self.0.len() && self.0[pos] == key).then_some(pos)
        }
        fn search_traced(&self, key: u32, _t: &mut dyn AccessTracer) -> Option<usize> {
            self.search(key)
        }
        fn space(&self) -> SpaceReport {
            SpaceReport::same(0)
        }
        fn stats(&self) -> IndexStats {
            IndexStats::default()
        }
    }

    impl OrderedIndex<u32> for VecIndex {
        fn lower_bound(&self, key: u32) -> usize {
            self.0.partition_point(|&k| k < key)
        }
        fn lower_bound_traced(&self, key: u32, _t: &mut dyn AccessTracer) -> usize {
            self.lower_bound(key)
        }
    }

    #[test]
    fn key_range_default_is_inclusive() {
        let idx = VecIndex(vec![1, 3, 3, 5, 7, 9]);
        assert_eq!(idx.key_range(3, 7), (1, 5));
        assert_eq!(idx.key_range(0, 0), (0, 0));
        assert_eq!(idx.key_range(8, 100), (5, 6));
        // hi == u32::MAX exercises the saturating upper bound.
        assert_eq!(idx.key_range(0, u32::MAX), (0, 6));
    }

    #[test]
    fn key_range_empty_band() {
        let idx = VecIndex(vec![1, 3, 5]);
        assert_eq!(idx.key_range(4, 4), (2, 2));
    }

    #[test]
    #[should_panic(expected = "inverted key range")]
    fn key_range_rejects_inverted() {
        let idx = VecIndex(vec![1, 2]);
        let _ = idx.key_range(5, 2);
    }

    #[test]
    fn equal_range_covers_duplicate_runs() {
        let idx = VecIndex(vec![1, 3, 3, 3, 5, 5, 9]);
        assert_eq!(idx.equal_range(3), (1, 4));
        assert_eq!(idx.count_key(3), 3);
        assert_eq!(idx.equal_range(5), (4, 6));
        assert_eq!(idx.equal_range(4), (4, 4), "absent key is empty");
        assert_eq!(idx.count_key(4), 0);
        assert_eq!(idx.equal_range(u32::MAX), (7, 7));
    }

    #[test]
    fn space_report_same() {
        let r = SpaceReport::same(128);
        assert_eq!(r.indirect_bytes, 128);
        assert_eq!(r.direct_bytes, 128);
    }

    #[test]
    fn default_batch_methods_match_sequential() {
        let idx = VecIndex(vec![1, 3, 3, 5, 9]);
        let probes = [0u32, 1, 2, 3, 9, 10];
        let expect_search: Vec<_> = probes.iter().map(|&p| idx.search(p)).collect();
        let expect_lb: Vec<_> = probes.iter().map(|&p| idx.lower_bound(p)).collect();
        assert_eq!(idx.search_batch(&probes), expect_search);
        assert_eq!(idx.lower_bound_batch(&probes), expect_lb);
        // The lane-carrying defaults ignore the lane count entirely —
        // including the degenerate values batch-aware overrides must
        // also accept.
        for lanes in [0usize, 1, 8, 1000] {
            assert_eq!(idx.search_batch_lanes(&probes, lanes), expect_search);
            assert_eq!(idx.lower_bound_batch_lanes(&probes, lanes), expect_lb);
        }
        let mut t = NoopTracer;
        assert_eq!(idx.search_batch_traced(&probes, &mut t), expect_search);
        assert_eq!(idx.lower_bound_batch_traced(&probes, &mut t), expect_lb);
        assert!(idx.search_batch(&[]).is_empty());
        assert!(idx.lower_bound_batch(&[]).is_empty());
    }

    #[test]
    fn is_empty_default() {
        assert!(VecIndex(vec![]).is_empty());
        assert!(!VecIndex(vec![1]).is_empty());
        let mut t = NoopTracer;
        assert_eq!(VecIndex(vec![1]).search_traced(1, &mut t), Some(0));
    }
}
