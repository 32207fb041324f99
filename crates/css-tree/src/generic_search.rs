//! The deliberately *unspecialised* full CSS-tree — the §6.2 ablation.
//!
//! "Code specialization is important. When our code was more 'generic'
//! (including a binary search loop for each node), we found the
//! performance to be 20% to 45% worse than the specialized code."
//!
//! [`GenericFullCss`] takes the node size `m` at *runtime*: the intra-node
//! binary search has data-dependent bounds the compiler cannot unroll, and
//! child-offset arithmetic uses real multiplication/division instead of
//! shift-resolvable constants. `bench_ablation` measures it against the
//! const-generic [`crate::FullCssTree`] to reproduce the paper's 20–45 %
//! claim. It also backs [`crate::DynCssTree`] for non-standard node sizes
//! such as the m = 24 bump point of Figs. 12–13.

use crate::batch;
use crate::layout::{CssLayout, LeafSegment};
use ccindex_common::{
    AccessTracer, AlignedBuf, IndexStats, Key, NoopTracer, OrderedIndex, SearchIndex, SortedArray,
    SpaceReport, DEFAULT_BATCH_LANES,
};

/// A full CSS-tree whose node size is a runtime value.
#[derive(Debug, Clone)]
pub struct GenericFullCss<K: Key> {
    array: SortedArray<K>,
    directory: AlignedBuf<K>,
    layout: CssLayout,
}

impl<K: Key> GenericFullCss<K> {
    /// Build over a sorted slice with `m` keys per node.
    pub fn build(keys: &[K], m: usize) -> Self {
        Self::from_shared(SortedArray::from_slice(keys), m)
    }

    /// Build over an existing shared array without copying it.
    pub fn from_shared(array: SortedArray<K>, m: usize) -> Self {
        assert!(m >= 1, "node size must be >= 1");
        let layout = CssLayout::full(array.len(), m);
        let mut directory: AlignedBuf<K> = AlignedBuf::new_zeroed(layout.directory_slots());
        Self::fill_directory(array.as_slice(), &layout, &mut directory);
        Self {
            array,
            directory,
            layout,
        }
    }

    /// Algorithm 4.1 with runtime `m` (same construction as the
    /// specialised tree; only the search differs for the ablation).
    fn fill_directory(keys: &[K], layout: &CssLayout, directory: &mut AlignedBuf<K>) {
        let t = layout.internal_nodes;
        if t == 0 {
            return;
        }
        let m = layout.m;
        let pad = keys[layout.first_part_len - 1];
        for i in (0..t * m).rev() {
            let d = i / m;
            let e = i % m;
            let mut c = layout.child(d, e);
            while layout.is_internal(c) {
                c = layout.child(c, m);
            }
            directory[i] = match layout.leaf_segment(c) {
                LeafSegment::Range { end, .. } => keys[end - 1],
                LeafSegment::BeyondEnd => pad,
            };
        }
    }

    /// The directory geometry.
    pub fn layout(&self) -> &CssLayout {
        &self.layout
    }

    /// Runtime-`m` intra-node search: the deliberately unspecialised
    /// branch pick (division and data-dependent bounds the compiler cannot
    /// unroll). Shared with the interleaved batch descent in
    /// [`crate::batch`].
    pub(crate) fn node_branch<T: AccessTracer>(&self, d: usize, probe: K, tracer: &mut T) -> usize {
        let m = self.layout.m;
        let base = d * m;
        let dir = self.directory.as_slice();
        tracer.read(self.directory.base_addr() + base * K::WIDTH, m * K::WIDTH);
        // Generic (non-unrolled) intra-node binary search.
        let mut lo = 0usize;
        let mut hi = m;
        while lo < hi {
            let mid = (lo + hi) / 2; // division, not shift: the ablation
            tracer.compare();
            if dir[base + mid] < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Leftmost position with key `>= probe`, traced.
    pub fn lower_bound_with<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> usize {
        let n = self.array.len();
        if n == 0 {
            return 0;
        }
        let m = self.layout.m;
        let mut d = 0usize;
        while self.layout.is_internal(d) {
            let l = self.node_branch(d, probe, tracer);
            d = d * (m + 1) + 1 + l; // multiplication, not shift
            tracer.descend();
        }
        let (start, end) = match self.layout.leaf_segment(d) {
            LeafSegment::Range { start, end } => (start, end),
            LeafSegment::BeyondEnd => return n,
        };
        let a = self.array.as_slice();
        let mut lo = start;
        let mut hi = end;
        while lo < hi {
            let mid = (lo + hi) / 2;
            tracer.compare();
            tracer.read(self.array.addr_of(mid), K::WIDTH);
            if a[mid] < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Sequential batch: one full descent per probe (reference path).
    pub fn lower_bound_batch_sequential(&self, probes: &[K]) -> Vec<usize> {
        probes
            .iter()
            .map(|&p| self.lower_bound_with(p, &mut NoopTracer))
            .collect()
    }

    /// Level-synchronous batch with a runtime lane count.
    pub fn lower_bound_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<usize> {
        self.lower_bound_batch_lanes_with(probes, lanes, &mut NoopTracer)
    }

    /// As [`Self::lower_bound_batch_lanes`], with access tracing.
    pub fn lower_bound_batch_lanes_with<T: AccessTracer>(
        &self,
        probes: &[K],
        lanes: usize,
        tracer: &mut T,
    ) -> Vec<usize> {
        batch::interleaved_descent(
            &self.layout,
            probes,
            lanes,
            tracer,
            |d, p, tr| self.node_branch(d, p, tr),
            |leaf, p, tr| batch::resolve_leaf(&self.layout, &self.array, leaf, p, tr),
        )
    }

    /// Batched point lookup via the interleaved descent.
    pub fn search_batch_lanes_with<T: AccessTracer>(
        &self,
        probes: &[K],
        lanes: usize,
        tracer: &mut T,
    ) -> Vec<Option<usize>> {
        let lbs = self.lower_bound_batch_lanes_with(probes, lanes, tracer);
        batch::confirm_matches(&self.array, probes, lbs, tracer)
    }

    /// Partitioned batched lower bounds: chunk `probes` across `threads`
    /// workers, each chunk running the interleaved descent at `lanes`
    /// (`threads == 0` = one per core; results are byte-identical to
    /// [`Self::lower_bound_batch_lanes`]).
    pub fn lower_bound_batch_par(&self, probes: &[K], lanes: usize, threads: usize) -> Vec<usize> {
        ccindex_parallel::WorkerPool::new(threads)
            .flat_map_chunks(probes, |chunk| self.lower_bound_batch_lanes(chunk, lanes))
    }

    /// Partitioned batched point lookups; see
    /// [`Self::lower_bound_batch_par`].
    pub fn search_batch_par(
        &self,
        probes: &[K],
        lanes: usize,
        threads: usize,
    ) -> Vec<Option<usize>> {
        ccindex_parallel::WorkerPool::new(threads).flat_map_chunks(probes, |chunk| {
            self.search_batch_lanes_with(chunk, lanes, &mut NoopTracer)
        })
    }

    /// Leftmost matching position, traced.
    pub fn search_with<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> Option<usize> {
        let pos = self.lower_bound_with(probe, tracer);
        if pos < self.array.len() {
            tracer.compare();
            if self.array.get_traced(pos, tracer) == probe {
                return Some(pos);
            }
        }
        None
    }
}

impl<K: Key> SearchIndex<K> for GenericFullCss<K> {
    fn name(&self) -> &'static str {
        "full CSS-tree (generic)"
    }
    fn len(&self) -> usize {
        self.array.len()
    }
    fn search(&self, key: K) -> Option<usize> {
        self.search_with(key, &mut NoopTracer)
    }
    fn search_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> Option<usize> {
        self.search_with(key, &mut { tracer })
    }
    fn search_batch(&self, probes: &[K]) -> Vec<Option<usize>> {
        self.search_batch_lanes_with(probes, DEFAULT_BATCH_LANES, &mut NoopTracer)
    }
    fn search_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<Option<usize>> {
        self.search_batch_lanes_with(probes, lanes, &mut NoopTracer)
    }
    fn search_batch_traced(
        &self,
        probes: &[K],
        tracer: &mut dyn AccessTracer,
    ) -> Vec<Option<usize>> {
        self.search_batch_lanes_with(probes, DEFAULT_BATCH_LANES, &mut { tracer })
    }
    fn space(&self) -> SpaceReport {
        SpaceReport::same(self.directory.size_bytes())
    }
    fn stats(&self) -> IndexStats {
        IndexStats {
            levels: self.layout.levels(),
            internal_nodes: self.layout.internal_nodes,
            branching: self.layout.branching,
            node_bytes: self.layout.m * K::WIDTH,
        }
    }
}

impl<K: Key> OrderedIndex<K> for GenericFullCss<K> {
    fn lower_bound(&self, key: K) -> usize {
        self.lower_bound_with(key, &mut NoopTracer)
    }
    fn lower_bound_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> usize {
        self.lower_bound_with(key, &mut { tracer })
    }
    fn lower_bound_batch(&self, probes: &[K]) -> Vec<usize> {
        self.lower_bound_batch_lanes(probes, DEFAULT_BATCH_LANES)
    }
    fn lower_bound_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<usize> {
        self.lower_bound_batch_lanes_with(probes, lanes, &mut NoopTracer)
    }
    fn lower_bound_batch_traced(&self, probes: &[K], tracer: &mut dyn AccessTracer) -> Vec<usize> {
        self.lower_bound_batch_lanes_with(probes, DEFAULT_BATCH_LANES, &mut { tracer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_specialised_tree_everywhere() {
        let keys: Vec<u32> = (0..3000u32).map(|i| i * 2 + 1).collect();
        let spec = crate::FullCssTree::<u32, 16>::build(&keys);
        let gen = GenericFullCss::build(&keys, 16);
        for probe in 0..6_100u32 {
            assert_eq!(
                gen.lower_bound(probe),
                spec.lower_bound(probe),
                "probe {probe}"
            );
            assert_eq!(gen.search(probe), spec.search(probe), "probe {probe}");
        }
    }

    #[test]
    fn odd_node_sizes_work() {
        // m = 24 (the Fig. 12 bump) and other non-powers.
        for m in [3usize, 5, 7, 24, 48, 100] {
            let keys: Vec<u32> = (0..1013u32).map(|i| i * 3).collect();
            let g = GenericFullCss::build(&keys, m);
            for probe in (0..3_100u32).step_by(11) {
                assert_eq!(
                    g.lower_bound(probe),
                    keys.partition_point(|&k| k < probe),
                    "m={m} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn identical_layout_to_specialised() {
        let keys: Vec<u32> = (0..10_000).collect();
        let spec = crate::FullCssTree::<u32, 8>::build(&keys);
        let gen = GenericFullCss::build(&keys, 8);
        assert_eq!(spec.layout(), gen.layout());
        assert_eq!(spec.space(), gen.space());
    }

    #[test]
    fn empty_input() {
        let g = GenericFullCss::<u32>::build(&[], 16);
        assert_eq!(g.search(5), None);
        assert_eq!(g.lower_bound(5), 0);
    }
}

// A child of this module so it can hash the private directory; see the
// file's own doc.
#[cfg(test)]
#[path = "golden.rs"]
mod golden;
