//! The one CSS-tree: a directory of cache-line nodes over a sorted array.
//!
//! Directory node `d` occupies key slots `d·m .. d·m + m`; its children are
//! the nodes `d·f + 1 ..= d·f + f` — offset arithmetic, no pointers
//! ([`CssLayout`]). Slot `e` of a node holds the **largest key in the
//! subtree of child `e`**, so "leftmost slot ≥ probe, else the last
//! branch" routes to the leftmost occurrence of a duplicated key (§4.1.2);
//! slots whose subtrees dangle past the data are padded with the first
//! part's last element, which keeps every reachable descent inside the
//! array. Everything here is written once for every [`NodeSearch`]
//! strategy: the fill (Algorithm 4.1's loop; the strategy says how a
//! child's maximum is found), the descent (Algorithm 4.2), the leaf
//! search, validation and the index traits.

use crate::layout::{CssLayout, LeafSegment};
use crate::search::{count_less, replay_bisection, Full, Level, NodeSearch};
use ccindex_common::{
    AccessTracer, AlignedBuf, IndexStats, Key, NoopTracer, OrderedIndex, SearchIndex, SortedArray,
    SpaceReport, DEFAULT_BATCH_LANES,
};

/// The leftmost position of a sorted leaf segment with key `>= probe`,
/// by [`count_less`]; `tracer` sees §4's bisection of the segment, one
/// compare and one element read per step.
#[inline(always)]
pub(crate) fn segment_lower_bound<K: Key, T: AccessTracer>(
    segment: &[K],
    probe: K,
    tracer: &mut T,
) -> usize {
    let pos = count_less(segment, probe);
    let base = segment.as_ptr() as usize;
    replay_bisection(tracer, segment.len(), pos, |tracer, mid| {
        tracer.compare();
        tracer.read(base + mid * K::WIDTH, K::WIDTH);
    });
    pos
}

/// The directory proper — key slots, geometry, strategy — apart from the
/// sorted array it indexes.
#[derive(Debug, Clone)]
pub(crate) struct Directory<K: Key, S: NodeSearch> {
    /// `internal_nodes · m` key slots, cache-line aligned, root first.
    slots: AlignedBuf<K>,
    layout: CssLayout,
    search: S,
}

impl<K: Key, S: NodeSearch> Directory<K, S> {
    /// Build over the sorted `keys`: every slot gets the largest key under
    /// its child, nodes filled from the last to the first so a strategy
    /// may read what lower levels already hold.
    pub(crate) fn build(search: S, keys: &[K]) -> Self {
        let layout = search.layout(keys.len());
        let m = search.slots();
        let mut slots: AlignedBuf<K> = AlignedBuf::new_zeroed(layout.directory_slots());
        let key_at = |i: usize| keys[i];
        for d in (0..layout.internal_nodes).rev() {
            for e in 0..m {
                let child = layout.child(d, e);
                let max = search.subtree_max(&layout, slots.as_slice(), child, key_at);
                slots[d * m + e] = max;
            }
        }
        Self {
            slots,
            layout,
            search,
        }
    }

    pub(crate) fn layout(&self) -> &CssLayout {
        &self.layout
    }

    pub(crate) fn slots(&self) -> &AlignedBuf<K> {
        &self.slots
    }

    /// One move of Algorithm 4.2: read internal node `d`, let the strategy
    /// pick the branch, return the child. Shared by the sequential descent
    /// and the interleaved batch descent of [`crate::batch`].
    #[inline(always)]
    pub(crate) fn step<T: AccessTracer>(&self, d: usize, probe: K, tracer: &mut T) -> usize {
        let m = self.search.slots();
        let base = d * m;
        let node = &self.slots.as_slice()[base..base + m];
        tracer.read(self.slots.base_addr() + base * K::WIDTH, m * K::WIDTH);
        let branch = self.search.branch(node, probe, tracer);
        tracer.descend();
        self.layout.child(d, branch)
    }

    /// Algorithm 4.2's descent: the virtual leaf node for `probe`.
    #[inline]
    fn descend<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> usize {
        let mut d = 0usize;
        while self.layout.is_internal(d) {
            d = self.step(d, probe, tracer);
        }
        d
    }

    /// The leftmost position of the array `keys` with key `>= probe`
    /// within one virtual leaf's segment.
    #[inline(always)]
    pub(crate) fn resolve_leaf<T: AccessTracer>(
        &self,
        keys: &[K],
        leaf: usize,
        probe: K,
        tracer: &mut T,
    ) -> usize {
        match self.layout.leaf_segment(leaf) {
            LeafSegment::Range { start, end } => {
                start + segment_lower_bound(&keys[start..end], probe, tracer)
            }
            // The probe exceeds every key (or there are none).
            LeafSegment::BeyondEnd => keys.len(),
        }
    }

    /// Leftmost position of `keys` with key `>= probe`.
    #[inline]
    pub(crate) fn lower_bound<T: AccessTracer>(
        &self,
        keys: &[K],
        probe: K,
        tracer: &mut T,
    ) -> usize {
        let leaf = self.descend(probe, tracer);
        self.resolve_leaf(keys, leaf, probe, tracer)
    }

    /// Every slot must equal the largest key under its child, recomputed
    /// from the geometry alone by rightmost descent — whichever route the
    /// strategy's fill took. Returns the first violation.
    pub(crate) fn validate(&self, keys: &[K]) -> Result<(), String> {
        let m = self.layout.m;
        for (i, &stored) in self.slots.iter().enumerate() {
            let (d, e) = (i / m, i % m);
            let expect = keys[self.layout.max_position(self.layout.child(d, e))];
            if stored != expect {
                return Err(format!(
                    "node {d} entry {e}: stored {stored:?}, expected {expect:?}"
                ));
            }
        }
        Ok(())
    }
}

/// A CSS-tree over a shared sorted key array, searched by strategy `S`.
///
/// [`FullCssTree`] and [`LevelCssTree`] name the paper's two variants;
/// `CssTree<K, RuntimeFull>` is the §6.2 ablation.
#[derive(Debug, Clone)]
pub struct CssTree<K: Key, S: NodeSearch> {
    array: SortedArray<K>,
    dir: Directory<K, S>,
}

/// §4.1: `M` keys per directory node, `M + 1`-way.
pub type FullCssTree<K, const M: usize> = CssTree<K, Full<M>>;

/// §4.2: `M`-slot nodes holding `M − 1` separators, `M`-way; `M` must be a
/// power of two `>= 2`.
pub type LevelCssTree<K, const M: usize> = CssTree<K, Level<M>>;

impl<K: Key, S: NodeSearch> CssTree<K, S> {
    /// Build the directory for `search` over a shared array, without
    /// copying the array.
    pub fn new(search: S, array: SortedArray<K>) -> Self {
        let dir = Directory::build(search, array.as_slice());
        Self { array, dir }
    }

    /// The directory geometry.
    pub fn layout(&self) -> &CssLayout {
        self.dir.layout()
    }

    /// The whole directory, root level first.
    pub fn directory(&self) -> &[K] {
        self.dir.slots().as_slice()
    }

    /// The underlying shared array.
    pub fn array(&self) -> &SortedArray<K> {
        &self.array
    }

    /// Leftmost position with key `>= probe`, traced.
    pub fn lower_bound_with<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> usize {
        self.dir.lower_bound(self.array.as_slice(), probe, tracer)
    }

    /// Leftmost matching position, traced.
    pub fn search_with<T: AccessTracer>(&self, probe: K, tracer: &mut T) -> Option<usize> {
        let pos = self.lower_bound_with(probe, tracer);
        self.confirm(pos, probe, tracer)
    }

    /// The equality check that turns `probe`'s lower bound `pos` into a
    /// point lookup, for the sequential and the batched search alike.
    #[inline]
    pub(crate) fn confirm<T: AccessTracer>(
        &self,
        pos: usize,
        probe: K,
        tracer: &mut T,
    ) -> Option<usize> {
        if pos < self.array.len() {
            tracer.compare();
            if self.array.get_traced(pos, tracer) == probe {
                return Some(pos);
            }
        }
        None
    }

    /// Structural self-check: every directory slot equals the largest key
    /// of its child's subtree, recomputed independently of how the
    /// strategy filled it. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.dir.validate(self.array.as_slice())
    }

    pub(crate) fn dir(&self) -> &Directory<K, S> {
        &self.dir
    }

    /// Deliberately corrupt a directory entry (validation tests only).
    #[cfg(test)]
    pub(crate) fn corrupt_entry_for_test(&mut self, i: usize) {
        self.dir.slots.as_mut_slice()[i] = K::MAX_KEY;
    }
}

/// The compile-time strategies carry no state, so their trees keep the
/// argument-free constructors.
impl<K: Key, S: NodeSearch + Default> CssTree<K, S> {
    /// Build over a sorted slice (copied into shared, aligned storage).
    pub fn build(keys: &[K]) -> Self {
        Self::from_shared(SortedArray::from_slice(keys))
    }

    /// As [`CssTree::new`].
    pub fn from_shared(array: SortedArray<K>) -> Self {
        Self::new(S::default(), array)
    }
}

impl<K: Key, S: NodeSearch> SearchIndex<K> for CssTree<K, S> {
    fn name(&self) -> &'static str {
        self.dir.search.name()
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
        SpaceReport::same(self.dir.slots.size_bytes())
    }
    fn stats(&self) -> IndexStats {
        let layout = self.layout();
        IndexStats {
            levels: layout.levels(),
            internal_nodes: layout.internal_nodes,
            branching: layout.branching,
            node_bytes: layout.m * K::WIDTH,
        }
    }
}

impl<K: Key, S: NodeSearch> OrderedIndex<K> for CssTree<K, S> {
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
