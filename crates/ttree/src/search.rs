//! T-tree search: the improved \[LC86b\] descent.
//!
//! §3.3/§6.2: "most of the time, the improved version checks the smallest
//! key only in each node". The descent compares the probe against each
//! node's minimum key: smaller goes left; otherwise the node becomes the
//! *candidate* and the descent continues right. The candidate — the last
//! node whose minimum is ≤ the probe — is the only node whose full key
//! array is searched. This is exactly why the paper finds T-trees no better
//! than binary search on cache behaviour: the descent makes ~log₂(n/m)
//! one-line node touches *plus* log₂ m comparisons in the candidate, the
//! same ~log₂ n total comparisons, with only the candidate node's line
//! well utilised.

use crate::build::TTreeBuilder;
use crate::node::{TTreeNode, NO_CHILD};
use ccindex_common::{
    AccessTracer, AlignedBuf, IndexStats, Key, NoopTracer, OrderedIndex, SearchIndex, SpaceReport,
};

/// A balanced, bulk-built T-tree with `CAP` entries per node.
#[derive(Debug, Clone)]
pub struct TTree<K: Key, const CAP: usize> {
    nodes: AlignedBuf<TTreeNode<K, CAP>>,
    root: u32,
    len: usize,
    height: u32,
}

impl<K: Key, const CAP: usize> TTree<K, CAP> {
    /// Build from a sorted slice.
    pub fn build(keys: &[K]) -> Self {
        let built = TTreeBuilder::build::<K, CAP>(keys);
        Self {
            nodes: built.nodes,
            root: built.root,
            len: keys.len(),
            height: built.height,
        }
    }

    /// Entries per node.
    pub const fn capacity() -> usize {
        CAP
    }

    #[inline]
    fn node_addr(&self, id: u32) -> usize {
        self.nodes.base_addr() + id as usize * core::mem::size_of::<TTreeNode<K, CAP>>()
    }

    /// Improved-T-tree descent: find the candidate node for `key`.
    /// Returns `NO_CHILD` when `key` is smaller than every key.
    #[inline]
    fn find_candidate<T: AccessTracer>(&self, key: K, tracer: &mut T) -> u32 {
        let mut cur = self.root;
        let mut candidate = NO_CHILD;
        while cur != NO_CHILD {
            let node = &self.nodes[cur as usize];
            // One line fetch: children + count + smallest key.
            tracer.read(self.node_addr(cur), TTreeNode::<K, CAP>::header_bytes());
            tracer.compare();
            if key < node.min_key() {
                cur = node.left;
            } else {
                candidate = cur;
                cur = node.right;
            }
            tracer.descend();
        }
        candidate
    }

    /// Leftmost slot `>= key` within node `j` (binary search, traced).
    #[inline]
    fn node_lower_bound<T: AccessTracer>(&self, j: usize, key: K, tracer: &mut T) -> usize {
        let node = &self.nodes[j];
        let count = node.count as usize;
        let keys_base = self.node_addr(j as u32) + core::mem::offset_of!(TTreeNode<K, CAP>, keys);
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = lo + ((hi - lo) >> 1);
            tracer.compare();
            tracer.read(keys_base + mid * K::WIDTH, K::WIDTH);
            if node.keys[mid] < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Core lookup: `(node index, slot)` of the leftmost entry `>= key`.
    ///
    /// With duplicates, equal keys can span node boundaries (the paper
    /// sidesteps this by assuming distinct keys, §6.1 — "by assuming
    /// distinct key values we are slightly favoring binary search trees and
    /// T-trees"); we walk back through in-order predecessors (arena index
    /// == in-order index) until the run's left edge.
    fn locate<T: AccessTracer>(&self, key: K, tracer: &mut T) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let candidate = self.find_candidate(key, tracer);
        if candidate == NO_CHILD {
            return Some((0, 0)); // probe below the global minimum
        }
        let mut j = candidate as usize;
        let mut slot = self.node_lower_bound(j, key, tracer);
        while slot == 0 && j > 0 {
            let prev = &self.nodes[j - 1];
            let pcount = prev.count as usize;
            tracer.compare();
            tracer.read(
                self.node_addr((j - 1) as u32)
                    + core::mem::offset_of!(TTreeNode<K, CAP>, keys)
                    + (pcount - 1) * K::WIDTH,
                K::WIDTH,
            );
            if prev.keys[pcount - 1] >= key {
                j -= 1;
                slot = self.node_lower_bound(j, key, tracer);
            } else {
                break;
            }
        }
        Some((j, slot))
    }

    /// The *basic* \[LC86a\] descent, kept as an ablation target: every
    /// node checks **both** boundary keys (min and max) before deciding,
    /// so each visited node touches its first *and* last key slot — for
    /// multi-line nodes that is an extra line fetch per node, which is
    /// exactly why \[LC86b\]'s one-boundary improvement (and our default
    /// descent) exists.
    pub fn search_classic_with<T: AccessTracer>(&self, key: K, tracer: &mut T) -> Option<usize> {
        let mut cur = self.root;
        while cur != NO_CHILD {
            let node = &self.nodes[cur as usize];
            let count = node.count as usize;
            let keys_off = core::mem::offset_of!(TTreeNode<K, CAP>, keys);
            // Boundary checks: min ...
            tracer.read(self.node_addr(cur), TTreeNode::<K, CAP>::header_bytes());
            tracer.compare();
            if key < node.min_key() {
                cur = node.left;
                tracer.descend();
                continue;
            }
            // ... and max (tail of the key array: a different line for
            // large CAP).
            tracer.compare();
            tracer.read(
                self.node_addr(cur) + keys_off + (count - 1) * K::WIDTH,
                K::WIDTH,
            );
            if key > node.keys[count - 1] {
                cur = node.right;
                tracer.descend();
                continue;
            }
            // Bounding node found: search within (leftmost duplicates may
            // extend into predecessors; reuse the back-walk).
            let j = cur as usize;
            let mut slot = self.node_lower_bound(j, key, tracer);
            let mut j = j;
            while slot == 0 && j > 0 {
                let prev = &self.nodes[j - 1];
                let pcount = prev.count as usize;
                tracer.compare();
                if prev.keys[pcount - 1] >= key {
                    j -= 1;
                    slot = self.node_lower_bound(j, key, tracer);
                } else {
                    break;
                }
            }
            let node = &self.nodes[j];
            if slot < node.count as usize {
                tracer.compare();
                if node.keys[slot] == key {
                    return Some(node.rids[0] as usize + slot);
                }
            }
            return None;
        }
        None
    }

    /// Leftmost array position with key `>= key`, traced.
    pub fn lower_bound_with<T: AccessTracer>(&self, key: K, tracer: &mut T) -> usize {
        match self.locate(key, tracer) {
            None => 0,
            Some((j, slot)) => {
                // rids are contiguous positions: rids[0] is the node base,
                // and slot == count addresses the successor node's start.
                self.nodes[j].rids[0] as usize + slot
            }
        }
    }

    /// Leftmost matching position, traced.
    pub fn search_with<T: AccessTracer>(&self, key: K, tracer: &mut T) -> Option<usize> {
        let (j, slot) = self.locate(key, tracer)?;
        let node = &self.nodes[j];
        if slot < node.count as usize {
            tracer.compare();
            if node.keys[slot] == key {
                return Some(node.rids[0] as usize + slot);
            }
        }
        None
    }
}

impl<K: Key, const CAP: usize> SearchIndex<K> for TTree<K, CAP> {
    fn name(&self) -> &'static str {
        "T-tree"
    }
    fn len(&self) -> usize {
        self.len
    }
    fn search(&self, key: K) -> Option<usize> {
        self.search_with(key, &mut NoopTracer)
    }
    fn search_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> Option<usize> {
        self.search_with(key, &mut { tracer })
    }
    fn space(&self) -> SpaceReport {
        // Fig. 7: the RID slots inside the nodes are charged only in the
        // "direct" column; "indirect" assumes the RID list could have been
        // rearranged into the nodes.
        let arena = self.nodes.size_bytes();
        SpaceReport {
            indirect_bytes: arena.saturating_sub(self.len * 4),
            direct_bytes: arena,
        }
    }
    fn stats(&self) -> IndexStats {
        IndexStats {
            levels: self.height,
            internal_nodes: self.nodes.len(),
            branching: 2,
            node_bytes: core::mem::size_of::<TTreeNode<K, CAP>>(),
        }
    }
}

impl<K: Key, const CAP: usize> OrderedIndex<K> for TTree<K, CAP> {
    fn lower_bound(&self, key: K) -> usize {
        self.lower_bound_with(key, &mut NoopTracer)
    }
    fn lower_bound_traced(&self, key: K, tracer: &mut dyn AccessTracer) -> usize {
        self.lower_bound_with(key, &mut { tracer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccindex_common::CountingTracer;

    #[test]
    fn finds_every_key() {
        let keys: Vec<u32> = (0..5000).map(|i| i * 3 + 1).collect();
        let t = TTree::<u32, 16>::build(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.search(k), Some(i), "key {k}");
        }
    }

    #[test]
    fn misses_are_none() {
        let keys: Vec<u32> = (0..5000).map(|i| i * 3 + 1).collect();
        let t = TTree::<u32, 16>::build(&keys);
        assert_eq!(t.search(0), None);
        for i in (0..4999).step_by(11) {
            assert_eq!(t.search(i * 3 + 2), None);
        }
        assert_eq!(t.search(u32::MAX), None);
    }

    #[test]
    fn lower_bound_matches_partition_point() {
        let keys: Vec<u32> = vec![3, 3, 7, 7, 7, 10, 10, 21, 22, 23, 40, 41, 42, 50];
        let t = TTree::<u32, 4>::build(&keys);
        for probe in 0..=55u32 {
            assert_eq!(
                t.lower_bound(probe),
                keys.partition_point(|&k| k < probe),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn lower_bound_exhaustive_vs_reference_many_caps() {
        let keys: Vec<u32> = (0..257).map(|i| i * 2 + 10).collect();
        macro_rules! check {
            ($cap:literal) => {{
                let t = TTree::<u32, $cap>::build(&keys);
                for probe in 0..=(257 * 2 + 12) {
                    assert_eq!(
                        t.lower_bound(probe),
                        keys.partition_point(|&k| k < probe),
                        "cap {} probe {probe}",
                        $cap
                    );
                }
            }};
        }
        check!(1);
        check!(2);
        check!(5);
        check!(8);
        check!(16);
        check!(64);
        check!(300);
    }

    #[test]
    fn duplicates_return_leftmost() {
        let keys = vec![1u32, 4, 4, 4, 4, 4, 4, 4, 4, 4, 9, 12];
        let t = TTree::<u32, 4>::build(&keys);
        assert_eq!(t.search(4), Some(1));
    }

    #[test]
    fn descent_reads_one_header_per_level() {
        let keys: Vec<u32> = (0..100_000).collect();
        let t = TTree::<u32, 16>::build(&keys);
        let mut tracer = CountingTracer::new();
        t.search_with(54_321, &mut tracer);
        // 6250 nodes -> height 13; descent <= 13 header reads, plus
        // <= log2(16)+1 = 5 key reads in the candidate.
        assert!(tracer.reads <= 13 + 5 + 1, "reads = {}", tracer.reads);
        assert!(tracer.descends <= 13, "descends = {}", tracer.descends);
    }

    #[test]
    fn classic_search_agrees_with_improved() {
        let keys: Vec<u32> = (0..10_000).map(|i| (i / 3) * 7).collect();
        let t = TTree::<u32, 16>::build(&keys);
        for probe in (0..24_000u32).step_by(1) {
            let mut tr = ccindex_common::NoopTracer;
            assert_eq!(
                t.search_classic_with(probe, &mut tr),
                t.search(probe),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn classic_search_reads_more_bytes_than_improved() {
        // The [LC86b] improvement in numbers: the improved descent reads
        // only each node's header, the basic one also touches the far
        // boundary key.
        let keys: Vec<u32> = (0..1_000_000).collect();
        let t = TTree::<u32, 64>::build(&keys);
        let (mut classic, mut improved) = (0u64, 0u64);
        for probe in (0..1_000_000u32).step_by(10_007) {
            let mut a = CountingTracer::new();
            t.search_classic_with(probe, &mut a);
            classic += a.bytes_read;
            let mut b = CountingTracer::new();
            t.search_with(probe, &mut b);
            improved += b.bytes_read;
        }
        assert!(
            classic > improved,
            "classic {classic} vs improved {improved}"
        );
    }

    #[test]
    fn space_direct_exceeds_indirect_by_rid_bytes() {
        let keys: Vec<u32> = (0..10_000).collect();
        let t = TTree::<u32, 8>::build(&keys);
        let s = t.space();
        assert_eq!(s.direct_bytes - s.indirect_bytes, 10_000 * 4);
        // Arena should be about n/CAP nodes * node size.
        let expected = (10_000usize / 8) * core::mem::size_of::<TTreeNode<u32, 8>>();
        assert!(s.direct_bytes >= expected);
    }

    #[test]
    fn empty_and_tiny() {
        let t = TTree::<u32, 8>::build(&[]);
        assert_eq!(t.search(5), None);
        assert_eq!(t.lower_bound(5), 0);
        let t = TTree::<u32, 8>::build(&[7]);
        assert_eq!(t.search(7), Some(0));
        assert_eq!(t.search(6), None);
        assert_eq!(t.search(8), None);
        assert_eq!(t.lower_bound(8), 1);
    }
}
