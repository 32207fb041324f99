//! CSS-tree directory geometry: Lemma 4.1 and the two-part leaf mapping.
//!
//! A CSS-tree over a sorted array `a[0..n)` with `m`-slot nodes and
//! branching factor `f` (`f = m + 1` for full trees, `f = m` for level
//! trees) is a complete `f`-ary tree up to depth `k − 1`, with the leaves
//! at depth `k` filled left to right (§4.1). Nodes are numbered breadth
//! first; node `b`'s children are `b·f + 1 .. b·f + f`.
//!
//! Lemma 4.1 (generalised to branching `f`): with `B` leaf nodes and
//! `k = ⌈log_f B⌉`,
//!
//! * the first leaf node of the bottom level is `F = (f^k − 1)/(f − 1)`,
//! * the number of internal nodes is `T = F − ⌊(f^k − B)/(f − 1)⌋`.
//!
//! Leaves are the node numbers `T .. T+B`. Those `≥ F` form the *bottom*
//! level and map onto the **front** of the sorted array; those in `[T, F)`
//! are one level higher and map onto the **tail** — the "switching of
//! regions I and II" of Fig. 3. The `MARK` is the directory-entry offset
//! `F·m` of the bottom level's first key: a virtual leaf entry offset `x`
//! addresses `a[x − MARK]` when `x ≥ MARK` and `a[n + (x − MARK)]`
//! otherwise.

use ccindex_common::{ceil_div, ceil_log, pow_saturating};

/// Which CSS-tree variant a layout describes (and
/// [`build_dyn`](crate::build_dyn) builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CssVariant {
    /// Full CSS-tree (§4.1): `m` keys per node, branching `m + 1`.
    Full,
    /// Level CSS-tree (§4.2): `m − 1` keys per node (one auxiliary
    /// slot), branching `m`.
    Level,
}

/// Complete geometry of a CSS-tree directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CssLayout {
    /// Variant.
    pub kind: CssVariant,
    /// Number of indexed elements.
    pub n: usize,
    /// Slots per node (`m`); each directory node occupies `m` key slots.
    pub m: usize,
    /// Branching factor (`m + 1` for full, `m` for level).
    pub branching: usize,
    /// Number of leaf nodes `B = ⌈n/m⌉` (leaves hold `m` array elements).
    pub leaves: usize,
    /// Depth `k = ⌈log_f B⌉` of the bottom leaf level.
    pub depth: u32,
    /// Number of internal (directory) nodes `T`.
    pub internal_nodes: usize,
    /// First node number of the bottom leaf level (`F`).
    pub first_bottom: usize,
    /// Directory-entry offset of the bottom level's first key (`F · m`).
    pub mark: usize,
    /// Length of the array's first part (covered by bottom-level leaves);
    /// the remaining `n − first_part_len` elements are covered by the
    /// upper-level leaves.
    pub first_part_len: usize,
}

/// Where a virtual leaf node's keys live in the sorted array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafSegment {
    /// `[start, end)` positions in the sorted array.
    Range {
        /// First position.
        start: usize,
        /// One past the last position (clamped for the partial leaf).
        end: usize,
    },
    /// The leaf lies entirely beyond the data (reachable only when the
    /// probe exceeds every key): the lower bound is `n`.
    BeyondEnd,
}

impl CssLayout {
    /// Geometry of a full CSS-tree (§4.1) with `m` keys per node.
    pub fn full(n: usize, m: usize) -> Self {
        assert!(m >= 1, "node size must be at least 1");
        Self::compute(CssVariant::Full, n, m, m + 1)
    }

    /// Geometry of a level CSS-tree (§4.2); `m` must be a power of two
    /// `>= 2` ("for m = 2^t, we define a tree that only uses m − 1 entries
    /// per node and has a branching factor of m").
    pub fn level(n: usize, m: usize) -> Self {
        assert!(
            m >= 2 && m.is_power_of_two(),
            "level CSS-trees require a power-of-two node size >= 2"
        );
        Self::compute(CssVariant::Level, n, m, m)
    }

    fn compute(kind: CssVariant, n: usize, m: usize, f: usize) -> Self {
        let leaves = ceil_div(n, m);
        if leaves <= 1 {
            // A single (possibly partial) leaf: no directory at all.
            return Self {
                kind,
                n,
                m,
                branching: f,
                leaves,
                depth: 0,
                internal_nodes: 0,
                first_bottom: 0,
                mark: 0,
                first_part_len: n,
            };
        }
        let k = ceil_log(f, leaves);
        let fk = pow_saturating(f, k);
        let first_bottom = (fk - 1) / (f - 1);
        let internal_nodes = first_bottom - (fk - leaves) / (f - 1);
        let upper_leaves = first_bottom - internal_nodes;
        let first_part_len = n - upper_leaves * m;
        Self {
            kind,
            n,
            m,
            branching: f,
            leaves,
            depth: k,
            internal_nodes,
            first_bottom,
            mark: first_bottom * m,
            first_part_len,
        }
    }

    /// Is `node` an internal (directory) node?
    #[inline]
    pub fn is_internal(&self, node: usize) -> bool {
        node < self.internal_nodes
    }

    /// Child node number for branch `l` of internal node `node`.
    #[inline]
    pub fn child(&self, node: usize, l: usize) -> usize {
        debug_assert!(l < self.branching);
        node * self.branching + 1 + l
    }

    /// Directory-entry offset of `node`'s first key slot.
    #[inline]
    pub fn node_entry(&self, node: usize) -> usize {
        node * self.m
    }

    /// Map a virtual leaf `node` to its sorted-array segment (the region
    /// I/II switch of Fig. 3).
    #[inline]
    pub fn leaf_segment(&self, node: usize) -> LeafSegment {
        debug_assert!(!self.is_internal(node));
        let x = self.node_entry(node);
        if x >= self.mark {
            let start = x - self.mark;
            if start >= self.first_part_len {
                LeafSegment::BeyondEnd
            } else {
                LeafSegment::Range {
                    start,
                    end: (start + self.m).min(self.first_part_len),
                }
            }
        } else {
            // Upper-level leaf: `mark − x` from the end of the array.
            let start = self.n - (self.mark - x);
            LeafSegment::Range {
                start,
                end: start + self.m,
            }
        }
    }

    /// Array position of the largest key under `node`: the last key of
    /// the virtual leaf reached by always taking the last branch
    /// (Algorithm 4.1's "immediate left subtree" walk). A leaf dangling
    /// past the data answers with "the last element in the first part",
    /// the paper's padding; for the partial last leaf the segment is
    /// already clamped to that element. The array must not be empty.
    pub fn max_position(&self, mut node: usize) -> usize {
        while self.is_internal(node) {
            node = self.child(node, self.branching - 1);
        }
        match self.leaf_segment(node) {
            LeafSegment::Range { end, .. } => end - 1,
            LeafSegment::BeyondEnd => self.first_part_len - 1,
        }
    }

    /// Directory key slots (`T · m`); the directory's space in keys.
    pub fn directory_slots(&self) -> usize {
        self.internal_nodes * self.m
    }

    /// Number of directory levels actually holding internal nodes
    /// (the leaf level is not part of the directory). Every probe
    /// descent touches exactly these levels, root first.
    pub fn directory_levels(&self) -> u32 {
        if self.internal_nodes == 0 {
            0
        } else {
            self.depth
        }
    }

    /// Internal node numbers of directory level `level` (0 = the
    /// root). Breadth-first numbering makes each level contiguous:
    /// level `L` starts at `(f^L − 1)/(f − 1)`.
    pub fn level_nodes(&self, level: u32) -> std::ops::Range<usize> {
        let f = self.branching;
        let start = (pow_saturating(f, level) - 1) / (f - 1);
        let end = (pow_saturating(f, level + 1) - 1) / (f - 1);
        start.min(self.internal_nodes)..end.min(self.internal_nodes)
    }

    /// Directory size in bytes for `key_width`-byte keys — the CSS-tree's
    /// entire space cost (Fig. 7: identical in both accounting modes).
    pub fn space_bytes(&self, key_width: usize) -> usize {
        self.directory_slots() * key_width
    }

    /// Number of levels a probe traverses (internal levels + the leaf).
    pub fn levels(&self) -> u32 {
        self.depth + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example (Fig. 3): m = 4, 65 leaf nodes
    /// (65·4 = 260 elements).
    #[test]
    fn paper_figure3_example() {
        let l = CssLayout::full(260, 4);
        assert_eq!(l.leaves, 65);
        assert_eq!(l.depth, 3); // 5^2 = 25 < 65 <= 125 = 5^3
        assert_eq!(l.first_bottom, 31); // (125-1)/4, "first key in node 31"
        assert_eq!(l.internal_nodes, 16); // nodes 0..=15, "last key in node 15"
        assert_eq!(l.mark, 124);
        // Upper leaves 16..31 (15 nodes, 60 elements) hold the array tail.
        assert_eq!(l.first_part_len, 260 - 15 * 4);
    }

    #[test]
    fn fig3_leaf_mapping_switches_regions() {
        let l = CssLayout::full(260, 4);
        // Bottom-level leaf 31 is the first part's start.
        assert_eq!(l.leaf_segment(31), LeafSegment::Range { start: 0, end: 4 });
        // Last bottom leaf 80 ends the first part.
        assert_eq!(
            l.leaf_segment(80),
            LeafSegment::Range {
                start: 196,
                end: 200
            }
        );
        // Upper leaf 16 starts region II (tail of the array).
        assert_eq!(
            l.leaf_segment(16),
            LeafSegment::Range {
                start: 200,
                end: 204
            }
        );
        // Last upper leaf 30 ends at n.
        assert_eq!(
            l.leaf_segment(30),
            LeafSegment::Range {
                start: 256,
                end: 260
            }
        );
    }

    #[test]
    fn lemma_4_1_internal_count_formula() {
        // Cross-check T against the closed form for assorted (n, m).
        for &(n, m) in &[
            (260usize, 4usize),
            (1000, 4),
            (10_000, 16),
            (1_000_000, 16),
            (123_457, 8),
            (97, 2),
        ] {
            let l = CssLayout::full(n, m);
            let b = ceil_div(n, m);
            let k = ceil_log(m + 1, b) as u32;
            let fk = pow_saturating(m + 1, k);
            let expected_t = (fk - 1) / m - (fk - b) / m;
            assert_eq!(l.internal_nodes, expected_t, "n={n} m={m}");
            assert_eq!(l.first_bottom, (fk - 1) / m, "n={n} m={m}");
        }
    }

    #[test]
    fn all_leaves_on_one_level_when_b_is_a_power() {
        // B = 25 = 5^2 with m = 4: every leaf sits at the bottom level.
        let l = CssLayout::full(100, 4);
        assert_eq!(l.leaves, 25);
        assert_eq!(l.first_bottom, 6);
        assert_eq!(l.internal_nodes, 6);
        assert_eq!(l.first_part_len, 100); // no upper leaves
    }

    #[test]
    fn single_leaf_degenerates() {
        for n in 0..=4usize {
            let l = CssLayout::full(n, 4);
            assert_eq!(l.internal_nodes, 0, "n={n}");
            assert_eq!(l.leaves, ceil_div(n, 4));
            assert_eq!(l.first_part_len, n);
            if n > 0 {
                assert_eq!(l.leaf_segment(0), LeafSegment::Range { start: 0, end: n });
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn segments_partition_the_array() {
        // Every element must be covered exactly once across all leaves,
        // in order: bottom leaves cover [0, L1), upper leaves [L1, n).
        for &(n, m) in &[
            (260usize, 4usize),
            (97, 4),
            (1_000, 8),
            (4_097, 16),
            (65_536, 16),
            (100, 5),
            (31, 2),
            (12_345, 7),
        ] {
            let l = CssLayout::full(n, m);
            let t = l.internal_nodes;
            let mut covered = vec![false; n];
            // In-order over positions: bottom leaves first.
            let mut expected_start = 0usize;
            for node in l.first_bottom..t + l.leaves {
                match l.leaf_segment(node) {
                    LeafSegment::Range { start, end } => {
                        assert_eq!(start, expected_start, "n={n} m={m} node={node}");
                        for p in start..end {
                            assert!(!covered[p]);
                            covered[p] = true;
                        }
                        expected_start = end;
                    }
                    LeafSegment::BeyondEnd => {}
                }
            }
            for node in t..l.first_bottom.min(t + l.leaves) {
                match l.leaf_segment(node) {
                    LeafSegment::Range { start, end } => {
                        assert_eq!(start, expected_start, "upper n={n} m={m} node={node}");
                        for p in start..end {
                            assert!(!covered[p]);
                            covered[p] = true;
                        }
                        expected_start = end;
                    }
                    LeafSegment::BeyondEnd => panic!("upper leaves are never dangling"),
                }
            }
            assert!(covered.iter().all(|&c| c), "n={n} m={m}");
        }
    }

    #[test]
    fn level_layout_uses_branching_m() {
        let l = CssLayout::level(1000, 8);
        assert_eq!(l.branching, 8);
        assert_eq!(l.leaves, 125);
        // k = ceil(log8 125) = 3; F = (512-1)/7 = 73; T = 73 - (512-125)/7
        // = 73 - 55 = 18.
        assert_eq!(l.depth, 3);
        assert_eq!(l.first_bottom, 73);
        assert_eq!(l.internal_nodes, 18);
    }

    #[test]
    fn level_tree_is_deeper_than_full() {
        // §4.2: "A level CSS-tree will be deeper than the corresponding
        // full CSS-tree since now the branching factor is m instead of
        // m + 1" — visible at boundary sizes.
        let full = CssLayout::full(17 * 17 * 16, 16);
        let level = CssLayout::level(17 * 17 * 16, 16);
        assert!(level.depth >= full.depth);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn level_rejects_non_power_of_two() {
        let _ = CssLayout::level(100, 12);
    }

    #[test]
    fn dangling_leaf_is_beyond_end() {
        // Choose n so the bottom level has dangling node positions:
        // m = 4, B = 26 leaves -> k = 3, F = 31, T = 7, bottom leaves
        // 31..33, upper leaves 7..31 (24 nodes). Virtual bottom positions
        // 33.. are dangling.
        let l = CssLayout::full(104, 4);
        assert_eq!(l.leaves, 26);
        assert_eq!(l.internal_nodes, 7);
        assert_eq!(l.first_bottom, 31);
        assert_eq!(l.first_part_len, 104 - 24 * 4);
        assert_eq!(l.leaf_segment(31), LeafSegment::Range { start: 0, end: 4 });
        assert_eq!(l.leaf_segment(32), LeafSegment::Range { start: 4, end: 8 });
        assert_eq!(l.leaf_segment(33), LeafSegment::BeyondEnd);
    }

    #[test]
    fn space_matches_paper_typicals() {
        // Fig. 7: full CSS-tree over n = 10^7 4-byte keys with 64-byte
        // nodes (m = 16): nK^2/(sc) = 2.5 MB.
        let l = CssLayout::full(10_000_000, 16);
        let mb = l.space_bytes(4) as f64 / 1e6;
        assert!((2.3..2.8).contains(&mb), "space = {mb} MB");
        // Level CSS-tree: slightly more (2.7 MB in Fig. 7).
        let ll = CssLayout::level(10_000_000, 16);
        let lmb = ll.space_bytes(4) as f64 / 1e6;
        assert!(lmb > mb, "level {lmb} vs full {mb}");
        assert!((2.4..3.1).contains(&lmb), "level space = {lmb} MB");
    }

    #[test]
    fn level_ranges_tile_the_directory() {
        // Concatenating every level's node range must reproduce 0..T
        // exactly, in order: breadth-first numbering keeps each level
        // contiguous.
        for &(n, m) in &[
            (260usize, 4usize),
            (97, 4),
            (1_000, 8),
            (4_097, 16),
            (100, 5),
            (12_345, 7),
            (3, 4),
            (0, 4),
        ] {
            let layouts = if m.is_power_of_two() && m >= 2 {
                vec![CssLayout::full(n, m), CssLayout::level(n, m)]
            } else {
                vec![CssLayout::full(n, m)]
            };
            for l in layouts {
                let mut next_node = 0usize;
                for level in 0..l.directory_levels() {
                    let nodes = l.level_nodes(level);
                    assert_eq!(nodes.start, next_node, "n={n} m={m} level={level}");
                    assert!(!nodes.is_empty(), "n={n} m={m} level={level}");
                    next_node = nodes.end;
                }
                assert_eq!(next_node, l.internal_nodes, "n={n} m={m}");
                // One level past the directory is empty, not a panic.
                assert!(l.level_nodes(l.directory_levels()).is_empty() || l.internal_nodes == 0);
            }
        }
    }

    #[test]
    fn paper_example_level_ranges() {
        // Fig. 3 geometry: 16 internal nodes over 3 directory levels.
        let l = CssLayout::full(260, 4);
        assert_eq!(l.directory_levels(), 3);
        assert_eq!(l.level_nodes(0), 0..1);
        assert_eq!(l.level_nodes(1), 1..6);
        assert_eq!(l.level_nodes(2), 6..16); // clamped from 6..31
    }

    #[test]
    fn partial_last_leaf_is_clamped() {
        let l = CssLayout::full(103, 4); // B = 26, L1 = 103 - 96 = 7
        assert_eq!(l.first_part_len, 7);
        assert_eq!(l.leaf_segment(32), LeafSegment::Range { start: 4, end: 7 });
    }
}
