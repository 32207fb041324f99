//! Node-search strategies: the whole of what one CSS-tree variant may vary.
//!
//! §4 defines *one* structure — a directory of cache-line nodes over a
//! sorted array, children found by offset arithmetic — and two ways of
//! picking a branch inside a node. A [`NodeSearch`] is that choice and
//! nothing else: how many slots a node has, how many of them the branch
//! pick searches, which geometry that implies, and how the bottom-up fill
//! learns a child's largest key. The node layout in memory, the descent,
//! the leaf search, the batch surface and the index traits are written
//! once, in [`crate::tree`] and [`crate::batch`], and cannot be varied
//! from here.
//!
//! The provided methods *are* the full tree of §4.1; [`Level`] overrides
//! them for §4.2; [`RuntimeFull`] changes only where `m` comes from.
//!
//! Both searches of a descent — the branch pick in a node and the lower
//! bound in a leaf segment — are the one branch-free kernel here,
//! `count_less`; a tracer is shown §4's bisection, replayed from the
//! kernel's answer by `replay_bisection`.

use crate::layout::CssLayout;
use ccindex_common::{AccessTracer, Key};
use core::fmt::Debug;

/// The crate's one search kernel: how many of `keys` are less than
/// `probe`. On a sorted slice that is the leftmost position holding a key
/// `>= probe` — a bisection's answer — computed with no data-dependent
/// branch, so neither a mispredict nor a load waits on the previous
/// compare.
#[inline(always)]
pub(crate) fn count_less<K: Key>(keys: &[K], probe: K) -> usize {
    keys.iter().map(|&k| (k < probe) as usize).sum()
}

/// Replays for `tracer` the bisection of a sorted `len`-element slice whose
/// answer is `answer`, calling `visit` at each midpoint it compares, in
/// order. On a sorted slice `keys[mid] < probe` exactly when `mid <
/// answer`, so the path follows from [`count_less`]'s result and the tracer
/// sees the events of §4's search without it being run.
///
/// A zero-sized tracer records nothing (see [`AccessTracer`]), so for one
/// the replay is skipped by a compile-time constant. Inlining empty event
/// bodies is not enough: the compiler keeps a loop it cannot prove
/// finite, and the timed path would run the bisection's control flow.
#[inline(always)]
pub(crate) fn replay_bisection<T: AccessTracer>(
    tracer: &mut T,
    len: usize,
    answer: usize,
    mut visit: impl FnMut(&mut T, usize),
) {
    if core::mem::size_of::<T>() == 0 {
        return;
    }
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = (lo + hi) >> 1;
        visit(tracer, mid);
        if mid < answer {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
}

/// How a [`CssTree`](crate::CssTree) picks a branch within one node.
pub trait NodeSearch: Copy + Debug + Send + Sync + 'static {
    /// Stable name reported through `SearchIndex::name`.
    fn name(&self) -> &'static str;

    /// Key slots per directory node (`m`). A compile-time constant for
    /// [`Full`] and [`Level`], so every node size monomorphises into its
    /// own unrolled node search — §6.2's specialisation.
    fn slots(&self) -> usize;

    /// Leading slots of a node the branch pick searches. §4.1: all `m`.
    #[inline(always)]
    fn searched(&self) -> usize {
        self.slots()
    }

    /// Directory geometry over `n` keys. §4.1: `m + 1`-way.
    fn layout(&self, n: usize) -> CssLayout {
        CssLayout::full(n, self.slots())
    }

    /// Leftmost searched slot of `node` holding a key `>= probe`, else
    /// [`searched`](Self::searched) — the child to descend into. Entry `e`
    /// is the largest key under child `e`, so this lands on the leftmost
    /// occurrence of a duplicated key (§4.1.2).
    ///
    /// Computed by the crate's one branch-free kernel, the count of
    /// searched slots holding a key `< probe`; `tracer` sees the compares
    /// of §4's bisection of those slots, which is what the simulated time
    /// model charges.
    #[inline(always)]
    fn branch<K: Key, T: AccessTracer>(&self, node: &[K], probe: K, tracer: &mut T) -> usize {
        let searched = self.searched();
        let branch = count_less(&node[..searched], probe);
        replay_bisection(tracer, searched, branch, |tracer, _| tracer.compare());
        branch
    }

    /// The largest key under node `child`, asked while the directory is
    /// filled from the last node to the first (`filled` holds every node
    /// numbered above the one being written; `key_at` reads the sorted
    /// array). §4.1, Algorithm 4.1: walk the rightmost branch down to a
    /// leaf and take its last key.
    fn subtree_max<K: Key>(
        &self,
        layout: &CssLayout,
        filled: &[K],
        child: usize,
        key_at: impl Fn(usize) -> K,
    ) -> K {
        let _ = filled;
        key_at(layout.max_position(child))
    }
}

/// §4.1, the full CSS-tree: `M` keys per node, `M + 1` children. Choose
/// `M` so a node fills a cache line: 16 four-byte keys for 64-byte lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Full<const M: usize>;

impl<const M: usize> NodeSearch for Full<M> {
    fn name(&self) -> &'static str {
        "full CSS-tree"
    }
    #[inline(always)]
    fn slots(&self) -> usize {
        M
    }
}

/// §4.2, the level CSS-tree: for `M = 2^t` a node holds `M − 1` separators
/// and has `M` children, so the node search is a *perfect* binary
/// comparison tree of exactly `t` comparisons (Fig. 4) — fewer comparisons
/// in total than the full tree, over `log_M n >= log_{M+1} n` levels.
///
/// The spare `M`-th slot caches "the largest value in the last branch of
/// each node": the fill reads a child's maximum from that slot instead of
/// re-descending the child's subtree, which is why level trees *build*
/// faster than full trees (Fig. 9). The search never looks at it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Level<const M: usize>;

impl<const M: usize> NodeSearch for Level<M> {
    fn name(&self) -> &'static str {
        "level CSS-tree"
    }
    #[inline(always)]
    fn slots(&self) -> usize {
        M
    }
    #[inline(always)]
    fn searched(&self) -> usize {
        M - 1
    }
    fn layout(&self, n: usize) -> CssLayout {
        CssLayout::level(n, M)
    }
    fn subtree_max<K: Key>(
        &self,
        layout: &CssLayout,
        filled: &[K],
        child: usize,
        key_at: impl Fn(usize) -> K,
    ) -> K {
        if layout.is_internal(child) {
            filled[child * M + (M - 1)]
        } else {
            key_at(layout.max_position(child))
        }
    }
}

/// The §6.2 ablation: a full CSS-tree whose node size is a runtime value.
///
/// "When our code was more 'generic' (including a binary search loop for
/// each node), we found the performance to be 20% to 45% worse than the
/// specialized code." Same directory, same accesses as [`Full`]; the only
/// difference is that `m` is not known to the compiler, so the node
/// search stays a loop with a runtime trip count. Also the tree behind
/// [`build_dyn`](crate::build_dyn) for node sizes without a monomorph,
/// such as the `m = 24` bump of Figs. 12–13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeFull {
    /// Keys per node, `>= 1`.
    pub m: usize,
}

impl NodeSearch for RuntimeFull {
    fn name(&self) -> &'static str {
        "full CSS-tree (generic)"
    }
    #[inline(always)]
    fn slots(&self) -> usize {
        self.m
    }
}
