//! Cache-Sensitive Search Trees (CSS-trees) — the paper's contribution.
//!
//! A CSS-tree is a directory structure stored on top of a sorted array
//! (§4). The directory is a balanced search tree stored itself as an array;
//! nodes are sized to the cache line, and children are found by arithmetic
//! on array offsets instead of stored pointers, so **every byte fetched is
//! a key**. A lookup costs at most `log_{m+1} n` cache misses instead of
//! binary search's `log_2 n`.
//!
//! That is one structure, and this crate has one type for it:
//! [`CssTree<K, S>`](CssTree) — a shared sorted array, a directory, the
//! directory's geometry ([`CssLayout`]: Lemma 4.1, and the remapping of
//! leaf offsets around the `MARK` point that keeps the array contiguous in
//! key order, Fig. 3) and a node-search strategy `S`. The paper's variants
//! are the three [`NodeSearch`] strategies:
//!
//! * [`Full<M>`](Full) (§4.1, [`FullCssTree`]) — nodes hold exactly `M`
//!   keys; the tree is a complete `(M+1)`-ary tree except for a partially
//!   filled bottom leaf level.
//! * [`Level<M>`](Level) (§4.2, [`LevelCssTree`]) — for `M = 2^t`, nodes
//!   sacrifice one slot and hold `M − 1` keys with branching factor `M`,
//!   turning the per-node search into a perfect binary tree: `log_2 n`
//!   total comparisons (fewer than full CSS-trees) at the price of
//!   `log_M n ≥ log_{M+1} n` levels.
//! * [`RuntimeFull`] (§6.2's "more generic" code) — the full tree with `m`
//!   a runtime value, kept as the ablation target and for node sizes
//!   without a monomorph.
//!
//! **What a strategy may vary** is the node: how many slots it has, how
//! many of them the branch pick searches, and the geometry that follows.
//! `Full` and `Level` are zero-sized, with `M` a const generic, so each
//! node size gets its own monomorph — the Rust equivalent of the paper's
//! hand-specialised code, which §6.2 measured to be worth 20–45 % over a
//! generic per-node binary-search loop. What the monomorph specialises
//! is one branch-free kernel: the number of keys below the probe, summed
//! over a fixed-length node, which the compiler unrolls and vectorises.
//! The same kernel resolves the leaf segment. Tracers still see §4's
//! bisection, replayed from the kernel's answer, so the simulated figures
//! charge the paper's algorithm. **What a strategy may not vary** is
//! everything else — where a node lives, how a child is addressed, the
//! search kernel, the descent, the leaf search, the interleaved and
//! prefetching batch descent ([`batch`]), validation, the
//! `SearchIndex`/`OrderedIndex` impls — all written once in [`search`],
//! [`tree`] and [`batch`].
//!
//! **Why the two fills differ.** Every directory slot holds the largest key
//! under its child. The full tree finds it by walking the child's rightmost
//! branch down to a leaf (Algorithm 4.1). The level tree's spare `M`-th
//! slot caches each node's overall maximum, so a parent reads its child's
//! maximum from one slot instead of re-descending — which is why level
//! trees *build* faster (Fig. 9). That one question ("what is the largest
//! key under this child?") is the only part of the fill a strategy
//! answers; [`CssTree::validate`] re-derives every slot by the rightmost
//! walk regardless, so it checks both fills independently.
//!
//! [`build_dyn`] picks a monomorph by `(variant, m)` at runtime for
//! parameter sweeps and returns it as an `OrderedIndex` trait object.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod dynamic;
pub mod layout;
pub mod search;
pub mod tree;

pub use dynamic::{build_dyn, STANDARD_NODE_SIZES};
pub use layout::{CssLayout, CssVariant};
pub use search::{Full, Level, NodeSearch, RuntimeFull};
pub use tree::{CssTree, FullCssTree, LevelCssTree};

// The strategy-generic test suite and its instantiations. The latter are
// mounted under the module paths of the per-variant files the strategies
// replaced, so every test kept its name.
#[cfg(test)]
#[path = "suite/full.rs"]
mod full;
#[cfg(test)]
#[path = "suite/generic_search.rs"]
mod generic_search;
#[cfg(test)]
#[path = "suite/level.rs"]
mod level;
#[cfg(test)]
mod suite;
