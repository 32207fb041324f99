//! Batched lookups: the interleaved descent and the batch surface.
//!
//! The OLAP consumers of §2.2 rarely issue one probe at a time: an indexed
//! nested-loop join performs "a lot of searching through indexes on the
//! inner relations". The batch entry points here exploit that:
//! the crate-internal `interleaved_descent` advances up to `lanes`
//! independent probes one directory level per round — the
//! software-pipelining counterpart of the paper's cache-line sizing (a
//! beyond-paper extension; the paper's own protocol is reproduced by the
//! sequential path, which the batch is tested against).
//!
//! **What a round keeps in flight.** Right after a lane's step, the line
//! that lane reads next — its child node, or the first line of its leaf
//! segment once it leaves the directory — is prefetched. The other lanes'
//! steps then run while that line travels, so a round has up to `lanes`
//! misses outstanding and each lane finds its line arrived, or nearly, when
//! the next round reaches it. This only pays because the node and leaf
//! searches are branch-free (`count_less`): a mispredicted compare would
//! flush the steps queued behind it, and with them the overlap.
//!
//! The same `lanes` is the lookahead of the `mmdb` operators that consume
//! a batch's answers: a run of a RID list, an outer row's domain ID, a
//! group's and a measure's ID are each prefetched `lanes` reads ahead, so
//! the misses after the descent overlap as the descent's own do.
//!
//! One descent serves every tree: the lane bookkeeping lives here, each
//! lane's move is the same `Directory::step` the sequential descent
//! takes, and the strategy is reached only through that step. Prefetches
//! are hints, not accesses: the tracer sees exactly the reads the
//! sequential descent reports, reordered.

use crate::layout::LeafSegment;
use crate::search::NodeSearch;
use crate::tree::{CssTree, Directory};
use ccindex_common::{prefetch, AccessTracer, Key, NoopTracer};

impl<K: Key, S: NodeSearch> Directory<K, S> {
    /// Level-synchronous interleaved descent: lower bounds of `probes`
    /// over the sorted `keys`, in probe order.
    ///
    /// Probes are processed in chunks of `lanes`; within a chunk every
    /// live lane advances one directory level per round and prefetches
    /// what it reads next, then each lane's virtual leaf is resolved. The
    /// tracer sees the accesses in exactly that order, so the cache
    /// simulator can replay the *batched* access pattern, which is what
    /// distinguishes this path from a sequential descent.
    ///
    /// Degenerate lane counts are legal configuration, not errors: `lanes
    /// == 0` falls back to the sequential descent (one lane), and `lanes >
    /// probes.len()` is clamped to the probe count so no lane bookkeeping
    /// is allocated or scanned for lanes that could never carry a probe.
    pub(crate) fn interleaved_descent<T: AccessTracer>(
        &self,
        keys: &[K],
        probes: &[K],
        lanes: usize,
        tracer: &mut T,
    ) -> Vec<usize> {
        let layout = self.layout();
        let slots = self.slots().as_slice();
        let lanes = lanes.clamp(1, probes.len().max(1));
        let mut out = vec![0usize; probes.len()];
        let mut nodes = vec![0usize; lanes];
        for (chunk, out) in probes.chunks(lanes).zip(out.chunks_mut(lanes)) {
            let nodes = &mut nodes[..chunk.len()];
            nodes.fill(0);
            // Advance every lane still inside the directory one level per
            // round; lanes whose subtrees are shallower simply sit at their
            // leaf until the round loop drains.
            let mut any_internal = layout.internal_nodes > 0;
            while any_internal {
                any_internal = false;
                for (node, &probe) in nodes.iter_mut().zip(chunk) {
                    if layout.is_internal(*node) {
                        *node = self.step(*node, probe, tracer);
                        if layout.is_internal(*node) {
                            any_internal = true;
                            prefetch(slots.as_ptr().wrapping_add(layout.node_entry(*node)));
                        } else if let LeafSegment::Range { start, .. } = layout.leaf_segment(*node)
                        {
                            prefetch(keys.as_ptr().wrapping_add(start));
                        }
                    }
                }
            }
            for ((pos, &leaf), &probe) in out.iter_mut().zip(nodes.iter()).zip(chunk) {
                *pos = self.resolve_leaf(keys, leaf, probe, tracer);
            }
        }
        out
    }
}

impl<K: Key, S: NodeSearch> CssTree<K, S> {
    /// Sequential batch: one full `lower_bound` descent per probe, in
    /// order. This is the paper-faithful reference the interleaved path is
    /// tested against.
    pub fn lower_bound_batch_sequential(&self, probes: &[K]) -> Vec<usize> {
        probes
            .iter()
            .map(|&p| self.lower_bound_with(p, &mut NoopTracer))
            .collect()
    }

    /// Level-synchronous batch with `lanes` probes in flight per round.
    ///
    /// Produces exactly the same positions as
    /// [`Self::lower_bound_batch_sequential`].
    pub fn lower_bound_batch_lanes(&self, probes: &[K], lanes: usize) -> Vec<usize> {
        self.lower_bound_batch_lanes_with(probes, lanes, &mut NoopTracer)
    }

    /// As [`Self::lower_bound_batch_lanes`], reporting the batched access
    /// pattern to `tracer`.
    pub fn lower_bound_batch_lanes_with<T: AccessTracer>(
        &self,
        probes: &[K],
        lanes: usize,
        tracer: &mut T,
    ) -> Vec<usize> {
        self.dir()
            .interleaved_descent(self.array().as_slice(), probes, lanes, tracer)
    }

    /// Batched point lookup: interleaved lower bounds plus the per-probe
    /// equality check.
    pub fn search_batch_lanes_with<T: AccessTracer>(
        &self,
        probes: &[K],
        lanes: usize,
        tracer: &mut T,
    ) -> Vec<Option<usize>> {
        let lower_bounds = self.lower_bound_batch_lanes_with(probes, lanes, tracer);
        lower_bounds
            .into_iter()
            .zip(probes)
            .map(|(pos, &probe)| self.confirm(pos, probe, tracer))
            .collect()
    }

    /// Partitioned batched lower bounds: `probes` is split into one
    /// contiguous chunk per worker and every chunk runs the interleaved
    /// descent at `lanes` concurrently ([`ccindex_parallel::WorkerPool`];
    /// `threads == 0` means one worker per core, `threads == 1` is the
    /// inline sequential fallback). Chunk results are concatenated in
    /// probe order, so the output is byte-identical to
    /// [`Self::lower_bound_batch_lanes`].
    pub fn lower_bound_batch_par(&self, probes: &[K], lanes: usize, threads: usize) -> Vec<usize> {
        ccindex_parallel::WorkerPool::new(threads)
            .flat_map_chunks(probes, |chunk| self.lower_bound_batch_lanes(chunk, lanes))
    }
}

#[cfg(test)]
mod tests {
    use crate::suite::*;
    use crate::{Full, Level, RuntimeFull};

    #[test]
    fn interleaved_agrees_with_sequential() {
        interleaved_agrees(Full::<8>);
    }

    #[test]
    fn level_tree_batches_agree_with_sequential() {
        batches(Level::<16>);
    }

    #[test]
    fn runtime_tree_batches_agree_with_sequential() {
        batches(RuntimeFull { m: 24 });
    }

    #[test]
    fn interleaved_handles_ragged_tail_and_empty() {
        degenerate_batches(Full::<8>);
    }

    #[test]
    fn degenerate_lane_counts_fall_back_to_sequential() {
        degenerate_batches(Full::<16>);
    }

    #[test]
    fn parallel_batches_are_byte_identical_to_sequential() {
        parallel_agrees(Full::<8>);
    }

    #[test]
    fn trait_batch_overrides_route_through_interleaved_descent() {
        trait_paths_agree(Full::<8>);
    }

    #[test]
    fn traced_batch_reports_directory_reads() {
        traced_work_is_equal(Full::<8>);
    }

    #[test]
    fn validate_accepts_correct_trees() {
        validation(Full::<4>);
    }

    #[test]
    fn validate_catches_corruption() {
        validation(Full::<8>);
        validation(RuntimeFull { m: 7 });
    }
}
