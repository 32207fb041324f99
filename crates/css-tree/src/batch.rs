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
//!
//! **Ascending batches walk forward.** When the caller knows its probes
//! ascend (the join's translation: the outer IDs it marks come out in
//! order, and so do their values), a probe's answer is at or after its
//! predecessor's. `ascending_descent` first looks for it in the line
//! holding the predecessor's answer and the line after it — lines a
//! forward walk has just read or reads next, and that the hardware's
//! adjacent-line and stream prefetchers bring in — and descends from the
//! root, interleaved as above, only when the answer lies past them. The
//! two lines are the rule, not a tuned distance: a dense batch becomes a
//! linear merge, a sparse one today's descents.

use crate::layout::LeafSegment;
use crate::search::{count_less, NodeSearch};
use crate::tree::{CssTree, Directory};
use ccindex_common::{prefetch, AccessTracer, Key, NoopTracer, CACHE_LINE_BYTES};

/// The walk's step: the lower bound of `probe` in `keys` if it lies in the
/// line starting at position `*line` or in the line after it, where
/// `*line` holds the lower bound of a probe no larger than `probe` (so
/// every key before it is below `probe` too); `None` if the answer lies
/// past that pair. On an answer, `*line` moves to the line holding it.
///
/// Which of the two lines holds the answer is one compare against the
/// first line's last key, so consecutive steps chain through that load
/// and compare only; the count over the chosen line is off the chain.
/// Near the array's end the pair is cut short and every answer, up to
/// `keys.len()`, lies in it.
#[inline(always)]
fn beside<K: Key>(keys: &[K], line: &mut usize, probe: K) -> Option<usize> {
    let per_line = (CACHE_LINE_BYTES / K::WIDTH).max(1);
    let Some(pair) = keys.get(*line..*line + 2 * per_line) else {
        return Some(*line + count_less(&keys[*line..], probe));
    };
    if pair[2 * per_line - 1] < probe {
        return None;
    }
    let second = usize::from(pair[per_line - 1] < probe) * per_line;
    *line += second;
    Some(*line + count_less(&pair[second..second + per_line], probe))
}

/// One lane of [`Directory::ascending_descent`]: a contiguous strip of
/// the batch, walked in order.
struct Strip {
    /// The probe the lane is answering.
    next: usize,
    end: usize,
    /// The line (its first position) holding the lane's last answer;
    /// `None` before its first, which therefore descends.
    line: Option<usize>,
    /// The node the lane's descent reads next; `None` between descents.
    node: Option<usize>,
}

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

    /// Lower bounds of the ascending `probes` over the sorted `keys`, in
    /// probe order (see the [module docs](self)).
    ///
    /// The batch is cut into `lanes` contiguous strips, one per lane. In
    /// every round a lane between descents first answers each next probe
    /// that lies beside its predecessor's answer, then takes one step of
    /// the descent for the first probe that does not: from the root, one
    /// level per round, prefetching what it reads next, its leaf resolved
    /// the round after reaching it. A strip's first probe always
    /// descends. The walk's lines were just read or sit next to them, so
    /// a lane's misses are its descent's, and those overlap across lanes
    /// as in the interleaved descent.
    pub(crate) fn ascending_descent(&self, keys: &[K], probes: &[K], lanes: usize) -> Vec<usize> {
        debug_assert!(
            probes.windows(2).all(|w| w[0] <= w[1]),
            "an ascending batch must ascend"
        );
        let layout = self.layout();
        let slots = self.slots().as_slice();
        let mut out = vec![0usize; probes.len()];
        let per_line = (CACHE_LINE_BYTES / K::WIDTH).max(1);
        let mut strips: Vec<Strip> = ccindex_parallel::partition(probes.len(), lanes)
            .into_iter()
            .map(|strip| Strip {
                next: strip.start,
                end: strip.end,
                line: None,
                node: None,
            })
            .collect();
        let mut live = true;
        while live {
            live = false;
            for strip in &mut strips {
                if let (None, Some(line)) = (strip.node, &mut strip.line) {
                    while strip.next < strip.end {
                        let Some(pos) = beside(keys, line, probes[strip.next]) else {
                            break;
                        };
                        out[strip.next] = pos;
                        strip.next += 1;
                    }
                }
                if strip.next == strip.end {
                    continue;
                }
                live = true;
                let probe = probes[strip.next];
                let node = strip.node.unwrap_or(0);
                if layout.is_internal(node) {
                    let child = self.step(node, probe, &mut NoopTracer);
                    // What the interleaved descent prefetches after a step.
                    if layout.is_internal(child) {
                        prefetch(slots.as_ptr().wrapping_add(layout.node_entry(child)));
                    } else if let LeafSegment::Range { start, .. } = layout.leaf_segment(child) {
                        prefetch(keys.as_ptr().wrapping_add(start));
                    }
                    strip.node = Some(child);
                } else {
                    let pos = self.resolve_leaf(keys, node, probe, &mut NoopTracer);
                    out[strip.next] = pos;
                    strip.next += 1;
                    strip.line = Some(pos - pos % per_line);
                    strip.node = None;
                }
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

    /// Lower bounds of an ascending batch (`probes[i] <= probes[i + 1]`),
    /// walking forward from each answer with `lanes` strips of the batch in
    /// flight; see the [module docs](crate::batch). Produces exactly the
    /// positions of [`Self::lower_bound_batch_lanes`]. The order is the
    /// caller's promise, checked only by a `debug_assert!`; an unordered
    /// batch belongs on [`Self::lower_bound_batch_lanes`].
    pub fn lower_bound_ascending(&self, probes: &[K], lanes: usize) -> Vec<usize> {
        self.dir()
            .ascending_descent(self.array().as_slice(), probes, lanes)
    }

    /// Point lookups of an ascending batch:
    /// [`Self::lower_bound_ascending`] plus the per-probe equality check,
    /// answering exactly as [`Self::search_batch_lanes_with`].
    pub fn search_ascending(&self, probes: &[K], lanes: usize) -> Vec<Option<usize>> {
        self.lower_bound_ascending(probes, lanes)
            .into_iter()
            .zip(probes)
            .map(|(pos, &probe)| self.confirm(pos, probe, &mut NoopTracer))
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

    /// Partitioned batched point lookups — the
    /// [`Self::lower_bound_batch_par`] strategy applied to
    /// [`Self::search_batch_lanes_with`]'s descent + equality check.
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an ascending batch must ascend")]
    fn an_unordered_ascending_batch_is_caught_in_debug_builds() {
        let keys: Vec<u32> = (0..100).collect();
        tree(Full::<8>, &keys).lower_bound_ascending(&[5, 4], 8);
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
