//! The OLAP batch-update cycle (§2.3, §4.1.1).
//!
//! "We assume an OLAP environment, so we don't care too much about
//! updates. ... when batch updates arrive, we can afford to rebuild the
//! CSS-tree." [`apply_batch`] is that cycle over a bare sorted key array:
//! merge it with a batch of inserts/deletes ([`merge_batch`]), then
//! rebuild the index of the chosen kind from scratch, reporting how long
//! each phase took (the quantity Fig. 9 plots for CSS-trees).
//!
//! The catalog's cycle needs no merge: a column is replaced wholesale,
//! so [`Database::rebuild_column`](crate::engine::Database::rebuild_column)
//! re-sorts it into a fresh RID list and rebuilds every registered kind
//! over that list's own key array, which the new indexes then share.

use crate::index_choice::{build_index, IndexKind};
use ccindex_common::{SearchIndex, SortedArray};
use std::time::{Duration, Instant};

/// Outcome of one batch-update + rebuild cycle.
pub struct BatchResult {
    /// The merged sorted key array.
    pub keys: SortedArray<u32>,
    /// The freshly rebuilt index.
    pub index: Box<dyn SearchIndex<u32>>,
    /// Time spent merging the batch into the sorted array.
    pub merge_time: Duration,
    /// Time spent rebuilding the index (Fig. 9's measurement).
    pub rebuild_time: Duration,
}

/// The merge phase alone: `inserts`/`deletes` folded into `keys` (all
/// sorted; duplicates in `keys` allowed — one delete removes one
/// occurrence), with the time it took.
///
/// Delete semantics: deletes target occurrences of the **pre-batch**
/// array only. A delete key absent from the base array is a no-op (it is
/// skipped, never stalling the cursor on later base keys), and a delete
/// key equal to a same-batch insert does not cancel that insert — whether
/// the insert lands between base keys or in the appended tail beyond the
/// last base key. Callers wanting insert/delete cancellation should
/// pre-net their batches before calling.
pub fn merge_batch(
    keys: &SortedArray<u32>,
    inserts: &[u32],
    deletes: &[u32],
) -> (SortedArray<u32>, Duration) {
    debug_assert!(inserts.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(deletes.windows(2).all(|w| w[0] <= w[1]));
    let t0 = Instant::now();
    let base = keys.as_slice();
    let mut merged = Vec::with_capacity(base.len() + inserts.len());
    let mut ins = inserts.iter().peekable();
    let mut del = deletes.iter().peekable();
    for &k in base {
        while let Some(&&i) = ins.peek() {
            if i < k {
                merged.push(i);
                ins.next();
            } else {
                break;
            }
        }
        // Discard delete keys smaller than the current base key: they
        // matched no base occurrence (absent, or already consumed by an
        // earlier equal base key) and must not block later deletes.
        while let Some(&&d) = del.peek() {
            if d < k {
                del.next();
            } else {
                break;
            }
        }
        if del.peek() == Some(&&k) {
            del.next();
            continue;
        }
        merged.push(k);
    }
    merged.extend(ins.copied());
    (SortedArray::from_vec(merged), t0.elapsed())
}

/// Merge `inserts`/`deletes` into `keys` and rebuild a `kind` index over
/// the result.
pub fn apply_batch(
    keys: &SortedArray<u32>,
    inserts: &[u32],
    deletes: &[u32],
    kind: IndexKind,
) -> BatchResult {
    let (new_keys, merge_time) = merge_batch(keys, inserts, deletes);
    let t1 = Instant::now();
    let index = build_index(kind, &new_keys);
    let rebuild_time = t1.elapsed();

    BatchResult {
        keys: new_keys,
        index,
        merge_time,
        rebuild_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_rebuild_are_consistent() {
        let keys = SortedArray::from_slice(&(0..1000u32).map(|i| i * 2).collect::<Vec<_>>());
        let inserts: Vec<u32> = vec![1, 3, 2001];
        let deletes: Vec<u32> = vec![0, 998];
        let r = apply_batch(&keys, &inserts, &deletes, IndexKind::FullCss);
        assert_eq!(r.keys.len(), 1000 + 3 - 2);
        assert_eq!(r.index.search(1), Some(0));
        assert_eq!(r.index.search(0), None, "deleted");
        assert_eq!(r.index.search(998), None, "deleted");
        assert_eq!(r.index.search(2001), Some(r.keys.len() - 1));
    }

    #[test]
    fn one_delete_removes_one_duplicate() {
        let keys = SortedArray::from_slice(&[5u32, 5, 5, 9]);
        let r = apply_batch(&keys, &[], &[5], IndexKind::BinarySearch);
        assert_eq!(r.keys.as_slice(), &[5, 5, 9]);
    }

    #[test]
    fn absent_delete_keys_do_not_stall_the_cursor() {
        // The ISSUE's repro: a delete key (3) absent from the base array
        // must not shadow a later delete key (10) that is present.
        let keys = SortedArray::from_slice(&[5u32, 10]);
        let (merged, _) = merge_batch(&keys, &[], &[3, 10]);
        assert_eq!(merged.as_slice(), &[5]);
        // Several stale keys in a row, before and between live ones.
        let keys = SortedArray::from_slice(&[2u32, 4, 4, 9]);
        let (merged, _) = merge_batch(&keys, &[], &[0, 1, 3, 4, 6, 7, 9, 11]);
        assert_eq!(merged.as_slice(), &[2, 4]);
    }

    #[test]
    fn deletes_never_cancel_same_batch_inserts() {
        // Tail insert beyond every base key: the delete for it is stale.
        let keys = SortedArray::from_slice(&[5u32, 10]);
        let (merged, _) = merge_batch(&keys, &[20], &[20]);
        assert_eq!(merged.as_slice(), &[5, 10, 20]);
        // Insert landing between base keys: same rule.
        let (merged, _) = merge_batch(&keys, &[7], &[7]);
        assert_eq!(merged.as_slice(), &[5, 7, 10]);
        // But a delete equal to a *base* key still fires even when an
        // equal insert arrives in the same batch (one out, one in).
        let (merged, _) = merge_batch(&keys, &[10], &[10]);
        assert_eq!(merged.as_slice(), &[5, 10]);
    }

    #[test]
    fn rebuild_works_for_every_kind() {
        let keys = SortedArray::from_slice(&(0..5000u32).collect::<Vec<_>>());
        for kind in IndexKind::ALL {
            let r = apply_batch(&keys, &[10_000], &[2_500], kind);
            assert_eq!(r.index.search(10_000), Some(r.keys.len() - 1), "{kind:?}");
            assert_eq!(r.index.search(2_500), None, "{kind:?}");
            assert_eq!(r.index.len(), 5000, "{kind:?}");
        }
    }

    #[test]
    fn empty_batch_is_a_pure_rebuild() {
        let keys = SortedArray::from_slice(&(0..100u32).collect::<Vec<_>>());
        let r = apply_batch(&keys, &[], &[], IndexKind::LevelCss);
        assert_eq!(r.keys.as_slice(), keys.as_slice());
        assert_eq!(r.index.search(50), Some(50));
    }
}
