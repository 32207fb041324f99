//! The chained-bucket hash table.
//!
//! §3.5: "Hash indices are fast in searching only if the length of each
//! bucket is small. This requires a fairly large directory size and thus a
//! fairly large amount of space. ... Hash indices do not preserve order."
//! The directory size is an explicit parameter so the Fig. 12 sweep (hash
//! directory sizes 2¹⁸..2²³) and the space/time frontier of Figs. 2/14 can
//! trade space against chain length.
//!
//! The hash function is the paper's: the key's low-order bits (§6.2),
//! which is "cheap to compute" but — as §3.5 warns — sensitive to skewed
//! key sets; the `skew` tests exercise exactly that.

use crate::bucket::{Bucket, NO_NEXT};
use crate::hashfn::HashFn;
use ccindex_common::{
    AccessTracer, AlignedBuf, IndexStats, Key, NoopTracer, SearchIndex, SpaceReport,
};

/// Chained bucket hash index with `E` entries per bucket.
///
/// Duplicate keys: only the *leftmost* occurrence of each key is inserted,
/// so `search` returns the same position every ordered method returns
/// (§3.6 semantics); the remaining duplicates are reachable by scanning the
/// sorted array rightwards from that position.
#[derive(Debug, Clone)]
pub struct HashIndex<K: Key, const E: usize> {
    directory: AlignedBuf<Bucket<K, E>>,
    overflow: AlignedBuf<Bucket<K, E>>,
    hash_fn: HashFn,
    len: usize,
    max_chain: usize,
}

impl<K: Key, const E: usize> HashIndex<K, E> {
    /// Build from a **sorted** slice (positions become RIDs) with an
    /// explicit power-of-two directory size and the paper's low-order-bit
    /// hash function.
    pub fn build_with_directory(keys: &[K], directory_size: usize) -> Self {
        Self::build_with_config(keys, directory_size, HashFn::LowBits)
    }

    /// Build with an explicit directory size *and* hash function — the
    /// §3.5 skew trade-off knob.
    pub fn build_with_config(keys: &[K], directory_size: usize, hash_fn: HashFn) -> Self {
        assert!(
            directory_size.is_power_of_two() && directory_size >= 1,
            "directory size must be a power of two"
        );
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "input must be sorted"
        );
        // Pass 1: leftmost occurrences and their chain loads.
        let mut loads = vec![0u32; directory_size];
        let mut prev: Option<K> = None;
        for &k in keys {
            if prev == Some(k) {
                continue;
            }
            prev = Some(k);
            loads[hash_fn.bucket(k.hash_bits(), directory_size)] += 1;
        }
        // Overflow buckets needed per chain: ceil(load/E) - 1.
        let mut overflow_total = 0usize;
        let mut max_chain = 0usize;
        for &load in &loads {
            if load as usize > E {
                overflow_total += (load as usize - 1) / E;
            }
            max_chain = max_chain.max(if load == 0 {
                0
            } else {
                (load as usize - 1) / E + 1
            });
        }
        let mut directory: AlignedBuf<Bucket<K, E>> = AlignedBuf::new_zeroed(directory_size);
        for b in directory.iter_mut() {
            *b = Bucket::default();
        }
        let mut overflow: AlignedBuf<Bucket<K, E>> = AlignedBuf::new_zeroed(overflow_total);
        for b in overflow.iter_mut() {
            *b = Bucket::default();
        }
        // Pass 2: insert.
        let mut next_overflow = 0u32;
        let mut prev: Option<K> = None;
        for (pos, &k) in keys.iter().enumerate() {
            if prev == Some(k) {
                continue;
            }
            prev = Some(k);
            let h = hash_fn.bucket(k.hash_bits(), directory_size);
            if directory[h].push(k, pos as u32) {
                continue;
            }
            // Walk the chain to its tail, extending when full.
            let mut cur = directory[h].next;
            if cur == NO_NEXT {
                directory[h].next = next_overflow;
                cur = next_overflow;
                next_overflow += 1;
            }
            loop {
                if overflow[cur as usize].push(k, pos as u32) {
                    break;
                }
                let nxt = overflow[cur as usize].next;
                if nxt == NO_NEXT {
                    overflow[cur as usize].next = next_overflow;
                    next_overflow += 1;
                    let tail = overflow[cur as usize].next;
                    let ok = overflow[tail as usize].push(k, pos as u32);
                    debug_assert!(ok);
                    break;
                }
                cur = nxt;
            }
        }
        debug_assert_eq!(next_overflow as usize, overflow_total);
        Self {
            directory,
            overflow,
            hash_fn,
            len: keys.len(),
            max_chain,
        }
    }

    /// Build with the default sizing: the smallest power-of-two directory
    /// whose expected load is below `E` entries per bucket with the
    /// paper's fudge factor h ≈ 1.2 of slack.
    pub fn build(keys: &[K]) -> Self {
        let distinct_estimate = keys.len().max(1);
        let target_buckets = (distinct_estimate as f64 * 1.2 / E as f64).ceil() as usize;
        let directory_size = target_buckets.next_power_of_two().max(1);
        Self::build_with_directory(keys, directory_size)
    }

    /// Directory size (buckets).
    pub fn directory_size(&self) -> usize {
        self.directory.len()
    }

    /// Longest chain (buckets) — the skew indicator of §3.5.
    pub fn max_chain(&self) -> usize {
        self.max_chain
    }

    #[inline]
    fn bucket_addr(&self, arena: &AlignedBuf<Bucket<K, E>>, idx: usize) -> usize {
        arena.base_addr() + idx * core::mem::size_of::<Bucket<K, E>>()
    }

    /// Probe for `key`, reporting each touched bucket to `tracer`.
    pub fn search_with<T: AccessTracer>(&self, key: K, tracer: &mut T) -> Option<usize> {
        if self.directory.is_empty() {
            return None;
        }
        let h = self.hash_fn.bucket(key.hash_bits(), self.directory.len());
        let bucket_bytes = core::mem::size_of::<Bucket<K, E>>();
        let first = &self.directory[h];
        tracer.read(self.bucket_addr(&self.directory, h), bucket_bytes);
        for _ in 0..first.count {
            tracer.compare();
        }
        if let Some(rid) = first.find(key) {
            return Some(rid as usize);
        }
        let mut cur = first.next;
        while cur != NO_NEXT {
            let b = &self.overflow[cur as usize];
            tracer.read(self.bucket_addr(&self.overflow, cur as usize), bucket_bytes);
            for _ in 0..b.count {
                tracer.compare();
            }
            if let Some(rid) = b.find(key) {
                return Some(rid as usize);
            }
            cur = b.next;
            tracer.descend();
        }
        None
    }
}

impl<K: Key, const E: usize> SearchIndex<K> for HashIndex<K, E> {
    fn name(&self) -> &'static str {
        "hash"
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
        // Fig. 7: the RIDs inside the table are charged only in the
        // "direct" column; "indirect" counts the table's excess over the
        // raw RID list.
        let total = self.directory.size_bytes() + self.overflow.size_bytes();
        SpaceReport {
            indirect_bytes: total.saturating_sub(self.len * 4),
            direct_bytes: total,
        }
    }
    fn stats(&self) -> IndexStats {
        IndexStats {
            levels: self.max_chain as u32,
            internal_nodes: self.directory.len() + self.overflow.len(),
            branching: 1,
            node_bytes: core::mem::size_of::<Bucket<K, E>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::U32_BUCKET_ENTRIES;
    use ccindex_common::CountingTracer;

    type H = HashIndex<u32, U32_BUCKET_ENTRIES>;

    #[test]
    fn finds_every_key() {
        let keys: Vec<u32> = (0..10_000).map(|i| i * 3 + 1).collect();
        let h = H::build(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(h.search(k), Some(i), "key {k}");
        }
    }

    #[test]
    fn misses_are_none() {
        let keys: Vec<u32> = (0..10_000).map(|i| i * 3 + 1).collect();
        let h = H::build(&keys);
        for i in (0..9_999u32).step_by(131) {
            assert_eq!(h.search(i * 3 + 2), None);
        }
    }

    #[test]
    fn duplicates_return_leftmost() {
        let keys = vec![2u32, 7, 7, 7, 9, 9];
        let h = H::build(&keys);
        assert_eq!(h.search(7), Some(1));
        assert_eq!(h.search(9), Some(4));
    }

    #[test]
    fn tiny_directory_forces_overflow_chains() {
        let keys: Vec<u32> = (0..1000).collect();
        let h = H::build_with_directory(&keys, 8);
        assert!(h.max_chain() > 10);
        for (i, &k) in keys.iter().enumerate().step_by(13) {
            assert_eq!(h.search(k), Some(i));
        }
    }

    #[test]
    fn default_sizing_keeps_chains_short() {
        let keys: Vec<u32> = (0..100_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let h = H::build(&sorted);
        assert!(h.max_chain() <= 3, "max chain {}", h.max_chain());
    }

    #[test]
    fn low_order_bit_hash_suffers_on_strided_keys() {
        // §3.5's skew warning: keys all ≡ 0 (mod 256) collide into 1/256th
        // of a 256+-bucket directory when hashing by low-order bits.
        let keys: Vec<u32> = (0..2048).map(|i| i * 256).collect();
        let h = H::build_with_directory(&keys, 256);
        assert!(
            h.max_chain() >= 2048 / U32_BUCKET_ENTRIES / 8,
            "expected pathological chaining, got {}",
            h.max_chain()
        );
        // Still correct, just slow.
        assert_eq!(h.search(256 * 100), Some(100));
    }

    #[test]
    fn fibonacci_hash_fixes_strided_skew() {
        // Same pathological keys as above; the "sophisticated" hash
        // function of §3.5 restores short chains.
        let keys: Vec<u32> = (0..2048).map(|i| i * 256).collect();
        let low = H::build_with_config(&keys, 256, crate::HashFn::LowBits);
        let fib = H::build_with_config(&keys, 256, crate::HashFn::Fibonacci);
        assert!(
            low.max_chain() > 10 * fib.max_chain(),
            "low {} vs fib {}",
            low.max_chain(),
            fib.max_chain()
        );
        for (i, &k) in keys.iter().enumerate().step_by(37) {
            assert_eq!(fib.search(k), Some(i));
            assert_eq!(fib.search(k + 1), None);
        }
    }

    #[test]
    fn probe_reads_whole_buckets() {
        let keys: Vec<u32> = (0..10_000).collect();
        let h = H::build(&keys);
        let mut t = CountingTracer::new();
        h.search_with(1234, &mut t);
        assert!(t.reads >= 1);
        assert_eq!(t.bytes_read % 64, 0, "bucket reads are line-sized");
    }

    #[test]
    fn space_direct_includes_rids() {
        let keys: Vec<u32> = (0..10_000).collect();
        let h = H::build(&keys);
        let s = h.space();
        assert_eq!(s.direct_bytes - s.indirect_bytes, 10_000 * 4);
        // Direct space ≈ directory + overflow; must exceed raw data size
        // (the "hash is fat" observation).
        assert!(s.direct_bytes > 10_000 * 4);
    }

    #[test]
    fn empty_table() {
        let h = H::build(&[]);
        assert_eq!(h.search(5), None);
        assert_eq!(h.len(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_directory() {
        let _ = H::build_with_directory(&[1, 2, 3], 100);
    }
}
