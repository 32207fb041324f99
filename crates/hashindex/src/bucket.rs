//! Cache-line-sized hash buckets.
//!
//! §6.2: "Besides keys, each bucket also contains a counter indicating the
//! number of occupied slots in the bucket and the pointer to the next
//! bucket." With 4-byte keys and RIDs, a 64-byte bucket holds the 8-byte
//! header plus seven `<key, RID>` pairs — "squeeze in as many <key,RID>
//! pairs as possible" \[GBC98\].

use ccindex_common::Key;

/// Overflow-chain terminator.
pub const NO_NEXT: u32 = u32::MAX;

/// Entries per 64-byte bucket for 4-byte keys and RIDs.
pub const U32_BUCKET_ENTRIES: usize = 7;

/// One chained bucket with `E` entry slots.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct Bucket<K, const E: usize> {
    /// Occupied slots (≤ `E`).
    pub count: u32,
    /// Overflow bucket (arena index) or [`NO_NEXT`].
    pub next: u32,
    /// Keys of the occupied slots.
    pub keys: [K; E],
    /// RIDs (sorted-array positions) parallel to `keys`.
    pub rids: [u32; E],
}

impl<K: Key, const E: usize> Default for Bucket<K, E> {
    fn default() -> Self {
        Self {
            count: 0,
            next: NO_NEXT,
            keys: [K::default(); E],
            rids: [0; E],
        }
    }
}

impl<K: Key, const E: usize> Bucket<K, E> {
    /// Append an entry; returns `false` when the bucket is full.
    pub fn push(&mut self, key: K, rid: u32) -> bool {
        let c = self.count as usize;
        if c >= E {
            return false;
        }
        self.keys[c] = key;
        self.rids[c] = rid;
        self.count += 1;
        true
    }

    /// Linear scan for `key`; returns its RID if present.
    #[inline]
    pub fn find(&self, key: K) -> Option<u32> {
        let c = self.count as usize;
        self.keys[..c]
            .iter()
            .position(|&k| k == key)
            .map(|i| self.rids[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_bucket_fits_one_cache_line() {
        assert_eq!(
            core::mem::size_of::<Bucket<u32, U32_BUCKET_ENTRIES>>(),
            64,
            "8-byte header + 7 * 8-byte pairs"
        );
    }

    #[test]
    fn push_until_full() {
        let mut b = Bucket::<u32, 3>::default();
        assert!(b.push(10, 0));
        assert!(b.push(20, 1));
        assert!(b.push(30, 2));
        assert!(!b.push(40, 3), "fourth push must report full");
        assert_eq!(b.count, 3);
    }

    #[test]
    fn find_scans_occupied_slots_only() {
        let mut b = Bucket::<u32, 4>::default();
        b.push(10, 5);
        b.push(20, 6);
        assert_eq!(b.find(10), Some(5));
        assert_eq!(b.find(20), Some(6));
        assert_eq!(
            b.find(0),
            None,
            "default key in unoccupied slot is not a match"
        );
    }
}
