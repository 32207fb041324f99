//! The access pattern and directory bytes of every tree kind, pinned.
//!
//! For one million keys and a fixed probe vector this records, per tree,
//! the `CountingTracer` totals of the sequential and the 8-lane batched
//! descent, a hash of the exact event sequence each reports (every read
//! as region + offset + length, every compare, every descend, in order),
//! and a hash of the directory's bytes. The constants were taken before
//! the trees were unified and must never move: a change here means the
//! *structure* or its access pattern changed, not just its spelling —
//! the tier-1 form of `ccbench`'s exact `css-tree.sim_misses_per_probe`.

use crate::{CssTree, FullCssTree, LevelCssTree, RuntimeFull};
use ccindex_common::{AccessTracer, CountingTracer, Key, SortedArray};

const N: u32 = 1_000_000;
const PROBES: usize = 4_096;

fn keys() -> Vec<u32> {
    (0..N).map(|i| i * 4).collect()
}

/// Fixed probe vector: an LCG over the key range, hits and misses mixed,
/// a few probes beyond the largest key.
fn probes() -> Vec<u32> {
    let mut x = 0x2545_F491u32;
    (0..PROBES)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x % (N * 4 + 100)
        })
        .collect()
}

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Counts like `CountingTracer` and hashes the event sequence, with
/// addresses made position-independent (region tag + byte offset).
struct PatternTracer {
    counts: CountingTracer,
    sequence: u64,
    directory: (usize, usize),
    array: (usize, usize),
}

impl AccessTracer for PatternTracer {
    fn read(&mut self, addr: usize, len: usize) {
        self.counts.read(addr, len);
        let within = |(base, bytes): (usize, usize)| addr >= base && addr + len <= base + bytes;
        let (region, base) = if within(self.directory) {
            (1, self.directory.0)
        } else {
            assert!(within(self.array), "read outside directory and array");
            (2, self.array.0)
        };
        fnv(&mut self.sequence, region);
        fnv(&mut self.sequence, (addr - base) as u64);
        fnv(&mut self.sequence, len as u64);
    }
    fn write(&mut self, _addr: usize, _len: usize) {
        panic!("a probe never writes");
    }
    fn compare(&mut self) {
        self.counts.compare();
        fnv(&mut self.sequence, 3);
    }
    fn descend(&mut self) {
        self.counts.descend();
        fnv(&mut self.sequence, 4);
    }
}

/// What one tree pins: `[reads, compares, descends, sequence hash]` for
/// the sequential and the 8-lane batched descent, and the directory hash.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    sequential: [u64; 4],
    batched: [u64; 4],
    directory: u64,
}

fn span<T>(slice: &[T]) -> (usize, usize) {
    (slice.as_ptr() as usize, core::mem::size_of_val(slice))
}

fn pin(
    directory: &[u32],
    array: &[u32],
    sequential: impl Fn(u32, &mut PatternTracer) -> usize,
    batched: impl Fn(&[u32], &mut PatternTracer) -> Vec<usize>,
) -> Pinned {
    let fresh = || PatternTracer {
        counts: CountingTracer::new(),
        sequence: FNV_SEED,
        directory: span(directory),
        array: span(array),
    };
    let row = |t: &PatternTracer| {
        [
            t.counts.reads,
            t.counts.compares,
            t.counts.descends,
            t.sequence,
        ]
    };
    let probes = probes();
    let expected: Vec<usize> = probes
        .iter()
        .map(|&p| array.partition_point(|&k| k < p))
        .collect();

    let mut seq = fresh();
    let got: Vec<usize> = probes.iter().map(|&p| sequential(p, &mut seq)).collect();
    assert_eq!(got, expected);
    let mut bat = fresh();
    assert_eq!(batched(&probes, &mut bat), expected);

    let mut directory_hash = FNV_SEED;
    for &slot in directory {
        fnv(&mut directory_hash, slot.to_rank());
    }
    Pinned {
        sequential: row(&seq),
        batched: row(&bat),
        directory: directory_hash,
    }
}

fn runtime(m: usize) -> Pinned {
    let t = CssTree::new(RuntimeFull { m }, SortedArray::from_slice(&keys()));
    pin(
        t.directory(),
        t.array().as_slice(),
        |p, tr| t.lower_bound_with(p, tr),
        |ps, tr| t.lower_bound_batch_lanes_with(ps, 8, tr),
    )
}

#[test]
fn full_m16_is_pinned() {
    let t = FullCssTree::<u32, 16>::build(&keys());
    let got = pin(
        t.directory(),
        t.array().as_slice(),
        |p, tr| t.lower_bound_with(p, tr),
        |ps, tr| t.lower_bound_batch_lanes_with(ps, 8, tr),
    );
    assert_eq!(got, FULL_M16);
}

#[test]
fn level_m16_is_pinned() {
    let t = LevelCssTree::<u32, 16>::build(&keys());
    let got = pin(
        t.directory(),
        t.array().as_slice(),
        |p, tr| t.lower_bound_with(p, tr),
        |ps, tr| t.lower_bound_batch_lanes_with(ps, 8, tr),
    );
    assert_eq!(got, LEVEL_M16);
}

#[test]
fn runtime_m16_is_pinned_and_equals_the_const_tree() {
    assert_eq!(runtime(16), FULL_M16);
}

#[test]
fn runtime_m24_is_pinned() {
    assert_eq!(runtime(24), RUNTIME_M24);
}

const FULL_M16: Pinned = Pinned {
    sequential: [33_197, 84_191, 16_289, 12_286_041_048_527_356_996],
    batched: [33_197, 84_191, 16_289, 5_602_891_347_902_221_480],
    directory: 5_004_879_766_834_167_155,
};

const LEVEL_M16: Pinned = Pinned {
    sequential: [33_276, 82_380, 16_368, 11_368_846_199_213_990_235],
    batched: [33_276, 82_380, 16_368, 80_691_224_687_025_639],
    directory: 10_919_981_358_691_177_541,
};

const RUNTIME_M24: Pinned = Pinned {
    sequential: [34_378, 90_731, 14_927, 3_921_359_696_742_427_517],
    batched: [34_378, 90_731, 14_927, 3_707_566_408_027_021_309],
    directory: 8_765_928_089_490_441_976,
};
