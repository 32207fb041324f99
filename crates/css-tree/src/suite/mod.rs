//! One test suite for every node-search strategy.
//!
//! Each check is generic over [`NodeSearch`] and says nothing about which
//! variant it runs on; [`check`] runs them all but the search-kernel
//! check, which has its own test over every standard node size. The
//! sibling files
//! (`full.rs`, `level.rs`, `generic_search.rs`) instantiate them for every
//! `(strategy, m)` the per-variant test files used to cover — mounted at
//! the crate root under those files' old module paths, so every test kept
//! its name — and hold the few assertions that really are about one
//! variant (comparison counts, space, geometry).

mod golden;

use crate::tree::segment_lower_bound;
use crate::{CssTree, Full, Level, NodeSearch, RuntimeFull, STANDARD_NODE_SIZES};
use ccindex_common::{
    AccessTracer, CountingTracer, Key, NoopTracer, OrderedIndex, SearchIndex, SortedArray,
    CACHE_LINE_BYTES,
};

pub(crate) fn tree<K: Key, S: NodeSearch>(search: S, keys: &[K]) -> CssTree<K, S> {
    CssTree::new(search, SortedArray::from_slice(keys))
}

/// Everything below, at the default sizes.
pub(crate) fn check<S: NodeSearch>(search: S) {
    exhaustive(search, 0..200, &[8]);
    duplicates(search, 40, 7, 10);
    empty_and_tiny(search);
    beyond_max(search, &[5, 63, 64, 65, 97, 104, 260, 512, 513, 1000]);
    reassembly(search);
    validation(search);
    batches(search);
    ascending(search);
}

/// Every `n` in `sizes`, every probe from below the smallest key to beyond
/// the largest: catches all padding / mark / partial-leaf boundary cases.
/// Sequential and batched (at each of `lanes`) against `partition_point`,
/// and every tree built must validate.
pub(crate) fn exhaustive<S: NodeSearch>(
    search: S,
    sizes: impl Iterator<Item = usize>,
    lanes: &[usize],
) {
    let m = search.slots();
    for n in sizes {
        let keys: Vec<u32> = (0..n as u32).map(|i| i * 3 + 2).collect();
        let t = tree(search, &keys);
        t.validate()
            .unwrap_or_else(|e| panic!("{} m={m} n={n}: {e}", search.name()));
        let probes: Vec<u32> = (0..n as u32 * 3 + 5).collect();
        let expected: Vec<usize> = probes
            .iter()
            .map(|&p| keys.partition_point(|&k| k < p))
            .collect();
        for (&probe, &want) in probes.iter().zip(&expected) {
            assert_eq!(
                t.lower_bound(probe),
                want,
                "{} m={m} n={n} probe={probe}",
                search.name()
            );
        }
        for &l in lanes {
            assert_eq!(
                t.lower_bound_batch_lanes(&probes, l),
                expected,
                "{} m={m} n={n} lanes={l}",
                search.name()
            );
        }
    }
}

/// Runs of `run` equal keys (`blocks` of them, `stride` apart) crossing
/// node and part boundaries: a search lands on the leftmost (§4.1.2).
pub(crate) fn duplicates<S: NodeSearch>(search: S, blocks: u32, run: usize, stride: u32) {
    let keys: Vec<u32> = (0..blocks)
        .flat_map(|b| std::iter::repeat_n(b * stride, run))
        .collect();
    let t = tree(search, &keys);
    for b in 0..blocks {
        assert_eq!(t.search(b * stride), Some(b as usize * run), "block {b}");
    }
}

pub(crate) fn empty_and_tiny<S: NodeSearch>(search: S) {
    let t = tree::<u32, S>(search, &[]);
    assert_eq!(t.search(1), None);
    assert_eq!(t.lower_bound(1), 0);
    assert_eq!(t.lower_bound_batch_lanes(&[5], 4), vec![0]);
    assert_eq!(t.search_batch(&[5]), vec![None]);
    let t = tree(search, &[5u32]);
    assert_eq!(t.search(5), Some(0));
    assert_eq!(t.search(4), None);
    assert_eq!(t.search(6), None);
    assert_eq!(t.lower_bound(9), 1);
    assert!(t.directory().is_empty());
}

/// A probe beyond the largest key answers `n`, whatever leaf — real,
/// partial or dangling — the descent ends on.
pub(crate) fn beyond_max<S: NodeSearch>(search: S, sizes: &[usize]) {
    for &n in sizes {
        let keys: Vec<u32> = (0..n as u32).collect();
        let t = tree(search, &keys);
        assert_eq!(t.lower_bound(n as u32 + 7), n, "n={n}");
        assert_eq!(t.search(n as u32 + 100), None, "n={n}");
    }
}

/// Distinct keys: each is found at its own position, and the value just
/// above it is found only if it is the next key.
pub(crate) fn hits_and_misses<K: Key, S: NodeSearch>(search: S, keys: &[K]) {
    let t = tree(search, keys);
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(t.search(k), Some(i), "key {k:?}");
        let above = K::from_rank(k.to_rank() + 1);
        let next = (keys.get(i + 1) == Some(&above)).then_some(i + 1);
        assert_eq!(t.search(above), next, "probe {above:?}");
    }
    assert_eq!(t.lower_bound(K::MIN_KEY), 0);
    assert_eq!(t.search(K::MAX_KEY), None);
    assert_eq!(t.lower_bound(K::MAX_KEY), keys.len());
}

/// What a cold start does instead of reading stored directory pages: a
/// tree rebuilt over the same shared array (not a copy of it) has a
/// byte-identical directory, validates, and answers every probe alike.
pub(crate) fn reassembly<S: NodeSearch>(search: S) {
    for n in [0usize, 3, 97, 260, 4_097] {
        let keys: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
        let built = tree(search, &keys);
        let rebuilt = CssTree::new(search, built.array().clone());
        assert!(std::ptr::eq(
            rebuilt.array().as_slice(),
            built.array().as_slice()
        ));
        assert_eq!(rebuilt.directory(), built.directory(), "n={n}");
        rebuilt.validate().expect("rebuilt tree validates");
        for probe in (0..n as u32 * 3 + 4).step_by(7) {
            assert_eq!(
                rebuilt.lower_bound(probe),
                built.lower_bound(probe),
                "n={n} probe={probe}"
            );
            assert_eq!(rebuilt.search(probe), built.search(probe), "n={n}");
        }
    }
}

/// A tree whose last directory slot was overwritten is an `Err` from
/// [`CssTree::validate`] naming the slot, never a panic.
pub(crate) fn corrupt_last_slot<S: NodeSearch>(search: S, n: u32) {
    let keys: Vec<u32> = (0..n).collect();
    let mut t = tree(search, &keys);
    let last = t.directory().len() - 1;
    t.corrupt_entry_for_test(last);
    let m = search.slots();
    let err = t.validate().expect_err("a corrupted slot must fail");
    let at = format!("node {} entry {}:", last / m, last % m);
    assert!(err.contains(&at), "{err}");
}

/// `validate` accepts what `build` produced and catches one changed slot
/// — searched or not: the last slot of a level node is never compared
/// against a probe, so no lookup would notice it.
pub(crate) fn validation<S: NodeSearch>(search: S) {
    for n in [0u32, 1, 7, 64, 65, 260, 1000, 4097, 100_000] {
        let keys: Vec<u32> = (0..n).map(|i| i * 2).collect();
        tree(search, &keys)
            .validate()
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
    let m = search.slots();
    let keys: Vec<u32> = (0..10_000).map(|i| i * 3 + 1).collect();
    let t = tree(search, &keys);
    for slot in [3, m - 1] {
        let mut corrupt = t.clone();
        corrupt.corrupt_entry_for_test(slot);
        let err = corrupt.validate().expect_err("must detect corruption");
        let at = format!("node {} entry {}:", slot / m, slot % m);
        assert!(err.contains(&at), "{err}");
    }
}

/// Keys, a probe vector with hits, misses and beyond-max probes, and the
/// reference answers the batch checks compare against.
fn batch_fixture<S: NodeSearch>(search: S) -> (CssTree<u32, S>, Vec<u32>, Vec<usize>) {
    let keys: Vec<u32> = (0..20_000).map(|i| i * 3 + 1).collect();
    let probes: Vec<u32> = (0..4_003u32).map(|i| i * 17 % 61_000).collect();
    let expected = probes
        .iter()
        .map(|&p| keys.partition_point(|&k| k < p))
        .collect();
    (tree(search, &keys), probes, expected)
}

/// Every batch check below.
pub(crate) fn batches<S: NodeSearch>(search: S) {
    interleaved_agrees(search);
    degenerate_batches(search);
    parallel_agrees(search);
    trait_paths_agree(search);
    traced_work_is_equal(search);
}

/// The interleaved descent equals the sequential per-probe answers at
/// every lane count.
pub(crate) fn interleaved_agrees<S: NodeSearch>(search: S) {
    let (t, probes, expected) = batch_fixture(search);
    assert_eq!(t.lower_bound_batch_sequential(&probes), expected);
    let point: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
    for lanes in [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 32, 64, 5_000] {
        assert_eq!(
            t.lower_bound_batch_lanes(&probes, lanes),
            expected,
            "lanes={lanes}"
        );
        assert_eq!(
            t.search_batch_lanes_with(&probes, lanes, &mut CountingTracer::new()),
            point,
            "lanes={lanes}"
        );
    }
}

/// `lanes == 0` and lanes far beyond the probe count are valid
/// configurations, answered exactly like the sequential descent; so are a
/// ragged tail (13 is not a multiple of 8), empty batches and empty trees.
pub(crate) fn degenerate_batches<S: NodeSearch>(search: S) {
    let (t, probes, expected) = batch_fixture(search);
    assert_eq!(t.lower_bound_batch_lanes(&probes, 0), expected);
    assert_eq!(
        t.lower_bound_batch_lanes(&probes, probes.len() + 500),
        expected
    );
    assert_eq!(t.lower_bound_batch_lanes(&probes[..13], 8), expected[..13]);
    let mut tr = CountingTracer::new();
    assert_eq!(
        t.search_batch_lanes_with(&probes[..37], 0, &mut tr).len(),
        37
    );
    assert!(t.lower_bound_batch_lanes(&[], 8).is_empty());
    assert!(t.lower_bound_batch_lanes(&[], 0).is_empty());
    let empty = tree::<u32, S>(search, &[]);
    assert_eq!(empty.lower_bound_batch_lanes(&[5], 4), vec![0]);
    assert_eq!(empty.lower_bound_batch_lanes(&[5], 0), vec![0]);
    assert_eq!(empty.search_batch(&[5]), vec![None]);
}

/// The partitioned descent is byte-identical to the sequential one at
/// every worker count.
pub(crate) fn parallel_agrees<S: NodeSearch>(search: S) {
    let (t, probes, expected) = batch_fixture(search);
    for threads in [0usize, 1, 2, 8] {
        assert_eq!(
            t.lower_bound_batch_par(&probes, 8, threads),
            expected,
            "threads={threads}"
        );
    }
    assert!(t.lower_bound_batch_par(&[], 8, 8).is_empty());
    assert_eq!(t.lower_bound_batch_par(&probes[..1], 0, 8), expected[..1]);
}

/// Trait-object batch calls route through the interleaved descent and
/// agree with the sequential defaults.
pub(crate) fn trait_paths_agree<S: NodeSearch>(search: S) {
    let (t, probes, expected) = batch_fixture(search);
    let point: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
    let idx: &dyn OrderedIndex<u32> = &t;
    assert_eq!(idx.lower_bound_batch(&probes), expected);
    assert_eq!(idx.lower_bound_batch_lanes(&probes, 3), expected);
    assert_eq!(idx.search_batch(&probes), point);
    assert_eq!(idx.search_batch_lanes(&probes, 3), point);
}

/// Interleaving reorders accesses but performs the same work.
pub(crate) fn traced_work_is_equal<S: NodeSearch>(search: S) {
    let (t, probes, expected) = batch_fixture(search);
    let probes = &probes[..256];
    let mut seq_tr = CountingTracer::new();
    for &p in probes {
        t.lower_bound_with(p, &mut seq_tr);
    }
    let mut batch_tr = CountingTracer::new();
    let got = t.lower_bound_batch_lanes_with(probes, 8, &mut batch_tr);
    assert_eq!(got, expected[..256]);
    assert!(batch_tr.reads > 0);
    assert_eq!(batch_tr.reads, seq_tr.reads);
    assert_eq!(batch_tr.bytes_read, seq_tr.bytes_read);
    assert_eq!(batch_tr.compares, seq_tr.compares);
    assert_eq!(batch_tr.descends, seq_tr.descends);
}

/// Ascending batches, lower bound and point lookup alike, through the
/// interleaved descent against `partition_point` and per-probe `search`:
/// every key, duplicates, a run inside one line, gaps of exactly one line,
/// of two lines and wider, probes between keys, repeated probes and probes
/// above the maximum; and on empty and one-key trees. Lanes 1, 3, 8 and
/// 33, so chunks are long, ragged and single-probe.
pub(crate) fn ascending<S: NodeSearch>(search: S) {
    fn agrees<K: Key, S: NodeSearch>(t: &CssTree<K, S>, probes: &[K], ctx: &str) {
        let keys = t.array().as_slice();
        let want: Vec<usize> = probes
            .iter()
            .map(|&p| keys.partition_point(|&k| k < p))
            .collect();
        let point: Vec<Option<usize>> = probes.iter().map(|&p| t.search(p)).collect();
        for lanes in [1usize, 3, 8, 33] {
            assert_eq!(
                t.lower_bound_batch_lanes(probes, lanes),
                want,
                "{ctx} lanes={lanes}"
            );
            assert_eq!(
                t.search_batch_lanes(probes, lanes),
                point,
                "{ctx} lanes={lanes}"
            );
        }
    }
    /// The keys at every `step`-th position from `first`: answers exactly
    /// `step` positions apart.
    fn every<K: Key>(keys: &[K], first: usize, step: usize) -> Vec<K> {
        keys.iter().skip(first).step_by(step).copied().collect()
    }
    fn batches<K: Key, S: NodeSearch>(search: S, keys: &[K], label: &str) {
        let t = tree(search, keys);
        let name = format!("{} m={} {label}", search.name(), search.slots());
        let line = CACHE_LINE_BYTES / K::WIDTH;
        let above = |k: K| K::from_rank(k.to_rank() + 1);
        let max = keys[keys.len() - 1];
        let mut between: Vec<K> = every(keys, 3, line + 5).into_iter().map(above).collect();
        between.dedup();
        let mut past_max = every(keys, keys.len() - 2 * line, 3);
        past_max.extend([above(max), above(above(max)), K::MAX_KEY, K::MAX_KEY]);
        let repeated = [keys[line + 1]; 20];
        let cases = [
            ("every key", keys.to_vec()),
            ("one line", keys[line + 2..2 * line - 1].to_vec()),
            ("one-line gaps", every(keys, 1, line)),
            ("two-line gaps", every(keys, 0, 2 * line)),
            ("wider gaps", every(keys, 5, 2 * line + 1)),
            ("far gaps", every(keys, 2, 9 * line + 3)),
            ("between keys", between),
            ("past the maximum", past_max),
            ("repeated", repeated.to_vec()),
        ];
        for (case, probes) in cases {
            agrees(&t, &probes, &format!("{name} {case}"));
        }
    }
    let distinct: Vec<u32> = (0..3_000).map(|i| i * 3 + 1).collect();
    batches(search, &distinct, "distinct");
    let duplicated: Vec<u32> = (0..3_000).map(|i| (i / 5) * 2).collect();
    batches(search, &duplicated, "runs of 5");
    let wide: Vec<i64> = (0..2_000).map(|i| i * 7 - 3_000).collect();
    batches(search, &wide, "i64");

    let empty = tree::<u32, S>(search, &[]);
    assert_eq!(
        empty.lower_bound_batch_lanes(&[0, 1, 1, 9], 3),
        [0, 0, 0, 0]
    );
    assert_eq!(empty.search_batch_lanes(&[1, 2], 8), [None, None]);
    assert!(empty.lower_bound_batch_lanes(&[], 8).is_empty());
    let one = tree(search, &[5u32]);
    for lanes in [0, 1, 3, 8, 33] {
        assert_eq!(
            one.lower_bound_batch_lanes(&[0, 5, 5, 6, 100], lanes),
            [0, 0, 0, 1, 1]
        );
        assert_eq!(
            one.search_batch_lanes(&[4, 5, 5, 6], lanes),
            [None, Some(0), Some(0), None]
        );
    }
}

/// One event a probe reports to its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Read(usize, usize),
    Compare,
    Descend,
}

/// Records every event in order, reads and compares interleaved.
#[derive(Debug, Default)]
struct EventTracer(Vec<Event>);

impl AccessTracer for EventTracer {
    fn read(&mut self, addr: usize, len: usize) {
        self.0.push(Event::Read(addr, len));
    }
    fn write(&mut self, _addr: usize, _len: usize) {
        panic!("a probe never writes");
    }
    fn compare(&mut self) {
        self.0.push(Event::Compare);
    }
    fn descend(&mut self) {
        self.0.push(Event::Descend);
    }
}

/// §4's node bisection as the branch pick ran it before the kernel: the
/// reference answer and event stream.
fn reference_branch<K: Key>(
    node: &[K],
    searched: usize,
    probe: K,
    tracer: &mut EventTracer,
) -> usize {
    let (mut lo, mut hi) = (0usize, searched);
    while lo < hi {
        let mid = (lo + hi) >> 1;
        tracer.compare();
        if node[mid] < probe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// §4's leaf bisection of `keys[start..end]` as it ran before the kernel.
fn reference_leaf<K: Key>(
    keys: &[K],
    (mut lo, mut hi): (usize, usize),
    probe: K,
    tracer: &mut EventTracer,
) -> usize {
    let width = core::mem::size_of::<K>();
    while lo < hi {
        let mid = lo + ((hi - lo) >> 1);
        tracer.compare();
        tracer.read(keys.as_ptr() as usize + mid * width, width);
        if keys[mid] < probe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The branch-free kernel answers exactly as the bisection did, and a
/// tracer sees exactly the bisection's events — in a node (distinct keys,
/// duplicate runs, a padded tail, all equal) and in a leaf segment of
/// every length `0..=m`, for probes below, on, between and above the
/// keys. The
/// untraced (zero-sized tracer) path gives the same answers.
fn kernel_is_the_bisection<S: NodeSearch>(search: S) {
    let m = search.slots();
    let nodes: [fn(usize, usize) -> u32; 4] = [
        |i, _| 10 * (i as u32 + 1),
        |i, _| 10 * (i as u32 / 3 + 1),
        |i, m| 10 * (i.min(m / 2) as u32 + 1),
        |_, _| 10,
    ];
    for (shape, slot) in nodes.iter().enumerate() {
        let node: Vec<u32> = (0..m).map(|i| slot(i, m)).collect();
        let wide: Vec<i64> = node.iter().map(|&k| i64::from(k) - 500).collect();
        for probe in (0..=node[m - 1] + 15).step_by(5) {
            let ctx = format!("{} m={m} node shape {shape} probe={probe}", search.name());
            node_agrees(search, &node, probe, &ctx);
            node_agrees(search, &wide, i64::from(probe) - 500, &ctx);
        }
    }

    // Runs of two equal keys, so segments start inside and between runs.
    let keys: Vec<u32> = (0..2 * m as u32 + 2).map(|i| 10 * (i / 2 + 1)).collect();
    let array = SortedArray::from_slice(&keys);
    for len in 0..=m {
        for start in [0, 1] {
            let segment = (start, start + len);
            for probe in (0..=keys[start + len] + 15).step_by(5) {
                let ctx = format!("{} m={m} segment {segment:?} probe={probe}", search.name());
                leaf_agrees(array.as_slice(), segment, probe, &ctx);
            }
        }
    }
}

fn node_agrees<K: Key, S: NodeSearch>(search: S, node: &[K], probe: K, ctx: &str) {
    let mut want = EventTracer::default();
    let pos = reference_branch(node, search.searched(), probe, &mut want);
    let mut got = EventTracer::default();
    assert_eq!(search.branch(node, probe, &mut got), pos, "{ctx}");
    assert_eq!(got.0, want.0, "{ctx}");
    assert_eq!(search.branch(node, probe, &mut NoopTracer), pos, "{ctx}");
}

fn leaf_agrees<K: Key>(keys: &[K], (start, end): (usize, usize), probe: K, ctx: &str) {
    let mut want = EventTracer::default();
    let pos = reference_leaf(keys, (start, end), probe, &mut want);
    let segment = &keys[start..end];
    let mut got = EventTracer::default();
    assert_eq!(
        start + segment_lower_bound(segment, probe, &mut got),
        pos,
        "{ctx}"
    );
    assert_eq!(got.0, want.0, "{ctx}");
    assert_eq!(
        start + segment_lower_bound(segment, probe, &mut NoopTracer),
        pos,
        "{ctx}"
    );
}

#[test]
fn node_and_leaf_kernel_is_the_bisection() {
    assert_eq!(STANDARD_NODE_SIZES, [2, 4, 8, 16, 32, 64, 128]);
    kernel_is_the_bisection(Full::<2>);
    kernel_is_the_bisection(Full::<4>);
    kernel_is_the_bisection(Full::<8>);
    kernel_is_the_bisection(Full::<16>);
    kernel_is_the_bisection(Full::<32>);
    kernel_is_the_bisection(Full::<64>);
    kernel_is_the_bisection(Full::<128>);
    kernel_is_the_bisection(Level::<2>);
    kernel_is_the_bisection(Level::<4>);
    kernel_is_the_bisection(Level::<8>);
    kernel_is_the_bisection(Level::<16>);
    kernel_is_the_bisection(Level::<32>);
    kernel_is_the_bisection(Level::<64>);
    kernel_is_the_bisection(Level::<128>);
    for m in [3, 7, 24, 100] {
        kernel_is_the_bisection(RuntimeFull { m });
    }
}

/// The tier-1 sweep stops at `n < 200` in a debug build; this one covers
/// every monomorph and the runtime sizes to `n = 2000` at three lane
/// counts, and the ascending batches, through the one interleaved
/// descent; it needs a release build:
/// `cargo test --release -q -p css-tree -- --ignored`.
#[test]
#[ignore = "release-scale sweep, run with --release"]
fn release_scale_sweep() {
    assert_eq!(STANDARD_NODE_SIZES, [2, 4, 8, 16, 32, 64, 128]);
    fn sweep<S: NodeSearch>(search: S) {
        exhaustive(search, 0..=2_000, &[1, 8, 33]);
        ascending(search);
    }
    sweep(Full::<2>);
    sweep(Full::<4>);
    sweep(Full::<8>);
    sweep(Full::<16>);
    sweep(Full::<32>);
    sweep(Full::<64>);
    sweep(Full::<128>);
    sweep(Level::<2>);
    sweep(Level::<4>);
    sweep(Level::<8>);
    sweep(Level::<16>);
    sweep(Level::<32>);
    sweep(Level::<64>);
    sweep(Level::<128>);
    for m in [3, 7, 24, 100] {
        sweep(RuntimeFull { m });
    }
}
