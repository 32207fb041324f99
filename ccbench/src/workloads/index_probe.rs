//! `index-probe` — the paper's §6.1 protocol, and the headline.
//!
//! *Why:* Rao & Ross's claim is CSS-tree search against array binary
//! search on data that does not fit in cache. Here `css-tree` is ~100 % of
//! the time: 8M distinct sorted `u32` keys (32 MB, far beyond L2), a
//! `FullCssTree<u32, 16>` behind `&dyn OrderedIndex<u32>`, uniformly
//! random *matching* probes in blocks of 4096 through `lower_bound_batch`,
//! one thread. ROADMAP item 2 (branch-free node search, prefetch, `_into`
//! entry points) must show here and needs to show nowhere else.
//!
//! op = one probe; latency sample = one block; `setup_s` =
//! `FullCssTree::build`. Reference: `BinarySearch::lower_bound`.

use crate::harness::*;
use crate::trace::Tracer;
use ccindex::prelude::*;
use std::hint::black_box;

const KEYS: usize = 8_000_000;
/// Keys of the in-cache counterpart tree (256 KB: fits L2).
const INCACHE_KEYS: usize = 65_536;
const BLOCK: usize = 4096;
/// Blocks per lap of the stream (1M probes at full scale).
const BLOCKS: usize = 256;
/// Blocks per throughput chunk.
const CHUNK: usize = 16;
/// Blocks the traced ladder replays per pass.
const TRACE_BLOCKS: usize = 24;

struct Inputs {
    keys: Vec<u32>,
    probes: Vec<u32>,
}

impl Inputs {
    fn generate(cfg: &Config) -> Inputs {
        let keys: Vec<u32> = KeySetBuilder::new(cfg.rows(KEYS, 20_000))
            .seed(cfg.stream_seed(0))
            .build();
        let blocks = cfg.rows(BLOCKS, 8);
        let probes = LookupStream::successful(&keys, blocks * BLOCK, cfg.stream_seed(1))
            .probes()
            .to_vec();
        Inputs { keys, probes }
    }

    fn blocks(&self) -> std::slice::Chunks<'_, u32> {
        self.probes.chunks(BLOCK)
    }
}

pub fn run(cfg: &Config) -> Result<EndToEnd, String> {
    let inputs = Inputs::generate(cfg);

    // Reference answers for the whole lap, then the reference is dropped
    // before the structure under test is built.
    let (expected, gate_want) = {
        let reference = BinarySearch::build(&inputs.keys);
        let expected: Vec<Expected> = inputs
            .blocks()
            .map(|b| {
                let positions: Vec<usize> = b.iter().map(|&p| reference.lower_bound(p)).collect();
                digest_positions(&positions)
            })
            .collect();
        let gate_want: Vec<usize> = inputs.probes[..GATE_OPS.min(inputs.probes.len())]
            .iter()
            .map(|&p| reference.lower_bound(p))
            .collect();
        (expected, gate_want)
    };

    let (tree, setups_s) = repeat_setup(cfg.setup_reps(15), || {
        Ok(FullCssTree::<u32, 16>::build(&inputs.keys))
    })?;
    let index: &dyn OrderedIndex<u32> = &tree;

    gate(
        "lower_bound_batch",
        &index.lower_bound_batch(&inputs.probes[..gate_want.len()]),
        &gate_want,
    )?;

    let blocks: Vec<&[u32]> = inputs.blocks().collect();
    let out = closed_loop(
        &expected,
        cfg.seconds,
        CHUNK,
        |i| blocks[i].len() as u64,
        |i| {
            let (positions, ns) = timed(|| index.lower_bound_batch(black_box(blocks[i])));
            Timed {
                ns,
                answer: Some(digest_positions(&positions)),
            }
        },
    );

    Ok(EndToEnd::of_loop(out, setups_s, &expected))
}

/// The ladder: binary search and the CSS variants over the same blocks.
pub fn trace(cfg: &Config, tracer: &mut Tracer) -> Result<Layers, String> {
    let inputs = Inputs::generate(cfg);
    let n = inputs.keys.len();
    let blocks: Vec<&[u32]> = inputs.blocks().take(TRACE_BLOCKS).collect();
    let probes_per_pass = (blocks.len() * BLOCK) as f64;

    let (tree, build_ns) = timed(|| FullCssTree::<u32, 16>::build(&inputs.keys));
    let level = LevelCssTree::<u32, 16>::build(&inputs.keys);
    let bsearch = BinarySearch::build(&inputs.keys);
    let index: &dyn OrderedIndex<u32> = &tree;

    let incache_keys: Vec<u32> = KeySetBuilder::new(cfg.rows(INCACHE_KEYS, 4096))
        .seed(cfg.stream_seed(2))
        .build();
    let incache = FullCssTree::<u32, 16>::build(&incache_keys);
    let incache_probes =
        LookupStream::successful(&incache_keys, blocks.len() * BLOCK, cfg.stream_seed(3))
            .probes()
            .to_vec();

    let r_batch = tracer.rung("css-tree.lower_bound_batch", None);
    let r_seq = tracer.rung("css-tree.lower_bound", None);
    let r_level = tracer.rung("css-tree.level.lower_bound_batch", None);
    let r_bsearch = tracer.rung("sorted-search.lower_bound", None);
    let r_in_batch = tracer.rung("css-tree.incache.lower_bound_batch", None);
    let r_in_seq = tracer.rung("css-tree.incache.lower_bound", None);
    let r_par1 = tracer.rung("css-tree.lower_bound_batch_par.1t", None);
    let r_par2 = tracer.rung("css-tree.lower_bound_batch_par.2t", None);

    // The partitioned descent needs batches big enough to split.
    let par_probes = &inputs.probes[..blocks.len() * BLOCK];

    // What the untraced loop pays for the same top-rung calls.
    let mut untraced_ns = 0u64;

    // Rungs alternate block by block, so host noise hits them alike —
    // but never on the same block back to back: rung `j` is `5 j` blocks
    // ahead of rung 0, so by the time one rung reaches a block another
    // has probed, tens of megabytes have passed through the cache and no
    // rung finds its leaves warmed for it.
    let ahead = |b: usize, rung: usize| (b + 5 * rung) % blocks.len();
    tracer.passes(cfg.passes(), |t, pass| -> Result<(), String> {
        for b in 0..blocks.len() {
            let at = |rung: usize| (ahead(b, rung) as u32, blocks[ahead(b, rung)]);
            let inblock = &incache_probes[b * BLOCK..][..BLOCK];
            let (id, block) = at(0);
            t.time(r_bsearch, pass, id, || {
                black_box(block.iter().map(|&p| bsearch.lower_bound(p)).sum::<usize>())
            });
            let (id, block) = at(1);
            t.time(r_batch, pass, id, || {
                black_box(index.lower_bound_batch(block))
            });
            let (id, block) = at(2);
            t.time(r_seq, pass, id, || {
                black_box(block.iter().map(|&p| index.lower_bound(p)).sum::<usize>())
            });
            let (id, block) = at(3);
            t.time(r_level, pass, id, || {
                black_box(level.lower_bound_batch(block))
            });
            if t.recording() {
                untraced_ns += timed(|| index.lower_bound_batch(at(4).1)).1;
            }
            t.time(r_in_batch, pass, b as u32, || {
                black_box(incache.lower_bound_batch(inblock))
            });
            t.time(r_in_seq, pass, b as u32, || {
                black_box(
                    inblock
                        .iter()
                        .map(|&p| incache.lower_bound(p))
                        .sum::<usize>(),
                )
            });
        }
        t.time(r_par1, pass, 0, || {
            black_box(tree.lower_bound_batch_par(par_probes, DEFAULT_BATCH_LANES, 1))
        });
        t.time(r_par2, pass, 0, || {
            black_box(tree.lower_bound_batch_par(par_probes, DEFAULT_BATCH_LANES, 2))
        });
        Ok(())
    })?;

    // Exact counts: directory bytes from the structure's own report, and
    // last-level misses of the batched access pattern on the simulated
    // `modern` machine (cold start, one pass over the traced blocks).
    let directory_bytes = index.space().indirect_bytes as f64;
    let mut machine = Machine::modern();
    {
        let mut sim = SimTracer::new(&mut machine.hierarchy);
        for block in &blocks {
            black_box(index.lower_bound_batch_traced(block, &mut sim));
        }
    }
    let stats = machine.hierarchy.stats();
    let memory_misses = stats.misses(stats.levels.len() - 1) as f64;

    let per_probe = |rung| tracer.total_ns(rung) / probes_per_pass;
    let batch_ns = per_probe(r_batch);
    let bsearch_ns = per_probe(r_bsearch);
    let untraced_per_probe = untraced_ns as f64 / (probes_per_pass * cfg.passes() as f64);
    Ok(vec![
        ("css-tree.batch_ns_per_probe".into(), batch_ns),
        ("css-tree.seq_ns_per_probe".into(), per_probe(r_seq)),
        (
            "css-tree.level_batch_ns_per_probe".into(),
            per_probe(r_level),
        ),
        (
            "css-tree.incache_batch_ns_per_probe".into(),
            per_probe(r_in_batch),
        ),
        (
            "css-tree.incache_seq_ns_per_probe".into(),
            per_probe(r_in_seq),
        ),
        ("sorted-search.bsearch_ns_per_probe".into(), bsearch_ns),
        ("css-tree.speedup_vs_bsearch".into(), bsearch_ns / batch_ns),
        ("css-tree.build_ms".into(), build_ns as f64 / 1e6),
        (
            "css-tree.directory_bytes_per_key".into(),
            directory_bytes / n as f64,
        ),
        (
            "css-tree.sim_misses_per_probe".into(),
            memory_misses / probes_per_pass,
        ),
        (
            "parallel.par_speedup_2t".into(),
            tracer.total_ns(r_par1) / tracer.total_ns(r_par2),
        ),
        (
            "bench.trace_overhead_pct".into(),
            (batch_ns / untraced_per_probe - 1.0) * 100.0,
        ),
    ])
}
