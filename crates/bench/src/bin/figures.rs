//! Regenerate every table and figure of Rao & Ross (VLDB 1999).
//!
//! ```text
//! figures [OPTIONS] <WHAT>...
//!
//! WHAT:  fig1 table1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!        fig14 warmcache interp ablations all
//!
//! OPTIONS:
//!   --simulate <machine>   run timing figures on the cache simulator
//!                          (ultrasparc | pentium2 | modern) instead of
//!                          host wall-clock
//!   --scale <small|paper>  problem sizes (default small: ~100x reduced;
//!                          paper: the original sizes, n up to 25M)
//!   --lookups <N>          probes per measurement (default 100000)
//! ```
//!
//! The whole command line is checked before any figure runs: an unknown
//! figure name or option, a missing or malformed value, or an unknown
//! machine is a usage error (exit 2, the valid values on stderr). Output
//! goes to stdout only; nothing is written to disk.
//!
//! `fig10`/`fig11` and `fig12`/`fig13` differ only in machine model, so
//! the unsimulated run prints host measurements once and notes the
//! mapping. Every figure's expected *shape* is described in the doc
//! comment of the function that prints it, below. The layers this
//! repository adds beyond the paper (query engine, sharding, serving,
//! wire, persistence) are measured by `ccbench`, not here.

use analysis::space_model::{space_direct, space_indirect, Method};
use analysis::time_model::cost_breakdown;
use analysis::{csstree_ratios, Params};
use bench::methods::{all_methods, build_bplus, build_hash, build_ttree};
use bench::protocol::{run_lookup_protocol, simulate_lookup_protocol, Measurement};
use bench::report::{format_num, print_series, Series};
use cachesim::Machine;
use ccindex_common::{SearchIndex, SortedArray};
use css_tree::{build_dyn, CssVariant, FullCssTree, LevelCssTree};
use workload::{KeyDistribution, KeySetBuilder, LookupStream, DEFAULT_SEED, PAPER_LOOKUPS};

use std::time::Instant;

/// The machine presets `--simulate` names, as listed in usage errors
/// (`Machine::by_name` also takes a few aliases).
const MACHINES: &str = "ultrasparc pentium2 modern";

struct Options {
    /// A machine name `Machine::by_name` accepts (checked at parse time).
    simulate: Option<String>,
    paper_scale: bool,
    lookups: usize,
}

impl Options {
    fn scaled(&self, paper_n: usize) -> usize {
        if self.paper_scale {
            paper_n
        } else {
            (paper_n / 20).max(10_000)
        }
    }

    fn machine(name: &str) -> Machine {
        Machine::by_name(name).expect("--simulate is validated before any figure runs")
    }

    fn measure(&self, index: &dyn SearchIndex<u32>, probes: &[u32]) -> Measurement {
        match &self.simulate {
            Some(name) => simulate_lookup_protocol(index, probes, &mut Self::machine(name)),
            None => run_lookup_protocol(index, probes, 3),
        }
    }

    fn time_label(&self) -> String {
        match &self.simulate {
            Some(m) => format!("simulated seconds on {m} per batch"),
            None => "host wall-clock seconds per batch".to_string(),
        }
    }
}

fn main() {
    let (opts, what) = parse_args(std::env::args().skip(1)).unwrap_or_else(|usage| {
        eprintln!("figures: {usage}");
        std::process::exit(2);
    });
    let all = what.iter().any(|w| w == "all");
    for (names, run) in FIGURES {
        if all || what.iter().any(|w| names.contains(&w.as_str())) {
            run(&opts);
        }
    }
}

/// Parse and validate the whole command line, so a usage error is
/// reported before any figure prints. No figure name means `all`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(Options, Vec<String>), String> {
    let mut opts = Options {
        simulate: None,
        paper_scale: false,
        lookups: PAPER_LOOKUPS,
    };
    let mut what: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = |valid: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value; valid values: {valid}"))
        };
        match arg.as_str() {
            "--simulate" => {
                let name = value(MACHINES)?;
                if Machine::by_name(&name).is_none() {
                    return Err(format!(
                        "unknown machine `{name}`; valid machines: {MACHINES}"
                    ));
                }
                opts.simulate = Some(name);
            }
            "--scale" => {
                opts.paper_scale = match value("small paper")?.as_str() {
                    "small" => false,
                    "paper" => true,
                    other => {
                        return Err(format!(
                            "unknown scale `{other}`; valid scales: small paper"
                        ))
                    }
                }
            }
            "--lookups" => {
                let n = value("a non-negative integer")?;
                opts.lookups = n.parse().map_err(|_| {
                    format!("invalid lookup count `{n}`; valid values: a non-negative integer")
                })?;
            }
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown option `{other}`; valid options: --simulate --scale --lookups"
                ))
            }
            other => what.push(other.to_string()),
        }
    }
    if what.is_empty() {
        what.push("all".to_string());
    }
    let known = |w: &str| w == "all" || FIGURES.iter().any(|(names, _)| names.contains(&w));
    if let Some(bad) = what.iter().find(|w| !known(w)) {
        let names: Vec<&str> = FIGURES
            .iter()
            .flat_map(|(names, _)| names.iter().copied())
            .collect();
        return Err(format!(
            "unknown figure `{bad}`; valid names: {} all",
            names.join(" ")
        ));
    }
    Ok((opts, what))
}

/// One printable figure: the names that select it and what runs.
type Figure = (&'static [&'static str], fn(&Options));

/// Every figure name the command line accepts, in print order; names
/// sharing a row print one figure.
const FIGURES: &[Figure] = &[
    (&["fig1"], |_| fig1()),
    (&["table1"], |_| table1()),
    (&["fig5"], |_| fig5()),
    (&["fig6"], |_| fig6()),
    (&["fig7"], |_| fig7()),
    (&["fig8"], |_| fig8()),
    (&["fig9"], fig9),
    (&["fig10", "fig11"], fig10_11),
    (&["fig12", "fig13"], fig12_13),
    (&["fig2", "fig14"], fig14),
    (&["warmcache"], warmcache),
    (&["interp"], interp),
    (&["ablations"], ablations),
];

/// Beyond-figure ablations: \[LC86a\]-vs-\[LC86b\] T-tree descents (bytes
/// touched per probe) and sequential-vs-interleaved batched CSS lookups.
fn ablations(opts: &Options) {
    use ccindex_common::CountingTracer;
    use ttree::TTree;

    let n = opts.scaled(5_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let stream = LookupStream::successful(&keys, opts.lookups.min(20_000), 13);

    // T-tree: bytes read per probe, classic vs improved.
    let tt = TTree::<u32, 16>::build(&keys);
    let (mut classic, mut improved) = (0u64, 0u64);
    for &p in stream.probes() {
        let mut a = CountingTracer::new();
        tt.search_classic_with(p, &mut a);
        classic += a.bytes_read;
        let mut b = CountingTracer::new();
        tt.search_with(p, &mut b);
        improved += b.bytes_read;
    }
    let per = stream.len() as f64;
    println!("\n== Ablation: T-tree descent ([LC86a] classic vs [LC86b] improved) ==");
    println!(
        "bytes touched per probe: classic {} vs improved {} ({:.1}% saved)",
        format_num(classic as f64 / per),
        format_num(improved as f64 / per),
        100.0 * (1.0 - improved as f64 / classic as f64)
    );

    // CSS batched lookups: sequential vs 8-way interleaved wall clock.
    let css = FullCssTree::<u32, 16>::build(&keys);
    let t0 = Instant::now();
    let seq = css.lower_bound_batch_sequential(stream.probes());
    let t_seq = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let inter = css.lower_bound_batch_lanes(stream.probes(), 8);
    let t_inter = t1.elapsed().as_secs_f64();
    assert_eq!(seq, inter);
    println!(
        "\n== Ablation: batched CSS lookups ({} probes) ==",
        stream.len()
    );
    println!(
        "sequential {} s, 8-way interleaved {} s ({:+.1}%)",
        format_num(t_seq),
        format_num(t_inter),
        100.0 * (t_inter - t_seq) / t_seq
    );
}

/// Fig. 1 (after \[CLH98\]): the processor-memory performance imbalance
/// that motivates the whole paper — CPU speeds growing 60 %/year against
/// DRAM's 10 %/year, so the relative cost of a cache miss grew by two
/// orders of magnitude between \[LC86b\] (1986) and the paper (1998).
fn fig1() {
    let mut cpu = Series::new("CPU (60%/yr)");
    let mut dram = Series::new("DRAM (10%/yr)");
    let mut gap = Series::new("relative gap");
    for year in (1980..=2000).step_by(2) {
        let t = (year - 1980) as f64;
        let c = 1.6f64.powf(t);
        let d = 1.1f64.powf(t);
        cpu.push(year as f64, c);
        dram.push(year as f64, d);
        gap.push(year as f64, c / d);
    }
    print_series(
        "Figure 1: processor-memory performance imbalance (normalised to 1980)",
        "year",
        "relative performance",
        &[cpu, dram, gap],
    );
    let g86 = 1.6f64.powf(6.0) / 1.1f64.powf(6.0);
    let g98 = 1.6f64.powf(18.0) / 1.1f64.powf(18.0);
    println!(
        "gap growth 1986 -> 1998: {:.0}x (the paper's 'two orders of magnitude')",
        g98 / g86
    );
}

/// Table 1: parameters and their typical values.
fn table1() {
    let p = Params::default();
    println!("\n== Table 1: Parameters and Their Typical Values ==");
    println!("{:>10}  {:>14}", "Parameter", "Typical Value");
    println!("{:>10}  {:>14}", "R", format!("{} bytes", p.r));
    println!("{:>10}  {:>14}", "K", format!("{} bytes", p.k));
    println!("{:>10}  {:>14}", "P", format!("{} bytes", p.p));
    println!("{:>10}  {:>14}", "n", format_num(p.n as f64));
    println!("{:>10}  {:>14}", "h", format!("{}", p.h));
    println!("{:>10}  {:>14}", "c", format!("{} bytes", p.c));
    println!("{:>10}  {:>14}", "s", format!("{} cache line(s)", p.s));
}

/// Fig. 5: level/full comparison and cache-access ratios vs m.
fn fig5() {
    let pts = csstree_ratios::figure5_series(10, 60);
    let mut cmp = Series::new("comparison ratio");
    let mut acc = Series::new("cache access ratio");
    for p in pts {
        cmp.push(p.m as f64, p.comparison_ratio);
        acc.push(p.m as f64, p.cache_access_ratio);
    }
    print_series(
        "Figure 5: level vs full CSS-tree ratios",
        "m",
        "ratio (level / full)",
        &[cmp, acc],
    );
}

/// Fig. 6: the analytic cost model at Table 1 values.
fn fig6() {
    let p = Params::default();
    println!(
        "\n== Figure 6: Time analysis (n = {}, m = {}) ==",
        format_num(p.n as f64),
        p.m()
    );
    println!(
        "{:>22} {:>10} {:>8} {:>12} {:>10} {:>12}",
        "Method", "branching", "levels", "comparisons", "moves", "cache misses"
    );
    for m in [
        Method::BinarySearch,
        Method::TTree,
        Method::BPlusTree,
        Method::FullCss,
        Method::LevelCss,
    ] {
        let b = cost_breakdown(m, &p).expect("modelled method");
        println!(
            "{:>22} {:>10} {:>8} {:>12} {:>10} {:>12}",
            m.name(),
            format_num(b.branching),
            format_num(b.levels),
            format_num(b.total_comparisons),
            format_num(b.moves),
            format_num(b.cache_misses)
        );
    }
}

/// Fig. 7: space formulas at typical values.
fn fig7() {
    let p = Params::default();
    println!(
        "\n== Figure 7: Space analysis (n = {}) ==",
        format_num(p.n as f64)
    );
    println!(
        "{:>22} {:>16} {:>16} {:>10}",
        "Method", "indirect (MB)", "direct (MB)", "RID-order"
    );
    for m in Method::ALL {
        if m == Method::BinaryTree {
            continue; // not part of Fig. 7
        }
        println!(
            "{:>22} {:>16} {:>16} {:>10}",
            m.name(),
            format_num(space_indirect(m, &p) / 1e6),
            format_num(space_direct(m, &p) / 1e6),
            if m.rid_ordered_access() { "Y" } else { "N" }
        );
    }
}

/// Fig. 8: space vs n under the typical configuration.
fn fig8() {
    let p = Params::default();
    let ns: Vec<usize> = (1..=9).map(|i| i * 10_000_000).collect();
    for (direct, title) in [
        (false, "Figure 8(a): space (indirect)"),
        (true, "Figure 8(b): space (direct)"),
    ] {
        let mut series = Vec::new();
        for m in Method::ALL {
            if m == Method::BinaryTree {
                continue;
            }
            let mut s = Series::new(m.name());
            for (n, bytes) in analysis::space_model::sweep_n(m, &p, ns.iter().copied(), direct) {
                s.push(n as f64, bytes);
            }
            series.push(s);
        }
        print_series(title, "n", "bytes", &series);
    }
}

/// Fig. 9: CSS-tree build time vs sorted-array size.
fn fig9(opts: &Options) {
    let max = opts.scaled(25_000_000);
    let steps = 6usize;
    let mut full = Series::new("full CSS-tree");
    let mut level = Series::new("level CSS-tree");
    for i in 1..=steps {
        let n = max * i / steps;
        let keys: Vec<u32> = KeySetBuilder::new(n).build();
        let arr = SortedArray::from_slice(&keys);
        let t0 = Instant::now();
        let f = FullCssTree::<u32, 16>::from_shared(arr.clone());
        let tf = t0.elapsed().as_secs_f64();
        std::hint::black_box(&f);
        let t1 = Instant::now();
        let l = LevelCssTree::<u32, 16>::from_shared(arr);
        let tl = t1.elapsed().as_secs_f64();
        std::hint::black_box(&l);
        full.push(n as f64, tf);
        level.push(n as f64, tl);
    }
    print_series(
        "Figure 9: CSS-tree build time (host)",
        "array size",
        "build seconds",
        &[full, level],
    );
}

/// Figs. 10 & 11: search time vs array size, node sizes 8 and 16 ints.
fn fig10_11(opts: &Options) {
    let machine = opts.simulate.clone().unwrap_or_else(|| "host".to_string());
    let max = opts.scaled(10_000_000);
    let mut sizes: Vec<usize> = vec![100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
    sizes.retain(|&s| s <= max.max(100));
    for node_ints in [8usize, 16] {
        let mut series: Vec<Series> = Vec::new();
        for n in &sizes {
            let keys: Vec<u32> = KeySetBuilder::new(*n).build();
            let arr = SortedArray::from_slice(&keys);
            let stream = LookupStream::successful(&keys, opts.lookups, DEFAULT_SEED ^ *n as u64);
            for m in all_methods(&arr, node_ints) {
                let meas = opts.measure(m.as_search(), stream.probes());
                if let Some(s) = series.iter_mut().find(|s| s.name == m.label) {
                    s.push(*n as f64, meas.total_seconds);
                } else {
                    let mut s = Series::new(m.label.clone());
                    s.push(*n as f64, meas.total_seconds);
                    series.push(s);
                }
            }
        }
        print_series(
            &format!(
                "Figures 10/11 ({machine}): varying array size, {node_ints} integers per node"
            ),
            "array size",
            &opts.time_label(),
            &series,
        );
    }
}

/// Figs. 12 & 13: search time vs node size at fixed n (5 M and 10 M rows).
fn fig12_13(opts: &Options) {
    let machine = opts.simulate.clone().unwrap_or_else(|| "host".to_string());
    for paper_n in [5_000_000usize, 10_000_000] {
        let n = opts.scaled(paper_n);
        let keys: Vec<u32> = KeySetBuilder::new(n).build();
        let arr = SortedArray::from_slice(&keys);
        let stream = LookupStream::successful(&keys, opts.lookups, DEFAULT_SEED ^ n as u64);

        let node_sizes = [4usize, 8, 16, 24, 32, 48, 64, 128];
        let mut ttree = Series::new("T-tree");
        let mut bplus = Series::new("B+-tree");
        let mut full = Series::new("full CSS-tree");
        let mut level = Series::new("level CSS-tree");
        for &m in &node_sizes {
            let t = build_ttree(&arr, m);
            ttree.push(
                m as f64,
                opts.measure(t.as_search(), stream.probes()).total_seconds,
            );
            let b = build_bplus(&arr, m);
            bplus.push(
                m as f64,
                opts.measure(b.as_search(), stream.probes()).total_seconds,
            );
            let f = build_dyn(CssVariant::Full, m, arr.clone());
            full.push(m as f64, opts.measure(&*f, stream.probes()).total_seconds);
            if m.is_power_of_two() {
                let l = build_dyn(CssVariant::Level, m, arr.clone());
                level.push(m as f64, opts.measure(&*l, stream.probes()).total_seconds);
            }
        }
        // Hash directory sweep (the hash points of Fig. 12).
        let mut hash = Series::new("hash (dir sweep)");
        let mut dir = (n / 4).next_power_of_two().max(64);
        for _ in 0..5 {
            let h = build_hash(&arr, dir);
            hash.push(
                dir as f64,
                opts.measure(h.as_search(), stream.probes()).total_seconds,
            );
            dir /= 2;
        }
        print_series(
            &format!(
                "Figures 12/13 ({machine}): varying node size, {} rows",
                format_num(n as f64)
            ),
            "entries/node",
            &opts.time_label(),
            &[ttree, bplus, full, level],
        );
        print_series(
            &format!(
                "Figure 12 hash sweep ({machine}), {} rows",
                format_num(n as f64)
            ),
            "directory size",
            &opts.time_label(),
            &[hash],
        );
    }
}

/// Figs. 2/14: the space/time trade-off frontier.
fn fig14(opts: &Options) {
    let machine = opts.simulate.clone().unwrap_or_else(|| "host".to_string());
    let n = opts.scaled(5_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let stream = LookupStream::successful(&keys, opts.lookups, DEFAULT_SEED);

    println!(
        "\n== Figures 2/14 ({machine}): space/time trade-offs, n = {} ==",
        format_num(n as f64)
    );
    println!(
        "{:>28} {:>16} {:>16}",
        "Method (config)", "time (s/batch)", "space direct (B)"
    );
    let mut rows: Vec<(String, f64, usize)> = Vec::new();

    // Zero-space methods.
    for m in all_methods(&arr, 16) {
        if m.label == "array binary search" || m.label == "interpolation search" {
            let meas = opts.measure(m.as_search(), stream.probes());
            rows.push((
                m.label.clone(),
                meas.total_seconds,
                m.as_search().space().direct_bytes,
            ));
        }
    }
    // Node-size sweeps.
    for m in [8usize, 16, 32, 64, 128] {
        let t = build_ttree(&arr, m);
        rows.push((
            format!("T-tree m={m}"),
            opts.measure(t.as_search(), stream.probes()).total_seconds,
            t.as_search().space().direct_bytes,
        ));
        let b = build_bplus(&arr, m);
        rows.push((
            format!("B+-tree m={m}"),
            opts.measure(b.as_search(), stream.probes()).total_seconds,
            b.as_search().space().direct_bytes,
        ));
        let f = build_dyn(CssVariant::Full, m, arr.clone());
        rows.push((
            format!("full CSS m={m}"),
            opts.measure(&*f, stream.probes()).total_seconds,
            f.space().direct_bytes,
        ));
        let l = build_dyn(CssVariant::Level, m, arr.clone());
        rows.push((
            format!("level CSS m={m}"),
            opts.measure(&*l, stream.probes()).total_seconds,
            l.space().direct_bytes,
        ));
    }
    // Hash directory sweep.
    let mut dir = (n / 2).next_power_of_two().max(64);
    for _ in 0..4 {
        let h = build_hash(&arr, dir);
        rows.push((
            format!("hash dir={dir}"),
            opts.measure(h.as_search(), stream.probes()).total_seconds,
            h.as_search().space().direct_bytes,
        ));
        dir /= 4;
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (label, t, space) in rows {
        println!(
            "{:>28} {:>16} {:>16}",
            label,
            format_num(t),
            format_num(space as f64)
        );
    }
}

/// §5.1's warm-cache observation: hot-key (Zipf) streams vs uniform.
fn warmcache(opts: &Options) {
    let n = opts.scaled(5_000_000);
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let machine_name = opts.simulate.clone().unwrap_or_else(|| "ultrasparc".into());
    let mut machine = Options::machine(&machine_name);
    println!("\n== Warm cache: uniform vs Zipf-skewed probes (simulated {machine_name}) ==");
    println!(
        "{:>22} {:>16} {:>16}",
        "Method", "uniform L2/miss", "zipf L2/miss"
    );
    let uniform = LookupStream::successful(&keys, opts.lookups, 1);
    let zipf = LookupStream::zipf(&keys, opts.lookups, 1.0, 1);
    for m in all_methods(&arr, 16) {
        let u = simulate_lookup_protocol(m.as_search(), uniform.probes(), &mut machine);
        let z = simulate_lookup_protocol(m.as_search(), zipf.probes(), &mut machine);
        let lvl = u.misses_per_lookup.len() - 1;
        println!(
            "{:>22} {:>16} {:>16}",
            m.label,
            format_num(u.misses_per_lookup[lvl]),
            format_num(z.misses_per_lookup[lvl])
        );
    }
}

/// §6.3's interpolation-search claim: great on linear data, worse than
/// binary search on non-uniform data.
fn interp(opts: &Options) {
    let n = opts.scaled(5_000_000);
    println!("\n== Interpolation search vs distribution (host) ==");
    println!(
        "{:>14} {:>18} {:>18}",
        "distribution", "interp (s)", "binary (s)"
    );
    for (name, dist) in [
        ("linear", KeyDistribution::EvenlySpaced { gap: 10 }),
        (
            "jittered",
            KeyDistribution::JitteredSpaced {
                gap: 100,
                jitter: 40,
            },
        ),
        ("random", KeyDistribution::UniformRandom),
        ("polynomial", KeyDistribution::Polynomial { exponent: 4 }),
    ] {
        let keys: Vec<u32> = KeySetBuilder::new(n).distribution(dist).build();
        let arr = SortedArray::from_slice(&keys);
        let stream = LookupStream::successful(&keys, opts.lookups, 3);
        let methods = all_methods(&arr, 16);
        let interp = methods
            .iter()
            .find(|m| m.label == "interpolation search")
            .expect("present");
        let binary = methods
            .iter()
            .find(|m| m.label == "array binary search")
            .expect("present");
        let ti = run_lookup_protocol(interp.as_search(), stream.probes(), 3);
        let tb = run_lookup_protocol(binary.as_search(), stream.probes(), 3);
        println!(
            "{:>14} {:>18} {:>18}",
            name,
            format_num(ti.total_seconds),
            format_num(tb.total_seconds)
        );
    }
}
