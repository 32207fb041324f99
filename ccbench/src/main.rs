//! `ccbench` — the repo's benchmark: five workloads, five end-to-end
//! metrics, and a per-layer ladder (see `baselines/README.md`).
//!
//! Two ways to run it:
//!
//! ```text
//! ccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ccbench --seed <n> [--seconds <s>] [--runs <k>] [--smoke] [--out <file>] [--compare <file>]
//! ```
//!
//! The first form is the one `BENCHMARK.json`'s `command` invokes: one
//! workload in this process — so `peak_rss_mb` and allocator state are
//! that workload's alone — with tracing off (end-to-end metrics) or on
//! (per-layer metrics). It prints every metric by name with its unit and
//! ends with the one-line JSON result.
//!
//! The second form is for people: it re-invokes itself in the first form
//! once per workload and mode (a child process each), `--runs` times,
//! prints the medians with their min–max, optionally writes them as a
//! baseline file, and with `--compare` judges them against one.
//!
//! Exit codes: 0 measured and correct; 1 a wrong answer, a failed op or a
//! regression past a bound; 2 a usage error — an unknown workload or
//! flag, or a set `CCINDEX_*` variable (`Database::new()` and
//! `ServeOptions::from_env()` would read it behind the benchmark's back).

mod compare;
mod harness;
mod json;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use harness::Config;
use json::Json;
use spec::Spec;
use std::process::ExitCode;

/// Where run artefacts go (span files, the `refresh` catalog file, suite
/// results): under the build tree of the directory ccbench is run from,
/// never the repo root.
pub const OUT_DIR: &str = "target/ccbench";

#[derive(Debug, Default)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub runs: Option<usize>,
    pub out: Option<String>,
    pub compare: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: `{v}` is not a u64"))?,
                );
            }
            "--seconds" => args.seconds = Some(number(value()?)?).filter(|s| *s > 0.0),
            "--runs" => args.runs = Some(number(value()?)? as usize).filter(|r| *r > 0),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("CCINDEX_"))
    {
        return usage(&format!(
            "{} is set; ccbench pins every engine option itself and refuses to run \
             with CCINDEX_* variables in the environment",
            name.to_string_lossy()
        ));
    }
    let spec = Spec::load();
    let outcome = match &args.workload {
        Some(name) => {
            let Some(workload) = workloads::find(name) else {
                let known: Vec<&str> = workloads::ALL.iter().map(|w| w.0).collect();
                return usage(&format!(
                    "unknown workload `{name}` (known: {})",
                    known.join(", ")
                ));
            };
            let (Some(seed), Some(trace)) = (args.seed, args.trace) else {
                return usage("--workload needs --seed <n> and --trace <0|1>");
            };
            let cfg = Config {
                seed,
                seconds: args.seconds.unwrap_or(if args.smoke {
                    0.2
                } else {
                    spec.run_seconds as f64
                }),
                smoke: args.smoke,
            };
            single(&spec, name, workload, &cfg, trace)
        }
        None => match args.seed {
            Some(seed) => suite::run(&spec, seed, &args),
            None => return usage("--seed <n> is required"),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ccbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("ccbench: {problem}");
    eprintln!(
        "usage: ccbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         ccbench --seed <n> [--seconds <s>] [--runs <k>] [--smoke] [--out <file>] [--compare <file>]"
    );
    ExitCode::from(2)
}

/// One workload, in this process. Returns whether every answer was right.
fn single(
    spec: &Spec,
    name: &str,
    (run, trace): (workloads::Run, workloads::Trace),
    cfg: &Config,
    traced: bool,
) -> Result<bool, String> {
    harness::pin_allocator()?;
    let (measured, defs, attempted, failed) = if traced {
        let mut tracer = trace::Tracer::new();
        let layers = trace(cfg, &mut tracer)?;
        tracer.write(
            &std::path::Path::new(OUT_DIR).join(format!("trace-{name}.json")),
            name,
        )?;
        // Every traced call that returned `Err` aborted the run above, so
        // a ladder that got here failed nothing.
        (layers, &spec.per_layer, tracer.span_count() as u64, 0)
    } else {
        let e = run(cfg)?;
        println!(
            "answers {name} rows_returned={} checksum={:016x}",
            e.lap_rows, e.lap_checksum
        );
        // p50 is the median of every sample; p99 is taken slice by slice
        // and must be supported by the shortest slice.
        let mut all: Vec<u32> = e.samples.concat();
        all.sort_unstable();
        let (p99_ns, shortest) = stats::sliced_percentile(&e.samples, 99.0);
        let beyond = stats::samples_beyond(shortest, 99.0);
        println!(
            "samples {name} n={} shortest_slice={shortest} beyond_p99={beyond} highest_supported={}",
            all.len(),
            stats::highest_supported_percentile(shortest).map_or("none".to_owned(), |p| format!("p{p}")),
        );
        if beyond < 10 && !cfg.smoke {
            return Err(format!(
                "{name}: only {beyond} of a slice's {shortest} latency samples lie beyond its p99; \
                 ten are needed to call it a percentile — raise --seconds"
            ));
        }
        let measured = vec![
            ("ops_per_s".to_owned(), stats::median(&e.rates)),
            (
                "p50_us".to_owned(),
                f64::from(stats::percentile(&all, 50.0)) / 1e3,
            ),
            ("p99_us".to_owned(), p99_ns / 1e3),
            ("setup_s".to_owned(), stats::median(&e.setups_s)),
            ("peak_rss_mb".to_owned(), stats::peak_rss_mib()?),
        ];
        (measured, &spec.end_to_end, e.ops, e.failed)
    };

    if let Some((stray, _)) = measured
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!(
            "{name} measured `{stray}`, which BENCHMARK.json does not declare"
        ));
    }
    // A per-layer metric is 0 on a workload whose ladder has no such rung
    // (the wire on `index-probe`, say); an end-to-end metric must exist.
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = measured
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => {
                println!("metric {name} {} {v} {}", def.name, def.unit);
                v
            }
            Some(v) => return Err(format!("{name}: {} measured {v}", def.name)),
            None if traced => 0.0,
            None => return Err(format!("{name} did not measure {}", def.name)),
        };
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&def.unit))]),
        ));
    }
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted.max(1) as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse("--workload dss-tcp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("dss-tcp"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(10.0), Some(true))
        );
        let a = parse("--seed 1 --smoke --runs 3 --compare base.json").unwrap();
        assert!(a.smoke && a.workload.is_none());
        assert_eq!((a.runs, a.compare.as_deref()), (Some(3), Some("base.json")));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            "--wrokload x",
            "--seed",
            "--seed -1",
            "--seed 1.5",
            "--trace yes",
            "--seconds soon",
            "extra",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should be refused");
        }
    }

    #[test]
    fn workload_table_matches_benchmark_json() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let built: Vec<&str> = workloads::ALL.iter().map(|w| w.0).collect();
        assert_eq!(declared, built);
    }
}
