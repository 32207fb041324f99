//! The whole benchmark in one command: every workload, with tracing off
//! and on, each in a child process of its own (so `peak_rss_mb` and the
//! allocator's state belong to that workload alone), `--runs` times over.
//! Prints every metric's median with its observed range, writes the lot as
//! a result file — a baseline, once committed — and with `--compare`
//! judges it against one.

use crate::compare::{self, Summary};
use crate::json::{self, Json};
use crate::spec::{MetricDef, Spec};
use crate::{Args, OUT_DIR};
use std::path::Path;
use std::process::{Command, Stdio};

/// One child's report: its `answers` line and the metrics it measured (the
/// result line also carries zeros for rungs its ladder does not have).
struct Report {
    answers: String,
    metrics: Vec<(String, f64)>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    traced: bool,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating ccbench: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(seconds) = seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if smoke {
        command.arg("--smoke");
    }
    // stderr passes through; stdout is the report. `output` waits for
    // the child, so none outlives the suite.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}:\n{stdout}",
            u8::from(traced),
            output.status
        ));
    }
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))
        .and_then(json::parse)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{workload} reported wrong answers: {}",
            result.render()
        ));
    }
    // `metric <workload> <name> <value> <unit>`, one line per metric the
    // workload measured.
    let metrics = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("metric "))
        .map(|line| {
            let mut fields = line.split(' ').skip(1);
            let name = fields.next();
            let value = fields.next().and_then(|v| v.parse::<f64>().ok());
            name.zip(value)
                .map(|(name, value)| (name.to_owned(), value))
                .ok_or_else(|| format!("{workload}: unreadable line `metric {line}`"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Report {
        answers: stdout
            .lines()
            .find(|l| l.starts_with("answers "))
            .unwrap_or_default()
            .to_owned(),
        metrics,
    })
}

/// `[{name, unit, median, min, max, runs}]` for one section of one
/// workload, in `BENCHMARK.json` order: every end-to-end metric, and the
/// layer metrics the workload's ladder has.
fn summarize(defs: &[MetricDef], runs: &[Report], workload: &str) -> Result<Json, String> {
    let mut section = Vec::new();
    for def in defs {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|(n, _)| *n == def.name))
            .map(|(_, v)| *v)
            .collect();
        if values.is_empty() && def.bound.is_none() {
            continue;
        }
        if values.len() != runs.len() {
            return Err(format!(
                "{workload} did not report {} on every run",
                def.name
            ));
        }
        let s = Summary::of(&values);
        // The spread the driver judges steadiness by: the distance between
        // the quartiles as a share of the median.
        let spread = match values.len() {
            0 | 1 => String::new(),
            _ if s.median == 0.0 => String::new(),
            _ => {
                let (q1, q3) = crate::stats::quartiles(&values);
                format!("  iqr {:.1}%", (q3 - q1) / s.median.abs() * 100.0)
            }
        };
        println!(
            "{workload:<12} {:<38} {:>16.4} {:<12} [{:.4} .. {:.4}]{spread}",
            def.name, s.median, def.unit, s.min, s.max
        );
        section.push(Json::obj([
            ("name", Json::str(&def.name)),
            ("unit", Json::str(&def.unit)),
            ("median", Json::Num(s.median)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            (
                "runs",
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            ),
        ]));
    }
    Ok(Json::Arr(section))
}

/// Where the numbers were taken: cores, cache sizes, compiler, commit.
fn host_fingerprint() -> Json {
    let read = |path: String| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_owned())
    };
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let caches = (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            Some(Json::str(format!(
                "L{} {} {}",
                read(format!("{dir}/level"))?,
                read(format!("{dir}/type"))?,
                read(format!("{dir}/size"))?
            )))
        })
        .collect();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj([
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu", Json::str(cpu)),
        ("caches", Json::Arr(caches)),
        ("rustc", Json::str(run("rustc", &["-V"]))),
        ("commit", Json::str(run("git", &["rev-parse", "HEAD"]))),
    ])
}

pub fn run(spec: &Spec, seed: u64, args: &Args) -> Result<bool, String> {
    let runs = args.runs.unwrap_or(1);
    // Run-major: every workload once, then every workload again — so a
    // stretch of host noise lands on one run of each workload, not on
    // every run of one.
    let mut reports: Vec<[Vec<Report>; 2]> =
        spec.workloads.iter().map(|_| Default::default()).collect();
    for run in 1..=runs {
        for (w, reports) in spec.workloads.iter().zip(&mut reports) {
            for traced in [false, true] {
                eprintln!(
                    "ccbench: run {run}/{runs} {} trace={}",
                    w.name,
                    u8::from(traced)
                );
                reports[usize::from(traced)].push(run_child(
                    &w.name,
                    seed,
                    args.seconds,
                    args.smoke,
                    traced,
                )?);
            }
        }
    }
    let mut workloads = Vec::new();
    for (w, reports) in spec.workloads.iter().zip(&reports) {
        // Same seed, same stream, same answers — on every run.
        let answers = &reports[0][0].answers;
        if let Some(other) = reports[0].iter().find(|r| r.answers != *answers) {
            return Err(format!(
                "{}: answers differ between runs at one seed:\n  {answers}\n  {}",
                w.name, other.answers
            ));
        }
        println!("\n{} — {}\n{answers}", w.name, w.why);
        workloads.push(Json::obj([
            ("name", Json::str(&w.name)),
            ("answers", Json::str(answers.as_str())),
            (
                "end_to_end",
                summarize(&spec.end_to_end, &reports[0], &w.name)?,
            ),
            (
                "per_layer",
                summarize(&spec.per_layer, &reports[1], &w.name)?,
            ),
        ]));
    }
    let result = Json::obj([
        ("host", host_fingerprint()),
        ("seed", Json::Num(seed as f64)),
        (
            "seconds",
            Json::Num(args.seconds.unwrap_or(if args.smoke {
                0.2
            } else {
                spec.run_seconds as f64
            })),
        ),
        ("runs", Json::Num(runs as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("workloads", Json::Arr(workloads)),
    ]);

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/suite-seed{seed}.json"));
    if let Some(dir) = Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.pretty()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("results written to {out}");

    match &args.compare {
        None => Ok(true),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            compare::report(spec, &json::parse(&text)?, &result)
        }
    }
}
