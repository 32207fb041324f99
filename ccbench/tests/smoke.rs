//! `ccbench --smoke`: all five workloads and their traced ladders at
//! ~1/200 scale, through the real binary. Checks what a later change to
//! the benchmark could silently break: that it exits 0, that what it
//! prints is what `BENCHMARK.json` declares, and that a seed fixes the
//! stream — same answers and same exact counts on every run, different
//! ones at another seed.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Metrics that are counts, not timings: they must repeat exactly.
const EXACT: [(&str, &str); 4] = [
    ("index-probe", "css-tree.directory_bytes_per_key"),
    ("index-probe", "css-tree.sim_misses_per_probe"),
    ("dss-tcp", "shard.route_pruned_share"),
    ("refresh", "store.bytes_per_row"),
];

struct Smoke {
    /// `(workload, metric) -> (value, unit)`, from the `metric` lines.
    metrics: BTreeMap<(String, String), (f64, String)>,
    /// `workload -> "rows_returned=… checksum=…"`.
    answers: BTreeMap<String, String>,
}

fn smoke(seed: u64, dir: &Path) -> Smoke {
    let out = dir.join(format!("smoke-seed{seed}.json"));
    let mut command = Command::new(env!("CARGO_BIN_EXE_ccbench"));
    // ccbench refuses to run beside CCINDEX_* knobs; CI sets some.
    for (knob, _) in
        std::env::vars_os().filter(|(k, _)| k.to_string_lossy().starts_with("CCINDEX_"))
    {
        command.env_remove(knob);
    }
    let output = command
        .args(["--smoke", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        // Span files and the refresh catalog land under the working
        // directory's target/ccbench; keep them inside the package.
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("ccbench starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "ccbench --smoke --seed {seed} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let doc =
        json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("result JSON");
    let mut smoke = Smoke {
        metrics: BTreeMap::new(),
        answers: BTreeMap::new(),
    };
    for workload in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_owned();
        let answers = workload
            .get("answers")
            .and_then(Json::as_str)
            .expect("answers");
        smoke.answers.insert(name.clone(), answers.to_owned());
        for section in ["end_to_end", "per_layer"] {
            for metric in workload.get(section).and_then(Json::as_arr).expect(section) {
                let text = |key| {
                    metric
                        .get(key)
                        .and_then(Json::as_str)
                        .expect(key)
                        .to_owned()
                };
                let value = metric.get("median").and_then(Json::as_f64).expect("median");
                smoke
                    .metrics
                    .insert((name.clone(), text("name")), (value, text("unit")));
            }
        }
    }
    smoke
}

#[test]
fn smoke_run_matches_benchmark_json_and_repeats_at_one_seed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/ccbench");
    let first = smoke(1, &dir);
    let second = smoke(1, &dir);
    let other = smoke(2, &dir);

    // What is reported is what `BENCHMARK.json` declares, under the
    // declared units: every end-to-end metric on every workload, and every
    // per-layer metric on at least one (a ladder reports the rungs it has).
    let benchmark =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json");
    let benchmark = json::parse(&benchmark).expect("BENCHMARK.json parses");
    let names = |key: &str, field: &str| -> Vec<String> {
        benchmark
            .get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|item| {
                item.get(field)
                    .and_then(Json::as_str)
                    .expect(field)
                    .to_owned()
            })
            .collect()
    };
    let workloads = names("workloads", "name");
    let units = |section: &str| -> BTreeMap<String, String> {
        names(section, "name")
            .into_iter()
            .zip(names(section, "unit"))
            .collect()
    };
    let (end_to_end, per_layer) = (units("end_to_end"), units("per_layer"));
    let mut layers_seen = BTreeMap::new();
    for ((workload, metric), (_, unit)) in &first.metrics {
        match end_to_end.get(metric) {
            Some(declared) => assert_eq!(unit, declared, "{workload} {metric}"),
            None => {
                layers_seen.insert(metric.clone(), unit.clone());
            }
        }
    }
    assert_eq!(layers_seen, per_layer);
    for workload in &workloads {
        for metric in end_to_end.keys() {
            assert!(
                first
                    .metrics
                    .contains_key(&(workload.clone(), metric.clone())),
                "{workload} did not report {metric}"
            );
        }
    }
    assert_eq!(first.answers.keys().cloned().collect::<Vec<_>>(), {
        let mut sorted = workloads.clone();
        sorted.sort();
        sorted
    });

    // End-to-end metrics are never zero, on any workload.
    for ((workload, metric), (value, _)) in &first.metrics {
        if end_to_end.contains_key(metric) {
            assert!(*value > 0.0, "{workload} {metric} = {value}");
        }
    }

    // One seed, one stream: the reference answers and the exact counts
    // repeat; another seed draws another stream.
    assert_eq!(first.answers, second.answers);
    for (workload, answers) in &first.answers {
        assert!(
            answers.contains("rows_returned=") && answers.contains("checksum="),
            "{answers}"
        );
        assert_ne!(
            answers, &other.answers[workload],
            "{workload}: seed 2 drew seed 1's stream"
        );
    }
    for (workload, metric) in EXACT {
        let key = (workload.to_owned(), metric.to_owned());
        assert!(
            first.metrics[&key].0 > 0.0,
            "{workload} {metric} was not measured"
        );
        assert_eq!(
            first.metrics[&key], second.metrics[&key],
            "{workload} {metric}"
        );
    }

    // Each traced workload leaves its span file behind.
    for workload in &workloads {
        let spans =
            std::fs::read_to_string(dir.join(format!("trace-{workload}.json"))).expect("span file");
        let spans = json::parse(&spans).expect("span JSON");
        assert!(!spans
            .get("spans")
            .and_then(Json::as_arr)
            .expect("spans")
            .is_empty());
    }
}

#[test]
fn usage_errors_exit_2() {
    let run = |args: &[&str], env: Option<(&str, &str)>| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_ccbench"));
        command.args(args).current_dir(env!("CARGO_MANIFEST_DIR"));
        if let Some((key, value)) = env {
            command.env(key, value);
        }
        command.output().expect("ccbench starts").status.code()
    };
    assert_eq!(
        run(&["--workload", "nope", "--seed", "1", "--trace", "0"], None),
        Some(2)
    );
    assert_eq!(run(&["--seed", "1", "--frobnicate"], None), Some(2));
    assert_eq!(run(&["--smoke"], None), Some(2), "--seed is required");
    assert_eq!(
        run(&["--smoke", "--seed", "1"], Some(("CCINDEX_THREADS", "2"))),
        Some(2)
    );
    assert_eq!(
        run(
            &["--smoke", "--seed", "1"],
            Some(("CCINDEX_BATCH_MAX", "16"))
        ),
        Some(2)
    );
}
