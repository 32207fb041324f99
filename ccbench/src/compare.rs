//! Judging one set of runs against a baseline with the bounds
//! `BENCHMARK.json` fixes.
//!
//! The rule is the one the repo's performance claims live by: a metric
//! has regressed when its median is worse than the baseline's by more
//! than its bound; and where the run-to-run spread is wider than the
//! bound the comparison cannot tell, so it says `unresolved`, not `ok` —
//! unless every run of one side beats every run of the other.

use crate::json::Json;
use crate::spec::{MetricDef, Spec};

/// Median and observed range of one metric over a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: crate::stats::median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn from_json(metric: &Json) -> Option<Summary> {
        Some(Summary {
            median: metric.get("median")?.as_f64()?,
            min: metric.get("min")?.as_f64()?,
            max: metric.get("max")?.as_f64()?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

/// Absolute slack under the relative bound, in the metric's unit: a
/// quarter of a second of set-up or 16 MiB of resident set is noise on a
/// small workload however many percent it is.
fn absolute_floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.25,
        "peak_rss_mb" => 16.0,
        _ => 0.0,
    }
}

/// How much worse than `base` the metric may read before it counts.
fn allowed(def: &MetricDef, base: &Summary) -> f64 {
    (def.bound.unwrap_or(0.0) * base.median.abs()).max(absolute_floor(&def.name))
}

pub fn judge(def: &MetricDef, base: &Summary, new: &Summary) -> Verdict {
    let allowed = allowed(def, base);
    let (worse_by, new_wins_every_run) = if def.lower_is_better {
        (new.median - base.median, new.max < base.min)
    } else {
        (base.median - new.median, new.min > base.max)
    };
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    let spread = (base.max - base.min).max(new.max - new.min);
    if spread > allowed && !new_wins_every_run {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Print per-metric deltas of `current` against `baseline` (both in the
/// suite's result format) and return whether nothing regressed.
pub fn report(spec: &Spec, baseline: &Json, current: &Json) -> Result<bool, String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("not a ccbench result file: no `workloads`")?
            .to_vec())
    };
    let find = |list: &[Json], name: &str| -> Option<Json> {
        list.iter()
            .find(|item| item.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    let metric_of = |workload: &Json, section: &str, name: &str| -> Option<Summary> {
        find(workload.get(section)?.as_arr()?, name)
            .as_ref()
            .and_then(Summary::from_json)
    };
    let (base_workloads, new_workloads) = (workloads(baseline)?, workloads(current)?);
    let mut regressed = 0;
    let mut unresolved = 0;
    println!("\ncompare: current against baseline, bounds from BENCHMARK.json");
    for w in &spec.workloads {
        let (Some(base), Some(new)) = (
            find(&base_workloads, &w.name),
            find(&new_workloads, &w.name),
        ) else {
            println!("{:<12} missing on one side; skipped", w.name);
            continue;
        };
        for def in &spec.end_to_end {
            let (Some(b), Some(n)) = (
                metric_of(&base, "end_to_end", &def.name),
                metric_of(&new, "end_to_end", &def.name),
            ) else {
                return Err(format!("{} {}: missing on one side", w.name, def.name));
            };
            let verdict = judge(def, &b, &n);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<12} {:<12} {:>14.4} -> {:>14.4} {:<6} {:>+8.2}%  (bound {:.0}% {}, spread {:.4}..{:.4} -> {:.4}..{:.4})  {}",
                w.name,
                def.name,
                b.median,
                n.median,
                def.unit,
                (n.median / b.median - 1.0) * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                if def.lower_is_better { "up" } else { "down" },
                b.min,
                b.max,
                n.min,
                n.max,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            );
        }
        // Layer metrics carry no bound: the deltas are there to show
        // where an end-to-end change came from.
        for def in &spec.per_layer {
            if let (Some(b), Some(n)) = (
                metric_of(&base, "per_layer", &def.name),
                metric_of(&new, "per_layer", &def.name),
            ) {
                if b.median != 0.0 || n.median != 0.0 {
                    println!(
                        "{:<12}   {:<38} {:>14.4} -> {:>14.4} {:<12} {:>+8.2}%",
                        w.name,
                        def.name,
                        b.median,
                        n.median,
                        def.unit,
                        (n.median / b.median - 1.0) * 100.0
                    );
                }
            }
        }
    }
    println!("compare: {regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, lower_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: name.to_owned(),
            unit: "u".to_owned(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    fn flat(v: f64) -> Summary {
        Summary {
            median: v,
            min: v,
            max: v,
        }
    }

    #[test]
    fn the_bound_is_a_share_of_the_baseline_median() {
        let p50 = def("p50_us", true, 0.10);
        assert_eq!(judge(&p50, &flat(100.0), &flat(110.0)), Verdict::Ok);
        assert_eq!(judge(&p50, &flat(100.0), &flat(110.1)), Verdict::Regressed);
        assert_eq!(judge(&p50, &flat(100.0), &flat(50.0)), Verdict::Ok);
        let ops = def("ops_per_s", false, 0.08);
        assert_eq!(judge(&ops, &flat(1000.0), &flat(920.0)), Verdict::Ok);
        assert_eq!(judge(&ops, &flat(1000.0), &flat(919.0)), Verdict::Regressed);
        assert_eq!(judge(&ops, &flat(1000.0), &flat(2000.0)), Verdict::Ok);
    }

    #[test]
    fn absolute_floors_cover_small_setups_and_small_processes() {
        // 15 % of 0.1 s is 15 ms; the floor allows a quarter second.
        let setup = def("setup_s", true, 0.15);
        assert_eq!(judge(&setup, &flat(0.1), &flat(0.34)), Verdict::Ok);
        assert_eq!(judge(&setup, &flat(0.1), &flat(0.36)), Verdict::Regressed);
        // On a long set-up the relative bound is the wider one.
        assert_eq!(judge(&setup, &flat(10.0), &flat(11.4)), Verdict::Ok);
        assert_eq!(judge(&setup, &flat(10.0), &flat(11.6)), Verdict::Regressed);
        // 5 % of 100 MiB is 5; the floor allows 16.
        let rss = def("peak_rss_mb", true, 0.05);
        assert_eq!(judge(&rss, &flat(100.0), &flat(115.0)), Verdict::Ok);
        assert_eq!(judge(&rss, &flat(100.0), &flat(117.0)), Verdict::Regressed);
        assert_eq!(judge(&rss, &flat(1000.0), &flat(1049.0)), Verdict::Ok);
        assert_eq!(
            judge(&rss, &flat(1000.0), &flat(1051.0)),
            Verdict::Regressed
        );
        // Other metrics have no floor.
        assert_eq!(
            judge(&def("p99_us", true, 0.25), &flat(0.1), &flat(0.2)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let p99 = def("p99_us", true, 0.25);
        let noisy = Summary {
            median: 100.0,
            min: 80.0,
            max: 130.0,
        };
        assert_eq!(judge(&p99, &noisy, &flat(100.0)), Verdict::Unresolved);
        assert_eq!(judge(&p99, &flat(100.0), &noisy), Verdict::Unresolved);
        // ... unless every run of the change beats every baseline run.
        assert_eq!(judge(&p99, &noisy, &flat(70.0)), Verdict::Ok);
        // A regression past the bound is a regression however noisy.
        assert_eq!(judge(&p99, &noisy, &flat(126.0)), Verdict::Regressed);
        let tight = Summary {
            median: 100.0,
            min: 95.0,
            max: 110.0,
        };
        assert_eq!(judge(&p99, &tight, &tight), Verdict::Ok);
        let ops = def("ops_per_s", false, 0.08);
        let wide = Summary {
            median: 1000.0,
            min: 900.0,
            max: 1100.0,
        };
        assert_eq!(judge(&ops, &wide, &flat(1000.0)), Verdict::Unresolved);
        assert_eq!(judge(&ops, &wide, &flat(1200.0)), Verdict::Ok);
    }

    #[test]
    fn summary_of_runs() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.median, s.min, s.max), (2.5, 1.0, 10.0));
    }
}
