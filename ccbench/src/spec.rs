//! `BENCHMARK.json`, compiled in: the workload names, the end-to-end
//! metrics with their regression bounds and the per-layer metric names all
//! come from that one file, so what `ccbench` prints and what the file
//! declares cannot drift apart.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the unit tests")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: match text_of(m, "better")?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    Ok(Workload {
                        name: text_of(w, "name")?,
                        why: text_of(w, "why")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let spec = Spec::parse(BENCHMARK_JSON).unwrap();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        for w in &spec.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(unit_ok(&m.unit), "unit of {}", m.name);
            names.push(&m.name);
        }
        for n in &names {
            assert!(name_ok(n), "name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.lower_is_better && setup.unit == "s");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
