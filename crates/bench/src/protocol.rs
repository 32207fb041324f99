//! The paper's measurement protocol (§6.1).
//!
//! "We performed 100,000 searches on randomly chosen matching keys. We
//! repeated each test five times and report the minimal time." —
//! [`run_lookup_protocol`] for host wall-clock, and
//! [`simulate_lookup_protocol`] for the cache-simulated 1998 machines.

use cachesim::{Machine, SimTracer};
use ccindex_common::SearchIndex;
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Total seconds for the whole probe batch (minimum over repeats for
    /// wall-clock; single deterministic pass for simulation).
    pub total_seconds: f64,
    /// Per-lookup nanoseconds.
    pub ns_per_lookup: f64,
    /// Simulated cache misses per lookup, by level (empty for wall-clock).
    pub misses_per_lookup: Vec<f64>,
    /// Hits observed (sanity check: all-matching streams must all hit).
    pub hits: usize,
}

/// Wall-clock: one `search` call per probe, best of `repeats` runs over
/// the probe stream.
pub fn run_lookup_protocol(
    index: &dyn SearchIndex<u32>,
    probes: &[u32],
    repeats: usize,
) -> Measurement {
    assert!(repeats >= 1);
    let mut best = f64::INFINITY;
    let mut hits = 0usize;
    for _ in 0..repeats {
        let start = Instant::now();
        let mut found = 0usize;
        for &p in probes {
            if index.search(p).is_some() {
                found += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        hits = found;
        if elapsed < best {
            best = elapsed;
        }
    }
    Measurement {
        total_seconds: best,
        ns_per_lookup: best * 1e9 / probes.len().max(1) as f64,
        misses_per_lookup: Vec::new(),
        hits,
    }
}

/// Simulation: replay the probe stream's memory trace through
/// `machine`'s cache hierarchy (cold start, then successive lookups warm
/// the upper levels exactly as in the paper's runs) and evaluate its time
/// model.
pub fn simulate_lookup_protocol(
    index: &dyn SearchIndex<u32>,
    probes: &[u32],
    machine: &mut Machine,
) -> Measurement {
    machine.hierarchy.flush(true);
    let mut hits = 0usize;
    {
        let mut tracer = SimTracer::new(&mut machine.hierarchy);
        for &p in probes {
            if index.search_traced(p, &mut tracer).is_some() {
                hits += 1;
            }
        }
    }
    let stats = machine.hierarchy.stats();
    let outcome = machine.spec.time_model().evaluate(&stats);
    let lookups = probes.len().max(1) as f64;
    Measurement {
        total_seconds: outcome.seconds,
        ns_per_lookup: outcome.seconds * 1e9 / lookups,
        misses_per_lookup: stats
            .levels
            .iter()
            .map(|l| l.misses as f64 / lookups)
            .collect(),
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::all_methods;
    use ccindex_common::SortedArray;
    use workload::LookupStream;

    #[test]
    fn wall_clock_protocol_counts_hits() {
        let keys = SortedArray::from_slice(&(0..10_000u32).collect::<Vec<_>>());
        let stream = LookupStream::successful(keys.as_slice(), 1000, 7);
        for m in all_methods(&keys, 16) {
            let r = run_lookup_protocol(m.as_search(), stream.probes(), 2);
            assert_eq!(r.hits, 1000, "{}", m.label);
            assert!(r.total_seconds >= 0.0);
        }
    }

    #[test]
    fn simulation_reports_per_level_misses() {
        let keys = SortedArray::from_slice(&(0..200_000u32).collect::<Vec<_>>());
        let stream = LookupStream::successful(keys.as_slice(), 2000, 7);
        let mut machine = Machine::ultrasparc2();
        let methods = all_methods(&keys, 16);
        let css = methods.iter().find(|m| m.label == "full CSS-tree").unwrap();
        let bin = methods
            .iter()
            .find(|m| m.label == "array binary search")
            .unwrap();
        let r_css = simulate_lookup_protocol(css.as_search(), stream.probes(), &mut machine);
        let r_bin = simulate_lookup_protocol(bin.as_search(), stream.probes(), &mut machine);
        assert_eq!(r_css.misses_per_lookup.len(), 2);
        // The paper's core claim, on simulated 1998 hardware: CSS-trees
        // take far fewer L2 misses per lookup than binary search.
        assert!(
            r_css.misses_per_lookup[1] < r_bin.misses_per_lookup[1] / 2.0,
            "css {:?} vs binary {:?}",
            r_css.misses_per_lookup,
            r_bin.misses_per_lookup
        );
        assert!(r_css.total_seconds < r_bin.total_seconds);
    }
}
