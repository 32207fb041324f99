//! Fig. 6: the per-method lookup cost model.
//!
//! "The total cost of each searching method has three parts, namely the
//! comparison cost, the cost of moving across levels and the cache miss
//! cost" (§5.1). This module evaluates all three for each method, exactly
//! as tabulated in Fig. 6, including the two cache-miss regimes (node size
//! below/above one cache line) and the per-node miss estimate
//! `log2(mK/c) + c/(mK)` for oversized nodes.

use crate::params::Params;
use crate::space_model::Method;

/// Evaluated Fig. 6 row for one method at one `(n, m)` point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// The method.
    pub method: Method,
    /// Branching factor (`l` column).
    pub branching: f64,
    /// Number of levels.
    pub levels: f64,
    /// Comparisons per internal node.
    pub comparisons_per_internal: f64,
    /// Comparisons per leaf node.
    pub comparisons_per_leaf: f64,
    /// Total comparisons.
    pub total_comparisons: f64,
    /// Number of across-level moves (each costing a pointer dereference
    /// `D` or an arithmetic child computation `A`).
    pub moves: f64,
    /// Estimated cache misses per (cold) lookup.
    pub cache_misses: f64,
}

/// A cost model evaluation turned into simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeEstimate {
    /// Per-lookup cost in cycles.
    pub cycles: f64,
    /// Per-lookup cost in seconds at the given clock.
    pub seconds: f64,
}

fn log2(x: f64) -> f64 {
    x.log2()
}

/// Per-node cache misses for a node of `m` slots of `k`-byte keys against
/// `c`-byte lines: 1 when the node fits a line, else
/// `log2(mK/c) + c/(mK)` (§5.1).
pub fn misses_per_node(m: usize, k: usize, c: usize) -> f64 {
    let mk = (m * k) as f64;
    let cf = c as f64;
    if mk <= cf {
        1.0
    } else {
        (mk / cf).log2() + cf / mk
    }
}

/// Evaluate the Fig. 6 row for `method` (not defined for `Hash` and
/// `InterpolationSearch`, which the figure omits — returns `None`).
pub fn cost_breakdown(method: Method, p: &Params) -> Option<CostBreakdown> {
    let n = p.n as f64;
    let m = p.m() as f64;
    let per_node_misses = misses_per_node(p.m(), p.k, p.c);
    let row = match method {
        Method::BinarySearch | Method::BinaryTree => CostBreakdown {
            method,
            branching: 2.0,
            levels: log2(n),
            comparisons_per_internal: 1.0,
            comparisons_per_leaf: 1.0,
            total_comparisons: log2(n),
            moves: log2(n),
            cache_misses: log2(n),
        },
        Method::TTree => CostBreakdown {
            method,
            branching: 2.0,
            levels: log2(n / m) - 1.0,
            comparisons_per_internal: 1.0,
            comparisons_per_leaf: log2(m),
            total_comparisons: log2(n),
            moves: log2(n),
            cache_misses: log2(n),
        },
        Method::BPlusTree => {
            let branching = m / 2.0;
            CostBreakdown {
                method,
                branching,
                levels: (n / m).log2() / branching.log2(),
                comparisons_per_internal: log2(m) - 1.0,
                comparisons_per_leaf: log2(m),
                total_comparisons: log2(n),
                moves: (n / m).log2() / branching.log2(),
                cache_misses: n.log2() / (log2(m) - 1.0) * per_node_misses,
            }
        }
        Method::FullCss => {
            let f = m + 1.0;
            CostBreakdown {
                method,
                branching: f,
                levels: (n / m).log2() / f.log2(),
                comparisons_per_internal: (1.0 + 2.0 / f) * log2(m),
                comparisons_per_leaf: log2(m),
                total_comparisons: (1.0 + 2.0 / f) * (m.log2() / f.log2()) * log2(n),
                moves: (n / m).log2() / f.log2(),
                cache_misses: n.log2() / f.log2() * per_node_misses,
            }
        }
        Method::LevelCss => CostBreakdown {
            method,
            branching: m,
            levels: (n / m).log2() / m.log2(),
            comparisons_per_internal: log2(m),
            comparisons_per_leaf: log2(m),
            total_comparisons: log2(n),
            moves: (n / m).log2() / m.log2(),
            cache_misses: n.log2() / m.log2() * per_node_misses,
        },
        Method::Hash | Method::InterpolationSearch => return None,
    };
    Some(row)
}

/// Turn a breakdown into time with explicit cost coefficients: `cmp`
/// cycles per comparison, `mv` cycles per across-level move, `miss`
/// cycles per cache miss, at `clock_hz`.
pub fn estimate_time(
    b: &CostBreakdown,
    cmp: f64,
    mv: f64,
    miss: f64,
    clock_hz: f64,
) -> TimeEstimate {
    let cycles = b.total_comparisons * cmp + b.moves * mv + b.cache_misses * miss;
    TimeEstimate {
        cycles,
        seconds: cycles / clock_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::default() // n = 10^7, m = 16
    }

    #[test]
    fn branching_factors_match_figure_6() {
        let p = p();
        assert_eq!(
            cost_breakdown(Method::BinarySearch, &p).unwrap().branching,
            2.0
        );
        assert_eq!(cost_breakdown(Method::TTree, &p).unwrap().branching, 2.0);
        assert_eq!(
            cost_breakdown(Method::BPlusTree, &p).unwrap().branching,
            8.0
        );
        assert_eq!(cost_breakdown(Method::FullCss, &p).unwrap().branching, 17.0);
        assert_eq!(
            cost_breakdown(Method::LevelCss, &p).unwrap().branching,
            16.0
        );
    }

    #[test]
    fn css_has_fewest_cache_misses() {
        // §5.1: "CSS-trees have the lowest values for the cache related
        // component of the cost"; binary/T-tree worst, B+ in between.
        let p = p();
        let miss = |m| cost_breakdown(m, &p).unwrap().cache_misses;
        assert!(miss(Method::FullCss) < miss(Method::BPlusTree));
        assert!(miss(Method::LevelCss) < miss(Method::BPlusTree));
        assert!(miss(Method::BPlusTree) < miss(Method::BinarySearch));
        assert_eq!(miss(Method::BinarySearch), miss(Method::TTree));
        // Quantitatively: log17(10^7) ≈ 5.7 vs log2(10^7) ≈ 23.25.
        assert!((miss(Method::FullCss) - 5.74).abs() < 0.1);
        assert!((miss(Method::BinarySearch) - 23.25).abs() < 0.1);
    }

    #[test]
    fn total_comparisons_are_log2_n_except_full_css() {
        // §4.2/Fig. 6: every method does ~log2 n comparisons; full
        // CSS-trees do slightly more.
        let p = p();
        let log2n = (p.n as f64).log2();
        for m in [
            Method::BinarySearch,
            Method::TTree,
            Method::BPlusTree,
            Method::LevelCss,
        ] {
            let c = cost_breakdown(m, &p).unwrap().total_comparisons;
            assert!((c - log2n).abs() < 1e-9, "{m:?}: {c}");
        }
        let full = cost_breakdown(Method::FullCss, &p)
            .unwrap()
            .total_comparisons;
        assert!(full > log2n, "full CSS does extra comparisons");
        assert!(full / log2n < 1.2, "but only slightly ({full})");
    }

    #[test]
    fn miss_regimes_switch_at_line_size() {
        // m*K <= c: one miss per node.
        assert_eq!(misses_per_node(16, 4, 64), 1.0);
        assert_eq!(misses_per_node(8, 4, 64), 1.0);
        // m*K = 2c: log2(2) + 1/2 = 1.5.
        assert!((misses_per_node(32, 4, 64) - 1.5).abs() < 1e-12);
        // m*K = 4c: 2 + 1/4.
        assert!((misses_per_node(64, 4, 64) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn optimal_node_size_is_one_cache_line() {
        // §5.1: "the number of cache misses is minimized when the node
        // size is the same as cache line size."
        let at = |m: usize| {
            // `m` 4-byte slots per node: `s = m·K / c` lines.
            let p = Params {
                s: m as f64 / 16.0,
                ..Params::default()
            };
            cost_breakdown(Method::FullCss, &p).unwrap().cache_misses
        };
        let best = at(16);
        for m in [2usize, 4, 8, 32, 64, 128] {
            assert!(at(m) >= best - 1e-9, "m={m}: {} vs {best}", at(m));
        }
    }

    #[test]
    fn larger_m_degrades_to_binary_search() {
        // §5.1: "as m gets larger, the number of cache misses for all the
        // methods approaches log2 n".
        let at = |m: usize| {
            // `m` 4-byte slots per node: `s = m·K / c` lines.
            let p = Params {
                s: m as f64 / 16.0,
                ..Params::default()
            };
            cost_breakdown(Method::FullCss, &p).unwrap().cache_misses
        };
        // Monotonically worse past the cache-line optimum...
        assert!(at(16) < at(64) && at(64) < at(256) && at(256) < at(4096));
        // ...approaching the spatial-locality-adjusted binary-search cost
        // log2(n·K/c) (one huge node *is* binary search over the array).
        let p = Params::default();
        let limit = ((p.n * p.k / p.c) as f64).log2();
        assert!(at(65_536) / limit > 0.85, "{} vs {limit}", at(65_536));
    }

    #[test]
    fn hash_and_interpolation_are_not_modelled() {
        let p = p();
        assert!(cost_breakdown(Method::Hash, &p).is_none());
        assert!(cost_breakdown(Method::InterpolationSearch, &p).is_none());
    }

    #[test]
    fn time_estimate_composes_linearly() {
        let p = p();
        let b = cost_breakdown(Method::FullCss, &p).unwrap();
        let t = estimate_time(&b, 2.0, 3.0, 80.0, 296e6);
        let manual = b.total_comparisons * 2.0 + b.moves * 3.0 + b.cache_misses * 80.0;
        assert!((t.cycles - manual).abs() < 1e-9);
        assert!((t.seconds - manual / 296e6).abs() < 1e-15);
    }

    #[test]
    fn css_beats_binary_search_by_over_2x_in_model_time(/* §6.3 headline */) {
        let p = p();
        let time = |m| {
            let b = cost_breakdown(m, &p).unwrap();
            estimate_time(&b, 2.0, 3.0, 80.0, 296e6).seconds
        };
        assert!(time(Method::BinarySearch) / time(Method::FullCss) > 2.0);
        assert!(time(Method::BinarySearch) / time(Method::LevelCss) > 2.0);
        // And B+ falls in between.
        assert!(time(Method::BPlusTree) < time(Method::BinarySearch));
        assert!(time(Method::BPlusTree) > time(Method::FullCss));
    }
}
