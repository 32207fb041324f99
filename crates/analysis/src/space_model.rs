//! Fig. 7: space formulas, and the Fig. 8 space-vs-n sweeps.
//!
//! Two accounting modes (§5.2): "indirect" charges only what a method
//! needs beyond a rearrangeable RID list; "direct" additionally charges
//! methods that must hold RIDs internally (T-trees, hash tables) with
//! `n·R` bytes.

use crate::params::Params;

/// The methods of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Binary search on the sorted array (§3.2).
    BinarySearch,
    /// Interpolation search on the sorted array.
    InterpolationSearch,
    /// Pointer-based balanced binary search tree ("tree binary search").
    BinaryTree,
    /// T-tree, improved \[LC86b\] variant (§3.3).
    TTree,
    /// Bulk-loaded B+-tree (§3.4).
    BPlusTree,
    /// Full CSS-tree (§4.1).
    FullCss,
    /// Level CSS-tree (§4.2).
    LevelCss,
    /// Chained bucket hashing (§3.5).
    Hash,
}

impl Method {
    /// All methods, in the paper's presentation order.
    pub const ALL: [Method; 8] = [
        Method::BinarySearch,
        Method::InterpolationSearch,
        Method::BinaryTree,
        Method::TTree,
        Method::BPlusTree,
        Method::FullCss,
        Method::LevelCss,
        Method::Hash,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::BinarySearch => "array binary search",
            Method::InterpolationSearch => "interpolation search",
            Method::BinaryTree => "tree binary search",
            Method::TTree => "T-tree",
            Method::BPlusTree => "B+-tree",
            Method::FullCss => "full CSS-tree",
            Method::LevelCss => "level CSS-tree",
            Method::Hash => "hash",
        }
    }

    /// "RID-Ordered Access" column of Fig. 7.
    pub fn rid_ordered_access(&self) -> bool {
        !matches!(self, Method::Hash)
    }
}

/// Fig. 7 "Space (indirect)" in bytes.
pub fn space_indirect(method: Method, p: &Params) -> f64 {
    let n = p.n as f64;
    let (k, r, pt) = (p.k as f64, p.r as f64, p.p as f64);
    let sc = p.node_bytes();
    match method {
        Method::BinarySearch | Method::InterpolationSearch => 0.0,
        // Not in Fig. 7; each element pays two pointers (key + position
        // share the RID budget in the indirect mode).
        Method::BinaryTree => n * 2.0 * pt,
        // 2nP(K+R)/(sc − 2P)
        Method::TTree => 2.0 * n * pt * (k + r) / (sc - 2.0 * pt),
        // nK(P+K)/(sc − P − K)
        Method::BPlusTree => n * k * (pt + k) / (sc - pt - k),
        // nK²/(sc)
        Method::FullCss => n * k * k / sc,
        // nK²/(sc − K); assumes sc/K is a power of two
        Method::LevelCss => n * k * k / (sc - k),
        // (h − 1)·n·R
        Method::Hash => (p.h - 1.0) * n * r,
    }
}

/// Fig. 7 "Space (direct)" in bytes: T-trees and hash tables additionally
/// carry `n·R` of record identifiers.
pub fn space_direct(method: Method, p: &Params) -> f64 {
    let extra = match method {
        Method::TTree | Method::Hash => (p.n * p.r) as f64,
        _ => 0.0,
    };
    space_indirect(method, p) + extra
}

/// Fig. 8: space over a range of `n` (same typical parameters otherwise).
/// Returns `(n, bytes)` pairs.
pub fn sweep_n(
    method: Method,
    p: &Params,
    ns: impl IntoIterator<Item = usize>,
    direct: bool,
) -> Vec<(usize, f64)> {
    ns.into_iter()
        .map(|n| {
            let pn = p.with_n(n);
            let bytes = if direct {
                space_direct(method, &pn)
            } else {
                space_indirect(method, &pn)
            };
            (n, bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    /// Fig. 7's "Typical Value" column, n = 10^7, 64-byte single-line
    /// nodes.
    #[test]
    fn typical_values_match_figure_7() {
        let p = Params::default();
        let close = |v: f64, expect_mb: f64| (v / MB - expect_mb).abs() < 0.15;

        assert_eq!(space_indirect(Method::BinarySearch, &p), 0.0);
        assert_eq!(space_direct(Method::InterpolationSearch, &p), 0.0);
        assert!(close(space_indirect(Method::FullCss, &p), 2.5), "full css");
        assert!(
            close(space_indirect(Method::LevelCss, &p), 2.7),
            "level css"
        );
        assert!(close(space_indirect(Method::BPlusTree, &p), 5.7), "b+");
        assert!(
            close(space_indirect(Method::Hash, &p), 8.0),
            "hash indirect"
        );
        assert!(close(space_direct(Method::Hash, &p), 48.0), "hash direct");
        assert!(
            close(space_indirect(Method::TTree, &p), 11.4),
            "ttree indirect"
        );
        assert!(close(space_direct(Method::TTree, &p), 51.4), "ttree direct");
    }

    #[test]
    fn rid_ordered_access_column() {
        for m in Method::ALL {
            assert_eq!(m.rid_ordered_access(), m != Method::Hash, "{m:?}");
        }
    }

    #[test]
    fn css_trees_dominate_b_plus_in_space() {
        // §1: "CSS-trees also use less space than B+-trees of the same
        // node size" — across node sizes.
        for m in [8usize, 16, 32, 64] {
            // `m` 4-byte slots per node: `s = m·K / c` lines.
            let p = Params {
                s: m as f64 / 16.0,
                ..Params::default()
            };
            assert!(
                space_indirect(Method::FullCss, &p) < space_indirect(Method::BPlusTree, &p),
                "m={m}"
            );
            assert!(
                space_indirect(Method::LevelCss, &p) < space_indirect(Method::BPlusTree, &p),
                "m={m}"
            );
        }
    }

    #[test]
    fn sweep_is_linear_in_n() {
        let p = Params::default();
        let pts = sweep_n(
            Method::FullCss,
            &p,
            [10_000_000, 20_000_000, 30_000_000],
            false,
        );
        assert_eq!(pts.len(), 3);
        let unit = pts[0].1 / pts[0].0 as f64;
        for (n, b) in &pts {
            assert!((b / *n as f64 - unit).abs() < 1e-9);
        }
    }

    #[test]
    fn level_uses_slightly_more_than_full() {
        let p = Params::default();
        let full = space_indirect(Method::FullCss, &p);
        let level = space_indirect(Method::LevelCss, &p);
        assert!(level > full);
        assert!(level / full < 1.1, "only 'a little more' (§4.2)");
    }
}
