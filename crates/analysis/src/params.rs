//! Table 1: parameters and their typical values.

/// The paper's model parameters (Table 1).
///
/// | symbol | meaning | typical |
/// |---|---|---|
/// | `R` | record-identifier bytes | 4 |
/// | `K` | key bytes | 4 |
/// | `P` | child-pointer bytes | 4 |
/// | `n` | records indexed | 10⁷ |
/// | `h` | hashing fudge factor | 1.2 |
/// | `c` | cache-line bytes | 64 |
/// | `s` | node size in cache lines | 1 |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// RID size in bytes (`R`).
    pub r: usize,
    /// Key size in bytes (`K`).
    pub k: usize,
    /// Pointer size in bytes (`P`).
    pub p: usize,
    /// Number of records (`n`).
    pub n: usize,
    /// Hash fudge factor (`h`): hash table is `h×` the raw data.
    pub h: f64,
    /// Cache-line size in bytes (`c`).
    pub c: usize,
    /// Node size in cache lines (`s`).
    pub s: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            r: 4,
            k: 4,
            p: 4,
            n: 10_000_000,
            h: 1.2,
            c: 64,
            s: 1.0,
        }
    }
}

impl Params {
    /// Slots per node: `m = s·c / K` (§5.1 — "we have a single parameter
    /// m, which is the number of slots per node").
    pub fn m(&self) -> usize {
        ((self.s * self.c as f64) / self.k as f64).round() as usize
    }

    /// Node size in bytes (`s·c`).
    pub fn node_bytes(&self) -> f64 {
        self.s * self.c as f64
    }

    /// Same parameters with a different `n`.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_values_match_table_1() {
        let p = Params::default();
        assert_eq!((p.r, p.k, p.p), (4, 4, 4));
        assert_eq!(p.n, 10_000_000);
        assert!((p.h - 1.2).abs() < 1e-12);
        assert_eq!(p.c, 64);
        assert_eq!(p.m(), 16, "64-byte node holds 16 4-byte slots");
    }

    #[test]
    fn with_m_round_trips() {
        // `m = s·c / K`: half a 64-byte line holds 8 slots.
        let p = Params {
            s: 0.5,
            ..Params::default()
        };
        assert_eq!(p.m(), 8);
        assert!((p.node_bytes() - 32.0).abs() < 1e-9);
        let p = Params {
            s: 1.5,
            ..Params::default()
        }; // the Fig. 12 bump point
        assert_eq!(p.m(), 24);
        assert!((p.node_bytes() - 96.0).abs() < 1e-9);
    }
}
