//! A small exact Zipf(θ) sampler over ranks `0..n`.
//!
//! Used for hot-key lookup streams (warm-cache behaviour, §5.1: "If a bunch
//! of searches are performed in sequence, the top level nodes will stay in
//! the cache") and for the skewed data §3.5 warns affects hash indexes.
//!
//! Implementation: inverse-CDF over the precomputed harmonic prefix sums
//! (O(n) setup, O(log n) per sample). Kept dependency-free on purpose; the
//! workspace's only sampling dependency is `rand` itself.

use rand::Rng;

/// Zipf distribution over `0..n` with skew parameter `theta > 0`.
///
/// `P(rank = i) ∝ 1 / (i + 1)^theta`. `theta → 0` approaches uniform;
/// `theta = 1` is the classic Zipf.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF for `n` ranks with skew `theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta > 0.0 && theta.is_finite(), "theta must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against FP round-off at the top end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Zipf {
        /// Probability mass of rank `i`, read off the CDF the sampler
        /// bisects.
        fn pmf(&self, i: usize) -> f64 {
            if i == 0 {
                self.cdf[0]
            } else {
                self.cdf[i] - self.cdf[i - 1]
            }
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        // Classic Zipf: p(0)/p(1) == 2.
        assert!((z.pmf(0) / z.pmf(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn samples_match_pmf_roughly() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let expected = z.pmf(i) * draws as f64;
            let got = count as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt() + 50.0,
                "rank {i}: expected {expected}, got {got}"
            );
        }
    }

    #[test]
    fn high_theta_concentrates() {
        let z = Zipf::new(1000, 3.0);
        assert!(z.pmf(0) > 0.8, "theta=3 should put most mass on rank 0");
    }

    #[test]
    fn sample_always_in_range() {
        let z = Zipf::new(3, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }
}
