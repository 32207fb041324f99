//! The arithmetic every number in the benchmark goes through: exact
//! percentiles over raw samples, medians and quartiles over runs, the
//! answer checksum, and the process's peak resident set.

/// The `p`-th percentile (0 < p ≤ 100) of ascending `sorted` samples by
/// the nearest-rank rule: the smallest sample with at least `p` percent of
/// the samples at or below it. Exact — no buckets, no interpolation.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // 99.9 is not a binary fraction: without the epsilon, 99.9 % of
    // 10 000 computes to 9990.000000000002 and rounds up a whole rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile `n` samples can support: the largest of the
/// usual reporting percentiles that still leaves at least ten samples
/// beyond it (a tail read off fewer is one outlier's latency, not a
/// percentile). `None` when even the median has fewer than ten beyond.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Samples per slice of [`sliced_percentile`]: the fewest that leave ten
/// beyond a p99.
pub const SLICE: usize = 1000;

/// The `p`-th percentile of a typical stretch of the run: each stream of
/// time-ordered samples is cut into consecutive slices of [`SLICE`]
/// samples, each slice's percentile is taken exactly, and the median
/// slice is reported. A stretch the host stole from the run lands in a
/// few slices and moves their percentile, not the run's; a tail the
/// program really has is in every slice. Also returns the shortest
/// slice's length, which is what has to support the percentile (a stream
/// shorter than one slice is one slice).
pub fn sliced_percentile(streams: &[Vec<u32>], p: f64) -> (f64, usize) {
    let mut per_slice = Vec::new();
    let mut shortest = usize::MAX;
    for stream in streams.iter().filter(|s| !s.is_empty()) {
        let slices = (stream.len() / SLICE).max(1);
        for k in 0..slices {
            let mut slice =
                stream[k * stream.len() / slices..(k + 1) * stream.len() / slices].to_vec();
            slice.sort_unstable();
            per_slice.push(f64::from(percentile(&slice, p)));
            shortest = shortest.min(slice.len());
        }
    }
    assert!(!per_slice.is_empty(), "percentile of no samples");
    (median(&per_slice), shortest)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// computes run-to-run spread from.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = (q * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Order-sensitive 64-bit fold of an answer: every word of every result
/// goes through [`Checksum::word`], so two answers with the same checksum
/// are, for the benchmark's purposes, the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xCBF2_9CE4_8422_2325)
    }
}

impl Checksum {
    pub fn word(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// `VmHWM` of this process in MiB: the kernel's own high-water mark of the
/// resident set, so transient peaks inside a call are included.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.5), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 1000 samples: p99 is the 990th, ten lie beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn sliced_percentile_ignores_a_burst_but_not_a_tail() {
        // 5000 samples at 100 with a 2 % tail at 900 throughout.
        let steady: Vec<u32> = (0..5000)
            .map(|i| if i % 50 == 0 { 900 } else { 100 })
            .collect();
        assert_eq!(
            sliced_percentile(std::slice::from_ref(&steady), 99.0),
            (900.0, 1000)
        );
        // The same run with one slice's worth of noise: the overall p99
        // would read 5000, the typical slice still reads 900.
        let mut burst = steady.clone();
        burst[1000..2000].iter_mut().for_each(|s| *s = 5000);
        let mut sorted = burst.clone();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 99.0), 5000);
        assert_eq!(sliced_percentile(&[burst], 99.0).0, 900.0);
        // Two streams: ten slices, the median of all of them.
        let quiet = vec![100u32; 5000];
        assert_eq!(sliced_percentile(&[steady, quiet], 99.0), (500.0, 1000));
        // A stream shorter than a slice is one slice; the remainder of a
        // longer one is spread over its slices.
        assert_eq!(sliced_percentile(&[vec![7, 9]], 99.0), (9.0, 2));
        assert_eq!(sliced_percentile(&[vec![5; 2999]], 50.0), (5.0, 1499));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates on tiny inputs.
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }

    #[test]
    fn checksum_is_order_and_length_sensitive() {
        let fold = |words: &[u64]| {
            let mut c = Checksum::default();
            words.iter().for_each(|&w| c.word(w));
            c.value()
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[0]), fold(&[0, 0]));
        let (mut a, mut b) = (Checksum::default(), Checksum::default());
        a.bytes(b"east");
        b.bytes(b"east\0");
        assert_ne!(a, b);
    }

    #[test]
    fn vm_hwm_parses_to_mib() {
        let status = "Name:\tccbench\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(200.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }
}
