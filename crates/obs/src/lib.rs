//! Observability substrate: a metric [`Registry`] of named counters,
//! gauges, and log-bucketed latency [`Histogram`]s, plus lightweight
//! [`Span`] tracing with parent/child timing trees.
//!
//! Like the rest of the workspace this crate is dependency-free: every
//! instrument is hand-rolled on the `ccindex_parallel::sync` facade, so
//! recording is lock-free (plain atomic adds), production builds use
//! `std` atomics, and `--cfg ccindex_check` builds run the same code
//! under the model checker's instrumented shims.
//!
//! # Shape
//!
//! * [`Counter`] — a monotonic tally (`transport.retries`).
//! * [`Gauge`] — a point-in-time level with a high-water mark
//!   (`serve.queue.depth`).
//! * [`Histogram`] — a log-bucketed latency distribution: values land
//!   in power-of-two buckets subdivided 8 ways (≤ 12.5% relative
//!   error), so `record` is two shifts and three atomic adds, and
//!   [`HistogramSnapshot::percentile`] answers p50/p90/p99 without
//!   storing samples. Snapshots merge associatively, so per-shard or
//!   per-thread histograms combine into one distribution.
//! * [`Span`] — a named timer that nests: children are timed closures
//!   or grafted subtrees (e.g. a remote server's breakdown), and
//!   [`Span::finish`] yields a [`SpanNode`] tree that renders as an
//!   indented latency report.
//!
//! Metric names are `dot.separated` lowercase (lint rule M1 enforces
//! the format and single registration); registration is get-or-create,
//! and a [`Registry`] built with [`Registry::disabled`] hands out
//! instruments whose recording paths are a single branch — the
//! metrics-off control `ccindex-serve`'s recording-overhead test
//! compares against.
//!
//! # Export
//!
//! [`Registry::to_json`] emits a hand-rolled JSON snapshot (one object
//! per metric, in name order); [`Registry::to_prometheus`] emits a
//! Prometheus-style text dump with dots mapped to underscores.

#![deny(unsafe_op_in_unsafe_fn)]

mod span;

pub use span::{elapsed_ns, format_ns, next_span_id, Span, SpanNode};

use std::collections::BTreeMap;

use ccindex_parallel::sync::atomic::{AtomicU64, Ordering};
use ccindex_parallel::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// A monotonic event tally. Recording is one relaxed atomic add (or a
/// single branch when the owning registry is disabled).
#[derive(Debug)]
pub struct Counter {
    enabled: bool,
    value: AtomicU64,
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        if !self.enabled {
            return;
        }
        // ORDERING: Relaxed — a counter is an after-the-fact tally; no
        // other memory is published through it.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current tally.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `add`.
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A point-in-time level (queue depth, catalog generation) that also
/// tracks the highest level ever set.
#[derive(Debug)]
pub struct Gauge {
    enabled: bool,
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            value: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// Set the current level, raising the high-water mark if `v`
    /// exceeds it.
    pub fn set(&self, v: u64) {
        if !self.enabled {
            return;
        }
        // ORDERING: Relaxed — gauges are sampled levels; readers
        // tolerate seeing the store slightly early or late.
        self.value.store(v, Ordering::Relaxed);
        // CAS-raise the high-water mark (the model-checker shims have
        // no fetch_max, and a relaxed max needs no ordering anyway).
        let hw = &self.high_water;
        // ORDERING: Relaxed — monotonic maximum, same tally argument.
        let mut seen = hw.load(Ordering::Relaxed);
        while v > seen {
            // ORDERING: Relaxed — as above; a lost race just rereads.
            match hw.compare_exchange_weak(seen, v, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `set`.
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set.
    pub fn high_water(&self) -> u64 {
        // ORDERING: Relaxed — see `set`.
        self.high_water.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Bucket subdivision: each power-of-two decade splits into `1 << 3`
/// sub-buckets, bounding the relative error of a bucket ceiling at
/// 1/8 = 12.5%.
const SUB_BITS: u32 = 3;

/// Total bucket count: values 0–7 get exact buckets, then 8 sub-buckets
/// per exponent 3..=63.
pub const BUCKETS: usize = 496;

/// The bucket index `value` lands in. Monotonic in `value`.
pub fn bucket_of(value: u64) -> usize {
    if value < 8 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (exp - SUB_BITS as usize)) & 7) as usize;
        ((exp - 2) << SUB_BITS) | sub
    }
}

/// The largest value that lands in `bucket` — what percentiles report,
/// so a reported quantile never understates the true sample.
pub fn bucket_ceiling(bucket: usize) -> u64 {
    if bucket < 8 {
        bucket as u64
    } else {
        let exp = (bucket >> SUB_BITS) + 2;
        let sub = (bucket & 7) as u128;
        // In u128: the top bucket's ceiling is 2^64 - 1.
        let ceiling = ((8 + sub + 1) << (exp - SUB_BITS as usize)) - 1;
        u64::try_from(ceiling).unwrap_or(u64::MAX)
    }
}

/// A log-bucketed latency distribution. `record` is lock-free (three
/// relaxed atomic adds); percentiles come from a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    enabled: bool,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample (a nanosecond latency, a window size, ...).
    pub fn record(&self, value: u64) {
        if !self.enabled {
            return;
        }
        // ORDERING: Relaxed — every bucket is an independent tally;
        // readers take an instantaneous snapshot and tolerate records
        // still in flight.
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — as above.
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copy the current bucket tallies out for percentile math.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ORDERING: Relaxed — see `record`; the snapshot is a
        // statistical read, not a synchronisation point.
        let read = |b: &AtomicU64| b.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: self.buckets.iter().map(read).collect(),
            sum: read(&self.sum),
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    /// Convenience for `snapshot().percentile(p)`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }
}

/// An owned copy of a histogram's bucket tallies: answers percentiles
/// and merges associatively across shards or threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl HistogramSnapshot {
    /// An empty distribution (the merge identity).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            sum: 0,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `p`-th percentile (0 < p ≤ 100) as a bucket ceiling: the
    /// reported value is ≥ the exact order statistic and lands in the
    /// same bucket, so the relative overstatement is bounded by the
    /// bucket width (12.5%). Returns 0 on an empty distribution.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil() as u64;
        let rank = rank.clamp(1, total);
        let mut cum = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_ceiling(bucket);
            }
        }
        bucket_ceiling(BUCKETS - 1)
    }

    /// Fold `other`'s tallies into this distribution (commutative and
    /// associative — bucket-wise addition; the sample sum wraps, same
    /// as the underlying atomic adds).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of instruments. Registration takes the registry
/// lock once and hands back an `Arc` handle; recording through the
/// handle never locks.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `name` follows the metric naming convention: lowercase
/// `dot.separated` segments of `[a-z0-9]` (lint rule M1 enforces the
/// same shape on source literals).
pub fn valid_metric_name(name: &str) -> bool {
    name.contains('.')
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        })
}

impl Registry {
    /// A live registry: instruments record.
    pub fn new() -> Self {
        Self {
            enabled: true,
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// A disabled registry: instruments are handed out as usual but
    /// every recording path returns after one branch — the metrics-off
    /// control for overhead measurements.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether instruments from this registry record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn map(&self) -> ccindex_parallel::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn register(&self, name: &str, make: impl FnOnce(bool) -> Metric) -> Metric {
        assert!(
            valid_metric_name(name),
            "metric name `{name}` is not dot.separated lowercase"
        );
        let mut map = self.map();
        let entry = map
            .entry(name.to_owned())
            .or_insert_with(|| make(self.enabled));
        match entry {
            Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
            Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
            Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
        }
    }

    /// Get or register the counter `name`. Panics if `name` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, |on| Metric::Counter(Arc::new(Counter::new(on)))) {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name`. Panics if `name` is already
    /// registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, |on| Metric::Gauge(Arc::new(Gauge::new(on)))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name`. Panics if `name` is
    /// already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, |on| Metric::Histogram(Arc::new(Histogram::new(on)))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// Look up an already-registered counter without registering.
    pub fn find_counter(&self, name: &str) -> Option<Arc<Counter>> {
        match self.map().get(name) {
            Some(Metric::Counter(c)) => Some(Arc::clone(c)),
            _ => None,
        }
    }

    /// Look up an already-registered gauge without registering.
    pub fn find_gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        match self.map().get(name) {
            Some(Metric::Gauge(g)) => Some(Arc::clone(g)),
            _ => None,
        }
    }

    /// Look up an already-registered histogram without registering.
    pub fn find_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        match self.map().get(name) {
            Some(Metric::Histogram(h)) => Some(Arc::clone(h)),
            _ => None,
        }
    }

    /// Registered metric names, in name order.
    pub fn names(&self) -> Vec<String> {
        self.map().keys().cloned().collect()
    }

    /// One JSON snapshot of every metric, in name order: a `metrics`
    /// array of objects tagged by `kind`, integer values, strings escaped
    /// by hand (the workspace takes no dependencies):
    ///
    /// ```json
    /// {"metrics": [
    ///   {"kind": "counter", "name": "transport.retries", "value": 2},
    ///   {"kind": "gauge", "name": "serve.queue.depth", "value": 0, "high_water": 7},
    ///   {"kind": "histogram", "name": "serve.latency.ns",
    ///    "count": 100, "sum": 12345, "p50": 95, "p90": 191, "p99": 223}
    /// ]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\": [");
        for (i, (name, metric)) in self.map().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!(
                    "{{\"kind\": \"counter\", \"name\": {}, \"value\": {}}}",
                    json_string(name),
                    c.get()
                )),
                Metric::Gauge(g) => out.push_str(&format!(
                    "{{\"kind\": \"gauge\", \"name\": {}, \"value\": {}, \"high_water\": {}}}",
                    json_string(name),
                    g.get(),
                    g.high_water()
                )),
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    out.push_str(&format!(
                        "{{\"kind\": \"histogram\", \"name\": {}, \"count\": {}, \"sum\": {}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                        json_string(name),
                        snap.count(),
                        snap.sum(),
                        snap.percentile(50.0),
                        snap.percentile(90.0),
                        snap.percentile(99.0)
                    ));
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// A Prometheus-style text dump: metric names with dots mapped to
    /// underscores, histograms rendered as summaries with p50/p90/p99
    /// quantile lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.map().iter() {
            let flat = name.replace('.', "_");
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {flat} counter\n{flat} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {flat} gauge\n{flat} {}\n", g.get()));
                    out.push_str(&format!(
                        "# TYPE {flat}_high_water gauge\n{flat}_high_water {}\n",
                        g.high_water()
                    ));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    out.push_str(&format!("# TYPE {flat} summary\n"));
                    for (q, p) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
                        out.push_str(&format!(
                            "{flat}{{quantile=\"{q}\"}} {}\n",
                            snap.percentile(p)
                        ));
                    }
                    out.push_str(&format!("{flat}_sum {}\n", snap.sum()));
                    out.push_str(&format!("{flat}_count {}\n", snap.count()));
                }
            }
        }
        out
    }
}

/// Quote and escape `s` as a JSON string literal (same escaping the
/// bench reports use).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_tally() {
        let reg = Registry::new();
        let c = reg.counter("test.hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("test.depth");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("test.hits");
        let g = reg.gauge("test.depth");
        let h = reg.histogram("test.lat.ns");
        c.add(10);
        g.set(10);
        h.record(10);
        assert_eq!(c.get(), 0);
        assert_eq!(g.high_water(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registration_is_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("test.hits");
        reg.find_counter("test.hits").expect("registered").inc();
        assert_eq!(a.get(), 1);
        assert!(reg.find_counter("test.other").is_none());
        assert!(reg.find_gauge("test.hits").is_none());
        assert_eq!(reg.names(), vec!["test.hits".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn cross_kind_registration_panics() {
        let reg = Registry::new();
        let _ = reg.counter("test.hits");
        let _ = reg.gauge("test.hits");
    }

    #[test]
    #[should_panic(expected = "not dot.separated lowercase")]
    fn malformed_names_panic() {
        let _ = Registry::new().counter("NotValid");
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("serve.latency.ns"));
        assert!(valid_metric_name("a.b2"));
        assert!(!valid_metric_name("nodot"));
        assert!(!valid_metric_name("Upper.case"));
        assert!(!valid_metric_name("trailing.dot."));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("dou..ble"));
        assert!(!valid_metric_name("da-sh.es"));
    }

    #[test]
    fn buckets_are_monotonic_and_ceilings_contain() {
        let mut prev = 0;
        for v in [0u64, 1, 7, 8, 9, 100, 1 << 20, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of must be monotonic");
            prev = b;
            assert!(bucket_ceiling(b) >= v, "ceiling contains the value");
            assert_eq!(bucket_of(bucket_ceiling(b)), b, "ceiling stays in bucket");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_ceiling(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentiles_report_bucket_ceilings() {
        let reg = Registry::new();
        let h = reg.histogram("test.lat.ns");
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.sum(), 5050);
        // Exact order statistics: p50 = 50, p99 = 99; reported values
        // are the containing bucket's ceiling.
        assert_eq!(snap.percentile(50.0), bucket_ceiling(bucket_of(50)));
        assert_eq!(snap.percentile(99.0), bucket_ceiling(bucket_of(99)));
        assert!(snap.percentile(50.0) >= 50);
        assert!(snap.percentile(99.0) >= 99);
        assert_eq!(HistogramSnapshot::empty().percentile(50.0), 0);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let reg = Registry::new();
        let a = reg.histogram("test.a.ns");
        let b = reg.histogram("test.b.ns");
        for v in 0..50u64 {
            a.record(v);
        }
        for v in 50..100u64 {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 100);
        assert_eq!(merged.sum(), (0..100).sum::<u64>());
        assert_eq!(merged.percentile(99.0), bucket_ceiling(bucket_of(99)));
    }

    #[test]
    fn json_and_prometheus_dumps_cover_every_kind() {
        let reg = Registry::new();
        reg.counter("test.hits").add(3);
        reg.gauge("test.depth").set(2);
        reg.histogram("test.lat.ns").record(100);
        let json = reg.to_json();
        assert!(json.starts_with("{\"metrics\": ["), "{json}");
        assert!(json.contains("\"kind\": \"counter\", \"name\": \"test.hits\", \"value\": 3"));
        assert!(json.contains(
            "\"kind\": \"gauge\", \"name\": \"test.depth\", \"value\": 2, \"high_water\": 2"
        ));
        assert!(json.contains("\"kind\": \"histogram\", \"name\": \"test.lat.ns\", \"count\": 1"));
        let prom = reg.to_prometheus();
        assert!(
            prom.contains("# TYPE test_hits counter\ntest_hits 3\n"),
            "{prom}"
        );
        assert!(prom.contains("test_depth_high_water 2\n"));
        assert!(prom.contains("test_lat_ns{quantile=\"0.99\"}"));
        assert!(prom.contains("test_lat_ns_count 1\n"));
    }
}
