//! The process-wide metrics registry: named atomic counters, gauges
//! and fixed-bucket log-scale histograms. Every exported series is one
//! of these handles; [`Registry::render`] reads them and nothing else.
//!
//! # Hot-path design
//!
//! Recording is one or two `Relaxed` atomic operations on a handle the
//! call site resolved once (see the [`counter!`](crate::counter),
//! [`gauge!`](crate::gauge) and [`histogram!`](crate::histogram)
//! macros, which cache the `Arc` in a per-site `OnceLock`). Nothing on
//! the record path allocates, formats or takes a lock; the registry's
//! `RwLock` is touched only on first resolution and at scrape time.
//!
//! Histograms use 48 power-of-two nanosecond buckets, so p50/p90/p99
//! and max are derivable at scrape time from a stack-copied bucket
//! array — no allocation, no reservoir, no per-record branching beyond
//! a `leading_zeros`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, open connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log-scale buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes zero), so the top
/// bucket starts at `2^47` ns ≈ 39 hours — wider than any latency this
/// stack can produce.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed-bucket log-scale latency histogram. Recording is one
/// `leading_zeros` plus three `Relaxed` atomic adds; percentiles are
/// derived at read time from a stack copy of the buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Sum of recorded values, nanoseconds.
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket a nanosecond value lands in.
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The inclusive upper bound (ns) reported for bucket `i`.
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// Record one sample: nanoseconds in a `_seconds` histogram, else
    /// the unit its name says (bytes, say).
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record one sample from a [`std::time::Duration`].
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Fold another histogram's samples into this one (bench
    /// aggregation across per-thread histograms).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (individual fields
    /// are `Relaxed`; scrapes tolerate a sample's worth of skew).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// The value (ns) at quantile `q` in `[0, 1]` — an upper bound of
    /// the bucket the quantile falls in. Zero when empty.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        self.snapshot().percentile_ns(q)
    }
}

/// A plain (non-atomic) copy of a histogram's state; all derivation
/// math lives here so it is unit-testable without timing.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of samples, nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// The value (ns) at quantile `q` in `[0, 1]`: the upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q·count)`,
    /// clamped to the observed max. Zero when empty.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without floats drifting below one sample.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    label: Option<(String, String)>,
}

/// The process-wide registry behind [`registry`](crate::registry).
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<MetricKey, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<MetricKey, Arc<T>>>, key: MetricKey) -> Arc<T> {
    if let Some(found) = map.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return Arc::clone(found);
    }
    let mut map = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(key).or_default())
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_labeled(name, None)
    }

    /// A labeled counter (`name{key="value"}`).
    pub fn counter_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Arc<Counter> {
        get_or_insert(&self.counters, key(name, label))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, None)
    }

    /// A labeled gauge.
    pub fn gauge_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Arc<Gauge> {
        get_or_insert(&self.gauges, key(name, label))
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_labeled(name, None)
    }

    /// A labeled histogram.
    pub fn histogram_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Arc<Histogram> {
        get_or_insert(&self.histograms, key(name, label))
    }

    /// Current value of a counter, zero if it was never touched
    /// (assertions in tests; the scrape path uses [`Registry::render`]).
    pub fn counter_value(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key(name, label))
            .map_or(0, |c| c.get())
    }

    /// Current value of a gauge, zero if it was never touched.
    pub fn gauge_value(&self, name: &str, label: Option<(&str, &str)>) -> i64 {
        self.gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key(name, label))
            .map_or(0, |g| g.get())
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format. Histograms render as summaries (`{quantile="…"}`) plus
    /// `_sum`/`_count`/`_max`; the name says the unit: a `_seconds`
    /// histogram recorded nanoseconds and renders seconds, any other
    /// renders its samples as recorded (bytes, counts).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut last_name = String::new();
        let mut typeline = |out: &mut String, name: &str, kind: &str| {
            if last_name != name {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                last_name = name.to_owned();
            }
        };
        for (k, c) in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            typeline(&mut out, &k.name, "counter");
            push_sample(&mut out, &k.name, label_slice(k), &format_u64(c.get()));
        }
        for (k, g) in self.gauges.read().unwrap_or_else(|e| e.into_inner()).iter() {
            typeline(&mut out, &k.name, "gauge");
            push_sample(&mut out, &k.name, label_slice(k), &g.get().to_string());
        }
        for (k, h) in self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            typeline(&mut out, &k.name, "summary");
            let snap = h.snapshot();
            let value: fn(u64) -> String = if k.name.ends_with("_seconds") {
                format_seconds
            } else {
                format_u64
            };
            for q in [0.5, 0.9, 0.99] {
                let mut labels = label_vec(k);
                labels.push(("quantile".to_owned(), format!("{q}")));
                push_sample(&mut out, &k.name, &labels, &value(snap.percentile_ns(q)));
            }
            let labels = label_vec(k);
            push_sample(
                &mut out,
                &format!("{}_sum", k.name),
                &labels,
                &value(snap.sum_ns),
            );
            push_sample(
                &mut out,
                &format!("{}_count", k.name),
                &labels,
                &format_u64(snap.count),
            );
            push_sample(
                &mut out,
                &format!("{}_max", k.name),
                &labels,
                &value(snap.max_ns),
            );
        }
        out
    }
}

fn key(name: &str, label: Option<(&str, &str)>) -> MetricKey {
    MetricKey {
        name: name.to_owned(),
        label: label.map(|(k, v)| (k.to_owned(), v.to_owned())),
    }
}

fn label_vec(k: &MetricKey) -> Vec<(String, String)> {
    k.label
        .as_ref()
        .map(|(lk, lv)| vec![(lk.clone(), lv.clone())])
        .unwrap_or_default()
}

fn label_slice(k: &MetricKey) -> &[(String, String)] {
    k.label.as_slice()
}

fn push_sample(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&crate::escape(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn format_u64(v: u64) -> String {
    v.to_string()
}

fn format_seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index((1 << 20) - 1), 19);
        assert_eq!(bucket_index(1 << 20), 20);
        // Everything past the top bucket clamps into it.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_ns(0), 1);
        assert_eq!(bucket_upper_ns(4), 31);
    }

    #[test]
    fn percentile_math_on_a_known_distribution() {
        let h = Histogram::default();
        assert_eq!(h.percentile_ns(0.99), 0, "empty histogram");
        // 90 fast samples (~1µs) and 10 slow ones (~1ms).
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let p50 = h.percentile_ns(0.50);
        let p99 = h.percentile_ns(0.99);
        assert!(
            (1_000..2_048).contains(&p50),
            "p50 must land in the 1µs bucket, got {p50}"
        );
        assert!(
            (1_000_000..2_097_152).contains(&p99),
            "p99 must land in the 1ms bucket, got {p99}"
        );
        assert!(h.percentile_ns(1.0) >= p99);
        assert_eq!(h.snapshot().max_ns, 1_000_000);
        assert_eq!(h.snapshot().count, 100);
    }

    #[test]
    fn merge_adds_bucket_counts_and_keeps_max() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record_ns(10);
        b.record_ns(10);
        b.record_ns(1 << 30);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[bucket_index(10)], 2);
        assert_eq!(snap.max_ns, 1 << 30);
        assert_eq!(snap.sum_ns, 10 + 10 + (1 << 30));
    }

    #[test]
    fn registry_handles_are_shared_and_render() {
        let r = Registry::default();
        r.counter("test_total").add(3);
        r.counter("test_total").add(4);
        assert_eq!(r.counter_value("test_total", None), 7);
        r.counter_labeled("by_tenant_total", Some(("tenant", "acme")))
            .inc();
        r.gauge("depth").set(5);
        r.histogram("lat_seconds").record_ns(1_000);
        let text = r.render();
        assert!(text.contains("# TYPE test_total counter"));
        assert!(text.contains("test_total 7"));
        assert!(text.contains("by_tenant_total{tenant=\"acme\"} 1"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 5"));
        assert!(text.contains("lat_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("lat_seconds_count 1"));
    }

    #[test]
    fn only_seconds_histograms_render_scaled() {
        let r = Registry::default();
        r.histogram("io_bytes").record_ns(2_048);
        r.histogram("io_seconds").record_ns(1_500_000_000);
        let text = r.render();
        assert!(text.contains("io_bytes_sum 2048\n"), "{text}");
        assert!(text.contains("io_bytes_max 2048\n"), "{text}");
        assert!(text.contains("io_seconds_sum 1.5\n"), "{text}");
        assert!(text.contains("io_seconds_max 1.5\n"), "{text}");
    }
}
