//! Per-window metrics registry: named counters, gauges, and histograms
//! that substrate components register once and update cheaply.
//!
//! Registration happens at machine construction (a linear name lookup,
//! off the hot path); updates go through a dense [`MetricId`] index —
//! one bounds-checked array access, no hashing, no allocation. The
//! registry is snapshotted at every sampling-window boundary into the
//! window record: counters report their delta over the window, gauges
//! their current value, histograms the mean **and** deterministic
//! p50/p90/p99/p999 quantiles of the values observed during the window
//! (and then reset). Every histogram therefore contributes five
//! snapshot entries, labelled by the `&'static str` names supplied at
//! registration via [`HistogramNames`] — the snapshot stays a flat
//! `(&'static str, f64)` list, allocated in one exact-capacity `Vec`
//! per window. Snapshot order is registration order, so reports are
//! deterministic.

use pact_stats::codec::{ByteReader, ByteWriter, Codec, CodecError, State};
use pact_stats::LogHistogram;

/// Dense handle to a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count; snapshots report the per-window delta.
    Counter,
    /// Point-in-time value; snapshots report the latest set value.
    Gauge,
    /// Distribution of observed values; snapshots report the window
    /// mean plus p50/p90/p99/p999 and reset the distribution.
    Histogram,
}

/// The five snapshot labels of one histogram. Snapshot entries are
/// `(&'static str, f64)` pairs, so the quantile labels must be string
/// literals too — callers declare one of these as a `static` next to
/// the registration site.
#[derive(Debug, Clone, Copy)]
pub struct HistogramNames {
    /// Label of the window-mean entry (the histogram's canonical name).
    pub mean: &'static str,
    /// Label of the median entry.
    pub p50: &'static str,
    /// Label of the 90th-percentile entry.
    pub p90: &'static str,
    /// Label of the 99th-percentile entry.
    pub p99: &'static str,
    /// Label of the 99.9th-percentile entry.
    pub p999: &'static str,
}

/// Snapshot entries contributed by one histogram.
const HIST_ENTRIES: usize = 5;

#[derive(Debug, Clone)]
enum Value {
    Counter {
        total: u64,
        last_snapshot: u64,
    },
    Gauge(f64),
    Histogram {
        hist: LogHistogram,
        names: HistogramNames,
        sum: f64,
        n: u64,
    },
}

impl Value {
    /// Snapshot entries the metric contributes.
    fn width(&self) -> usize {
        match self {
            Value::Counter { .. } | Value::Gauge(_) => 1,
            Value::Histogram { .. } => HIST_ENTRIES,
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: Value,
}

/// The registry of named metrics for one machine run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
    /// Total snapshot entries across all metrics (histograms count 5),
    /// so the per-window snapshot `Vec` is sized exactly — one
    /// allocation, pinned by the window-allocation test.
    snapshot_width: usize,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &'static str, value: Value) -> MetricId {
        if let Some(i) = self.metrics.iter().position(|m| m.name == name) {
            return MetricId(i);
        }
        self.snapshot_width += value.width();
        self.metrics.push(Metric { name, value });
        MetricId(self.metrics.len() - 1)
    }

    /// Registers (or finds) a counter named `name`.
    pub fn counter(&mut self, name: &'static str) -> MetricId {
        self.register(
            name,
            Value::Counter {
                total: 0,
                last_snapshot: 0,
            },
        )
    }

    /// Registers (or finds) a gauge named `name`.
    pub fn gauge(&mut self, name: &'static str) -> MetricId {
        self.register(name, Value::Gauge(0.0))
    }

    /// Registers (or finds) a log-bucketed histogram. The histogram is
    /// keyed by `names.mean`; its five snapshot entries carry the five
    /// labels of `names` (see [`pact_stats::LogHistogram`] for the
    /// bucketing and quantile semantics).
    pub fn histogram(&mut self, names: HistogramNames) -> MetricId {
        self.register(
            names.mean,
            Value::Histogram {
                hist: LogHistogram::new(),
                names,
                sum: 0.0,
                n: 0,
            },
        )
    }

    /// Adds `by` to a counter.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a counter.
    #[inline]
    pub fn inc(&mut self, id: MetricId, by: u64) {
        match &mut self.metrics[id.0].value {
            Value::Counter { total, .. } => *total += by,
            _ => panic!("metric is not a counter"),
        }
    }

    /// Sets a gauge to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a gauge.
    #[inline]
    pub fn set(&mut self, id: MetricId, v: f64) {
        match &mut self.metrics[id.0].value {
            Value::Gauge(g) => *g = v,
            _ => panic!("metric is not a gauge"),
        }
    }

    /// Records `v` into a histogram. Values are bucketed as rounded
    /// non-negative integers (the simulator's cycle counts); negative
    /// or non-finite values clamp to 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a histogram.
    #[inline]
    pub fn observe(&mut self, id: MetricId, v: f64) {
        match &mut self.metrics[id.0].value {
            Value::Histogram { hist, sum, n, .. } => {
                let iv = if v.is_finite() && v > 0.0 {
                    v.round() as u64
                } else {
                    0
                };
                hist.record(iv);
                *sum += v;
                *n += 1;
            }
            _ => panic!("metric is not a histogram"),
        }
    }

    /// Current cumulative value of a counter.
    pub fn counter_total(&self, id: MetricId) -> u64 {
        match &self.metrics[id.0].value {
            Value::Counter { total, .. } => *total,
            _ => panic!("metric is not a counter"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry has no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Kind of a registered metric.
    pub fn kind(&self, id: MetricId) -> MetricKind {
        match &self.metrics[id.0].value {
            Value::Counter { .. } => MetricKind::Counter,
            Value::Gauge(_) => MetricKind::Gauge,
            Value::Histogram { .. } => MetricKind::Histogram,
        }
    }

    /// Appends one histogram's five snapshot entries.
    fn push_hist_entries(
        out: &mut Vec<(&'static str, f64)>,
        hist: &LogHistogram,
        names: &HistogramNames,
        sum: f64,
        n: u64,
    ) {
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        out.push((names.mean, mean));
        out.push((names.p50, hist.value_at_quantile(0.5) as f64));
        out.push((names.p90, hist.value_at_quantile(0.9) as f64));
        out.push((names.p99, hist.value_at_quantile(0.99) as f64));
        out.push((names.p999, hist.value_at_quantile(0.999) as f64));
    }

    /// Non-mutating preview of what [`snapshot_window`] would return
    /// right now: the same entries in the same order, with no
    /// per-window state reset. The invariant checker uses this to
    /// cross-check the snapshot actually embedded in a window record
    /// without perturbing the registry.
    ///
    /// [`snapshot_window`]: Self::snapshot_window
    pub fn peek_window(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::with_capacity(self.snapshot_width);
        for m in &self.metrics {
            match &m.value {
                Value::Counter {
                    total,
                    last_snapshot,
                } => out.push((m.name, (*total - *last_snapshot) as f64)),
                Value::Gauge(g) => out.push((m.name, *g)),
                Value::Histogram {
                    hist,
                    names,
                    sum,
                    n,
                } => {
                    Self::push_hist_entries(&mut out, hist, names, *sum, *n);
                }
            }
        }
        out
    }

    /// Closes the current window: returns one entry per counter/gauge
    /// (counter delta, gauge value) and five per histogram (window
    /// mean, p50, p90, p99, p999), all in registration order, and
    /// resets per-window state.
    pub fn snapshot_window(&mut self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::with_capacity(self.snapshot_width);
        for m in &mut self.metrics {
            match &mut m.value {
                Value::Counter {
                    total,
                    last_snapshot,
                } => {
                    let delta = *total - *last_snapshot;
                    *last_snapshot = *total;
                    out.push((m.name, delta as f64));
                }
                Value::Gauge(g) => out.push((m.name, *g)),
                Value::Histogram {
                    hist,
                    names,
                    sum,
                    n,
                } => {
                    Self::push_hist_entries(&mut out, hist, names, *sum, *n);
                    hist.reset();
                    *sum = 0.0;
                    *n = 0;
                }
            }
        }
        out
    }
}

pact_stats::codec! {
    impl Codec for Value {
        0 => Counter { total, last_snapshot },
        1 => Gauge(value),
        2 => Histogram { names, hist, sum, n },
    }
}

pact_stats::codec! {
    impl Codec for HistogramNames {
        p50, p90, p99, p999;
        mean: _, // the metric's own name, restored by the registry's decode
    }
}

pact_stats::codec! {
    impl Codec for Metric { name, value }
}

/// Every metric in registration order: name, kind and value.
///
/// Import is by position: entries already registered (the machine
/// re-registers its metrics during construction, in the same order as
/// the captured run) must match the serialized name and kind and take
/// the captured value; serialized entries beyond the current length,
/// metrics a policy registered mid-run, are appended. After a
/// successful decode the registry's registration order is identical to
/// the uninterrupted run's, so snapshots and reports stay
/// byte-identical.
impl State for MetricsRegistry {
    fn put_state(&self, w: &mut ByteWriter) {
        let Self {
            metrics,
            snapshot_width: _, // summed again from the decoded metrics
        } = self;
        metrics.put(w);
    }

    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let Self {
            metrics,
            snapshot_width,
        } = self;
        let mut decoded: Vec<Metric> = r.get()?;
        let invalid = |msg| Err(CodecError::Invalid(msg));
        if decoded.len() < metrics.len() {
            return invalid(format!(
                "metrics registry snapshot has {} entries but {} are already registered",
                decoded.len(),
                metrics.len()
            ));
        }
        for (i, (m, d)) in metrics.iter().zip(&decoded).enumerate() {
            if m.name != d.name {
                return invalid(format!(
                    "metrics registry mismatch at slot {i}: registered {:?}, snapshot has {:?}",
                    m.name, d.name
                ));
            }
            if std::mem::discriminant(&m.value) != std::mem::discriminant(&d.value) {
                return invalid(format!(
                    "metric {:?}: snapshot kind differs from registered kind",
                    d.name
                ));
            }
        }
        for m in &mut decoded {
            if let Value::Histogram { names, .. } = &mut m.value {
                names.mean = m.name;
            }
        }
        *snapshot_width = decoded.iter().map(|m| m.value.width()).sum();
        *metrics = decoded;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static LATENCY: HistogramNames = HistogramNames {
        mean: "pebs/latency",
        p50: "pebs/latency_p50",
        p90: "pebs/latency_p90",
        p99: "pebs/latency_p99",
        p999: "pebs/latency_p999",
    };

    static H: HistogramNames = HistogramNames {
        mean: "h",
        p50: "h_p50",
        p90: "h_p90",
        p99: "h_p99",
        p999: "h_p999",
    };

    #[test]
    fn counters_snapshot_deltas() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("daemon/executed");
        r.inc(c, 3);
        r.inc(c, 2);
        assert_eq!(r.counter_total(c), 5);
        assert_eq!(r.snapshot_window(), vec![("daemon/executed", 5.0)]);
        r.inc(c, 1);
        assert_eq!(r.snapshot_window(), vec![("daemon/executed", 1.0)]);
        // Quiet window: delta is zero, total is preserved.
        assert_eq!(r.snapshot_window(), vec![("daemon/executed", 0.0)]);
        assert_eq!(r.counter_total(c), 6);
    }

    #[test]
    fn gauges_report_latest_value() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("queue/len");
        r.set(g, 10.0);
        r.set(g, 4.0);
        assert_eq!(r.snapshot_window(), vec![("queue/len", 4.0)]);
        // Gauges persist across windows.
        assert_eq!(r.snapshot_window(), vec![("queue/len", 4.0)]);
    }

    #[test]
    fn histograms_report_window_mean_quantiles_and_reset() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram(LATENCY);
        r.observe(h, 200.0);
        r.observe(h, 400.0);
        let snap = r.snapshot_window();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0], ("pebs/latency", 300.0));
        assert_eq!(snap[1].0, "pebs/latency_p50");
        // p50 of {200, 400} is the rank-1 bucket: within 1/16 of 200.
        assert!((200.0..=214.0).contains(&snap[1].1), "p50 = {}", snap[1].1);
        // The top quantiles land on the 400 observation's bucket.
        for &(k, v) in &snap[2..5] {
            assert!((400.0..=426.0).contains(&v), "{k} = {v}");
        }
        // Reset: an empty window reports 0 everywhere.
        let quiet = r.snapshot_window();
        assert_eq!(quiet.len(), 5);
        assert!(quiet.iter().all(|&(_, v)| v == 0.0), "{quiet:?}");
        assert_eq!(r.kind(h), MetricKind::Histogram);
    }

    #[test]
    fn registration_is_idempotent_and_ordered() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        let b = r.gauge("b");
        let a2 = r.counter("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        r.inc(a, 1);
        r.set(b, 9.0);
        let snap = r.snapshot_window();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[1].0, "b");
        assert_eq!(r.kind(a), MetricKind::Counter);
        assert_eq!(r.kind(b), MetricKind::Gauge);
        // Re-registering a histogram does not double its width.
        let h = r.histogram(H);
        let h2 = r.histogram(H);
        assert_eq!(h, h2);
        assert_eq!(r.snapshot_window().len(), 7);
    }

    #[test]
    fn peek_matches_snapshot_and_does_not_reset() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram(H);
        r.inc(c, 7);
        r.set(g, 2.5);
        r.observe(h, 4.0);
        r.observe(h, 8.0);
        let peek = r.peek_window();
        assert_eq!(peek, r.peek_window(), "peeking must not mutate");
        assert_eq!(peek, r.snapshot_window());
        // After the snapshot reset, a fresh peek sees the new window.
        let quiet = r.peek_window();
        assert_eq!(quiet[0], ("c", 0.0));
        assert_eq!(quiet[1], ("g", 2.5));
        assert_eq!(
            &quiet[2..],
            &[
                ("h", 0.0),
                ("h_p50", 0.0),
                ("h_p90", 0.0),
                ("h_p99", 0.0),
                ("h_p999", 0.0)
            ]
        );
    }

    #[test]
    fn snapshot_capacity_is_exact() {
        let mut r = MetricsRegistry::new();
        r.counter("c");
        r.gauge("g");
        r.histogram(H);
        let snap = r.snapshot_window();
        assert_eq!(snap.len(), 7);
        assert_eq!(snap.capacity(), 7, "snapshot must allocate exactly once");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        r.set(c, 1.0);
    }

    #[test]
    fn state_round_trips_into_a_rebuilt_registry() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram(H);
        r.inc(c, 12);
        r.snapshot_window(); // establish a non-zero counter baseline
        r.inc(c, 3);
        r.set(g, -1.25);
        r.observe(h, 100.0);
        r.observe(h, 5000.0);
        let mut w = pact_stats::ByteWriter::new();
        r.put_state(&mut w);
        let bytes = w.into_bytes();
        // The resumed machine re-registers c and g during construction;
        // the policy-registered histogram is appended by the decode.
        let mut fresh = MetricsRegistry::new();
        fresh.counter("c");
        fresh.gauge("g");
        fresh
            .get_state(&mut pact_stats::ByteReader::new(&bytes))
            .unwrap();
        assert_eq!(fresh.len(), r.len());
        assert_eq!(fresh.counter_total(c), 15);
        assert_eq!(fresh.peek_window(), r.peek_window());
        assert_eq!(fresh.snapshot_window(), r.snapshot_window());
        // Post-reset windows stay in lockstep too (snapshot_width and
        // histogram reset behave identically).
        assert_eq!(fresh.snapshot_window(), r.snapshot_window());
    }

    #[test]
    fn decode_rejects_mismatched_registration() {
        let mut r = MetricsRegistry::new();
        r.counter("c");
        let mut w = pact_stats::ByteWriter::new();
        r.put_state(&mut w);
        let bytes = w.into_bytes();
        // Different name in slot 0.
        let mut other = MetricsRegistry::new();
        other.counter("different");
        let err = other
            .get_state(&mut pact_stats::ByteReader::new(&bytes))
            .unwrap_err();
        assert!(err.to_string().contains("slot 0"), "{err}");
        // Same name, different kind.
        let mut gauge = MetricsRegistry::new();
        gauge.gauge("c");
        let err = gauge
            .get_state(&mut pact_stats::ByteReader::new(&bytes))
            .unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        // More live registrations than the snapshot has.
        let mut extra = MetricsRegistry::new();
        extra.counter("c");
        extra.counter("d");
        assert!(extra
            .get_state(&mut pact_stats::ByteReader::new(&bytes))
            .is_err());
        // Truncated payload.
        let mut ok = MetricsRegistry::new();
        ok.counter("c");
        assert!(ok
            .get_state(&mut pact_stats::ByteReader::new(&bytes[..4]))
            .is_err());
    }

    #[test]
    fn crafted_histogram_bucket_count_is_an_error() {
        // One histogram whose bucket count claims 2^61 buckets: rejected
        // before anything is allocated.
        let mut w = pact_stats::ByteWriter::new();
        w.put(&(1usize, "lat", 2u8));
        w.put(&["lat_p50", "lat_p90", "lat_p99", "lat_p999"]);
        w.put(&((1usize << 61, 0usize), (0u64, 0u64), (0.0f64, 0u64)));
        let bytes = w.into_bytes();
        let err = MetricsRegistry::new()
            .get_state(&mut pact_stats::ByteReader::new(&bytes))
            .unwrap_err();
        assert!(err.to_string().contains("bucket count"), "{err}");
    }
}
