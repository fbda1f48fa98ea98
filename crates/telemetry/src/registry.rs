//! The metric registry and its point-in-time [`Snapshot`].
//!
//! A [`Registry`] is an instantiable (not process-global) namespace of
//! named, labeled metrics. Each server backend and each verifier owns
//! its own registry, so tests running many stacks in one process never
//! see each other's numbers; a registry clone is a cheap handle onto
//! the same metrics. Registration (`counter`/`gauge`/`histogram`) takes
//! a lock and is meant for setup paths; the returned handles are then
//! incremented lock-free on the hot path.
//!
//! [`Registry::snapshot`] freezes every metric into a [`Snapshot`] —
//! sorted, self-contained, mergeable — which is what travels the wire
//! as a `ropuf-metrics/v1` blob (see [`crate::codec`]) and renders as
//! human text.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use ropuf_numeric::{Histogram, SparseHistogramError};

use crate::metrics::{Counter, Gauge, TimerHistogram};

/// Longest metric name the codec accepts.
pub const MAX_NAME: usize = 256;
/// Most labels per metric.
pub const MAX_LABELS: usize = 8;
/// Longest label key.
pub const MAX_LABEL_KEY: usize = 64;
/// Longest label value.
pub const MAX_LABEL_VALUE: usize = 256;
/// Most metrics per snapshot.
pub const MAX_METRICS: usize = 4096;

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(TimerHistogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// An instantiable metric namespace. Clones share the same metrics.
#[derive(Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().expect("registry lock");
        f.debug_struct("Registry")
            .field("metrics", &entries.len())
            .finish()
    }
}

fn canonical_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

fn check_identity(name: &str, labels: &[(String, String)]) {
    assert!(
        !name.is_empty() && name.len() <= MAX_NAME,
        "metric name must be 1..={MAX_NAME} bytes"
    );
    assert!(labels.len() <= MAX_LABELS, "at most {MAX_LABELS} labels");
    for (k, v) in labels {
        assert!(
            !k.is_empty() && k.len() <= MAX_LABEL_KEY && v.len() <= MAX_LABEL_VALUE,
            "label {k}={v} exceeds the codec caps"
        );
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        wrap: impl FnOnce(T) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<T>,
        fresh: impl FnOnce() -> T,
    ) -> T {
        let labels = canonical_labels(labels);
        check_identity(name, &labels);
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(entry) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return unwrap(&entry.metric).unwrap_or_else(|| {
                panic!(
                    "metric {name} already registered as a {}",
                    entry.metric.kind()
                )
            });
        }
        assert!(entries.len() < MAX_METRICS, "registry full ({MAX_METRICS})");
        let handle = fresh();
        entries.push(Entry {
            name: name.to_string(),
            labels,
            metric: wrap(handle.clone()),
        });
        handle
    }

    /// The counter `name{labels}`, creating it on first use. Repeated
    /// registration with the same identity returns a handle onto the
    /// same counter; re-registering the identity as a different metric
    /// kind panics (a programming error, caught at setup time).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.register(
            name,
            labels,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// The gauge `name{labels}`, creating it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register(
            name,
            labels,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// The latency histogram `name{labels}`, creating it on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> TimerHistogram {
        self.register(
            name,
            labels,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            TimerHistogram::new,
        )
    }

    /// Freezes every metric into a sorted, self-contained [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry lock");
        let mut metrics: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        MetricValue::Histogram(HistogramSnapshot::from_histogram(&h.merged()))
                    }
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { metrics }
    }
}

/// One metric's frozen value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic event count.
    Counter(u64),
    /// A two-way gauge.
    Gauge(u64),
    /// A latency distribution.
    Histogram(HistogramSnapshot),
}

/// The exported parts of a [`Histogram`]: scalars plus the sparse
/// non-zero buckets. [`HistogramSnapshot::to_histogram`] rebuilds the
/// exact histogram (validated), so a decoded snapshot computes the same
/// quantiles the server would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Exact sample sum.
    pub sum: u128,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` pairs, strictly ascending, no zeros.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Exports a histogram's mergeable parts.
    pub fn from_histogram(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.sparse_counts(),
        }
    }

    /// Rebuilds the exact [`Histogram`], validating every invariant.
    pub fn to_histogram(&self) -> Result<Histogram, SparseHistogramError> {
        Histogram::from_sparse(self.count, self.sum, self.min, self.max, &self.buckets)
    }
}

/// One named, labeled metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Dotted metric name, e.g. `server.requests`.
    pub name: String,
    /// Sorted `(key, value)` labels.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// A frozen, sorted, self-contained set of metric values — what a
/// `MetricsSnapshot` wire request returns and what a benchmark
/// correlates against client-side measurements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Samples sorted by `(name, labels)`.
    pub metrics: Vec<MetricSample>,
}

impl Snapshot {
    /// The value of `name{labels}` (labels in any order), if present.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let labels = canonical_labels(labels);
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
            .map(|m| &m.value)
    }

    /// Sum of every counter named `name`, across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Total samples across every histogram named `name`.
    pub fn histogram_samples(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match &m.value {
                MetricValue::Histogram(h) => Some(h.count),
                _ => None,
            })
            .sum()
    }

    /// Folds `other` into `self` by metric identity: counters and
    /// gauges add, histograms merge, unknown identities append. Two
    /// layers exporting disjoint namespaces (`server.*`, `verifier.*`)
    /// concatenate losslessly; overlapping identities combine exactly.
    pub fn merge(&mut self, other: Snapshot) {
        for sample in other.metrics {
            match self
                .metrics
                .iter_mut()
                .find(|m| m.name == sample.name && m.labels == sample.labels)
            {
                None => self.metrics.push(sample),
                Some(mine) => match (&mut mine.value, sample.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.wrapping_add(b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                        *a = a.wrapping_add(b);
                    }
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                        let merged = match (a.to_histogram(), b.to_histogram()) {
                            (Ok(mut ha), Ok(hb)) => {
                                ha.merge(&hb);
                                HistogramSnapshot::from_histogram(&ha)
                            }
                            // Unvalidatable parts (never produced by our
                            // own registries): keep ours.
                            _ => a.clone(),
                        };
                        *a = merged;
                    }
                    // Kind clash between layers: keep ours.
                    (_, _) => {}
                },
            }
        }
        self.metrics
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    /// Human rendering: one line per metric, histograms as their
    /// summary percentiles (µs).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let labels = render_labels(&m.labels);
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "counter   {}{} = {}", m.name, labels, v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "gauge     {}{} = {}", m.name, labels, v);
                }
                MetricValue::Histogram(h) => match h.to_histogram() {
                    // Raw bucket values: histograms are unit-agnostic
                    // here (the metric name carries the unit suffix).
                    Ok(hist) => {
                        let s = hist.summary();
                        let _ = writeln!(
                            out,
                            "histogram {}{} n={} p50={} p90={} p99={} p999={} max={}",
                            m.name, labels, s.count, s.p50, s.p90, s.p99, s.p999, s.max
                        );
                    }
                    Err(_) => {
                        let _ = writeln!(out, "histogram {}{} <invalid parts>", m.name, labels);
                    }
                },
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_snapshot_sorted() {
        let registry = Registry::new();
        let a = registry.counter("b.requests", &[("backend", "evented")]);
        let b = registry.counter("b.requests", &[("backend", "evented")]);
        a.inc();
        b.inc();
        registry.counter("a.zzz", &[]).add(5);
        registry.gauge("b.open", &[]).add(2);
        registry
            .histogram("c.latency", &[("phase", "handle")])
            .record(1000);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a.zzz", "b.open", "b.requests", "c.latency"]);
        assert_eq!(
            snap.find("b.requests", &[("backend", "evented")]),
            Some(&MetricValue::Counter(2)),
            "both handles hit the same counter"
        );
        assert_eq!(snap.counter_total("a.zzz"), 5);
        assert_eq!(snap.histogram_samples("c.latency"), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics_at_registration() {
        let registry = Registry::new();
        registry.counter("x", &[]);
        registry.gauge("x", &[]);
    }

    #[test]
    fn label_order_does_not_matter() {
        let registry = Registry::new();
        let a = registry.counter("m", &[("a", "1"), ("b", "2")]);
        let b = registry.counter("m", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(registry.snapshot().metrics.len(), 1);
    }

    #[test]
    fn merge_adds_and_appends() {
        let r1 = Registry::new();
        r1.counter("shared", &[]).add(3);
        r1.histogram("lat", &[]).record(100);
        let r2 = Registry::new();
        r2.counter("shared", &[]).add(4);
        r2.counter("only2", &[]).inc();
        r2.histogram("lat", &[]).record(200);
        let mut merged = r1.snapshot();
        merged.merge(r2.snapshot());
        assert_eq!(merged.counter_total("shared"), 7);
        assert_eq!(merged.counter_total("only2"), 1);
        assert_eq!(merged.histogram_samples("lat"), 2);
    }

    #[test]
    fn render_text_mentions_every_metric() {
        let registry = Registry::new();
        registry.counter("served", &[("x", "y")]).add(9);
        registry.histogram("lat", &[]).record(2_000);
        let text = registry.snapshot().render_text();
        assert!(text.contains("served{x=y} = 9"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }

    /// Golden rendering over a fixed registry: the exact text is part
    /// of the operator-facing contract, so format drift must be a
    /// conscious change here, not an accident.
    #[test]
    fn render_text_golden() {
        let registry = Registry::new();
        registry
            .counter("server.requests", &[("backend", "evented")])
            .add(42);
        registry
            .gauge("server.connections.open", &[("backend", "evented")])
            .add(3);
        let h = registry.histogram("server.request.total_ns", &[("backend", "evented")]);
        for _ in 0..10 {
            h.record(1_000);
        }
        h.record(64_000);
        registry.counter("unlabeled.total", &[]).add(7);
        registry.histogram("empty.hist_ns", &[]);
        let text = registry.snapshot().render_text();
        let expected = "\
histogram empty.hist_ns n=0 p50=0 p90=0 p99=0 p999=0 max=0
gauge     server.connections.open{backend=evented} = 3
histogram server.request.total_ns{backend=evented} n=11 p50=1000 p90=1000 p99=63488 p999=63488 max=64000
counter   server.requests{backend=evented} = 42
counter   unlabeled.total = 7
";
        assert_eq!(text, expected);
    }
}
