//! Fleet telemetry for the `ropuf` serving stack.
//!
//! Zero-dependency (below [`ropuf_numeric`]) observability primitives,
//! built for the workspace's threat model and performance envelope:
//!
//! * [`metrics`] — striped, cache-padded [`Counter`]s and [`Gauge`]s
//!   (`Relaxed` increments, exact aggregated reads) and mergeable
//!   [`TimerHistogram`]s, replacing the old per-server `SeqCst` stats.
//! * [`registry`] — an instantiable [`Registry`] of named, labeled
//!   metrics; [`Registry::snapshot`] freezes everything into a sorted,
//!   mergeable [`Snapshot`].
//! * [`trace`] — a fixed-capacity, never-blocking [`TraceRing`] that
//!   keeps a [`TraceRecord`] (message type, hashed device id, per-phase
//!   timings, worker id) for every request slower than a configurable
//!   threshold, plus the phase names ([`SERIES_PHASES`]) the serving
//!   layer labels its per-phase histograms with.
//! * [`codec`] — the CRC-guarded `ropuf-metrics/v1` and
//!   `ropuf-trace/v1` binary blobs that `MetricsSnapshot`/`TraceDump`
//!   wire exchanges carry; decoding is bounds-checked and never panics.
//!
//! The serving layers each own a registry (`server.*`, `verifier.*`
//! namespaces); the server merges them at scrape time, so one
//! `MetricsSnapshot` request observes the whole stack.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use codec::{crc32, MetricsDecodeError, CODEC_VERSION, METRICS_MAGIC, TRACE_MAGIC};
pub use metrics::{Counter, Gauge, TimerHistogram, STRIPES};
pub use registry::{
    HistogramSnapshot, MetricSample, MetricValue, Registry, Snapshot, MAX_LABELS, MAX_LABEL_KEY,
    MAX_LABEL_VALUE, MAX_METRICS, MAX_NAME,
};
pub use trace::{TraceRecord, TraceRing, TraceSnapshot, MAX_TRACE_RECORDS, SERIES_PHASES};
