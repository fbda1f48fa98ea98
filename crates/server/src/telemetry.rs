//! Server-side telemetry: request/connection counters, per-message-type
//! phase latency histograms, per-lane saturation counters and the
//! slow-request trace ring — everything a wire scrape merges on top of
//! the verifier's own metrics.
//!
//! The [`EventedServer`](crate::EventedServer) owns one
//! [`ServerTelemetry`] and records into it once per served frame with
//! five phase durations covering the whole lifecycle the client can
//! observe: ready-wait (readiness to decode start), decode, handle,
//! flush, and flush-wait (out-buffer residency until the socket
//! drained). All hot-path writes are `Relaxed` striped-counter adds or
//! per-stripe histogram inserts; nothing here takes a process-wide
//! lock on the request path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ropuf_proto::{ErrorCode, RequestRef, Response};
use ropuf_telemetry::{
    Counter, Gauge, Registry, Snapshot, TimerHistogram, TraceRecord, TraceRing, TraceSnapshot,
    SERIES_PHASES,
};

/// The `msg` label of each request byte the decoder accepts, in
/// phase-table order. Every other byte, retired or hostile, counts
/// under [`OTHER_LABEL`], so no byte can mint a label of its own.
const MSG_LABELS: [(u8, &str); 9] = [
    (0x01, "hello"),
    (0x02, "enroll"),
    (0x03, "auth"),
    (0x04, "batch-auth"),
    (0x05, "query-verdict"),
    (0x07, "snapshot-v2"),
    (0x08, "metrics"),
    (0x09, "trace"),
    (0x0B, "loop-info"),
];

/// The catch-all `msg` label, in the phase table's last row.
const OTHER_LABEL: &str = "other";

/// Phase-table row of every byte: its index in [`MSG_LABELS`], or the
/// catch-all row after them.
const MSG_SLOTS: [u8; 256] = {
    let mut slots = [MSG_LABELS.len() as u8; 256];
    let mut i = 0;
    while i < MSG_LABELS.len() {
        slots[MSG_LABELS[i].0 as usize] = i as u8;
        i += 1;
    }
    slots
};

fn msg_slot(msg_type: u8) -> usize {
    usize::from(MSG_SLOTS[usize::from(msg_type)])
}

/// Label values for per-lane (event loop) saturation metrics. Lanes at
/// or beyond the table's end share one overflow bucket, so a huge loop
/// count cannot mint thousands of label sets.
const LANE_LABELS: [&str; 33] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28", "29", "30", "31",
    "32+",
];

fn lane_label(lane: u32) -> &'static str {
    LANE_LABELS
        .get(lane as usize)
        .copied()
        .unwrap_or(LANE_LABELS[LANE_LABELS.len() - 1])
}

/// Nanoseconds from `earlier` to `later`, saturating at `u64::MAX`
/// (and at zero for out-of-order instants).
pub(crate) fn elapsed_ns(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

/// Pseudonymous device identity for trace records: the splitmix64 mix
/// of the claimed device id, or 0 for requests that carry none. Trace
/// dumps travel over the wire, so raw ids stay out of them.
pub(crate) fn request_device_hash(request: &RequestRef<'_>) -> u64 {
    let id = match request {
        RequestRef::Enroll { device_id, .. } => Some(*device_id),
        RequestRef::Authenticate(item) => Some(item.device_id),
        RequestRef::QueryVerdict { device_id } => Some(*device_id),
        RequestRef::BatchAuthenticate { items } => items.first().map(|i| i.device_id),
        _ => None,
    };
    id.map_or(0, ropuf_numeric::splitmix64)
}

/// Per-lane saturation handles: one event loop. Utilization is
/// `busy_ns / wall_ns` over any scrape interval.
#[derive(Debug, Clone)]
pub(crate) struct LaneStats {
    /// Nanoseconds the lane spent doing work (not parked waiting).
    pub(crate) busy_ns: Counter,
    /// Wall nanoseconds the lane has existed for (accumulated in the
    /// same cadence as `busy_ns`, so the ratio is meaningful over any
    /// window).
    pub(crate) wall_ns: Counter,
    /// Largest pending out-buffer this lane has ever observed, bytes.
    pub(crate) out_highwater: Gauge,
}

/// The `backend` label value on every `server.*` metric. It is a
/// constant: scrapers look metrics up by it.
const BACKEND: &str = "evented";

/// The server's metrics plus the slow-request ring.
///
/// Cheap to clone-by-`Arc`; every handle inside is already shareable.
#[derive(Debug)]
pub struct ServerTelemetry {
    registry: Registry,
    accepted: Counter,
    open: Gauge,
    requests: Counter,
    evicted_idle: Counter,
    evicted_slow: Counter,
    trace_dropped: Gauge,
    /// `[msg_slot][phase]`, pre-resolved so the hot path never touches
    /// the registry lock. Phases in lifecycle order: ready-wait,
    /// decode, handle, flush, flush-wait.
    phase: Vec<[TimerHistogram; 5]>,
    /// Whole-request latency (ready-wait through flush-wait).
    total: TimerHistogram,
    /// Accept-to-first-frame per connection.
    first_frame: TimerHistogram,
    /// Ready-list batch sizes per epoll wakeup.
    ready_batch: TimerHistogram,
    ring: TraceRing,
    threshold_ns: u64,
}

impl ServerTelemetry {
    /// Builds the server's registry; every metric carries
    /// `backend="evented"`. Requests slower than `slow_threshold` land
    /// in a ring of `trace_capacity` records.
    pub fn new(slow_threshold: Duration, trace_capacity: usize) -> Arc<Self> {
        let registry = Registry::new();
        let b = [("backend", BACKEND)];
        let accepted = registry.counter("server.connections.accepted", &b);
        let open = registry.gauge("server.connections.open", &b);
        let requests = registry.counter("server.requests", &b);
        let evicted_idle =
            registry.counter("server.evicted", &[("backend", BACKEND), ("kind", "idle")]);
        let evicted_slow =
            registry.counter("server.evicted", &[("backend", BACKEND), ("kind", "slow")]);
        let trace_dropped = registry.gauge("server.trace.dropped", &b);
        let phase = MSG_LABELS
            .iter()
            .map(|&(_, label)| label)
            .chain([OTHER_LABEL])
            .map(|msg| {
                SERIES_PHASES.map(|phase| {
                    registry.histogram(
                        "server.request.phase_ns",
                        &[("backend", BACKEND), ("msg", msg), ("phase", phase)],
                    )
                })
            })
            .collect();
        let total = registry.histogram("server.request.total_ns", &b);
        let first_frame = registry.histogram("server.conn.first_frame_ns", &b);
        let ready_batch = registry.histogram("server.loop.ready_batch", &b);
        let threshold_ns = u64::try_from(slow_threshold.as_nanos()).unwrap_or(u64::MAX);
        Arc::new(Self {
            registry,
            accepted,
            open,
            requests,
            evicted_idle,
            evicted_slow,
            trace_dropped,
            phase,
            total,
            first_frame,
            ready_batch,
            ring: TraceRing::new(trace_capacity),
            threshold_ns,
        })
    }

    /// Registers (idempotently) and returns the `server.shed` counter
    /// for one admission class. Cold path: called once per class when
    /// the admission gate is built.
    pub(crate) fn shed_counter(&self, class: &'static str) -> Counter {
        self.registry
            .counter("server.shed", &[("backend", BACKEND), ("class", class)])
    }

    /// Registers (idempotently) and returns the pair of
    /// `server.affinity` counters — `result=local` / `result=remote` —
    /// tallying device-carrying requests that landed on (resp. missed)
    /// the event loop owning their registry shard. Cold path: called
    /// once per loop at startup.
    pub(crate) fn affinity_counters(&self) -> (Counter, Counter) {
        let local = self.registry.counter(
            "server.affinity",
            &[("backend", BACKEND), ("result", "local")],
        );
        let remote = self.registry.counter(
            "server.affinity",
            &[("backend", BACKEND), ("result", "remote")],
        );
        (local, remote)
    }

    /// Registers (idempotently) and returns the saturation handles for
    /// one lane. Cold path: called once per loop at startup.
    pub(crate) fn lane(&self, lane: u32) -> LaneStats {
        let labels = [("backend", BACKEND), ("worker", lane_label(lane))];
        LaneStats {
            busy_ns: self.registry.counter("server.worker.busy_ns", &labels),
            wall_ns: self.registry.counter("server.worker.wall_ns", &labels),
            out_highwater: self
                .registry
                .gauge("server.worker.out_highwater_bytes", &labels),
        }
    }

    /// A connection was accepted (and is now open).
    pub(crate) fn connection_accepted(&self) {
        self.accepted.inc();
        self.open.add(1);
    }

    /// An open connection went away, evicted or not.
    pub(crate) fn connection_closed(&self, evicted_idle: bool, evicted_slow: bool) {
        self.open.sub(1);
        if evicted_idle {
            self.evicted_idle.inc();
        }
        if evicted_slow {
            self.evicted_slow.inc();
        }
    }

    /// Counts a request the moment its frame is complete — before
    /// decode, so malformed frames and the scrape request itself are
    /// part of the tally. This is what makes the CI equality check
    /// (`server.requests == client-side ops`) exact.
    pub(crate) fn request_started(&self) {
        self.requests.inc();
    }

    /// Records a served frame's first four phase timings (ready-wait
    /// through flush) the moment its response is queued, returning the
    /// trace candidate. The caller completes the lifecycle with
    /// [`ServerTelemetry::observe_drained`] once the response bytes
    /// have actually left the out-buffer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe_queued(
        &self,
        msg_type: u8,
        device_hash: u64,
        ready_ns: u64,
        decode_ns: u64,
        handle_ns: u64,
        flush_ns: u64,
        worker: u32,
    ) -> TraceRecord {
        let slot = &self.phase[msg_slot(msg_type)];
        slot[0].record(ready_ns);
        slot[1].record(decode_ns);
        slot[2].record(handle_ns);
        slot[3].record(flush_ns);
        let total_ns = ready_ns
            .saturating_add(decode_ns)
            .saturating_add(handle_ns)
            .saturating_add(flush_ns);
        TraceRecord {
            seq: 0, // assigned by the ring
            msg_type,
            device_hash,
            ready_ns,
            decode_ns,
            handle_ns,
            flush_ns,
            flush_wait_ns: 0,
            total_ns,
            worker,
        }
    }

    /// Completes a request's lifecycle: records the flush-wait phase
    /// (out-buffer residency) and the whole-request total, and pushes
    /// the trace record when the *total* — waits included — crossed
    /// the slow threshold. Deferring the threshold decision to drain
    /// time is what lets a fast-to-serve but slow-to-drain request
    /// show up in the ring with its tail attributed.
    pub(crate) fn observe_drained(&self, mut record: TraceRecord, flush_wait_ns: u64) {
        record.flush_wait_ns = flush_wait_ns;
        record.total_ns = record.total_ns.saturating_add(flush_wait_ns);
        self.phase[msg_slot(record.msg_type)][4].record(flush_wait_ns);
        self.total.record(record.total_ns);
        if record.total_ns >= self.threshold_ns {
            self.ring.push(record);
        }
    }

    /// Records one connection's accept-to-first-frame latency.
    pub(crate) fn first_frame(&self, ns: u64) {
        self.first_frame.record(ns);
    }

    /// Records one epoll wakeup's ready-list batch size.
    pub(crate) fn ready_batch(&self, n: u64) {
        self.ready_batch.record(n);
    }

    /// Connections accepted since spawn.
    pub(crate) fn accepted_total(&self) -> u64 {
        self.accepted.get()
    }

    /// Connections currently open.
    pub(crate) fn open_connections(&self) -> u64 {
        self.open.get()
    }

    /// Requests served since spawn.
    pub(crate) fn requests_served(&self) -> u64 {
        self.requests.get()
    }

    /// (idle, slow-frame) evictions since spawn.
    pub(crate) fn evictions(&self) -> (u64, u64) {
        (self.evicted_idle.get(), self.evicted_slow.get())
    }

    /// A point-in-time snapshot of the server's metrics, with the
    /// trace-drop gauge refreshed first.
    pub fn snapshot(&self) -> Snapshot {
        self.trace_dropped.set(self.ring.dropped());
        self.registry.snapshot()
    }

    /// The slow-request ring as a wire-ready snapshot.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        TraceSnapshot::from_ring(&self.ring)
    }

    /// Answers `Request::TraceDump` straight from the server's ring.
    pub(crate) fn trace_response(&self) -> Response {
        Response::TraceBin {
            bytes: self.trace_snapshot().encode(),
        }
    }

    /// Answers `Request::MetricsSnapshot`: takes the handler's reply
    /// (the verifier's `ropuf-metrics/v1` blob), merges the server's
    /// own metrics into it, and re-encodes. Namespaces are disjoint
    /// (`server.*` vs `verifier.*`), so the merge never clashes.
    ///
    /// A handler reply that is not a decodable `MetricsBin` (custom
    /// handler, or a typed error) passes through untouched — the
    /// server never turns a working reply into a worse one.
    pub(crate) fn merged_metrics_response(&self, handler_reply: Response) -> Response {
        match handler_reply {
            Response::MetricsBin { bytes } => match Snapshot::decode(&bytes) {
                Ok(mut snapshot) => {
                    snapshot.merge(self.snapshot());
                    Response::MetricsBin {
                        bytes: snapshot.encode(),
                    }
                }
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    detail: format!("handler metrics blob undecodable: {e}"),
                },
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_telemetry(threshold: Duration) -> Arc<ServerTelemetry> {
        ServerTelemetry::new(threshold, 8)
    }

    #[test]
    fn msg_labels_cover_every_wire_byte() {
        // A byte is named exactly when the decoder knows it, so the
        // labels cannot drift from the wire: retired bytes (0x06, 0x0A)
        // and hostile ones share the catch-all.
        for ty in 0..=u8::MAX {
            let known = !matches!(
                RequestRef::decode(&[ty]),
                Err(ropuf_proto::DecodeError::UnknownMessage(_))
            );
            assert_eq!(msg_slot(ty) < MSG_LABELS.len(), known, "byte {ty:#04x}");
        }
    }

    #[test]
    fn zero_threshold_traces_everything_and_large_threshold_nothing() {
        let eager = test_telemetry(Duration::ZERO);
        let lazy = test_telemetry(Duration::from_secs(3600));
        for i in 0..5 {
            eager.observe_drained(eager.observe_queued(0x03, i, 5, 10, 20, 30, 0), 40);
            lazy.observe_drained(lazy.observe_queued(0x03, i, 5, 10, 20, 30, 0), 40);
        }
        assert_eq!(eager.trace_snapshot().records.len(), 5);
        assert_eq!(lazy.trace_snapshot().records.len(), 0);
        let record = eager.trace_snapshot().records[0];
        assert_eq!(record.ready_ns, 5);
        assert_eq!(record.flush_wait_ns, 40);
        assert_eq!(record.total_ns, 5 + 10 + 20 + 30 + 40);
        let snap = eager.snapshot();
        for (phase, want) in [
            ("ready-wait", 5u64),
            ("decode", 5),
            ("handle", 5),
            ("flush", 5),
            ("flush-wait", 5),
        ] {
            match snap.find(
                "server.request.phase_ns",
                &[("backend", "evented"), ("msg", "auth"), ("phase", phase)],
            ) {
                Some(ropuf_telemetry::MetricValue::Histogram(h)) => {
                    assert_eq!(h.count, want, "phase {phase} should have {want} samples")
                }
                other => panic!("expected {phase}-phase histogram, got {other:?}"),
            }
        }
        match snap.find("server.request.total_ns", &[("backend", "evented")]) {
            Some(ropuf_telemetry::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 5);
                assert_eq!(h.max, 105);
            }
            other => panic!("expected total histogram, got {other:?}"),
        }
    }

    #[test]
    fn lanes_register_and_overflow_into_one_bucket() {
        let t = test_telemetry(Duration::ZERO);
        t.lane(0).busy_ns.add(100);
        t.lane(0).wall_ns.add(200);
        t.lane(99).busy_ns.add(7);
        t.lane(1_000_000).busy_ns.add(3);
        let snap = t.snapshot();
        match snap.find(
            "server.worker.busy_ns",
            &[("backend", "evented"), ("worker", "0")],
        ) {
            Some(ropuf_telemetry::MetricValue::Counter(v)) => assert_eq!(*v, 100),
            other => panic!("expected lane-0 busy counter, got {other:?}"),
        }
        // Every out-of-table lane shares the overflow label.
        match snap.find(
            "server.worker.busy_ns",
            &[("backend", "evented"), ("worker", "32+")],
        ) {
            Some(ropuf_telemetry::MetricValue::Counter(v)) => assert_eq!(*v, 10),
            other => panic!("expected overflow busy counter, got {other:?}"),
        }
    }

    #[test]
    fn merge_passthrough_leaves_non_metrics_replies_alone() {
        let t = test_telemetry(Duration::ZERO);
        let err = Response::Error {
            code: ErrorCode::Internal,
            detail: "boom".to_string(),
        };
        assert_eq!(t.merged_metrics_response(err.clone()), err);
    }
}
