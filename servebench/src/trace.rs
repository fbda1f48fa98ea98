//! The traced run: a handler wrapper that stamps every verifier call,
//! the layer table that splits client-observed latency into layers,
//! and single-thread replays of the run's inputs through the public
//! layer functions.
//!
//! All spans are taken from this package's own code around calls into
//! the program; nothing inside the program is instrumented.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ropuf_constructions::{helper_digest, DeviceResponse};
use ropuf_hash::HmacKey;
use ropuf_proto::{AuthItem, RequestRef, Response, WireAuthResponse};
use ropuf_server::{RequestHandler, VerifierHandler};
use ropuf_telemetry::{MetricValue, Snapshot};
use ropuf_verifier::{
    AuthQuery, BatchScratch, DetectorConfig, DeviceDetector, DeviceStore, EnrollmentRecord,
    StoreOptions, Verifier,
};

use crate::gen::Span;
use crate::setup::Fleet;
use crate::stream::benign_gap;

/// Message labels the per-layer table reports, as the server's
/// telemetry names them.
pub const MSGS: [&str; 4] = ["auth", "enroll", "query-verdict", "metrics"];

/// The server's five request phases, in lifecycle order.
pub const PHASES: [&str; 5] = ropuf_telemetry::SERIES_PHASES;

/// Joins a handler-side span to its client request: `(device id, now)`
/// for auths, `(id, 0)` for enrolls,
/// `(id, u64::MAX)` for verdict queries, `(u64::MAX, n)` for the n-th
/// scrape of the traced window.
pub type SpanKey = (u64, u64);

/// One `VerifierHandler::handle_ref` call.
#[derive(Debug, Clone, Copy)]
pub struct HandlerSpan {
    pub msg: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// `RequestHandler` around the production handler that records a span
/// per call while switched on. Off, it costs one relaxed load.
pub struct TracingHandler {
    inner: VerifierHandler,
    on: AtomicBool,
    scrapes: AtomicU64,
    spans: Mutex<Vec<(SpanKey, HandlerSpan)>>,
}

impl TracingHandler {
    pub fn new(inner: VerifierHandler) -> Self {
        Self {
            inner,
            on: AtomicBool::new(false),
            scrapes: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 20)),
        }
    }

    pub fn switch(&self, on: bool) {
        self.scrapes.store(0, Ordering::SeqCst);
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn take(&self) -> HashMap<SpanKey, HandlerSpan> {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.drain(..).collect()
    }

    fn key(&self, request: &RequestRef<'_>) -> Option<(SpanKey, &'static str)> {
        Some(match request {
            RequestRef::Authenticate(item) => ((item.device_id, item.now), "auth"),
            RequestRef::Enroll { device_id, .. } => ((*device_id, 0), "enroll"),
            RequestRef::QueryVerdict { device_id } => ((*device_id, u64::MAX), "query-verdict"),
            RequestRef::MetricsSnapshot => (
                (u64::MAX, self.scrapes.fetch_add(1, Ordering::Relaxed)),
                "metrics",
            ),
            _ => return None,
        })
    }
}

impl RequestHandler for TracingHandler {
    fn handle(&self, request: ropuf_proto::Request) -> Response {
        self.handle_ref(request.as_ref())
    }

    fn handle_ref(&self, request: RequestRef<'_>) -> Response {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.handle_ref(request);
        }
        let key = self.key(&request);
        let start = Instant::now();
        let response = self.inner.handle_ref(request);
        let end = Instant::now();
        if let Some((key, msg)) = key {
            self.spans
                .lock()
                .expect("span log poisoned")
                .push((key, HandlerSpan { msg, start, end }));
        }
        response
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

/// Count and sum of one histogram between two snapshots.
fn hist_delta(
    before: &Snapshot,
    after: &Snapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> (u64, u128) {
    let read = |s: &Snapshot| match s.find(name, labels) {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum),
        _ => (0, 0),
    };
    let (c0, s0) = read(before);
    let (c1, s1) = read(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// Mean of one server histogram over a window, in ns (0 when empty).
pub fn hist_mean_ns(
    before: &Snapshot,
    after: &Snapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> f64 {
    match hist_delta(before, after, name, labels) {
        (0, _) => 0.0,
        (count, sum) => sum as f64 / count as f64,
    }
}

/// Growth of a counter over a window, summed across label sets.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after
        .counter_total(name)
        .saturating_sub(before.counter_total(name))
}

/// Mean server phase durations of one message label over a window, ns.
pub fn phase_means(before: &Snapshot, after: &Snapshot, msg: &str) -> [f64; 5] {
    PHASES.map(|phase| {
        hist_mean_ns(
            before,
            after,
            "server.request.phase_ns",
            &[("backend", "evented"), ("msg", msg), ("phase", phase)],
        )
    })
}

/// The layer table of one message label: rows that tile the
/// client-observed time from the intended send to the decoded answer.
#[derive(Debug, Clone)]
pub struct LayerTable {
    pub msg: &'static str,
    /// `(row, mean µs)` in request order.
    pub rows: Vec<(&'static str, f64)>,
    pub client_mean_us: f64,
    pub sum_us: f64,
    pub joined: usize,
    pub frames: usize,
}

/// Largest share of the client-observed mean the rows may miss by.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

impl LayerTable {
    /// Builds the table from client spans joined to handler spans and
    /// the server's own phase histograms over the same window.
    ///
    /// Per joined request, with client stamps and handler stamps on one
    /// monotonic clock:
    /// lateness = encode start - intended; encode; transit = everything
    /// between encode end and decode start outside the handler call;
    /// handler; decode. The server histograms split the transit into
    /// its ready-wait, decode, flush and flush-wait phases; what is left
    /// is `net.gap_us`: the client write and read syscalls, the kernel
    /// loopback and the event loop's wake-up. The server's own handle
    /// phase stands in for the wrapper's span, so the rows sum to the
    /// client mean up to the difference between the two.
    pub fn build(
        msg: &'static str,
        spans: &[Span],
        handler: &HashMap<SpanKey, HandlerSpan>,
        epoch: Instant,
        server_phases_ns: [f64; 5],
    ) -> Self {
        let at = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as f64;
        let mut sums = [0f64; 6]; // lateness, encode, transit, handler, decode, total
        let mut joined = 0;
        let mut frames = 0;
        for s in spans.iter().filter(|s| s.desc.kind.msg() == msg) {
            frames += 1;
            let Some(h) = handler.get(&(s.desc.id, s.desc.now)) else {
                continue;
            };
            let d = &s.desc;
            let (h0, h1) = (at(h.start), at(h.end));
            sums[0] += d.encode0 as f64 - d.intended as f64;
            sums[1] += (d.encode1 - d.encode0) as f64;
            sums[2] += (h0 - d.encode1 as f64) + (s.decode0 as f64 - h1);
            sums[3] += h1 - h0;
            sums[4] += (s.decode1 - s.decode0) as f64;
            sums[5] += (s.decode1 - d.intended) as f64;
            joined += 1;
        }
        let mean = |i: usize| sums[i] / joined.max(1) as f64 / 1e3;
        let [ready, decode, handle, flush, flush_wait] = server_phases_ns.map(|ns| ns / 1e3);
        let net_gap = mean(2) - (ready + decode + flush + flush_wait);
        let rows = vec![
            ("generator lateness", mean(0)),
            ("client encode", mean(1)),
            ("server ready-wait", ready),
            ("server decode", decode),
            ("server handle", handle),
            ("server flush", flush),
            ("server flush-wait", flush_wait),
            ("client decode", mean(4)),
            ("net gap", net_gap),
        ];
        let sum_us = rows.iter().map(|(_, v)| v).sum();
        Self {
            msg,
            rows,
            client_mean_us: mean(5),
            sum_us,
            joined,
            frames,
        }
    }

    pub fn row(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// |rows - client mean| as a share of the client mean.
    pub fn error_frac(&self) -> f64 {
        if self.client_mean_us > 0.0 {
            (self.sum_us - self.client_mean_us).abs() / self.client_mean_us
        } else {
            1.0
        }
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "layer table ({} frames, {} of {} joined to a handler span)\n",
            self.msg, self.joined, self.frames
        );
        for (name, us) in &self.rows {
            out += &format!("  {name:<20} {us:>10.2} us\n");
        }
        out += &format!(
            "  {:<20} {:>10.2} us\n  {:<20} {:>10.2} us  (error {:.2}%, tolerance {:.0}%)\n",
            "sum of rows",
            self.sum_us,
            "client-observed mean",
            self.client_mean_us,
            100.0 * self.error_frac(),
            100.0 * RECONCILE_TOLERANCE
        );
        out
    }
}

/// Mean handler-span duration per message label, µs.
pub fn handler_means_us(handler: &HashMap<SpanKey, HandlerSpan>) -> HashMap<&'static str, f64> {
    let mut acc: HashMap<&'static str, (f64, u64)> = HashMap::new();
    for h in handler.values() {
        let e = acc.entry(h.msg).or_default();
        e.0 += (h.end - h.start).as_nanos() as f64;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(msg, (sum, n))| (msg, sum / n as f64 / 1e3))
        .collect()
}

/// Items per `authenticate_batch_with` call in the replays.
const REPLAY_BATCH: usize = 64;

/// Mean ns per call of the single-thread layer replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    pub auth_query_ns: f64,
    pub batch_item_ns: f64,
    pub hmac_verify_ns: f64,
    pub helper_digest_ns: f64,
    pub observe_ns: f64,
    pub log_enroll_ns: f64,
    pub enroll_durable_ns: f64,
    pub wal_bytes_per_enroll: f64,
    /// Replayed auths the verifier did not accept (must be 0).
    pub rejected: u64,
}

fn per_call(t: Instant, n: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn query(item: &AuthItem) -> AuthQuery<'_> {
    AuthQuery {
        device_id: item.device_id,
        now: item.now,
        nonce: &item.nonce,
        response: match item.response {
            WireAuthResponse::Failure => DeviceResponse::Failure,
            WireAuthResponse::Tag(tag) => DeviceResponse::Tag(tag),
        },
        presented_helper: item.presented_helper.as_deref(),
    }
}

/// Replays `items` (the run's own next benign auths) and `enrolls`
/// (new-device enrollments of the run's shape) through the public
/// layer functions, one thread, no server. `scratch` holds the store
/// replays.
pub fn replay(
    verifier: &Verifier,
    fleet: &Fleet,
    items: &[AuthItem],
    enrolls: Vec<(u64, EnrollmentRecord)>,
    scratch: &Path,
) -> Replays {
    let mut r = Replays::default();
    let (singles, batched) = items.split_at(items.len() / 2);

    let t = Instant::now();
    for item in singles {
        if !verifier
            .authenticate_query(black_box(query(item)))
            .is_accept()
        {
            r.rejected += 1;
        }
    }
    r.auth_query_ns = per_call(t, singles.len());

    let mut batch_scratch = BatchScratch::new();
    let mut verdicts = Vec::new();
    let mut elapsed = 0u128;
    let mut n = 0;
    for chunk in batched.chunks(REPLAY_BATCH) {
        let queries: Vec<AuthQuery<'_>> = chunk.iter().map(query).collect();
        let t = Instant::now();
        verifier.authenticate_batch_with(&queries, &mut batch_scratch, &mut verdicts);
        elapsed += t.elapsed().as_nanos();
        n += chunk.len();
        r.rejected += verdicts.iter().filter(|v| !v.is_accept()).count() as u64;
    }
    r.batch_item_ns = elapsed as f64 / n.max(1) as f64;

    let keys: Vec<HmacKey> = items
        .iter()
        .map(|i| HmacKey::new(&fleet.creds[i.device_id as usize].key_digest))
        .collect();
    let t = Instant::now();
    for (key, item) in keys.iter().zip(items) {
        let WireAuthResponse::Tag(tag) = item.response else {
            continue;
        };
        black_box(key.verify(black_box(&item.nonce), &tag));
    }
    r.hmac_verify_ns = per_call(t, items.len());

    let t = Instant::now();
    for item in items {
        black_box(helper_digest(black_box(
            item.presented_helper.as_deref().unwrap_or_default(),
        )));
    }
    r.helper_digest_ns = per_call(t, items.len());

    let config = DetectorConfig::default();
    let mut detectors: Vec<DeviceDetector> = fleet
        .helpers
        .iter()
        .map(|h| DeviceDetector::new(config, h.tag, &h.bytes))
        .collect();
    let gap = benign_gap();
    let mut nows = vec![0u64; detectors.len()];
    let t = Instant::now();
    for item in items {
        let slot = usize::from(fleet.creds[item.device_id as usize].slot);
        nows[slot] += gap;
        black_box(detectors[slot].observe(nows[slot], item.presented_helper.as_deref(), true));
    }
    r.observe_ns = per_call(t, items.len());

    let store = DeviceStore::open(&scratch.join("store"), StoreOptions::default())
        .expect("open a scratch store");
    let t = Instant::now();
    for (id, record) in &enrolls {
        store
            .log_enrolls(std::iter::once((*id, record)))
            .expect("scratch WAL append");
    }
    r.log_enroll_ns = per_call(t, enrolls.len());
    drop(store);

    let (durable, _) = Verifier::open_durable(
        &scratch.join("verifier"),
        8,
        config,
        StoreOptions::default(),
    )
    .expect("open a scratch durable verifier");
    let count = enrolls.len();
    let t = Instant::now();
    for (id, record) in enrolls {
        durable
            .registry()
            .enroll(id, record)
            .expect("fresh scratch ids enroll");
    }
    r.enroll_durable_ns = per_call(t, count);
    r.wal_bytes_per_enroll = durable
        .telemetry()
        .snapshot()
        .counter_total("verifier.wal.bytes") as f64
        / count.max(1) as f64;
    r
}

/// Event-loop load over one or more windows: busy and wall time of
/// every loop, and the ready-list size of every wake-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopLoad {
    busy_ns: u64,
    wall_ns: u64,
    wakeups: u64,
    ready: u128,
}

impl LoopLoad {
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        self.busy_ns += counter_delta(before, after, "server.worker.busy_ns");
        self.wall_ns += counter_delta(before, after, "server.worker.wall_ns");
        let (n, sum) = hist_delta(
            before,
            after,
            "server.loop.ready_batch",
            &[("backend", "evented")],
        );
        self.wakeups += n;
        self.ready += sum;
    }

    pub fn busy_frac(&self) -> f64 {
        self.busy_ns as f64 / self.wall_ns.max(1) as f64
    }

    pub fn ready_batch_mean(&self) -> f64 {
        self.ready as f64 / self.wakeups.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Desc, Kind};
    use std::time::Duration;

    /// A synthetic request whose every stamp is known: the table must
    /// put each piece in its row and reconcile exactly when the
    /// server's handle phase equals the handler span.
    #[test]
    fn layer_table_reconciles_on_a_synthetic_trace() {
        let epoch = Instant::now();
        let mut handler = HashMap::new();
        let mut spans = Vec::new();
        for i in 0..10u64 {
            let base = i * 1_000_000;
            // intended 0, encode 2..3 µs, handler 40..55 µs, decode 90..92 µs.
            let desc = Desc {
                kind: Kind::Auth,
                id: i,
                now: 4 * i,
                aux: 0,
                intended: base,
                encode0: base + 2_000,
                encode1: base + 3_000,
                write0: base + 3_000,
                write1: base + 8_000,
            };
            spans.push(Span {
                desc,
                read_end: base + 85_000,
                decode0: base + 90_000,
                decode1: base + 92_000,
            });
            handler.insert(
                (i, 4 * i),
                HandlerSpan {
                    msg: "auth",
                    start: epoch + Duration::from_nanos(base + 40_000),
                    end: epoch + Duration::from_nanos(base + 55_000),
                },
            );
        }
        // Server phases: ready 10, decode 1, handle 15, flush 2, flush-wait 5 µs.
        let phases = [10_000.0, 1_000.0, 15_000.0, 2_000.0, 5_000.0];
        let table = LayerTable::build("auth", &spans, &handler, epoch, phases);
        assert_eq!((table.joined, table.frames), (10, 10));
        assert!((table.client_mean_us - 92.0).abs() < 1e-9);
        assert!((table.row("generator lateness") - 2.0).abs() < 1e-9);
        assert!((table.row("client encode") - 1.0).abs() < 1e-9);
        assert!((table.row("client decode") - 2.0).abs() < 1e-9);
        // transit = (40 - 3) + (90 - 55) = 72; minus 10 + 1 + 2 + 5.
        assert!((table.row("net gap") - 54.0).abs() < 1e-9);
        assert!(table.error_frac() < 1e-12, "{}", table.render());

        // A server handle phase 1 µs longer than the wrapper's span is
        // 1 µs of the 92 µs mean unaccounted for.
        let phases = [10_000.0, 1_000.0, 16_000.0, 2_000.0, 5_000.0];
        let table = LayerTable::build("auth", &spans, &handler, epoch, phases);
        assert!((table.error_frac() - 1.0 / 92.0).abs() < 1e-9);
    }

    #[test]
    fn unjoined_frames_stay_out_of_the_means() {
        let epoch = Instant::now();
        let desc = Desc {
            kind: Kind::Auth,
            id: 1,
            now: 0,
            aux: 0,
            intended: 0,
            encode0: 0,
            encode1: 0,
            write0: 0,
            write1: 0,
        };
        let spans = [Span {
            desc,
            read_end: 10,
            decode0: 10,
            decode1: 10,
        }];
        let table = LayerTable::build("auth", &spans, &HashMap::new(), epoch, [0.0; 5]);
        assert_eq!((table.joined, table.frames), (0, 1));
        assert_eq!(table.error_frac(), 1.0);
    }
}
