//! The load generator: mixed benign/LISA traffic against the real
//! serving surface, with throughput and tail-latency reporting.
//!
//! ```text
//! loadgen [--server loopback|evented] [--devices N]
//!         [--rounds R] [--seed S] [--shards M] [--threads T]
//!         [--loops L] [--connections C] [--churn] [--smoke]
//!         [--loopback] [--json PATH] [--telemetry]
//!         [--telemetry-json PATH] [--trace-threshold-us U] [--port P]
//!         [--assert-p999-us U] [--chaos SEED [--fault-rate R]]
//! ```
//!
//! Builds a deterministic [`TrafficPlan`] (first quarter of the fleet:
//! real LISA attack trajectories; the rest: benign authentication
//! across the other three constructions), enrolls the fleet through
//! one shard-partitioned `Verifier::enroll_batch` call, spawns the
//! evented server on an ephemeral localhost port (the default;
//! `--smoke` and `--loopback` pick the in-process loopback transport
//! instead), and replays the plan from `T` client threads — each
//! request timed into a per-thread log-bucketed histogram, merged at
//! the end.
//!
//! Connection shapes (evented server):
//!
//! * default — one long-lived connection per client thread;
//! * `--connections C` — `C` connections opened up-front and **held
//!   established for the whole replay**, requests round-robined across
//!   them (the many-concurrent-connections shape the evented server
//!   exists for);
//! * `--churn` — a fresh connection per device replay (accept/teardown
//!   pressure).
//!
//! `--loops L` sizes the evented server's event-loop fleet; the
//! default is `min(available_parallelism, 4)` — the committed tail
//! numbers were once silently measured at `loops: 1`, so the resolved
//! value is printed and recorded in the JSON artifact.
//!
//! In the held-connection shape every connection is probed with
//! `LoopInfo` after its handshake and auth traffic is routed
//! loop-affine: a device's requests prefer connections that landed on
//! `shard_for(id, shards) % loops` — the loop whose registry shard
//! owns the device — falling back to plain round-robin when the probe
//! found no connection there. Probe ops are folded into the exact
//! telemetry gate below.
//!
//! `--assert-p999-us U` turns the printed tail into a hard gate: the
//! run aborts when client-observed p999 exceeds `U` microseconds
//! (CI's guardband against tail regressions).
//!
//! Acceptance shape (asserted, not just printed): nonzero throughput,
//! **every** attacked device rejected at the wire with the
//! `DeviceFlagged` error code, **zero** benign devices flagged, and in
//! `--connections` mode every connection established simultaneously
//! (the evented server's gauge is asserted directly).
//!
//! `--json PATH` writes a `ropuf-bench-loadgen/v1` artifact so CI can
//! track the serving-throughput trajectory per run.
//!
//! `--telemetry` (evented server only) holds one extra scraper
//! connection that pulls `MetricsSnapshot` off the live server
//! mid-run, then takes a final scrape plus a `TraceDump` after the
//! replay and asserts the server-side `server.requests` counter equals
//! the client-side op count **exactly** — handshakes, auths, verdict
//! queries and the scrapes themselves all accounted for.
//! `--telemetry-json PATH` additionally writes a
//! `ropuf-bench-telemetry/v1` artifact correlating client-observed
//! tail latency with the server's per-phase histograms and slow-request
//! trace ring.
//!
//! `--trace-threshold-us U` sets the server's slow-trace threshold
//! (default under `--telemetry`: 100 µs for full runs, 0 — trace
//! everything — for `--smoke`; the server's own 1 ms default
//! otherwise). With telemetry enabled the run *asserts* the trace ring
//! is non-empty, so the artifact's slowest-requests section can never
//! silently degenerate to zero traces.
//!
//! `--port P` binds the server to a fixed localhost port so an external
//! observer (`ropuf-ops`) can attach mid-run. External scrapers add
//! their own connections and request frames, so `--port` relaxes the
//! exact-equality telemetry gates to lower bounds (`>=`).
//!
//! `--chaos SEED` switches to the chaos harness (see the [`chaos`]
//! module): the same traffic replayed by resilient retrying clients
//! whose every connection runs through a seeded fault injector
//! (`--fault-rate R` partial-I/O odds per 65536; delays at `R/4`,
//! resets at `R/16`), against an evented server with an armed WAL and
//! live admission control. Writes a `ropuf-bench-chaos/v1` artifact.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use ropuf_bench::parse_flags;
use ropuf_constructions::pairing::lisa::LisaConfig;
use ropuf_numeric::Histogram;
use ropuf_proto::ErrorCode;
use ropuf_server::{
    Client, DeviceTraffic, LoopbackTransport, RequestHandler, Role, TcpTransport, TrafficPlan,
    TrafficSpec, Transport, VerifierHandler,
};
#[cfg(target_os = "linux")]
use ropuf_server::{EventedConfig, EventedServer};
use ropuf_verifier::{shard_for, DetectorConfig, Verifier};

/// `--loops` default: one event loop per available core, capped at 4.
/// Resolved (not hardcoded `1`) because the committed tail numbers
/// were once silently measured single-loop; the chosen value is
/// printed and recorded in the JSON artifact so a run is never
/// ambiguous about its topology.
fn default_loops() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Which serving backend replays the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Loopback,
    Evented,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Loopback => "loopback",
            Backend::Evented => "evented",
        }
    }
}

/// What one device's replay produced.
struct DeviceOutcome {
    device_id: u64,
    scheme: &'static str,
    role: Role,
    requests: usize,
    accepted: usize,
    rejected: usize,
    /// 0-based request index of the first wire-level `DeviceFlagged`
    /// rejection, if any.
    wire_flagged_at: Option<usize>,
    /// Flag reason label from a post-replay `QueryVerdict`, if flagged.
    flag_reason: Option<String>,
}

/// One replay thread's set of live connections, with optional
/// loop-affine routing (evented held shape).
struct ClientPool<T: Transport> {
    clients: Vec<Client<T>>,
    affinity: Option<PoolAffinity>,
}

/// Routing table from the per-connection `LoopInfo` probe: which pool
/// slots landed on which event loop, plus the shard geometry mapping
/// a device id to its owning loop — `shard_for(id, shards) % loops`,
/// the same arithmetic the server's affinity counters use.
struct PoolAffinity {
    shards: usize,
    loops: usize,
    by_loop: Vec<Vec<usize>>,
}

impl<T: Transport> ClientPool<T> {
    fn plain(clients: Vec<Client<T>>) -> Self {
        Self {
            clients,
            affinity: None,
        }
    }

    /// Picks the pool slot for a device's next request: loop-affine
    /// when the probe found connections on the device's owning loop,
    /// plain round-robin otherwise.
    fn pick(&self, rr: usize, device_id: u64) -> usize {
        if let Some(a) = &self.affinity {
            let owner = shard_for(device_id, a.shards) % a.loops.max(1);
            if let Some(subset) = a.by_loop.get(owner).filter(|s| !s.is_empty()) {
                return subset[rr % subset.len()];
            }
        }
        rr % self.clients.len()
    }
}

/// Replays every request of one device, in order, round-robining the
/// requests across the thread's connection pool (a single-client pool
/// is the classic one-connection-per-thread shape).
fn replay_device<T: Transport>(
    pool: &mut ClientPool<T>,
    rr: &mut usize,
    device: &DeviceTraffic,
    latencies: &mut Histogram,
) -> DeviceOutcome {
    let mut outcome = DeviceOutcome {
        device_id: device.device_id,
        scheme: device.scheme,
        role: device.role,
        requests: device.requests.len(),
        accepted: 0,
        rejected: 0,
        wire_flagged_at: None,
        flag_reason: None,
    };
    for (i, item) in device.requests.iter().enumerate() {
        let slot = pool.pick(*rr, device.device_id);
        let client = &mut pool.clients[slot];
        *rr += 1;
        let t0 = Instant::now();
        // Borrowed replay: the recorded item is encoded straight from
        // the plan's buffers — no per-request clone.
        let result = client.authenticate_ref(item.as_ref());
        latencies.record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        match result {
            Ok(verdict) if verdict.is_accept() => outcome.accepted += 1,
            Ok(_) => outcome.rejected += 1,
            Err(e) if e.error_code() == Some(ErrorCode::DeviceFlagged) => {
                if outcome.wire_flagged_at.is_none() {
                    outcome.wire_flagged_at = Some(i);
                }
            }
            Err(e) => panic!("device {}: transport failure: {e}", device.device_id),
        }
    }
    outcome.flag_reason = pool.clients[0]
        .query_verdict(device.device_id)
        .expect("enrolled device must be queryable")
        .map(|(_, reason)| reason.label().to_string());
    outcome
}

/// The shared replay harness: one thread per worker closure, devices
/// handed out through an atomic cursor, per-thread histograms merged
/// at the end. A worker replays one device and returns its outcome;
/// the connection shapes below differ only in how a worker gets its
/// client(s). Returns per-device outcomes (sorted by id) and the
/// merged latency histogram.
fn run_threads<W>(plan: &TrafficPlan, workers: Vec<W>) -> (Vec<DeviceOutcome>, Histogram)
where
    W: FnMut(&DeviceTraffic, &mut Histogram) -> DeviceOutcome + Send,
{
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(Vec<DeviceOutcome>, Histogram)>();
    std::thread::scope(|scope| {
        for mut work in workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || {
                let mut latencies = Histogram::new();
                let mut outcomes = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(device) = plan.devices.get(i) else {
                        break;
                    };
                    outcomes.push(work(device, &mut latencies));
                }
                tx.send((outcomes, latencies)).expect("collector alive");
            });
        }
        drop(tx);
    });
    let mut all = Vec::new();
    let mut merged = Histogram::new();
    for (outcomes, latencies) in rx {
        all.extend(outcomes);
        merged.merge(&latencies);
    }
    all.sort_by_key(|o| o.device_id);
    (all, merged)
}

/// Held/per-thread shapes: each thread owns a fixed pool of live
/// connections for the whole run.
fn run_pools<T: Transport + Send>(
    plan: &TrafficPlan,
    pools: Vec<ClientPool<T>>,
) -> (Vec<DeviceOutcome>, Histogram) {
    let workers = pools
        .into_iter()
        .map(|mut pool| {
            let mut rr = 0usize;
            move |device: &DeviceTraffic, latencies: &mut Histogram| {
                replay_device(&mut pool, &mut rr, device, latencies)
            }
        })
        .collect();
    run_threads(plan, workers)
}

/// Churn shape: every device replay opens (and drops) its own
/// connection — accept-path and teardown pressure instead of held
/// connections.
fn run_churn<T, F>(
    plan: &TrafficPlan,
    threads: usize,
    connect: F,
) -> (Vec<DeviceOutcome>, Histogram)
where
    T: Transport,
    F: Fn() -> Client<T> + Sync,
{
    let connect = &connect;
    let workers = (0..threads.max(1))
        .map(|_| {
            move |device: &DeviceTraffic, latencies: &mut Histogram| {
                let mut pool = ClientPool::plain(vec![connect()]);
                replay_device(&mut pool, &mut 0, device, latencies)
            }
        })
        .collect();
    run_threads(plan, workers)
}

/// Opens `count` TCP connections, completes the handshake on each, and
/// partitions them round-robin into `threads` pools. Every connection
/// is additionally probed with `LoopInfo` so replay can route each
/// device's traffic to a connection on its owning loop
/// (`shard_for(id, shards) % loops`). Returns the pools plus the
/// number of probe ops issued (they count toward the exact telemetry
/// gate).
fn open_held_pools(
    addr: std::net::SocketAddr,
    count: usize,
    threads: usize,
    (shards, loops): (usize, usize),
) -> (Vec<ClientPool<TcpTransport>>, u64) {
    let mut pools: Vec<Vec<Client<TcpTransport>>> =
        (0..threads.max(1)).map(|_| Vec::new()).collect();
    for i in 0..count {
        let mut client =
            Client::new(TcpTransport::connect(addr).unwrap_or_else(|e| {
                panic!("connection {i}/{count} failed: {e} (raise ulimit -n?)")
            }));
        client.hello("loadgen-held").expect("handshake");
        pools[i % threads.max(1)].push(client);
    }
    // Fewer connections than threads leaves trailing pools empty; a
    // pool-less thread has nothing to replay with, so shed it.
    pools.retain(|pool| !pool.is_empty());
    let loops = loops.max(1);
    let mut probe_ops = 0u64;
    let mut per_loop = vec![0u64; loops];
    let pools = pools
        .into_iter()
        .map(|mut clients| {
            let mut by_loop: Vec<Vec<usize>> = vec![Vec::new(); loops];
            for (slot, client) in clients.iter_mut().enumerate() {
                let (loop_id, loops_total) = client.loop_info().expect("LoopInfo probe");
                probe_ops += 1;
                assert_eq!(
                    loops_total as usize, loops,
                    "server must report the configured loop count"
                );
                assert!(
                    (loop_id as usize) < loops,
                    "loop id {loop_id} out of range (loops {loops})"
                );
                per_loop[loop_id as usize] += 1;
                by_loop[loop_id as usize].push(slot);
            }
            ClientPool {
                clients,
                affinity: Some(PoolAffinity {
                    shards,
                    loops,
                    by_loop,
                }),
            }
        })
        .collect();
    println!(
        "loop-affinity probe: {count} held connections per loop [{}]; auth traffic routed to shard_for(id, {shards}) % {loops}",
        per_loop
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    (pools, probe_ops)
}

/// The live mid-run scraper (`--telemetry`): one held connection that
/// pulls `MetricsSnapshot` frames off the server *while the replay
/// hammers it*, proving the scrape path is serveable under load. The
/// connection is opened (and handshaken) synchronously in `start` so
/// held-connection gauge accounting stays deterministic.
struct Scraper {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<u64>,
}

/// What `--telemetry` observed: the final authoritative snapshot, the
/// slow-request trace ring, and how many wire ops the scrape machinery
/// itself issued (they count toward the exact-equality gate).
struct ScrapeReport {
    /// Ops issued by the mid-run scraper connection (hello + scrapes).
    scraper_ops: u64,
    /// Mid-run scrapes that decoded successfully.
    mid_run_scrapes: u64,
    /// Ops issued by the final-scrape connection that land in the
    /// final snapshot (its hello + the final `MetricsSnapshot`; the
    /// `TraceDump` arrives after the snapshot was cut, so it does not).
    final_ops: u64,
    snapshot: ropuf_telemetry::Snapshot,
    trace: ropuf_telemetry::TraceSnapshot,
    timeseries: ropuf_telemetry::TimeSeriesSnapshot,
}

impl Scraper {
    fn start(addr: std::net::SocketAddr) -> Self {
        let mut client = Client::new(TcpTransport::connect(addr).expect("scraper connect"));
        client.hello("loadgen-scraper").expect("scraper handshake");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut ops = 1u64; // the hello above
            while !flag.load(Ordering::Relaxed) {
                let snap = client.metrics().expect("mid-run scrape must decode");
                ops += 1;
                // The scraper's own handshake is already served and
                // timed by the moment this response exists, so phase
                // histograms can never be legitimately empty.
                assert!(
                    snap.histogram_samples("server.request.phase_ns") > 0,
                    "mid-run scrape returned empty phase histograms"
                );
                assert!(
                    snap.counter_total("server.requests") >= ops,
                    "server request counter below the scraper's own ops"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            ops
        });
        Self { stop, thread }
    }

    /// Stops the mid-run loop, then takes the authoritative post-replay
    /// scrape (fresh connection: hello, metrics, trace dump).
    fn finish(self, addr: std::net::SocketAddr) -> ScrapeReport {
        self.stop.store(true, Ordering::Relaxed);
        let scraper_ops = self.thread.join().expect("scraper thread panicked");
        let mut client = Client::new(TcpTransport::connect(addr).expect("final scrape connect"));
        client.hello("loadgen-scraper").expect("final handshake");
        let snapshot = client.metrics().expect("final scrape must decode");
        let trace = client.trace_dump().expect("trace dump must decode");
        let timeseries = client.timeseries().expect("timeseries dump must decode");
        ScrapeReport {
            scraper_ops,
            mid_run_scrapes: scraper_ops - 1,
            // The trace and timeseries dumps arrive after the final
            // metrics snapshot was cut, so they never land in it.
            final_ops: 2,
            snapshot,
            trace,
            timeseries,
        }
    }
}

/// JSON summary of one `server.request.phase_ns` histogram cell
/// (authentication traffic), or `null` when the cell is absent.
fn phase_summary_json(snapshot: &ropuf_telemetry::Snapshot, backend: &str, phase: &str) -> String {
    match snapshot.find(
        "server.request.phase_ns",
        &[("backend", backend), ("msg", "auth"), ("phase", phase)],
    ) {
        Some(ropuf_telemetry::MetricValue::Histogram(h)) => {
            let hist = h
                .to_histogram()
                .expect("server snapshot is self-consistent");
            let s = hist.summary();
            format!(
                "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
                hist.count(),
                s.p50,
                s.p90,
                s.p99,
                s.p999,
                s.max
            )
        }
        _ => "null".to_string(),
    }
}

fn main() {
    let flags = parse_flags();
    flags.expect_known(&[
        "devices",
        "rounds",
        "seed",
        "shards",
        "threads",
        "loops",
        "assert-p999-us",
        "smoke",
        "loopback",
        "server",
        "connections",
        "churn",
        "json",
        "telemetry",
        "telemetry-json",
        "trace-threshold-us",
        "port",
        "chaos",
        "fault-rate",
    ]);
    if flags.get_u64("chaos").is_some() {
        #[cfg(target_os = "linux")]
        {
            chaos::run(&flags);
            return;
        }
        #[cfg(not(target_os = "linux"))]
        panic!("--chaos drives the evented backend and requires Linux (epoll)");
    }
    let smoke = flags.has("smoke");
    let devices = flags
        .get_usize("devices")
        .unwrap_or(if smoke { 8 } else { 32 });
    let rounds = flags
        .get_usize("rounds")
        .unwrap_or(if smoke { 4 } else { 16 });
    let master_seed = flags.get_u64("seed").unwrap_or(1);
    let shards = flags.get_usize("shards").unwrap_or(8);
    let threads = flags
        .get_usize("threads")
        .unwrap_or(if smoke { 2 } else { 4 });
    let loops = flags.get_usize("loops").unwrap_or_else(default_loops);
    let connections = flags.get_usize("connections");
    let churn = flags.has("churn");
    let port = flags.get_usize("port");
    let backend = match flags.get("server") {
        Some("loopback") => Backend::Loopback,
        Some("evented") => Backend::Evented,
        Some(other) => panic!("--server expects loopback|evented, got {other:?}"),
        None if flags.has("loopback") => Backend::Loopback,
        None if smoke => Backend::Loopback,
        None => Backend::Evented,
    };
    let telemetry_json = flags.get_required_value("telemetry-json");
    let telemetry_enabled = flags.has("telemetry") || telemetry_json.is_some();
    // Slow-trace threshold for the server under test. Telemetry runs
    // default low enough that the trace ring is provably non-empty
    // (asserted below); plain runs keep the server's 1 ms default.
    let trace_threshold = flags
        .get_u64("trace-threshold-us")
        .map(std::time::Duration::from_micros)
        .unwrap_or(if telemetry_enabled && !smoke {
            std::time::Duration::from_micros(100)
        } else if telemetry_enabled {
            std::time::Duration::ZERO
        } else {
            std::time::Duration::from_millis(1)
        });
    if connections.is_some() && backend == Backend::Loopback {
        panic!("--connections needs a TCP server; pass --server evented");
    }
    if port.is_some() && backend == Backend::Loopback {
        panic!("--port binds a TCP listener; pass --server evented");
    }
    if telemetry_enabled && backend == Backend::Loopback {
        panic!("--telemetry scrapes over the wire; pass --server evented");
    }
    if churn && connections.is_some() {
        panic!("--churn and --connections are different connection shapes; pick one");
    }

    ropuf_bench::header(
        "LOADGEN — mixed benign/LISA traffic against the serving surface",
        "the wire rejects every attacked device with the DeviceFlagged error code while benign fleets authenticate flag-free at serving speed",
    );

    let detector = DetectorConfig::default();
    let spec = TrafficSpec {
        devices,
        master_seed,
        rounds,
        lisa: LisaConfig::default(),
        detector,
    };
    let t0 = Instant::now();
    let plan = TrafficPlan::build(&spec);
    println!(
        "traffic plan: {} devices ({} attacked, {} benign), {} requests, built in {:.0} ms",
        plan.devices.len(),
        plan.attackers().count(),
        plan.benign().count(),
        plan.total_requests(),
        t0.elapsed().as_secs_f64() * 1e3,
    );

    // One shard-partitioned enrollment call for the whole fleet.
    let verifier = Arc::new(Verifier::new(shards, detector));
    let t0 = Instant::now();
    let enroll_results = verifier.enroll_batch(plan.enrollments());
    assert!(
        enroll_results.iter().all(Result::is_ok),
        "fresh fleet ids cannot collide"
    );
    println!(
        "enrolled {} devices into {} shards via one enroll_batch call in {:.1} ms",
        enroll_results.len(),
        shards,
        t0.elapsed().as_secs_f64() * 1e3,
    );

    let handler: Arc<dyn RequestHandler> = Arc::new(VerifierHandler::new(Arc::clone(&verifier)));

    /// Post-run server-side counters (evented backend only).
    struct ServerStats {
        accepted: u64,
        requests: u64,
        evicted_idle: u64,
        evicted_slow: u64,
    }

    let t0 = Instant::now();
    let mut server_stats: Option<ServerStats> = None;
    let mut scrape_report: Option<ScrapeReport> = None;
    // A fixed --port invites external observers (ropuf-ops); their
    // connections and scrape frames make exact-equality gates
    // unprovable, so those relax to lower bounds below.
    let bind_addr = format!("127.0.0.1:{}", port.unwrap_or(0));
    let exact_gates = port.is_none();
    let sample_interval = std::time::Duration::from_millis(250);
    // LoopInfo probes issued while opening held pools (evented only);
    // they land on the server's request counter, so the exact gate
    // must account for them.
    let mut probe_ops = 0u64;
    let (outcomes, latencies) = match backend {
        Backend::Loopback => {
            println!(
                "transport: in-process loopback (full wire codec, no sockets), {threads} client thread(s)"
            );
            let pools = (0..threads.max(1))
                .map(|_| {
                    let mut client = Client::new(LoopbackTransport::new(Arc::clone(&handler)));
                    client.hello("loadgen").expect("handshake");
                    ClientPool::plain(vec![client])
                })
                .collect();
            run_pools(&plan, pools)
        }
        #[cfg(not(target_os = "linux"))]
        Backend::Evented => panic!("--server evented requires Linux (epoll)"),
        #[cfg(target_os = "linux")]
        Backend::Evented => {
            let config = EventedConfig {
                loops,
                slow_trace_threshold: trace_threshold,
                trace_capacity: 2048,
                sample_interval,
                series_capacity: 2048,
                ..EventedConfig::default()
            };
            println!(
                "evented topology: {loops} event loop(s) (default min(available_parallelism, 4) = {}), reuseport {}",
                default_loops(),
                if config.reuseport { "on" } else { "off" },
            );
            let server = EventedServer::spawn(bind_addr.as_str(), Arc::clone(&handler), config)
                .expect("bind localhost");
            let addr = server.local_addr();
            let scraper = telemetry_enabled.then(|| Scraper::start(addr));
            // The scraper (connected synchronously above) holds one
            // extra connection; the held-shape gauge assertion is
            // about the replay pools.
            let gauge = || server.open_connections() - usize::from(telemetry_enabled);
            let result = run_tcp(
                &plan,
                addr,
                threads,
                connections,
                churn,
                &gauge,
                exact_gates,
                (shards, loops),
                &mut probe_ops,
            );
            scrape_report = scraper.map(|s| s.finish(addr));
            let (evicted_idle, evicted_slow) = server.evictions();
            server_stats = Some(ServerStats {
                accepted: server.accepted_total(),
                requests: server.requests_served(),
                evicted_idle,
                evicted_slow,
            });
            server.shutdown();
            result
        }
    };
    let wall = t0.elapsed().as_secs_f64();

    /// Dispatches the chosen connection shape against the evented
    /// server's address; in the held shape, asserts the server's
    /// open-connection gauge (`exact_gauge` false — a fixed `--port`
    /// with external observers attached — weakens equality to a lower
    /// bound) and arms the LoopInfo probe + loop-affine routing over
    /// `affine` (`(shards, loops)`); the probe op count accumulates
    /// into `probe_ops`.
    #[allow(clippy::too_many_arguments)]
    fn run_tcp(
        plan: &TrafficPlan,
        addr: std::net::SocketAddr,
        threads: usize,
        connections: Option<usize>,
        churn: bool,
        held_gauge: &dyn Fn() -> usize,
        exact_gauge: bool,
        affine: (usize, usize),
        probe_ops: &mut u64,
    ) -> (Vec<DeviceOutcome>, Histogram) {
        if churn {
            println!(
                "transport: TCP {addr} (evented), connection churn — one connection per device replay, {threads} client thread(s)"
            );
            return run_churn(plan, threads, || {
                Client::new(TcpTransport::connect(addr).expect("churn connect"))
            });
        }
        match connections {
            None => {
                println!(
                    "transport: TCP {addr} (evented), one connection per client thread, {threads} thread(s)"
                );
                let pools = (0..threads.max(1))
                    .map(|_| {
                        let mut client = Client::new(
                            TcpTransport::connect(addr).expect("connect to own server"),
                        );
                        client.hello("loadgen").expect("handshake");
                        ClientPool::plain(vec![client])
                    })
                    .collect();
                run_pools(plan, pools)
            }
            Some(count) => {
                let t0 = Instant::now();
                let (pools, probes) = open_held_pools(addr, count, threads, affine);
                *probe_ops += probes;
                println!(
                    "transport: TCP {addr} (evented), {count} connections held concurrently (opened + handshaken in {:.0} ms), {threads} client thread(s)",
                    t0.elapsed().as_secs_f64() * 1e3,
                );
                let open = held_gauge();
                if exact_gauge {
                    assert_eq!(
                        open, count,
                        "every held connection must be established simultaneously"
                    );
                } else {
                    assert!(
                        open >= count,
                        "every held connection must be established simultaneously \
                         (gauge {open} < {count}; external observers only add connections)"
                    );
                }
                run_pools(plan, pools)
            }
        }
    }

    // ── Report ──────────────────────────────────────────────────────
    let total: usize = outcomes.iter().map(|o| o.requests).sum();
    let ops = total as f64 / wall.max(1e-9);
    let s = latencies.summary();
    println!(
        "\nreplayed {total} authentication requests in {:.2} s = {ops:.0} ops/s",
        wall
    );
    println!(
        "latency: p50 {:.1} us | p90 {:.1} us | p99 {:.1} us | p999 {:.1} us | max {:.1} us",
        s.p50 as f64 / 1e3,
        s.p90 as f64 / 1e3,
        s.p99 as f64 / 1e3,
        s.p999 as f64 / 1e3,
        s.max as f64 / 1e3,
    );
    if let Some(stats) = &server_stats {
        println!(
            "server: accepted {} connection(s), served {} request frame(s), evicted {} idle / {} slow",
            stats.accepted, stats.requests, stats.evicted_idle, stats.evicted_slow,
        );
    }

    println!(
        "\n{:>7} {:>18} {:>9} {:>9} {:>9} {:>9} {:>11} {:>17}",
        "device", "scheme", "role", "requests", "accepted", "rejected", "flagged@", "reason"
    );
    for o in &outcomes {
        println!(
            "{:>7} {:>18} {:>9} {:>9} {:>9} {:>9} {:>11} {:>17}",
            o.device_id,
            o.scheme,
            match o.role {
                Role::Benign => "benign",
                Role::LisaAttacker => "attacker",
            },
            o.requests,
            o.accepted,
            o.rejected,
            o.wire_flagged_at.map_or("-".into(), |i| i.to_string()),
            o.flag_reason.as_deref().unwrap_or("-"),
        );
    }

    // ── Acceptance gates ────────────────────────────────────────────
    assert!(total > 0 && ops > 0.0, "throughput must be nonzero");
    let attackers: Vec<&DeviceOutcome> = outcomes
        .iter()
        .filter(|o| o.role == Role::LisaAttacker)
        .collect();
    let benign: Vec<&DeviceOutcome> = outcomes.iter().filter(|o| o.role == Role::Benign).collect();
    for o in &attackers {
        assert!(
            o.wire_flagged_at.is_some(),
            "attacked device {} was never rejected with the DeviceFlagged wire error",
            o.device_id
        );
        assert!(
            o.flag_reason.is_some(),
            "attacked device {} not flagged in the registry",
            o.device_id
        );
    }
    for o in &benign {
        assert!(
            o.wire_flagged_at.is_none() && o.flag_reason.is_none(),
            "benign device {} was flagged ({:?})",
            o.device_id,
            o.flag_reason
        );
    }
    if let Some(stats) = &server_stats {
        // Every auth request plus the per-device flag query landed on
        // the server (plus handshakes, which depend on the shape).
        assert!(
            stats.requests as usize >= total + plan.devices.len(),
            "server frame count {} below the replayed workload {}",
            stats.requests,
            total + plan.devices.len(),
        );
    }
    // Tail gate (--assert-p999-us): the printed p999 becomes a hard
    // floor CI can guardband against.
    if let Some(limit_us) = flags.get_u64("assert-p999-us") {
        let p999_us = s.p999 as f64 / 1e3;
        assert!(
            s.p999 <= limit_us.saturating_mul(1000),
            "client-observed p999 {p999_us:.1} us exceeds the --assert-p999-us {limit_us} us gate"
        );
        println!("tail gate: p999 {p999_us:.1} us <= {limit_us} us — ok");
    }
    let mean_flag_at = attackers
        .iter()
        .filter_map(|o| o.wire_flagged_at)
        .sum::<usize>() as f64
        / attackers.len().max(1) as f64;
    println!(
        "\nverdict: {}/{} attacked devices rejected at the wire (DeviceFlagged, mean request index {mean_flag_at:.1}), {}/{} benign devices flagged — all gates asserted.",
        attackers.iter().filter(|o| o.wire_flagged_at.is_some()).count(),
        attackers.len(),
        benign.iter().filter(|o| o.flag_reason.is_some()).count(),
        benign.len(),
    );

    // ── Telemetry gates (--telemetry) ───────────────────────────────
    if let Some(scrape) = &scrape_report {
        // Every op the client side issued, by construction of the run:
        // shape handshakes, the replayed auths, one verdict query per
        // device, the scraper's own traffic, and the final scrape
        // (which counts itself — the counter increments before the
        // snapshot is cut).
        let hellos = if churn {
            0
        } else {
            connections.unwrap_or(threads.max(1))
        } as u64;
        let client_ops = hellos
            + probe_ops
            + total as u64
            + plan.devices.len() as u64
            + scrape.scraper_ops
            + scrape.final_ops;
        let served = scrape.snapshot.counter_total("server.requests");
        if exact_gates {
            assert_eq!(
                served,
                client_ops,
                "server-side request counter must equal the client-side op count exactly \
                 ({hellos} handshakes + {probe_ops} loop probes + {total} auths + {} verdict queries + {} scraper ops + {} final ops)",
                plan.devices.len(),
                scrape.scraper_ops,
                scrape.final_ops,
            );
        } else {
            // External observers on the fixed --port add frames of
            // their own; the server can only ever see *more* than us.
            assert!(
                served >= client_ops,
                "server-side request counter {served} below the client-side op count {client_ops}"
            );
        }
        for phase in ropuf_telemetry::SERIES_PHASES {
            match scrape.snapshot.find(
                "server.request.phase_ns",
                &[
                    ("backend", backend.name()),
                    ("msg", "auth"),
                    ("phase", phase),
                ],
            ) {
                Some(ropuf_telemetry::MetricValue::Histogram(h)) => {
                    assert!(h.count > 0, "auth {phase} phase histogram is empty");
                }
                other => panic!("auth {phase} phase histogram missing: {other:?}"),
            }
        }
        // The trace ring must actually hold traces — an artifact whose
        // slowest-requests section is empty proves nothing. The
        // threshold defaults (100 µs full / 0 smoke) make this
        // satisfiable by construction.
        assert!(
            scrape.trace.recorded > 0,
            "slow-request trace ring is empty at threshold {} us; lower --trace-threshold-us",
            trace_threshold.as_micros(),
        );
        let slowest = scrape
            .trace
            .records
            .iter()
            .map(|r| r.total_ns)
            .max()
            .unwrap_or(0);
        println!(
            "\ntelemetry: server counted {served} request frames {} {client_ops} client-side ops{}, \
             {} mid-run scrapes under load; trace ring: {} slow requests recorded, {} dropped, slowest {:.1} us",
            if exact_gates { "==" } else { ">=" },
            if exact_gates { " (exact)" } else { " (external observers attached)" },
            scrape.mid_run_scrapes,
            scrape.trace.recorded,
            scrape.trace.dropped,
            slowest as f64 / 1e3,
        );

        // Top-K slowest traced requests, with the full five-phase
        // attribution (where did the tail request actually wait?).
        let mut slowest_traces: Vec<&ropuf_telemetry::TraceRecord> =
            scrape.trace.records.iter().collect();
        slowest_traces.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        slowest_traces.truncate(8);
        println!(
            "{:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
            "seq", "msg", "total_us", "ready", "decode", "handle", "flush", "fl-wait", "worker"
        );
        for r in &slowest_traces {
            println!(
                "{:>6} {:>#6x} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>6}",
                r.seq,
                r.msg_type,
                r.total_ns as f64 / 1e3,
                r.ready_ns as f64 / 1e3,
                r.decode_ns as f64 / 1e3,
                r.handle_ns as f64 / 1e3,
                r.flush_ns as f64 / 1e3,
                r.flush_wait_ns as f64 / 1e3,
                r.worker,
            );
        }
        println!(
            "timeseries: {} point(s) sampled at {} ms cadence ({} in the ring)",
            scrape.timeseries.sampled,
            scrape.timeseries.interval_ns / 1_000_000,
            scrape.timeseries.points.len(),
        );
        assert_eq!(
            scrape.timeseries.interval_ns,
            u64::try_from(sample_interval.as_nanos()).expect("small interval"),
            "the dumped ring must carry the configured sampling cadence"
        );

        if let Some(path) = telemetry_json {
            let phases_json = ropuf_telemetry::SERIES_PHASES
                .iter()
                .map(|phase| {
                    format!(
                        "\"auth_{}\": {}",
                        phase.replace('-', "_"),
                        phase_summary_json(&scrape.snapshot, backend.name(), phase)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let traces_json = slowest_traces
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"seq\": {}, \"msg_type\": {}, \"worker\": {}, \"total_ns\": {}, \
                         \"ready_ns\": {}, \"decode_ns\": {}, \"handle_ns\": {}, \
                         \"flush_ns\": {}, \"flush_wait_ns\": {}}}",
                        r.seq,
                        r.msg_type,
                        r.worker,
                        r.total_ns,
                        r.ready_ns,
                        r.decode_ns,
                        r.handle_ns,
                        r.flush_ns,
                        r.flush_wait_ns,
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            let artifact = format!(
                "{{\n  \"schema\": \"ropuf-bench-telemetry/v1\",\n  \"mode\": \"{}\",\n  \"server\": \"{}\",\n  \"trace_threshold_us\": {},\n  \"requests\": {total},\n  \"client_ops\": {client_ops},\n  \"server_requests\": {served},\n  \"exact_op_accounting\": {exact_gates},\n  \"mid_run_scrapes\": {},\n  \"client_latency_us\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \"max\": {:.1}}},\n  \"server_phase_ns\": {{{phases_json}}},\n  \"timeseries\": {{\"sampled\": {}, \"returned\": {}, \"interval_ns\": {}}},\n  \"trace\": {{\"recorded\": {}, \"dropped\": {}, \"returned\": {}, \"slowest_total_ns\": {slowest}}},\n  \"slowest_traces\": [\n{traces_json}\n  ]\n}}\n",
                if smoke { "smoke" } else { "full" },
                backend.name(),
                trace_threshold.as_micros(),
                scrape.mid_run_scrapes,
                s.p50 as f64 / 1e3,
                s.p99 as f64 / 1e3,
                s.p999 as f64 / 1e3,
                s.max as f64 / 1e3,
                scrape.timeseries.sampled,
                scrape.timeseries.points.len(),
                scrape.timeseries.interval_ns,
                scrape.trace.recorded,
                scrape.trace.dropped,
                scrape.trace.records.len(),
            );
            ropuf_bench::write_artifact(path, &artifact);
        }
    }

    if let Some(path) = flags.get_required_value("json") {
        let stats_json = match &server_stats {
            Some(stats) => format!(
                "{{\"accepted\": {}, \"served_frames\": {}, \"evicted_idle\": {}, \"evicted_slow\": {}}}",
                stats.accepted, stats.requests, stats.evicted_idle, stats.evicted_slow
            ),
            None => "null".to_string(),
        };
        let artifact = format!(
            "{{\n  \"schema\": \"ropuf-bench-loadgen/v1\",\n  \"mode\": \"{}\",\n  \"server\": \"{}\",\n  \"connection_shape\": \"{}\",\n  \"config\": {{\"devices\": {devices}, \"rounds\": {rounds}, \"seed\": {master_seed}, \"shards\": {shards}, \"threads\": {threads}, \"loops\": {loops}, \"connections\": {}}},\n  \"requests\": {total},\n  \"ops_per_s\": {ops:.0},\n  \"latency_us\": {{\"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \"max\": {:.1}}},\n  \"server_stats\": {stats_json}\n}}\n",
            if smoke { "smoke" } else { "full" },
            backend.name(),
            if churn {
                "churn"
            } else if connections.is_some() {
                "held"
            } else {
                "per-thread"
            },
            connections.map_or("null".to_string(), |c| c.to_string()),
            s.p50 as f64 / 1e3,
            s.p90 as f64 / 1e3,
            s.p99 as f64 / 1e3,
            s.p999 as f64 / 1e3,
            s.max as f64 / 1e3,
        );
        ropuf_bench::write_artifact(path, &artifact);
    }
}

/// Chaos mode (`--chaos <seed>`): the full resilience stack under
/// deterministic fire, measured instead of merely proven.
///
/// The evented backend serves a durable registry whose WAL is armed to
/// fail exactly at the first flag append (latching read-only degraded
/// mode mid-run), behind an admission policy with real budgets. Every
/// client connection runs through a seeded [`FaultPlan`] — partial
/// I/O, injected delays, random connection resets — and every request
/// is driven by the retrying [`ResilientClient`]. A concurrent
/// overload probe pipelines a scrape burst through one connection to
/// push it over the brown-out budget and counts the `Overloaded`
/// answers.
///
/// Floors asserted, not just printed: eventual success ≥ 99.9 %
/// (100 % under `--smoke`), at least one retry and one reconnect,
/// brown-out sheds observed while scrapes still serve, exactly one
/// degraded transition from exactly one injected WAL fault, and the
/// shed path answering in well under a millisecond amortized while
/// the authentication traffic keeps flowing.
///
/// `--json PATH` writes a `ropuf-bench-chaos/v1` artifact.
///
/// [`FaultPlan`]: ropuf_proto::FaultPlan
/// [`ResilientClient`]: ropuf_server::ResilientClient
#[cfg(target_os = "linux")]
mod chaos {
    use std::io::Write as _;
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    use ropuf_numeric::Histogram;
    use ropuf_proto::{
        derive_seed, ErrorCode, FaultPlan, FaultStats, FrameReader, FrameWriter, Request, Response,
        RATE_ONE,
    };
    use ropuf_server::{
        Deadlines, EventedConfig, EventedServer, OverloadPolicy, RequestHandler, ResilientClient,
        RetryPolicy, Role, TrafficPlan, TrafficSpec, VerifierHandler,
    };
    use ropuf_verifier::{DetectorConfig, StoreFaults, StoreOptions, Verifier};

    use ropuf_constructions::pairing::lisa::LisaConfig;

    /// Admission budgets for the run: brown-out at 64 KiB of pending
    /// out-buffer, hard ceiling at 512 KiB, clients told to come back
    /// in 2 ms.
    fn overload_policy() -> OverloadPolicy {
        OverloadPolicy {
            brownout_pressure: 64 * 1024,
            max_pressure: 512 * 1024,
            retry_after_ms: 2,
        }
    }

    fn retry_policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            budget: 8,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(20),
            seed,
        }
    }

    /// What one device's chaos replay produced.
    struct Outcome {
        device_id: u64,
        role: Role,
        requests: usize,
        answered: usize,
        /// Exchanges that exhausted the retry budget.
        failed: usize,
        wire_flagged: bool,
        registry_flagged: bool,
    }

    /// What the overload probe observed.
    struct ProbeReport {
        sent: usize,
        served: usize,
        shed: usize,
        drain: Duration,
    }

    /// Pipelines `burst` MetricsSnapshot requests through one raw
    /// connection without reading, pushing its pending out-buffer over
    /// the brown-out budget, then drains and classifies every answer.
    fn overload_probe(addr: SocketAddr, burst: usize) -> ProbeReport {
        let stream = std::net::TcpStream::connect(addr).expect("probe connect");
        stream.set_nodelay(true).ok();
        let mut write_half = stream.try_clone().expect("probe clone");
        let mut wire = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut wire);
            for _ in 0..burst {
                writer
                    .write_request(&Request::MetricsSnapshot)
                    .expect("encode");
            }
        }
        write_half.write_all(&wire).expect("probe burst write");
        let t0 = Instant::now();
        let mut reader = FrameReader::new(stream);
        let (mut served, mut shed) = (0usize, 0usize);
        for i in 0..burst {
            let payload = reader
                .read_frame()
                .expect("probe read")
                .unwrap_or_else(|| panic!("server closed the probe at answer {i}/{burst}"));
            match Response::decode(&payload).expect("probe answer decodes") {
                Response::MetricsBin { .. } => served += 1,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    detail,
                } => {
                    assert!(
                        ropuf_proto::parse_retry_after_ms(&detail).is_some(),
                        "Overloaded must carry a retry_after_ms hint, got {detail:?}"
                    );
                    shed += 1;
                }
                other => panic!("probe answer {i}: unexpected {other:?}"),
            }
        }
        ProbeReport {
            sent: burst,
            served,
            shed,
            drain: t0.elapsed(),
        }
    }

    #[allow(clippy::too_many_lines)]
    pub fn run(flags: &ropuf_bench::Flags) {
        let smoke = flags.has("smoke");
        let chaos_seed = flags.get_u64("chaos").expect("--chaos takes a seed");
        let fault_rate =
            u32::try_from(flags.get_u64("fault-rate").unwrap_or(2048)).expect("rate fits u32");
        assert!(fault_rate <= RATE_ONE, "--fault-rate is per {RATE_ONE}");
        let devices = flags
            .get_usize("devices")
            .unwrap_or(if smoke { 8 } else { 32 });
        let rounds = flags
            .get_usize("rounds")
            .unwrap_or(if smoke { 4 } else { 16 });
        let master_seed = flags.get_u64("seed").unwrap_or(1);
        let shards = flags.get_usize("shards").unwrap_or(8);
        let threads = flags
            .get_usize("threads")
            .unwrap_or(if smoke { 2 } else { 4 });
        let connections = flags
            .get_usize("connections")
            .unwrap_or(if smoke { 64 } else { 1024 });
        let loops = flags
            .get_usize("loops")
            .unwrap_or_else(super::default_loops);

        ropuf_bench::header(
            "LOADGEN --chaos — deterministic fault injection against the resilient stack",
            "under seeded partial I/O, resets, and a mid-run WAL failure, the retrying client converges to >= 99.9% eventual success while overload sheds answer in well under a millisecond",
        );

        let detector = DetectorConfig::default();
        let spec = TrafficSpec {
            devices,
            master_seed,
            rounds,
            lisa: LisaConfig::default(),
            detector,
        };
        let plan = TrafficPlan::build(&spec);
        println!(
            "traffic plan: {} devices ({} attacked), {} requests; chaos seed {chaos_seed}, fault rate {fault_rate}/{RATE_ONE} partial, {}/{RATE_ONE} delay, {}/{RATE_ONE} reset",
            plan.devices.len(),
            plan.attackers().count(),
            plan.total_requests(),
            fault_rate / 4,
            fault_rate / 16,
        );

        // Durable registry with the WAL armed to fail at the first
        // *flag* append: the fleet enrolls over the wire (appends
        // 0..devices), so append `devices` is the first best-effort
        // flag write — it latches read-only without changing answers.
        let dir = std::env::temp_dir().join(format!("ropuf-chaos-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = StoreFaults::new().fail_append_at(devices as u64);
        let (verifier, _) = Verifier::open_durable_faulted(
            &dir,
            shards,
            detector,
            StoreOptions::default(),
            Some(faults),
        )
        .expect("open durable store");
        let handler = Arc::new(VerifierHandler::new(Arc::new(verifier)));
        let dyn_handler: Arc<dyn RequestHandler> = handler.clone();

        let config = EventedConfig {
            loops,
            overload: overload_policy(),
            ..EventedConfig::default()
        };
        let server =
            EventedServer::spawn("127.0.0.1:0", dyn_handler, config).expect("bind localhost");
        let addr = server.local_addr();
        println!(
            "server: evented TCP {addr}, {loops} loop(s), admission brownout {} KiB / max {} KiB",
            overload_policy().brownout_pressure / 1024,
            overload_policy().max_pressure / 1024,
        );

        // Every client counts retries into one registry and faults
        // into one stats block, so the artifact can report
        // client.retries{cause} and faults.injected{kind} next to the
        // server-side counters.
        let client_registry = ropuf_telemetry::Registry::new();
        let fault_stats = Arc::new(FaultStats::new());
        let make_client = |conn: u64, pin_enroll_reset: bool| -> ResilientClient {
            let stats = Arc::clone(&fault_stats);
            let mut client =
                ResilientClient::new(addr, retry_policy(chaos_seed ^ conn), Deadlines::default())
                    .expect("resolve addr")
                    .with_faults(Box::new(move |serial| {
                        let plan = FaultPlan::new(derive_seed(chaos_seed, conn * 4096 + serial))
                            .with_partial_io(fault_rate)
                            .with_delays(fault_rate / 4, Duration::from_micros(20))
                            .with_resets(fault_rate / 16)
                            .with_stats(Arc::clone(&stats));
                        if pin_enroll_reset && serial == 0 {
                            // Deterministic idempotency exercise: the first
                            // enroll is applied but its answer dies on the
                            // wire; the retry must draw DuplicateDevice and
                            // report success.
                            plan.with_read_reset_at(0)
                        } else {
                            plan
                        }
                    }));
            client.attach_telemetry(&client_registry);
            client
        };

        // Wire enrollment of the whole fleet, through the chaos.
        let t0 = Instant::now();
        let mut enroller = make_client(1_000_000, true);
        for device in &plan.devices {
            let e = &device.enrollment;
            enroller
                .enroll(e.device_id, e.scheme_tag, e.helper.clone(), e.key_digest)
                .expect("every enroll eventually succeeds");
        }
        assert!(
            enroller.retries_total() > 0,
            "the pinned enroll-response reset must force at least one retry"
        );
        println!(
            "enrolled {} devices over the wire in {:.0} ms ({} retries, {} reconnects)",
            plan.devices.len(),
            t0.elapsed().as_secs_f64() * 1e3,
            enroller.retries_total(),
            enroller.reconnects(),
        );
        drop(enroller);

        // Open and handshake the held connection fleet.
        let t0 = Instant::now();
        let mut pools: Vec<Vec<ResilientClient>> =
            (0..threads.max(1)).map(|_| Vec::new()).collect();
        for i in 0..connections {
            let mut client = make_client(i as u64, false);
            client.hello("loadgen-chaos").unwrap_or_else(|e| {
                panic!("held connection {i}/{connections} never established: {e}")
            });
            pools[i % threads.max(1)].push(client);
        }
        pools.retain(|pool| !pool.is_empty());
        println!(
            "held {} chaos connections established in {:.0} ms across {} thread(s)",
            connections,
            t0.elapsed().as_secs_f64() * 1e3,
            pools.len(),
        );

        // Replay under fire, with the overload probe running
        // concurrently against the same server.
        let t0 = Instant::now();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(Vec<Outcome>, Histogram)>();
        let plan_ref = &plan;
        let probe = std::thread::scope(|scope| {
            for mut pool in pools {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut rr = 0usize;
                    let mut latencies = Histogram::new();
                    let mut outcomes = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(device) = plan_ref.devices.get(i) else {
                            break;
                        };
                        let mut outcome = Outcome {
                            device_id: device.device_id,
                            role: device.role,
                            requests: device.requests.len(),
                            answered: 0,
                            failed: 0,
                            wire_flagged: false,
                            registry_flagged: false,
                        };
                        for item in &device.requests {
                            let slot = rr % pool.len();
                            let client = &mut pool[slot];
                            rr += 1;
                            let t0 = Instant::now();
                            let result = client.authenticate(item.clone());
                            latencies
                                .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                            match result {
                                Ok(_) => outcome.answered += 1,
                                Err(e) if e.error_code() == Some(ErrorCode::DeviceFlagged) => {
                                    outcome.answered += 1;
                                    outcome.wire_flagged = true;
                                }
                                Err(e) if e.error_code().is_some() => {
                                    panic!("device {}: server error: {e}", device.device_id)
                                }
                                Err(_) => outcome.failed += 1,
                            }
                        }
                        let slot = rr % pool.len();
                        outcome.registry_flagged = pool[slot]
                            .query_verdict(device.device_id)
                            .expect("flag query eventually succeeds")
                            .is_some();
                        outcomes.push(outcome);
                    }
                    tx.send((outcomes, latencies)).expect("collector alive");
                });
            }
            drop(tx);
            let probe = scope.spawn(move || overload_probe(addr, 1024));
            probe.join().expect("probe thread panicked")
        });
        let mut outcomes = Vec::new();
        let mut latencies = Histogram::new();
        for (batch, hist) in rx {
            outcomes.extend(batch);
            latencies.merge(&hist);
        }
        outcomes.sort_by_key(|o| o.device_id);
        let wall = t0.elapsed().as_secs_f64();

        // ── Report ──────────────────────────────────────────────────
        let total: usize = outcomes.iter().map(|o| o.requests).sum();
        let answered: usize = outcomes.iter().map(|o| o.answered).sum();
        let failed: usize = outcomes.iter().map(|o| o.failed).sum();
        let success_rate = answered as f64 / total.max(1) as f64;
        let s = latencies.summary();
        let client_snapshot = client_registry.snapshot();
        let retries = client_snapshot.counter_total("client.retries");
        let client_faults = fault_stats.snapshot();
        println!(
            "\nreplayed {total} requests in {wall:.2} s: {answered} answered ({:.4}% eventual success), {failed} exhausted the retry budget",
            success_rate * 100.0,
        );
        println!(
            "time-to-answer (includes retries): p50 {:.1} us | p99 {:.1} us | p999 {:.1} us | max {:.1} us",
            s.p50 as f64 / 1e3,
            s.p99 as f64 / 1e3,
            s.p999 as f64 / 1e3,
            s.max as f64 / 1e3,
        );
        println!(
            "client: {retries} retries ({}), faults injected: {}",
            ["connect", "transport", "overloaded"]
                .iter()
                .map(|cause| {
                    format!(
                        "{cause} {}",
                        match client_snapshot.find("client.retries", &[("cause", cause)]) {
                            Some(ropuf_telemetry::MetricValue::Counter(n)) => *n,
                            _ => 0,
                        }
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
            client_faults
                .iter()
                .map(|(kind, n)| format!("{kind} {n}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        let shed_mean_us = probe.drain.as_secs_f64() * 1e6 / probe.sent.max(1) as f64;
        println!(
            "overload probe: {} pipelined scrapes -> {} served, {} shed (Overloaded), drained in {:.1} ms = {:.0} us/answer amortized",
            probe.sent,
            probe.served,
            probe.shed,
            probe.drain.as_secs_f64() * 1e3,
            shed_mean_us,
        );

        // The authoritative post-run scrape (a fault-free client).
        let mut scraper = ResilientClient::new(addr, retry_policy(0), Deadlines::default())
            .expect("resolve addr");
        let snapshot = scraper.metrics().expect("final scrape");
        let degraded = snapshot.counter_total("server.degraded_transitions");
        let wal_faults = snapshot.counter_total("faults.injected");
        let sheds = snapshot.counter_total("server.shed");
        println!(
            "server: {} requests served, {sheds} shed, {degraded} degraded transition(s), {wal_faults} injected store fault(s)",
            snapshot.counter_total("server.requests"),
        );

        // ── Floors (asserted, not just printed) ─────────────────────
        if smoke {
            assert_eq!(failed, 0, "smoke requires 100% eventual success");
        } else {
            assert!(
                success_rate >= 0.999,
                "eventual success {:.4}% below the 99.9% floor",
                success_rate * 100.0
            );
        }
        for o in &outcomes {
            match o.role {
                Role::LisaAttacker => assert!(
                    o.wire_flagged && o.registry_flagged,
                    "attacked device {} not flagged under chaos",
                    o.device_id
                ),
                Role::Benign => assert!(
                    !o.wire_flagged && !o.registry_flagged,
                    "benign device {} flagged under chaos",
                    o.device_id
                ),
            }
        }
        assert!(retries > 0, "chaos must exercise the retry machinery");
        assert!(
            client_faults.iter().map(|(_, n)| n).sum::<u64>() > 0,
            "chaos must inject transport faults"
        );
        assert!(
            probe.shed > 0 && probe.served > 0,
            "the probe must see brown-out sheds while scrapes still serve \
             (served {}, shed {})",
            probe.served,
            probe.shed
        );
        assert!(
            shed_mean_us < 1000.0,
            "overloaded answers took {shed_mean_us:.0} us amortized — the shed path must stay under a millisecond"
        );
        assert!(sheds >= probe.shed as u64, "server counted its sheds");
        assert_eq!(degraded, 1, "exactly one read-only latch transition");
        assert_eq!(wal_faults, 1, "exactly one injected WAL fault");
        assert!(
            handler.read_only(),
            "the WAL fault must have latched the registry read-only"
        );
        println!(
            "\nverdict: {:.4}% eventual success, {retries} retries, {sheds} sheds, read-only latch exercised — all floors asserted.",
            success_rate * 100.0,
        );

        if let Some(path) = flags.get_required_value("json") {
            let retries_json = ["connect", "transport", "overloaded"]
                .iter()
                .map(|cause| {
                    format!(
                        "\"{cause}\": {}",
                        match client_snapshot.find("client.retries", &[("cause", cause)]) {
                            Some(ropuf_telemetry::MetricValue::Counter(n)) => *n,
                            _ => 0,
                        }
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let faults_json = client_faults
                .iter()
                .map(|(kind, n)| format!("\"{kind}\": {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let artifact = format!(
                "{{\n  \"schema\": \"ropuf-bench-chaos/v1\",\n  \"mode\": \"{}\",\n  \"server\": \"evented\",\n  \"config\": {{\"devices\": {devices}, \"rounds\": {rounds}, \"seed\": {master_seed}, \"chaos_seed\": {chaos_seed}, \"fault_rate\": {fault_rate}, \"shards\": {shards}, \"threads\": {threads}, \"connections\": {connections}, \"loops\": {loops}}},\n  \"requests\": {total},\n  \"answered\": {answered},\n  \"failed\": {failed},\n  \"eventual_success_rate\": {success_rate:.6},\n  \"availability_us\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \"max\": {:.1}}},\n  \"client\": {{\"retries\": {{{retries_json}}}, \"faults_injected\": {{{faults_json}}}}},\n  \"server\": {{\"sheds\": {sheds}, \"degraded_transitions\": {degraded}, \"store_faults_injected\": {wal_faults}}},\n  \"overload_probe\": {{\"sent\": {}, \"served\": {}, \"shed\": {}, \"drain_ms\": {:.2}, \"amortized_us_per_answer\": {shed_mean_us:.1}}}\n}}\n",
                if smoke { "smoke" } else { "full" },
                s.p50 as f64 / 1e3,
                s.p99 as f64 / 1e3,
                s.p999 as f64 / 1e3,
                s.max as f64 / 1e3,
                probe.sent,
                probe.served,
                probe.shed,
                probe.drain.as_secs_f64() * 1e3,
            );
            ropuf_bench::write_artifact(path, &artifact);
        }

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
