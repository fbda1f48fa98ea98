//! `servebench`: the serving benchmark of the ropuf verifier.
//!
//! ```text
//! servebench --workload auth-single|attack-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns the evented server in-process with `EventedConfig::default()`
//! in front of a 65,536-device fleet. Each of five rounds runs: set-up,
//! warm-up, a fixed-rate open-loop phase (latency and CPU), a
//! closed-loop saturation phase, and the checks. Every answer is
//! checked. The last stdout line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); see README.md in this directory.

mod gen;
mod probe;
mod report;
mod setup;
mod stream;
mod trace;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use ropuf_proto::{RequestRef, Response};
use ropuf_telemetry::Snapshot;
use ropuf_verifier::EnrollmentRecord;

use gen::{Checker, Pace, Phase, PhaseResult};
use probe::ServerCpu;
use report::{median, percentile, slow_quartile, Values};
use setup::{Deployment, SetupTimes};
use stream::{Arrivals, Stream, Workload};
use trace::{LayerTable, MSGS, RECONCILE_TOLERANCE};

/// Deployments per run. Each round sets up its own deployment (timed:
/// `setup_s` is the median), then measures on it. Latency, throughput
/// and CPU per op on a small shared VM settle at a different level for
/// each deployment and shift with the host's other guests, so a run
/// measures many short blocks over several deployments and reports
/// their slower quartile (`report::slow_quartile`) rather than trusting
/// one window.
const ROUNDS: u32 = 5;

/// Blocks per measured window of a round, each with a fresh generator
/// thread pair.
const BLOCKS: u32 = 8;

/// Frames in flight per connection in the saturation window: deep
/// enough that the event loop always has a full read waiting.
const SATURATION_WINDOW: usize = 512;

/// Benign auths and new enrollments the traced run replays through
/// the layer functions.
const REPLAY_AUTHS: usize = 16_384;
const REPLAY_ENROLLS: usize = 4_096;

const USAGE: &str =
    "usage: servebench --workload auth-single|attack-mix --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where traced runs leave their spans and layer table, and where each
/// run keeps its scratch directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's scratch directory (durable stores, replay stores). Removed
/// on exit, while unwinding from a panic, and by the watchdog.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<Self> {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Fails a run that overruns its length instead of letting it hang:
/// removes the scratch directory and exits non-zero. Deliberately
/// detached — it ends the process, or dies with it.
fn start_watchdog(limit: Duration, dir: PathBuf) {
    thread::Builder::new()
        .name(format!("{}watchdog", probe::THREAD_PREFIX))
        .spawn(move || {
            thread::sleep(limit);
            eprintln!("servebench: run exceeded {limit:?}; failing it");
            let _ = fs::remove_dir_all(&dir);
            std::process::exit(3);
        })
        .expect("spawn the watchdog");
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = match RunDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("servebench: cannot create the run directory: {e}");
            std::process::exit(2);
        }
    };
    start_watchdog(
        Duration::from_secs((60 + 3 * args.seconds).min(170)),
        dir.0.clone(),
    );
    let ok = run(&args, &dir.0);
    drop(dir);
    std::process::exit(if ok { 0 } else { 1 });
}

fn secs(total: u64, share: f64) -> Duration {
    Duration::from_secs_f64(total as f64 * share)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What the fixed-rate and saturation windows of all rounds add up to.
#[derive(Default)]
struct Totals {
    latencies_ns: Vec<u64>,
    lateness_ns: Vec<u64>,
    scheduled: u64,
    sent: u64,
    fixed_ns: f64,
    elapsed_ns: u64,
    backlog_end: u64,
    fixed_ops: u64,
    cpu: ServerCpu,
    steal: probe::Steal,
    load: trace::LoopLoad,
    /// `(host steal, value)` per block: p50 (µs) and server CPU per op
    /// (µs) of each fixed-rate block, ops per second of each
    /// saturation block.
    block_p50_us: Vec<(f64, f64)>,
    block_cpu_us: Vec<(f64, f64)>,
    block_rps: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
}

impl Totals {
    fn add_phase(&mut self, r: &PhaseResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    fn add_fixed(&mut self, r: &PhaseResult, duration: Duration) {
        self.latencies_ns.extend_from_slice(&r.latencies_ns);
        self.lateness_ns.extend_from_slice(&r.lateness_ns);
        self.scheduled += r.frames_scheduled;
        self.sent += r.frames_sent;
        self.fixed_ns += duration.as_nanos() as f64;
        self.elapsed_ns += r.elapsed_ns;
        self.backlog_end = self.backlog_end.max(r.backlog_end);
        self.fixed_ops += r.ops;
    }
}

/// One round's deployment, measured and checked, then torn down.
fn round(
    args: &Args,
    dir: &Path,
    k: u32,
    t: &mut Totals,
    values: &mut Values,
    checker: &mut Checker,
) -> SetupTimes {
    let w = args.workload;
    let s = args.seconds;
    let last = k + 1 == ROUNDS;
    let store = dir.join(format!("store-{k}"));
    let dep = setup::deploy(w, args.seed, args.trace && last, &store);
    if k == 0 {
        report_topology(&dep, values);
    }
    let mut stream = Stream::new(w, &dep.fleet, k);
    let share = |x: f64| x / f64::from(ROUNDS);
    let phase = |pace: Pace, duration: Duration, trace: bool| Phase {
        pace,
        duration,
        trace,
        scrapes: w == Workload::AttackMix,
    };
    let mut frames = 0;
    let mut run =
        |stream: &mut Stream<'_>, checker: &mut Checker, t: &mut Totals, n: u32, p: Phase| {
            let mut arrivals = Arrivals::new(args.seed, u64::from(k * 100 + n), w.rate());
            let r = gen::run(&dep, stream, &mut arrivals, checker, p);
            t.add_phase(&r);
            frames += r.frames_sent;
            r
        };

    run(
        &mut stream,
        checker,
        t,
        0,
        phase(Pace::Open, secs(s, share(0.1)), false),
    );

    let block = secs(s, share(0.45)) / BLOCKS;
    let (mut round_lat, mut round_cpu, mut round_ops) = (Vec::new(), ServerCpu::default(), 0);
    for b in 0..BLOCKS {
        let before = dep.server.telemetry().snapshot();
        let (cpu0, steal0) = (ServerCpu::now(), probe::Steal::now());
        let r = run(
            &mut stream,
            checker,
            t,
            1 + b,
            phase(Pace::Open, block, false),
        );
        let cpu = ServerCpu::now().since(cpu0);
        let steal = probe::Steal::now().since(steal0);
        t.steal = t.steal.plus(steal);
        t.load.add(&before, &dep.server.telemetry().snapshot());
        t.cpu = t.cpu.plus(cpu);
        t.block_cpu_us
            .push((steal.frac(), us(cpu.total_ns()) / r.ops.max(1) as f64));
        t.block_p50_us.push((
            steal.frac(),
            us(percentile(&sorted(r.latencies_ns.clone()), 0.5)),
        ));
        t.add_fixed(&r, block);
        round_lat.extend_from_slice(&r.latencies_ns);
        round_cpu = round_cpu.plus(cpu);
        round_ops += r.ops;
    }
    if k == 0 {
        // The first deployment's peak, before its saturation window:
        // later rounds reuse (or fail to reuse) the heap earlier ones
        // freed, and saturation enrolls as many devices as the host's
        // speed lets it, which moved the whole run's peak by up to
        // 20 MB between runs of the same code.
        values.set("rss_mb", probe::status_kb("VmHWM") as f64 / 1024.0);
    }

    if let (Some(tracer), true) = (dep.tracer.clone(), last) {
        let untraced_p50 = us(percentile(&sorted(round_lat), 0.5));
        let untraced_cpu = us(round_cpu.total_ns()) / round_ops.max(1) as f64;
        tracer.switch(true);
        let before = dep.server.telemetry().snapshot();
        let cpu0 = ServerCpu::now();
        let traced = run(
            &mut stream,
            checker,
            t,
            10,
            phase(Pace::Open, secs(s, 0.3), true),
        );
        let cpu = ServerCpu::now().since(cpu0);
        let after = dep.server.telemetry().snapshot();
        tracer.switch(false);
        trace_report(w, &traced, &tracer.take(), &before, &after, values, checker);
        let traced_p50 = us(percentile(&sorted(traced.latencies_ns.clone()), 0.5));
        values.set("trace.overhead_p50_us", traced_p50 - untraced_p50);
        values.set(
            "trace.overhead_cpu_us_per_op",
            us(cpu.total_ns()) / traced.ops.max(1) as f64 - untraced_cpu,
        );
    } else if !args.trace {
        let block = secs(s, share(0.45)) / BLOCKS;
        for b in 0..BLOCKS {
            let steal0 = probe::Steal::now();
            let r = run(
                &mut stream,
                checker,
                t,
                20 + b,
                phase(
                    Pace::Closed {
                        window: SATURATION_WINDOW,
                    },
                    block,
                    false,
                ),
            );
            let steal = probe::Steal::now().since(steal0).frac();
            t.block_rps
                .push((steal, r.ops as f64 / (r.elapsed_ns.max(1) as f64 / 1e9)));
        }
    }

    let scrape_bytes = final_checks(&dep, frames, checker);
    if last {
        let end = dep.server.telemetry().snapshot();
        values.set(
            "telemetry.scrape_us",
            trace::hist_mean_ns(
                &Snapshot::default(),
                &end,
                "server.request.phase_ns",
                &[
                    ("backend", "evented"),
                    ("msg", "metrics"),
                    ("phase", "handle"),
                ],
            ) / 1e3,
        );
        values.set("telemetry.scrape_bytes", scrape_bytes as f64);
        values.set("server.shed", end.counter_total("server.shed") as f64);
        values.set("server.evicted", end.counter_total("server.evicted") as f64);
        if args.trace {
            replays(&dep, &mut stream, dir, values, checker);
        }
    }
    drop(stream);
    let times = dep.times;
    dep.shutdown();
    let _ = fs::remove_dir_all(&store);
    times
}

fn report_topology(dep: &Deployment, values: &mut Values) {
    let loops_of: Vec<u32> = dep.conns.iter().map(|c| c.loop_id).collect();
    println!(
        "box: nproc {}, kernel {}; server: evented, EventedConfig::default(), {} loop(s); \
         generator: {} connection(s) on loop(s) {loops_of:?}, {} threads",
        probe::nproc(),
        probe::kernel(),
        dep.loops,
        dep.conns.len(),
        gen::THREADS,
    );
    println!(
        "helpers: {}",
        dep.fleet
            .helpers
            .iter()
            .map(|h| format!("{} {} B", h.name, h.bytes.len()))
            .collect::<Vec<_>>()
            .join(", "),
    );
    values.set("gen.connections", dep.conns.len() as f64);
    values.set("gen.threads", gen::THREADS as f64);
    values.set("gen.loops", f64::from(dep.loops));
    values.set("gen.nproc", probe::nproc() as f64);
    if let Some(t) = dep.fleet.trajectories.first() {
        values.set("attack.queries_per_trajectory", t.items.len() as f64);
        values.set("attack.flag_index", t.flag_index as f64);
    }
}

/// The generator's self-report, printed on every run.
fn self_report(w: Workload, t: &Totals, values: &mut Values) {
    let lat = sorted(t.latencies_ns.clone());
    let late = sorted(t.lateness_ns.clone());
    let offered = t.scheduled as f64 / (t.fixed_ns / 1e9);
    let achieved = t.sent as f64 / (t.elapsed_ns as f64 / 1e9);
    println!(
        "fixed rate: offered {offered:.0} frames/s (target {:.0}), achieved {achieved:.0} frames/s, \
         send lateness p50 {:.1} us p99 {:.1} us, at most {} in flight when a schedule ended",
        w.rate(),
        us(percentile(&late, 0.5)),
        us(percentile(&late, 0.99)),
        t.backlog_end,
    );
    println!(
        "latency from intended send ({} samples): p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, p999 {:.1} us, max {:.1} us",
        lat.len(),
        us(percentile(&lat, 0.5)),
        us(percentile(&lat, 0.9)),
        us(percentile(&lat, 0.99)),
        us(percentile(&lat, 0.999)),
        us(lat.last().copied().unwrap_or(0)),
    );
    println!(
        "host: {:.1}% of the box's CPU time stolen by the hypervisor during the fixed-rate blocks",
        100.0 * t.steal.frac()
    );
    values.set("gen.steal_frac", t.steal.frac());
    println!(
        "server: {:.2} us CPU per op ({:.2} event loops, {:.2} other threads), loops {:.0}% busy, {:.2} ready events per wake-up",
        us(t.cpu.total_ns()) / t.fixed_ops.max(1) as f64,
        us(t.cpu.loops_ns) / t.fixed_ops.max(1) as f64,
        us(t.cpu.aux_ns) / t.fixed_ops.max(1) as f64,
        100.0 * t.load.busy_frac(),
        t.load.ready_batch_mean(),
    );
    let ops = t.fixed_ops.max(1) as f64;
    values.set("p50_us", slow_quartile(&t.block_p50_us, false));
    values.set("cpu_us_per_op", slow_quartile(&t.block_cpu_us, false));
    values.set("server.loop_cpu_us_per_op", us(t.cpu.loops_ns) / ops);
    values.set("server.aux_cpu_us_per_op", us(t.cpu.aux_ns) / ops);
    values.set("server.loop_busy_frac", t.load.busy_frac());
    values.set("server.ready_batch_mean", t.load.ready_batch_mean());
    values.set("gen.offered_rps", offered);
    values.set("gen.achieved_rps", achieved);
    values.set("gen.lateness_p50_us", us(percentile(&late, 0.5)));
    values.set("gen.lateness_p99_us", us(percentile(&late, 0.99)));
    values.set("gen.backlog_end", t.backlog_end as f64);
    values.set("client.p90_us", us(percentile(&lat, 0.9)));
    values.set("client.p99_us", us(percentile(&lat, 0.99)));
    values.set("client.p999_us", us(percentile(&lat, 0.999)));
    values.set("client.max_us", us(lat.last().copied().unwrap_or(0)));
    values.set("client.samples", lat.len() as f64);
}

/// The end-of-round checks that read the server rather than an answer:
/// the exact frame count, no sheds or evictions, and the flagged set.
/// Returns the final wire scrape's size.
fn final_checks(dep: &Deployment, frames_sent: u64, checker: &mut Checker) -> usize {
    let conn = &dep.conns[0].stream;
    conn.set_read_timeout(None).expect("clear the read timeout");
    let mut scrape_bytes = 0;
    match setup::roundtrip(conn, &RequestRef::MetricsSnapshot) {
        Ok(Response::MetricsBin { bytes }) => match Snapshot::decode(&bytes) {
            Ok(snap) => {
                scrape_bytes = bytes.len();
                // The scrape counts itself.
                let frames = dep.frames + frames_sent + 1;
                if snap.counter_total("server.requests") != frames {
                    checker.fail("server_requests_equal_client_frames", 1);
                }
                if snap.counter_total("server.shed") != 0 {
                    checker.fail("no_sheds", 1);
                }
                if snap.counter_total("server.evicted") != 0 {
                    checker.fail("no_evictions", 1);
                }
            }
            Err(_) => checker.fail("scrape_decodes", 1),
        },
        _ => checker.fail("scrape_decodes", 1),
    }
    let flagged: BTreeSet<u64> = dep
        .verifier
        .registry()
        .flagged_devices()
        .into_iter()
        .collect();
    let attacked: BTreeSet<u64> = checker.first_flag.keys().copied().collect();
    let benign_flagged = flagged.difference(&attacked).count() as u64;
    if benign_flagged > 0 {
        checker.fail("no_benign_flagged", benign_flagged);
    }
    checker.first_flag.clear();
    scrape_bytes
}

/// The traced window's per-layer metrics and layer table.
fn trace_report(
    w: Workload,
    traced: &PhaseResult,
    handler: &std::collections::HashMap<trace::SpanKey, trace::HandlerSpan>,
    before: &Snapshot,
    after: &Snapshot,
    values: &mut Values,
    checker: &mut Checker,
) {
    for msg in MSGS {
        let phases_ns = trace::phase_means(before, after, msg);
        for (i, ns) in phases_ns.iter().enumerate() {
            let (name, div) = report::phase_metric(i, msg);
            values.set(name, ns / div);
        }
    }
    for (msg, mean_us) in trace::handler_means_us(handler) {
        values.set(format!("verifier.handle_us.{msg}"), mean_us);
    }
    let spans = &traced.spans;
    values.set(
        "proto.encode_ns",
        report::mean(spans.iter().map(|s| s.desc.encode1 - s.desc.encode0)),
    );
    values.set(
        "proto.decode_ns",
        report::mean(spans.iter().map(|s| s.decode1 - s.decode0)),
    );
    let table = LayerTable::build(
        "auth",
        spans,
        handler,
        traced.epoch,
        trace::phase_means(before, after, "auth"),
    );
    values.set("net.gap_us", table.row("net gap"));
    values.set("layer.gen_lateness_us", table.row("generator lateness"));
    values.set("layer.client_mean_us", table.client_mean_us);
    values.set("layer.sum_us", table.sum_us);
    values.set("trace.reconcile_err_frac", table.error_frac());
    print!("{}", table.render());
    if table.error_frac() > RECONCILE_TOLERANCE {
        checker.fail("layer_table_reconciles", 1);
    }
    write_trace(w, &table, spans, handler, traced.epoch);
}

/// Single-thread replays of the run's own next inputs through the
/// public layer functions, after the traffic stopped.
fn replays(
    dep: &Deployment,
    stream: &mut Stream<'_>,
    dir: &Path,
    values: &mut Values,
    checker: &mut Checker,
) {
    let items = stream.benign_items(REPLAY_AUTHS);
    let first = stream.next_id();
    let enrolls = (first..first + REPLAY_ENROLLS as u64)
        .map(|id| {
            let helper = &dep.fleet.helpers[(id % 4) as usize];
            let record = EnrollmentRecord {
                scheme_tag: helper.tag,
                helper: helper.bytes.clone(),
                key_digest: dep.fleet.key_digest(id),
            };
            (id, record)
        })
        .collect();
    let r = trace::replay(
        &dep.verifier,
        &dep.fleet,
        &items,
        enrolls,
        &dir.join("replay"),
    );
    if r.rejected > 0 {
        checker.fail("replayed_auths_accept", r.rejected);
    }
    values.set("verifier.auth_query_ns", r.auth_query_ns);
    values.set("verifier.batch_item_ns", r.batch_item_ns);
    values.set("hash.hmac_verify_ns", r.hmac_verify_ns);
    values.set("hash.helper_digest_ns", r.helper_digest_ns);
    values.set("detector.observe_ns", r.observe_ns);
    values.set("store.log_enroll_ns", r.log_enroll_ns);
    values.set("verifier.enroll_durable_ns", r.enroll_durable_ns);
    values.set("store.wal_bytes_per_enroll", r.wal_bytes_per_enroll);
}

fn run(args: &Args, dir: &Path) -> bool {
    let w = args.workload;
    println!(
        "servebench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    probe::pin_to_first_cpu();
    let _spinner = probe::Spinner::start();
    let mut values = Values::default();
    let mut checker = Checker::default();
    let mut totals = Totals::default();
    let times: Vec<SetupTimes> = (0..ROUNDS)
        .map(|k| round(args, dir, k, &mut totals, &mut values, &mut checker))
        .collect();
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    println!(
        "setup: median {:.3} s of {ROUNDS} (provision {:.1} ms, enroll_batch {:.3} s, attack capture {:.3} s, spawn {:.1} ms)",
        med(|t| t.total),
        1e3 * med(|t| t.provision),
        med(|t| t.enroll_batch),
        med(|t| t.attack_capture),
        1e3 * med(|t| t.server_spawn),
    );
    values.set("setup_s", med(|t| t.total));
    values.set("setup.provision_ms", 1e3 * med(|t| t.provision));
    values.set("setup.enroll_batch_s", med(|t| t.enroll_batch));
    values.set("setup.attack_capture_s", med(|t| t.attack_capture));
    values.set("setup.server_spawn_ms", 1e3 * med(|t| t.server_spawn));
    // Later rounds reuse the heap the previous round freed, so only the
    // first round's resident growth measures the registry.
    values.set(
        "registry.bytes_per_device",
        times[0].registry_bytes_per_device,
    );
    self_report(w, &totals, &mut values);
    if !args.trace {
        let max_rps = slow_quartile(&totals.block_rps, true);
        println!(
            "saturation: {max_rps:.0} ops/s, window {SATURATION_WINDOW} frames per connection"
        );
        values.set("max_rps", max_rps);
    }
    // Each block as `value@steal%`, so a reader sees which ones the
    // run set aside.
    let list = |v: &[(f64, f64)], scale: f64| {
        v.iter()
            .map(|(steal, x)| format!("{:.1}@{:.1}", x * scale, 100.0 * steal))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("blocks: p50 us [{}]", list(&totals.block_p50_us, 1.0));
    println!(
        "blocks: server CPU us/op [{}]",
        list(&totals.block_cpu_us, 1.0)
    );
    println!(
        "blocks: saturation kops/s [{}]",
        list(&totals.block_rps, 1e-3)
    );

    // Ops, plus each round's final scrape.
    let attempted = totals.attempted + u64::from(ROUNDS);
    let check_failed: u64 = checker.failures.values().sum();
    // A wrong answer is counted by its phase and its check alike;
    // checks of the server's own state only add to the check tally.
    let failed = totals.failed.max(check_failed).min(attempted);
    values.set("client.fail_frac", failed as f64 / attempted as f64);
    let correct = checker.failures.is_empty();
    if correct {
        println!("checks: all passed ({} scrapes decoded)", checker.scrapes);
    } else {
        for (check, n) in &checker.failures {
            eprintln!("servebench: check failed: {check} ({n}x)");
            println!("check failed: {check} ({n}x)");
        }
    }
    let names = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    println!("{}", values.json(&names, correct, attempted, failed));
    correct
}

/// Writes a traced run's spans (one CSV line per answered frame, with
/// its handler span when joined) and its layer table under `out/`.
fn write_trace(
    w: Workload,
    table: &LayerTable,
    spans: &[gen::Span],
    handler: &std::collections::HashMap<trace::SpanKey, trace::HandlerSpan>,
    epoch: std::time::Instant,
) {
    let at = |t: std::time::Instant| t.saturating_duration_since(epoch).as_nanos();
    let mut csv = String::from(
        "msg,id,now,intended,encode0,encode1,write0,write1,handler0,handler1,read_end,decode0,decode1\n",
    );
    for s in spans {
        let d = &s.desc;
        let (h0, h1) = handler
            .get(&(d.id, d.now))
            .map_or((0, 0), |h| (at(h.start), at(h.end)));
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{h0},{h1},{},{},{}",
            d.kind.msg(),
            d.id,
            d.now,
            d.intended,
            d.encode0,
            d.encode1,
            d.write0,
            d.write1,
            s.read_end,
            s.decode0,
            s.decode1
        );
    }
    let dir = out_dir();
    let written = fs::write(dir.join(format!("spans-{}.csv", w.name())), csv)
        .and_then(|()| fs::write(dir.join(format!("layers-{}.txt", w.name())), table.render()));
    if let Err(e) = written {
        eprintln!(
            "servebench: cannot write the trace under {}: {e}",
            dir.display()
        );
    }
}
