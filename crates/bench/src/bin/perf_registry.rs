//! Durable million-device registry benchmark — capacity, durability
//! and recovery numbers for the slab registry + snapshot/WAL store.
//!
//! ```text
//! perf_registry [--smoke] [--seed S] [--devices D] [--shards M]
//!               [--batch B] [--json PATH] [--dir PATH]
//! ```
//!
//! One run measures, in order, against a single synthetic fleet:
//!
//! 1. **enroll** — batched durable enrollment (every record
//!    write-ahead logged) devices/s, then resident-set size and
//!    per-device memory of the fully loaded slab registry.
//! 2. **wal recovery** — the process "crashes" (store dropped without
//!    compaction) and cold-starts by replaying the whole WAL.
//! 3. **compaction** — time to fold the registry into a snapshot
//!    and prune the log, plus the snapshot's size on disk.
//! 4. **snapshot recovery** — a second cold start, now from the
//!    compacted snapshot instead of the raw log.
//! 5. **auth** — steady-state batched authentication throughput over
//!    the recovered fleet (genuine tags, cached HMAC midstates), each
//!    round on the next window of a stride through the whole fleet.
//!
//! Correctness is asserted throughout (every recovery must reproduce
//! the full fleet, every benchmark auth must accept). The full run
//! sizes the fleet at one million devices and repeats the whole
//! sequence on a fresh store 3 times; `BENCH_registry.json` (schema
//! `ropuf-bench-registry/v2`) records the median and interquartile
//! range of each timing over the passes, so a rerun can tell a change
//! from noise. Memory is read in the first pass only: later passes
//! start on the pages earlier ones freed. `--smoke` keeps CI to tens of
//! thousands of devices and one pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ropuf_bench::{parse_flags, write_artifact};
use ropuf_constructions::pairing::lisa::LISA_TAG;
use ropuf_constructions::DeviceResponse;
use ropuf_verifier::{
    client_tag, AuthRequest, BatchEnrollment, BatchScratch, DetectorConfig, StoreOptions, Verifier,
};

/// Schema tag of the artifact this binary writes.
const SCHEMA: &str = "ropuf-bench-registry/v2";

/// Deterministic pseudo-random bytes (no RNG dependency needed here).
fn fill_bytes(seed: u64, out: &mut [u8]) {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in out {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
}

/// Device `d`'s verification credential, shared by the enrollment and
/// the genuine-tag auth phases.
fn digest_of(seed: u64, d: u64) -> [u8; 32] {
    let mut digest = [0u8; 32];
    fill_bytes(seed ^ d, &mut digest);
    digest
}

/// Resident-set size in bytes from `/proc/self/status` (0 when
/// unavailable — non-Linux or restricted /proc).
fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Total bytes of store files under `dir` matching `prefix`.
fn disk_bytes(dir: &Path, prefix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(prefix))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The fleet and store shape every pass runs.
struct Setup {
    seed: u64,
    devices: usize,
    shards: usize,
    batch: usize,
    auth_rounds: usize,
    dir: PathBuf,
}

/// What one pass over a fresh store measured.
struct Pass {
    enroll_ops: f64,
    wal_bytes: u64,
    rss_loaded: u64,
    rss_delta: u64,
    wal_recovery_ops: f64,
    compact_secs: f64,
    snapshot_bytes: u64,
    snap_recovery_ops: f64,
    auth_ops: f64,
}

/// Enrolls, crashes, recovers from the WAL, compacts, recovers from the
/// snapshot and serves auths, on a fresh store under `setup.dir`.
fn pass(setup: &Setup) -> Pass {
    let Setup {
        seed,
        devices,
        shards,
        batch,
        auth_rounds,
        ref dir,
    } = *setup;
    let _ = std::fs::remove_dir_all(dir);
    // Detector budgets opened wide: the measured loops are registry
    // mechanics, not quarantine behavior.
    let wide_open = DetectorConfig {
        integrity_check: true,
        rate_window: 1,
        rate_budget: u32::MAX,
        failure_streak: u32::MAX,
    };

    // ── 1. durable batched enrollment ──────────────────────────────
    let rss_before = rss_bytes();
    let (verifier, report) =
        Verifier::open_durable(dir, shards, wide_open, StoreOptions::default())
            .expect("open fresh store");
    assert!(report.snapshot_seq.is_none(), "fresh directory");
    let t0 = Instant::now();
    let mut enrolled = 0usize;
    while enrolled < devices {
        let n = batch.min(devices - enrolled);
        let entries: Vec<BatchEnrollment> = (enrolled..enrolled + n)
            .map(|d| {
                let d = d as u64;
                let mut helper = vec![0u8; 16];
                fill_bytes(seed ^ d ^ 0x48_45_4C_50, &mut helper);
                BatchEnrollment {
                    device_id: d,
                    scheme_tag: LISA_TAG,
                    helper,
                    key_digest: digest_of(seed, d),
                }
            })
            .collect();
        let results = verifier.enroll_batch(entries);
        assert!(results.iter().all(Result::is_ok), "fresh ids enroll");
        enrolled += n;
    }
    let enroll_secs = t0.elapsed().as_secs_f64().max(1e-12);
    let enroll_ops = devices as f64 / enroll_secs;
    let rss_loaded = rss_bytes();
    let rss_delta = rss_loaded.saturating_sub(rss_before);
    let wal_bytes = disk_bytes(dir, "wal-");
    assert_eq!(verifier.registry().len(), devices);
    println!(
        "  enroll             : {enroll_ops:>12.0} devices/s  ({enroll_secs:.2} s, WAL {:.1} MiB, RSS {:.1} MiB)",
        wal_bytes as f64 / (1 << 20) as f64,
        rss_loaded as f64 / (1 << 20) as f64
    );
    drop(verifier); // crash: the WAL is the only durable copy

    // ── 2. cold recovery from the raw WAL ──────────────────────────
    let t0 = Instant::now();
    let (verifier, report) =
        Verifier::open_durable(dir, shards, wide_open, StoreOptions::default())
            .expect("recover from WAL");
    let wal_recovery_secs = t0.elapsed().as_secs_f64().max(1e-12);
    let wal_recovery_ops = devices as f64 / wal_recovery_secs;
    assert_eq!(verifier.registry().len(), devices, "WAL recovery is exact");
    assert_eq!(report.enrolls_applied as usize, devices);
    assert!(report.torn_tail.is_none(), "clean shutdown, clean log");
    println!(
        "  recovery (WAL)     : {wal_recovery_ops:>12.0} devices/s  ({wal_recovery_secs:.2} s)"
    );

    // ── 3. compaction into a snapshot ──────────────────────────────
    let t0 = Instant::now();
    verifier.compact().expect("compaction");
    let compact_secs = t0.elapsed().as_secs_f64().max(1e-12);
    let snapshot_bytes = disk_bytes(dir, "snapshot-");
    println!(
        "  compaction         : {compact_secs:>12.2} s          (snapshot {:.1} MiB)",
        snapshot_bytes as f64 / (1 << 20) as f64
    );
    drop(verifier);

    // ── 4. cold recovery from the compacted snapshot ───────────────
    let t0 = Instant::now();
    let (verifier, report) =
        Verifier::open_durable(dir, shards, wide_open, StoreOptions::default())
            .expect("recover from snapshot");
    let snap_recovery_secs = t0.elapsed().as_secs_f64().max(1e-12);
    let snap_recovery_ops = devices as f64 / snap_recovery_secs;
    assert_eq!(
        verifier.registry().len(),
        devices,
        "snapshot recovery is exact"
    );
    assert!(report.snapshot_seq.is_some(), "snapshot is the base");
    println!(
        "  recovery (snapshot): {snap_recovery_ops:>12.0} devices/s  ({snap_recovery_secs:.2} s)"
    );

    // ── 5. steady-state auth over the recovered fleet ──────────────
    // Query `i` goes to device `i * k mod devices`, with `k` a prime
    // above any fleet size: a stride that visits every device once
    // before it repeats, so shard and slab locality match scattered
    // production traffic, not a warm working set. Each round serves the
    // next window of that stride, and `now` advances with every query,
    // so rate windows stay as short as live traffic keeps them. Only
    // the verifier call is timed.
    let auth_batch = batch.min(devices);
    let window = |round: usize| -> Vec<AuthRequest> {
        (round * auth_batch..(round + 1) * auth_batch)
            .map(|i| {
                let d = (i as u64).wrapping_mul(2_654_435_761) % devices as u64;
                let mut nonce = vec![0u8; 32];
                fill_bytes(seed ^ ((i as u64) << 20), &mut nonce);
                let tag = client_tag(&digest_of(seed, d), &nonce);
                AuthRequest {
                    device_id: d,
                    now: i as u64,
                    nonce,
                    response: DeviceResponse::Tag(tag),
                    presented_helper: None,
                }
            })
            .collect()
    };
    let mut scratch = BatchScratch::new();
    let mut verdicts = Vec::new();
    let mut auth_nanos = 0u128;
    // Round 0 warms the scratch and is not timed.
    for round in 0..=auth_rounds {
        let requests = window(round);
        let queries: Vec<_> = requests.iter().map(AuthRequest::as_query).collect();
        let t0 = Instant::now();
        verifier.authenticate_batch_with(&queries, &mut scratch, &mut verdicts);
        if round > 0 {
            auth_nanos += t0.elapsed().as_nanos();
        }
        assert!(
            verdicts.iter().all(|v| v.is_accept()),
            "round {round}: recovered fleet must authenticate its own credentials"
        );
    }
    let auth_secs = (auth_nanos as f64 / 1e9).max(1e-12);
    let auth_ops = (auth_rounds * auth_batch) as f64 / auth_secs;
    println!("  auth               : {auth_ops:>12.0} ops/s      (batch {auth_batch}, {auth_rounds} rounds)");
    drop(verifier);
    let _ = std::fs::remove_dir_all(dir);

    Pass {
        enroll_ops,
        wal_bytes,
        rss_loaded,
        rss_delta,
        wal_recovery_ops,
        compact_secs,
        snapshot_bytes,
        snap_recovery_ops,
        auth_ops,
    }
}

/// Median and interquartile range of `samples`, quartiles linearly
/// interpolated (one sample: itself, IQR 0).
fn median_iqr(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (samples.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
    };
    (at(0.5), at(0.75) - at(0.25))
}

fn main() {
    let flags = parse_flags();
    flags.expect_known(&["smoke", "seed", "devices", "shards", "batch", "json", "dir"]);
    let smoke = flags.has("smoke");
    let setup = Setup {
        seed: flags.get_u64("seed").unwrap_or(1),
        devices: flags
            .get_usize("devices")
            .unwrap_or(if smoke { 20_000 } else { 1_000_000 }),
        shards: flags.get_usize("shards").unwrap_or(16),
        batch: flags.get_usize("batch").unwrap_or(4096),
        auth_rounds: if smoke { 40 } else { 200 },
        dir: flags
            .get_required_value("dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("ropuf-perf-registry-{}", std::process::id()))
            }),
    };
    let json_path = flags
        .get_required_value("json")
        .unwrap_or("BENCH_registry.json")
        .to_string();
    let passes = if smoke { 1 } else { 3 };
    let Setup {
        seed,
        devices,
        shards,
        batch,
        auth_rounds,
        ..
    } = setup;

    ropuf_bench::header(
        "PERF_REGISTRY — durable million-device registry benchmark",
        "slab registry + WAL sustains batched durable enrollment at scale; cold recovery replays the log (or the compacted snapshot) back to the exact fleet; steady-state auth stays compute-bound",
    );
    println!(
        "\nconfig: {devices} devices, {shards} shards, batch {batch}, {passes} pass(es), store {:?}",
        setup.dir
    );

    let runs: Vec<Pass> = (1..=passes)
        .map(|k| {
            println!("\n[pass {k}/{passes}]");
            pass(&setup)
        })
        .collect();
    // Memory from the first pass only: later passes reuse freed pages.
    let first = &runs[0];
    let bytes_per_device = first.rss_delta as f64 / devices.max(1) as f64;
    let spread = |f: fn(&Pass) -> f64| median_iqr(runs.iter().map(f).collect());
    let (enroll_ops, enroll_iqr) = spread(|p| p.enroll_ops);
    let (wal_recovery_ops, wal_recovery_iqr) = spread(|p| p.wal_recovery_ops);
    let (snap_recovery_ops, snap_recovery_iqr) = spread(|p| p.snap_recovery_ops);
    let (compact_secs, compact_iqr) = spread(|p| p.compact_secs);
    let (auth_ops, auth_iqr) = spread(|p| p.auth_ops);
    println!("\n[summary] median (IQR) over {passes} pass(es)");
    println!("  enroll             : {enroll_ops:>12.0} ({enroll_iqr:.0}) devices/s");
    println!("  recovery (WAL)     : {wal_recovery_ops:>12.0} ({wal_recovery_iqr:.0}) devices/s");
    println!("  recovery (snapshot): {snap_recovery_ops:>12.0} ({snap_recovery_iqr:.0}) devices/s");
    println!("  compaction         : {compact_secs:>12.3} ({compact_iqr:.3}) s");
    println!("  auth               : {auth_ops:>12.0} ({auth_iqr:.0}) ops/s");
    println!(
        "  memory (pass 1)    : {:>12.1} MiB loaded ({bytes_per_device:.0} B/device)",
        first.rss_loaded as f64 / (1 << 20) as f64
    );

    // ── Artifact ───────────────────────────────────────────────────
    let json = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{mode}\",\n  \"config\": {{\"seed\": {seed}, \"devices\": {devices}, \"shards\": {shards}, \"batch\": {batch}, \"auth_rounds\": {auth_rounds}, \"passes\": {passes}}},\n  \"enroll\": {{\"devices_per_s\": {{\"median\": {enroll_ops:.0}, \"iqr\": {enroll_iqr:.0}}}, \"wal_bytes\": {wal_bytes}}},\n  \"memory\": {{\"rss_loaded_bytes\": {rss_loaded}, \"rss_delta_bytes\": {rss_delta}, \"bytes_per_device\": {bytes_per_device:.0}}},\n  \"recovery\": {{\"wal_devices_per_s\": {{\"median\": {wal_recovery_ops:.0}, \"iqr\": {wal_recovery_iqr:.0}}}, \"snapshot_devices_per_s\": {{\"median\": {snap_recovery_ops:.0}, \"iqr\": {snap_recovery_iqr:.0}}}}},\n  \"compaction\": {{\"seconds\": {{\"median\": {compact_secs:.3}, \"iqr\": {compact_iqr:.3}}}, \"snapshot_bytes\": {snapshot_bytes}}},\n  \"auth\": {{\"ops_per_s\": {{\"median\": {auth_ops:.0}, \"iqr\": {auth_iqr:.0}}}, \"batch\": {auth_batch}}}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        wal_bytes = first.wal_bytes,
        rss_loaded = first.rss_loaded,
        rss_delta = first.rss_delta,
        snapshot_bytes = first.snapshot_bytes,
        auth_batch = batch.min(devices),
    );
    write_artifact(&json_path, &json);

    println!(
        "\nverdict: {devices} devices durable at {enroll_ops:.0} enrolls/s, WAL recovery {wal_recovery_ops:.0} devices/s, snapshot recovery {snap_recovery_ops:.0} devices/s, steady-state auth {auth_ops:.0} ops/s (medians of {passes}) — recoveries asserted exact, artifact written."
    );
}
