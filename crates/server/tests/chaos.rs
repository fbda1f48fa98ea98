//! Chaos equivalence: a retrying client on a faulty network against a
//! server with a failing disk must converge to **bit-for-bit the same
//! answers** as a fault-free run.
//!
//! The reference `TrafficPlan` (8 devices, benign + real LISA attack
//! trajectories) is replayed four times against the evented server —
//! fault-free and under chaos, for each of two fault seeds. The chaos
//! runs inject, deterministically from seeds:
//!
//! * **client-side**: partial reads/writes (re-chunking every frame),
//!   injected delays, a connection reset pinned mid-request-write
//!   (the request never reaches the server; the retry re-delivers it
//!   exactly once), and a reset pinned on an *enroll response read*
//!   (the enroll **was** applied; the retry draws `DuplicateDevice`
//!   and the idempotency rule reports success);
//! * **server-side**: a WAL append fault pinned to the first *flag*
//!   append (best-effort logging — answers unchanged), which latches
//!   the registry read-only.
//!
//! Every authentication and flag-query response payload is collected
//! in order and compared byte-for-byte across all four runs. After the
//! chaos replay the read-only latch must be observable at the wire
//! (a fresh `Enroll` answers `ReadOnly`) and in the merged metrics
//! (`server.degraded_transitions`, `faults.injected{kind}`).
//!
//! A second test holds a pool of faulted connections open under
//! *random* resets, where answers may legally differ, and checks the
//! attack outcome instead of the bytes.

#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use ropuf_proto::{derive_seed, ErrorCode, FaultPlan, FaultStats, RATE_ONE};
use ropuf_server::{
    Deadlines, EventedConfig, EventedServer, ResilientClient, RetryPolicy, Role, TrafficPlan,
    TrafficSpec, VerifierHandler,
};
use ropuf_verifier::{DetectorConfig, StoreFaults, StoreOptions, Verifier};

mod common;
use common::{device_requests, enrolled_handler, spec};

fn policy() -> RetryPolicy {
    RetryPolicy {
        budget: 6,
        base_delay: std::time::Duration::from_micros(200),
        max_delay: std::time::Duration::from_millis(20),
        seed: 0xC4A05,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ropuf-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable, initially-empty verifier stack; `faults` arms the WAL
/// fault schedule for the chaos runs.
fn durable_handler(dir: &PathBuf, faults: Option<StoreFaults>) -> Arc<VerifierHandler> {
    let (verifier, report) = Verifier::open_durable_faulted(
        dir,
        4,
        DetectorConfig::default(),
        StoreOptions::default(),
        faults,
    )
    .expect("open durable store");
    assert_eq!(report.enrolls_applied, 0, "fresh directory");
    Arc::new(VerifierHandler::new(Arc::new(verifier)))
}

/// The WAL fault for chaos runs: the plan enrolls 8 devices over the
/// wire (appends 0..=7), so append 8 is the first best-effort *flag*
/// append — failing it latches read-only without changing any answer.
fn wal_fault(plan: &TrafficPlan) -> StoreFaults {
    StoreFaults::new().fail_append_at(plan.devices.len() as u64)
}

/// Replays the full plan through resilient clients: wire enrollment of
/// the whole fleet first (not byte-compared — the chaos run legally
/// answers one retried enroll with `DuplicateDevice`), then every auth
/// and flag query, collecting raw response payloads in order.
///
/// Under `chaos`, client connections draw deterministic fault plans:
/// heavy partial I/O and delays everywhere, a reset pinned on the
/// enroll client's first response *read* (idempotent-retry path), and
/// a reset pinned mid-*write* on two devices' auth connections
/// (at-most-once delivery path). Random resets are deliberately absent:
/// an unpinned reset could land on an auth response read, and replaying
/// an *applied* authentication is not idempotent — the detector would
/// see a duplicate attempt and answers could legally diverge.
fn replay_resilient(
    plan: &TrafficPlan,
    addr: SocketAddr,
    chaos: Option<u64>,
) -> (Vec<Vec<u8>>, u64, u64) {
    let mut responses = Vec::new();
    let (mut retries, mut reconnects) = (0u64, 0u64);

    // Phase 1: enroll the fleet over the wire, one client.
    let mut enroller =
        ResilientClient::new(addr, policy(), Deadlines::default()).expect("resolve addr");
    if let Some(master) = chaos {
        enroller = enroller.with_faults(Box::new(move |serial| {
            let plan = FaultPlan::new(derive_seed(master, serial))
                .with_partial_io(RATE_ONE / 3)
                .with_delays(RATE_ONE / 16, std::time::Duration::from_micros(20));
            if serial == 0 {
                // Kill the first enroll *response*: the server applied
                // the enroll; the retry must treat DuplicateDevice as
                // success.
                plan.with_read_reset_at(0)
            } else {
                plan
            }
        }));
    }
    for device in &plan.devices {
        let e = &device.enrollment;
        enroller
            .enroll(e.device_id, e.scheme_tag, e.helper.clone(), e.key_digest)
            .expect("every enroll eventually succeeds");
    }
    retries += enroller.retries_total();
    reconnects += enroller.reconnects();
    if chaos.is_some() {
        assert!(
            enroller.retries_total() > 0,
            "the pinned enroll-read reset must force at least one retry"
        );
    }
    drop(enroller);

    // Phase 2: auth + flag-query traffic, one client per device.
    for (index, (_, requests)) in device_requests(plan).iter().enumerate() {
        let mut client =
            ResilientClient::new(addr, policy(), Deadlines::default()).expect("resolve addr");
        if let Some(master) = chaos {
            client = client.with_faults(Box::new(move |serial| {
                let seed = derive_seed(master, 1 + (index as u64) * 1009 + serial);
                let plan = FaultPlan::new(seed)
                    .with_partial_io(RATE_ONE / 3)
                    .with_delays(RATE_ONE / 16, std::time::Duration::from_micros(20));
                // Two devices lose their first connection mid-write:
                // the in-flight request is torn before the server can
                // decode it, so the retry delivers it exactly once.
                if serial == 0 && (index == 0 || index == 3) {
                    plan.with_write_reset_at(2)
                } else {
                    plan
                }
            }));
        }
        for request in requests {
            let payload = client
                .exchange_raw(&request.encode())
                .expect("every exchange eventually succeeds");
            responses.push(payload);
        }
        retries += client.retries_total();
        reconnects += client.reconnects();
    }
    (responses, retries, reconnects)
}

/// One fault seed's full fault-free + chaos comparison, returning the
/// fault-free byte stream for the cross-seed assertions.
fn run_seed(plan: &TrafficPlan, seed: u64) -> Vec<Vec<u8>> {
    let tag = format!("{seed:x}");

    // Fault-free reference.
    let clean_dir = scratch_dir(&format!("{tag}-clean"));
    let clean = serve(plan, durable_handler(&clean_dir, None), None);
    let _ = std::fs::remove_dir_all(&clean_dir);

    // Chaos run: client faults + pinned WAL flag-append fault.
    let chaos_dir = scratch_dir(&format!("{tag}-chaos"));
    let chaos = serve(
        plan,
        durable_handler(&chaos_dir, Some(wal_fault(plan))),
        Some(seed),
    );
    let _ = std::fs::remove_dir_all(&chaos_dir);

    assert_eq!(
        clean.len(),
        chaos.len(),
        "seed {tag}: both runs answer every auth + flag query"
    );
    assert_eq!(
        clean, chaos,
        "seed {tag}: chaos must not change a single served byte"
    );
    clean
}

/// Spawns the evented server, replays, asserts the chaos-only
/// postconditions (read-only latch at the wire and in the metrics),
/// and shuts down. Returns the response byte stream.
fn serve(plan: &TrafficPlan, handler: Arc<VerifierHandler>, chaos: Option<u64>) -> Vec<Vec<u8>> {
    let server = EventedServer::spawn("127.0.0.1:0", handler.clone(), EventedConfig::default())
        .expect("bind evented");
    let addr = server.local_addr();

    let (responses, retries, reconnects) = replay_resilient(plan, addr, chaos);

    if chaos.is_some() {
        assert!(retries > 0, "chaos run must have exercised retries");
        assert!(reconnects > 0, "chaos run must have re-dialed");
        assert!(
            handler.read_only(),
            "the pinned flag-append fault must latch the registry read-only"
        );

        // The latch is visible at the wire: a fresh enroll is refused
        // with ReadOnly (and retrying cannot help, so it surfaces
        // immediately through the resilient client).
        let mut probe =
            ResilientClient::new(addr, policy(), Deadlines::default()).expect("resolve addr");
        let err = probe
            .enroll(0xDEAD, 1, vec![0; 16], [0; 32])
            .expect_err("enroll on a read-only registry must fail");
        assert_eq!(
            err.error_code(),
            Some(ErrorCode::ReadOnly),
            "read-only must answer ReadOnly, got: {err}"
        );

        // And in the merged metrics scrape: exactly one degraded
        // transition, exactly one injected WAL-append fault.
        let snapshot = probe.metrics().expect("metrics scrape");
        assert_eq!(
            snapshot.counter_total("server.degraded_transitions"),
            1,
            "the latch is counted once"
        );
        assert_eq!(
            snapshot.counter_total("faults.injected"),
            1,
            "one injected store fault"
        );
        assert!(
            matches!(
                snapshot.find("faults.injected", &[("kind", "wal_append")]),
                Some(ropuf_telemetry::MetricValue::Counter(1))
            ),
            "the injected fault is the pinned WAL append"
        );
    } else {
        assert_eq!(retries, 0, "fault-free run must not retry");
        assert!(!handler.read_only(), "fault-free run must not latch");
    }

    server.shutdown();
    responses
}

#[test]
fn chaos_replay_is_bit_for_bit_identical_under_two_fault_seeds() {
    let plan = TrafficPlan::build(&spec());
    assert!(
        plan.attackers().count() >= 2,
        "chaos equivalence must cover attacked devices (their flag \
         transitions drive the faulted WAL append)"
    );

    let clean = run_seed(&plan, 0xFA_57);
    let clean_again = run_seed(&plan, 0xFA_58);

    assert_eq!(
        clean, clean_again,
        "two fault-free replays of identical traffic must agree"
    );

    // The shared byte stream still carries the attack outcome.
    let mut cursor = 0;
    for device in &plan.devices {
        let span = &clean[cursor..cursor + device.requests.len() + 1];
        cursor += device.requests.len() + 1;
        let flagged = span[..span.len() - 1].iter().any(|payload| {
            matches!(
                ropuf_proto::Response::decode(payload),
                Ok(ropuf_proto::Response::Error {
                    code: ErrorCode::DeviceFlagged,
                    ..
                })
            )
        });
        match device.role {
            Role::LisaAttacker => assert!(flagged, "attacker {} never rejected", device.device_id),
            Role::Benign => assert!(!flagged, "benign {} rejected", device.device_id),
        }
    }
}

/// Held-connection chaos with *random* resets: 64 resilient clients
/// dialed up front and held for the whole replay, every connection
/// under seeded partial I/O, delays and resets. A random reset may
/// land on an applied authentication's answer, and its retry is a
/// second genuine attempt, so the answers are not byte-compared; the
/// outcome is: every exchange answers, every attacker is flagged at
/// the wire and in the registry, and no benign device is.
#[test]
fn held_pool_converges_under_random_resets() {
    let plan = TrafficPlan::build(&TrafficSpec {
        master_seed: 1,
        rounds: 4,
        ..spec()
    });
    assert!(plan.attackers().count() >= 2 && plan.benign().count() >= 2);
    let server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(&plan, 8),
        EventedConfig::default(),
    )
    .expect("bind evented");
    let addr = server.local_addr();

    let stats = Arc::new(FaultStats::new());
    let pool: Vec<ResilientClient> = (0..64u64)
        .map(|conn| {
            let stats = Arc::clone(&stats);
            let mut client = ResilientClient::new(addr, policy(), Deadlines::default())
                .expect("resolve addr")
                .with_faults(Box::new(move |serial| {
                    FaultPlan::new(derive_seed(1, conn * 4096 + serial))
                        .with_partial_io(2048)
                        .with_delays(512, std::time::Duration::from_micros(20))
                        .with_resets(128)
                        .with_stats(Arc::clone(&stats))
                }));
            client
                .hello("chaos-held")
                .expect("held connection established");
            client
        })
        .collect();

    // Two threads; each owns every other client and every other
    // device, so a device's requests stay in order. Requests
    // round-robin across the thread's clients.
    let (even, odd): (Vec<_>, Vec<_>) = pool.into_iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let (outcomes, retries) = std::thread::scope(|scope| {
        let workers: Vec<_> = [even, odd]
            .into_iter()
            .enumerate()
            .map(|(t, half)| {
                let plan = &plan;
                scope.spawn(move || {
                    let mut clients: Vec<ResilientClient> =
                        half.into_iter().map(|(_, c)| c).collect();
                    let held = clients.len();
                    let mut rr = 0;
                    let mut outcomes = Vec::new();
                    for device in plan.devices.iter().skip(t).step_by(2) {
                        let mut wire_flagged = false;
                        for item in &device.requests {
                            rr += 1;
                            match clients[rr % held].authenticate(item.clone()) {
                                Ok(_) => {}
                                Err(e) if e.error_code() == Some(ErrorCode::DeviceFlagged) => {
                                    wire_flagged = true;
                                }
                                Err(e) => panic!("device {}: {e}", device.device_id),
                            }
                        }
                        let registry_flagged = clients[rr % held]
                            .query_verdict(device.device_id)
                            .expect("flag query answers")
                            .is_some();
                        outcomes.push((device, wire_flagged, registry_flagged));
                    }
                    let retries: u64 = clients.iter().map(ResilientClient::retries_total).sum();
                    (outcomes, retries)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread"))
            .fold((Vec::new(), 0), |(mut all, total), (outcomes, retries)| {
                all.extend(outcomes);
                (all, total + retries)
            })
    });
    server.shutdown();

    assert_eq!(outcomes.len(), plan.devices.len());
    for (device, wire_flagged, registry_flagged) in outcomes {
        let flagged = device.role == Role::LisaAttacker;
        assert_eq!(
            (wire_flagged, registry_flagged),
            (flagged, flagged),
            "device {} ({:?}): flagged at the wire, in the registry",
            device.device_id,
            device.role
        );
    }
    assert!(
        stats.resets() > 0,
        "the seeded plan must reset a connection"
    );
    assert!(retries > 0, "a reset must force a retry");
}
