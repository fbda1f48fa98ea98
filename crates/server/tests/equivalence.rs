//! Backend equivalence: the evented epoll server and the in-process
//! loopback transport (the semantic oracle) must be **bit-for-bit
//! indistinguishable** at the wire.
//!
//! The existing `TrafficPlan` (benign rounds across three
//! constructions plus recorded real LISA attack trajectories) is
//! replayed through a fresh serving stack per backend; every encoded
//! response byte — including the `DeviceFlagged` wire errors the
//! attacked devices must draw — is collected in order and compared
//! across backends. A second pass replays the same traffic *pipelined*
//! (each device's whole request burst written before reading anything)
//! through the evented server and must still produce the identical
//! byte sequence: pipelining may change scheduling, never answers.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ropuf_proto::{ErrorCode, FrameReader, FrameWriter, RequestRef, Response, WireFlagReason};
use ropuf_server::{
    Client, EventedConfig, EventedServer, LoopbackTransport, RequestHandler, Role, TcpTransport,
    TrafficPlan, Transport, VerifierHandler,
};
use ropuf_telemetry::{MetricValue, SERIES_PHASES};
use ropuf_verifier::{DetectorConfig, StoreOptions, Verifier};

mod common;
use common::{device_requests, enrolled_handler, spec};

/// Replays the plan over real sockets, one connection per device,
/// strictly request/response, returning every raw response payload in
/// order.
fn replay_sequential(plan: &TrafficPlan, addr: SocketAddr) -> Vec<Vec<u8>> {
    let mut responses = Vec::new();
    for (_, requests) in device_requests(plan) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay"); // small frames: no Nagle wait
        let write_half = stream.try_clone().expect("clone");
        let mut writer = FrameWriter::new(write_half);
        let mut reader = FrameReader::new(stream);
        for request in &requests {
            writer.write_request(request).expect("send");
            let payload = reader
                .read_frame()
                .expect("read")
                .expect("server answers every request");
            responses.push(payload);
        }
    }
    responses
}

/// Replays the plan over real sockets with each device's whole request
/// burst pipelined before any response is read.
fn replay_pipelined(plan: &TrafficPlan, addr: SocketAddr) -> Vec<Vec<u8>> {
    let mut responses = Vec::new();
    for (_, requests) in device_requests(plan) {
        let mut burst = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut burst);
            for request in &requests {
                writer.write_request(request).expect("encode");
            }
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.write_all(&burst).expect("send burst");
        let mut reader = FrameReader::new(stream);
        for _ in &requests {
            responses.push(
                reader
                    .read_frame()
                    .expect("read")
                    .expect("server answers every pipelined request"),
            );
        }
    }
    responses
}

/// Replays the plan through the loopback transport (full codec, no
/// sockets), re-encoding each decoded response — the codec is
/// canonical, so these bytes are directly comparable to socket bytes.
fn replay_loopback(plan: &TrafficPlan, handler: Arc<dyn RequestHandler>) -> Vec<Vec<u8>> {
    let mut transport = LoopbackTransport::new(handler);
    let mut responses = Vec::new();
    let mut scratch = Vec::new();
    for (_, requests) in device_requests(plan) {
        for request in &requests {
            RequestRef::encode_into(&request.as_ref(), &mut scratch);
            let response = transport
                .roundtrip_frame(&scratch)
                .expect("loopback cannot fail");
            responses.push(response.encode());
        }
    }
    responses
}

#[test]
fn all_backends_serve_bit_for_bit_identical_responses() {
    let plan = TrafficPlan::build(&spec());
    assert!(
        plan.attackers().count() >= 2,
        "equivalence must cover attacked devices"
    );

    let evented_server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(&plan, 4),
        EventedConfig::default(),
    )
    .expect("bind evented");
    let evented = replay_sequential(&plan, evented_server.local_addr());
    evented_server.shutdown();

    let loopback = replay_loopback(&plan, enrolled_handler(&plan, 4));

    assert_eq!(
        evented.len(),
        plan.total_requests() + plan.devices.len(),
        "one answer per request plus one flag query per device"
    );
    assert_eq!(evented, loopback, "socket vs loopback response bytes");

    // The shared byte stream carries the attack outcome: every
    // attacked device drew a DeviceFlagged wire error, no benign
    // device did, and the final flag queries agree.
    let mut cursor = 0;
    for device in &plan.devices {
        let span = &evented[cursor..cursor + device.requests.len() + 1];
        cursor += device.requests.len() + 1;
        let flagged = span[..span.len() - 1].iter().any(|payload| {
            matches!(
                Response::decode(payload),
                Ok(Response::Error {
                    code: ErrorCode::DeviceFlagged,
                    ..
                })
            )
        });
        let flag_info = match Response::decode(span.last().unwrap()) {
            Ok(Response::FlagInfo { flagged }) => flagged,
            other => panic!("final answer must be FlagInfo, got {other:?}"),
        };
        match device.role {
            Role::LisaAttacker => {
                assert!(
                    flagged,
                    "attacker {} never rejected at the wire",
                    device.device_id
                );
                assert!(
                    matches!(flag_info, Some((_, WireFlagReason::HelperMismatch))),
                    "attacker {} flag info: {flag_info:?}",
                    device.device_id
                );
            }
            Role::Benign => {
                assert!(!flagged, "benign {} rejected at the wire", device.device_id);
                assert_eq!(flag_info, None, "benign {} flagged", device.device_id);
            }
        }
    }
}

#[test]
fn pipelined_replay_is_byte_identical_to_sequential() {
    let plan = TrafficPlan::build(&spec());

    let sequential_server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(&plan, 4),
        EventedConfig::default(),
    )
    .expect("bind");
    let sequential = replay_sequential(&plan, sequential_server.local_addr());
    sequential_server.shutdown();

    let pipelined_server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(&plan, 4),
        EventedConfig::default(),
    )
    .expect("bind");
    let pipelined = replay_pipelined(&plan, pipelined_server.local_addr());
    pipelined_server.shutdown();

    assert_eq!(
        sequential, pipelined,
        "pipelining may change scheduling, never answers"
    );
}

/// Crash-recovery equivalence: a verifier recovered from its WAL after
/// a crash serves the same traffic **bit-for-bit identically** to one
/// that never crashed.
///
/// Phase 1 replays the full plan (latching every attacker's flag, all
/// WAL-logged) through a durable stack and an in-memory control,
/// asserting durable logging never changes an answer. The durable
/// stack then "crashes" (dropped without compaction or explicit sync)
/// and is recovered from disk. Recovery must restore every flag with
/// its exact `(at, reason)`, and a second full replay over the
/// recovered stack must match the never-crashed control byte for byte
/// — including the `DeviceFlagged` wire errors the quarantined
/// attackers now draw on every request.
#[test]
fn recovered_registry_replays_bit_for_bit_identically() {
    let plan = TrafficPlan::build(&spec());
    let dir = std::env::temp_dir().join(format!("ropuf-equiv-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Never-crashed control.
    let control = Arc::new(Verifier::new(4, DetectorConfig::default()));
    let results = control.enroll_batch(plan.enrollments());
    assert!(results.iter().all(Result::is_ok), "fresh ids enroll");

    // Durable stack: same fleet, every mutation write-ahead logged.
    let (durable, _) =
        Verifier::open_durable(&dir, 4, DetectorConfig::default(), StoreOptions::default())
            .expect("open durable store");
    let durable = Arc::new(durable);
    let results = durable.enroll_batch(plan.enrollments());
    assert!(results.iter().all(Result::is_ok), "fresh ids enroll");

    let control_phase1 = replay_loopback(&plan, Arc::new(VerifierHandler::new(control.clone())));
    let durable_phase1 = replay_loopback(&plan, Arc::new(VerifierHandler::new(durable.clone())));
    assert_eq!(
        control_phase1, durable_phase1,
        "durable logging must not change answers"
    );
    drop(durable); // crash: no compaction, no explicit sync — WAL only

    let (recovered, report) =
        Verifier::open_durable(&dir, 4, DetectorConfig::default(), StoreOptions::default())
            .expect("recovery");
    assert_eq!(report.enrolls_applied as usize, plan.devices.len());
    assert!(report.torn_tail.is_none(), "clean shutdown, clean log");
    assert_eq!(
        report.flags_applied,
        plan.attackers().count() as u64,
        "one flag transition per attacker was logged and replayed"
    );

    // Flag persistence across the crash, exact to (at, reason) — the
    // silent detector-state reset of the v1 snapshot path must not
    // exist on the durable path.
    for device in &plan.devices {
        assert_eq!(
            recovered.flag_info(device.device_id),
            control.flag_info(device.device_id),
            "flag of device {} diverged across recovery",
            device.device_id
        );
    }

    let recovered_phase2 =
        replay_loopback(&plan, Arc::new(VerifierHandler::new(Arc::new(recovered))));
    let control_phase2 = replay_loopback(&plan, Arc::new(VerifierHandler::new(control)));
    assert_eq!(
        recovered_phase2, control_phase2,
        "replay over the recovered registry diverged from never-crashed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry must be free at the wire: a server tracing **every**
/// request (threshold zero, so the ring and every histogram take the
/// maximum instrumentation hit) answers bit-for-bit identically to one
/// running the default config. Observability is a read-side overlay —
/// it may never perturb a served byte.
#[test]
fn full_tracing_does_not_change_the_byte_stream() {
    let plan = TrafficPlan::build(&spec());

    let default_server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(&plan, 4),
        EventedConfig::default(),
    )
    .expect("bind");
    let default_bytes = replay_sequential(&plan, default_server.local_addr());
    // The counter ticks when a frame completes, before its answer is
    // queued, so it is exact once the client holds every answer.
    assert_eq!(
        default_server.requests_served(),
        default_bytes.len() as u64,
        "the server counts exactly one request per answer"
    );
    default_server.shutdown();

    let traced_server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(&plan, 4),
        EventedConfig {
            slow_trace_threshold: Duration::ZERO,
            trace_capacity: 16, // force wraparound under the full plan
            ..EventedConfig::default()
        },
    )
    .expect("bind");
    let traced_bytes = replay_sequential(&plan, traced_server.local_addr());
    // Every request was slower than the zero threshold, so the ring
    // really was exercised (wrapping well past its 16 slots). A record
    // is finalized when its response bytes drain to the socket, a
    // moment after the client reads them — hence the bounded wait.
    let expected = traced_bytes.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(5);
    while traced_server.telemetry().trace_snapshot().recorded < expected
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        traced_server.telemetry().trace_snapshot().recorded,
        expected,
        "threshold zero must trace every request"
    );
    // An operator attaching over the wire sees the same feeds: every
    // auth phase histogram fed, traces recorded.
    let mut operator =
        Client::new(TcpTransport::connect(traced_server.local_addr()).expect("attach"));
    let metrics = operator.metrics().expect("scrape decodes");
    for phase in SERIES_PHASES {
        match metrics.find(
            "server.request.phase_ns",
            &[("backend", "evented"), ("msg", "auth"), ("phase", phase)],
        ) {
            Some(MetricValue::Histogram(h)) => assert!(h.count > 0, "auth {phase} is empty"),
            other => panic!("auth {phase} phase histogram: {other:?}"),
        }
    }
    assert!(operator.trace_dump().expect("trace dump").recorded > 0);
    traced_server.shutdown();

    assert_eq!(
        default_bytes, traced_bytes,
        "tracing every request must not change a single served byte"
    );
}

#[test]
fn shard_count_does_not_change_the_byte_stream() {
    let plan = TrafficPlan::build(&spec());
    let mut streams = Vec::new();
    for shards in [1, 4, 16] {
        let server = EventedServer::spawn(
            "127.0.0.1:0",
            enrolled_handler(&plan, shards),
            EventedConfig::default(),
        )
        .expect("bind");
        streams.push(replay_sequential(&plan, server.local_addr()));
        server.shutdown();
    }
    assert_eq!(streams[0], streams[1], "1 vs 4 shards");
    assert_eq!(streams[0], streams[2], "1 vs 16 shards");
}

/// Loop topology equivalence: however the evented server is sharded —
/// one loop or four, per-loop `SO_REUSEPORT` accept queues or one
/// shared listener — the served bytes are identical, sequential and
/// pipelined alike. Multi-loop is a scheduling optimization; it may
/// never leak into an answer.
#[test]
fn loop_topology_does_not_change_the_byte_stream() {
    let plan = TrafficPlan::build(&spec());
    let mut sequential_streams = Vec::new();
    let mut pipelined_streams = Vec::new();
    for loops in [1usize, 4] {
        for reuseport in [true, false] {
            let config = EventedConfig {
                loops,
                reuseport,
                ..EventedConfig::default()
            };
            // Fresh stack per replay: the plan's attack traffic latches
            // flags, so reusing a server would change later answers.
            let server = EventedServer::spawn("127.0.0.1:0", enrolled_handler(&plan, 4), config)
                .expect("bind");
            sequential_streams.push((
                (loops, reuseport),
                replay_sequential(&plan, server.local_addr()),
            ));
            server.shutdown();
            let server = EventedServer::spawn("127.0.0.1:0", enrolled_handler(&plan, 4), config)
                .expect("bind");
            pipelined_streams.push((
                (loops, reuseport),
                replay_pipelined(&plan, server.local_addr()),
            ));
            server.shutdown();
        }
    }
    let (baseline_key, baseline) = &sequential_streams[0];
    for (key, stream) in &sequential_streams[1..] {
        assert_eq!(
            baseline, stream,
            "sequential bytes diverged: {baseline_key:?} vs {key:?}"
        );
    }
    for (key, stream) in &pipelined_streams {
        assert_eq!(
            baseline, stream,
            "pipelined bytes diverged under topology {key:?}"
        );
    }
}
