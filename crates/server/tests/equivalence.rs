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

use ropuf_proto::{
    append_frame, AuthItem, ErrorCode, FaultPlan, FaultyStream, FrameError, FrameReader,
    FrameWriter, Request, RequestRef, Response, WireAuthResponse, WireFlagReason, WireVerdict,
    MAX_FRAME, RATE_ONE,
};
use ropuf_server::{
    Client, EventedConfig, EventedServer, LoopbackTransport, RequestHandler, Role, TcpTransport,
    TrafficPlan, Transport, VerifierHandler,
};
use ropuf_telemetry::{MetricValue, SERIES_PHASES};
use ropuf_verifier::{client_tag, DetectorConfig, StoreOptions, Verifier};

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

/// One unit of a hostile pipelined burst.
enum Piece {
    /// A well-formed request frame.
    Request(Request),
    /// A complete frame whose payload does not decode.
    Garbage(Vec<u8>),
    /// A frame header declaring more than `MAX_FRAME` bytes.
    Oversize,
    /// The first `n` bytes of a request's frame, never completed.
    Truncated(Request, usize),
}

impl Piece {
    fn append_to(&self, wire: &mut Vec<u8>) {
        match self {
            Piece::Request(request) => append_frame(wire, &request.encode()).expect("fits"),
            Piece::Garbage(payload) => append_frame(wire, payload).expect("fits"),
            Piece::Oversize => {
                wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
                wire.extend_from_slice(&[0x03; 24]);
            }
            Piece::Truncated(request, n) => {
                let mut frame = Vec::new();
                append_frame(&mut frame, &request.encode()).expect("fits");
                wire.extend_from_slice(&frame[..*n]);
            }
        }
    }
}

/// Per device: its auths pipelined in one burst with an `Enroll`, two
/// `QueryVerdict`s and hostile bytes between them. Every burst but the
/// clean ones breaks off at its hostile frame, with auths still behind
/// it: an auth too short to carry an id, one that carries an enrolled
/// id and then garbage, an unknown message type, or a forged oversize
/// length right behind an auth. Clean bursts end in a truncated auth
/// frame.
fn hostile_bursts(plan: &TrafficPlan) -> Vec<Vec<Piece>> {
    plan.devices
        .iter()
        .enumerate()
        .map(|(i, device)| {
            let auth = |k: usize| {
                Request::Authenticate(device.requests[k % device.requests.len()].clone())
            };
            let newcomer = 1_000_000 + device.device_id;
            let mut burst = vec![
                Piece::Request(auth(0)),
                Piece::Request(Request::Enroll {
                    device_id: newcomer,
                    scheme_tag: device.enrollment.scheme_tag,
                    helper: device.enrollment.helper.clone(),
                    key_digest: [i as u8; 32],
                }),
                Piece::Request(auth(1)),
                Piece::Request(Request::QueryVerdict {
                    device_id: device.device_id,
                }),
                Piece::Request(auth(2)),
                Piece::Request(Request::QueryVerdict {
                    device_id: newcomer,
                }),
            ];
            let mut id_then_garbage = vec![0x03];
            id_then_garbage.extend_from_slice(&device.device_id.to_le_bytes());
            id_then_garbage.extend_from_slice(&[0xFF; 5]);
            match i % 5 {
                0 => burst.push(Piece::Garbage(vec![0x03, 1, 2])),
                1 => burst.push(Piece::Garbage(id_then_garbage)),
                2 => burst.push(Piece::Garbage(vec![0xEE, 0, 1, 2, 3, 4, 5, 6, 7, 8])),
                3 => burst.push(Piece::Oversize),
                _ => {}
            }
            burst.extend((3..device.requests.len()).map(|k| Piece::Request(auth(k))));
            let tail = auth(0).encode().len() / 2;
            burst.push(Piece::Truncated(auth(3), 4 + tail));
            burst
        })
        .collect()
}

/// The loopback oracle's answers to one burst: every request up to
/// the first hostile frame, then the typed error the server gives it;
/// nothing for a truncated frame.
fn loopback_answers(burst: &[Piece], transport: &mut LoopbackTransport) -> Vec<Vec<u8>> {
    let malformed = |e: FrameError| Response::Error {
        code: ErrorCode::MalformedRequest,
        detail: e.to_string(),
    };
    let mut answers = Vec::new();
    for piece in burst {
        let answer = match piece {
            Piece::Request(request) => transport.roundtrip(request).expect("loopback answers"),
            Piece::Garbage(payload) => match transport.roundtrip_frame(payload) {
                Err(e) => {
                    answers.push(malformed(e).encode());
                    break;
                }
                Ok(answer) => panic!("garbage decoded: {answer:?}"),
            },
            Piece::Oversize => {
                answers.push(malformed(FrameError::Oversize(MAX_FRAME + 1)).encode());
                break;
            }
            Piece::Truncated(..) => break,
        };
        answers.push(answer.encode());
    }
    answers
}

/// The loopback oracle's answers to every burst, in order, from one
/// fresh enrolled stack.
fn oracle(plan: &TrafficPlan, bursts: &[Vec<Piece>]) -> Vec<Vec<Vec<u8>>> {
    let mut transport = LoopbackTransport::new(enrolled_handler(plan, 4));
    bursts
        .iter()
        .map(|burst| loopback_answers(burst, &mut transport))
        .collect()
}

/// Sends each burst on its own connection to a fresh evented stack,
/// writing its bytes with `send`, and checks the answers against the
/// oracle's byte for byte. A burst that broke off at a hostile frame
/// must see the connection close right after its typed error; the
/// close may cut short the write of the bytes behind that frame.
/// Returns the longest run of auths the server served as one batch.
fn serve_bursts(
    plan: &TrafficPlan,
    bursts: &[Vec<Piece>],
    expected: &[Vec<Vec<u8>>],
    send: impl Fn(&mut TcpStream, &[u8]) -> std::io::Result<()>,
) -> u64 {
    let server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(plan, 4),
        EventedConfig::default(),
    )
    .expect("bind");
    for (burst, expected) in bursts.iter().zip(expected) {
        let mut wire = Vec::new();
        for piece in burst {
            piece.append_to(&mut wire);
        }
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let hostile = burst
            .iter()
            .any(|p| matches!(p, Piece::Garbage(_) | Piece::Oversize));
        if let Err(e) = send(&mut stream, &wire) {
            assert!(hostile, "a clean burst's write failed: {e}");
        }
        let mut reader = FrameReader::new(stream);
        let mut answers = Vec::new();
        // Exactly the oracle's count: a clean burst's truncated tail
        // keeps the connection open, so reading on would only wait.
        for _ in 0..expected.len() {
            answers.push(
                reader
                    .read_frame()
                    .expect("read")
                    .expect("server answers every complete frame"),
            );
        }
        assert_eq!(&answers, expected, "burst of {} pieces", burst.len());
        // A burst that broke off at a hostile frame ends there: the
        // server closes after the typed error, answering nothing
        // behind it.
        if hostile {
            match reader.read_frame() {
                Ok(None) => {}
                Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                other => panic!("expected the server to close, got {other:?}"),
            }
        }
    }
    let longest_run = match server
        .telemetry()
        .snapshot()
        .find("server.loop.auth_run", &[("backend", "evented")])
    {
        Some(MetricValue::Histogram(h)) => h.max,
        other => panic!("auth run histogram: {other:?}"),
    };
    server.shutdown();
    longest_run
}

/// The evented server serves the auths a read buffered back to back as
/// one batch; the hostile bursts put every shape of frame behind an
/// auth. The server's answers must still be the loopback oracle's,
/// byte for byte: a frame that cannot join a run ends it and is judged
/// on its own when its turn comes.
#[test]
fn hostile_lookahead_bursts_are_byte_identical_to_loopback() {
    let plan = TrafficPlan::build(&spec());
    let bursts = hostile_bursts(&plan);
    let expected = oracle(&plan, &bursts);
    serve_bursts(&plan, &bursts, &expected, |stream, wire| {
        stream.write_all(wire)
    });
    assert!(
        expected.iter().map(Vec::len).sum::<usize>() > 6 * bursts.len(),
        "every burst served its leading requests"
    );
}

/// Per device: runs of its own auths cut, one after another, by an
/// `Enroll` whose id the next auth uses, a `QueryVerdict`, a helper
/// tampered with mid-run (benign devices, which the tamper flags) or a
/// rate-budget overrun of one repeated auth (attackers, already
/// flagged), then by the burst's hostile frame — a malformed auth, an
/// unknown type byte or a forged oversize length — and, on clean
/// bursts, a truncated tail. A last burst interleaves every device's
/// auths, so one run spans every shard. Each device's auths keep their
/// timestamps' order.
fn run_bursts(plan: &TrafficPlan) -> Vec<Vec<Piece>> {
    let mut bursts: Vec<Vec<Piece>> = plan
        .devices
        .iter()
        .enumerate()
        .map(|(i, device)| {
            let last = device.requests.len() - 1;
            let auth = |k: usize| Request::Authenticate(device.requests[k.min(last)].clone());
            let newcomer = 2_000_000 + device.device_id;
            let key_digest = [0xA0 | i as u8; 32];
            let nonce = b"newcomer".to_vec();
            let mut burst: Vec<Piece> = (0..3).map(|k| Piece::Request(auth(k))).collect();
            burst.push(Piece::Request(Request::Enroll {
                device_id: newcomer,
                scheme_tag: device.enrollment.scheme_tag,
                helper: device.enrollment.helper.clone(),
                key_digest,
            }));
            burst.push(Piece::Request(Request::Authenticate(AuthItem {
                device_id: newcomer,
                now: 0,
                response: WireAuthResponse::Tag(client_tag(&key_digest, &nonce)),
                nonce,
                presented_helper: Some(device.enrollment.helper.clone()),
            })));
            burst.push(Piece::Request(auth(3)));
            burst.push(Piece::Request(Request::QueryVerdict {
                device_id: newcomer,
            }));
            match device.role {
                Role::Benign => {
                    let mut tampered = device.requests[4.min(last)].clone();
                    let helper = tampered.presented_helper.as_mut().expect("benign helper");
                    *helper.last_mut().expect("non-empty helper") ^= 1;
                    burst.push(Piece::Request(auth(4)));
                    burst.push(Piece::Request(Request::Authenticate(tampered)));
                    burst.extend((5..8).map(|k| Piece::Request(auth(k))));
                }
                Role::LisaAttacker => burst.extend((0..40).map(|_| Piece::Request(auth(4)))),
            }
            let mut id_then_garbage = vec![0x03];
            id_then_garbage.extend_from_slice(&device.device_id.to_le_bytes());
            id_then_garbage.extend_from_slice(&[0xFF; 5]);
            match i % 5 {
                0 => burst.push(Piece::Garbage(id_then_garbage)),
                1 => burst.push(Piece::Garbage(vec![0xEE, 0, 1, 2, 3, 4, 5, 6, 7, 8])),
                2 => burst.push(Piece::Oversize),
                3 => burst.push(Piece::Garbage(vec![0x03, 1, 2])),
                _ => {}
            }
            burst.extend((8..20).map(|k| Piece::Request(auth(k))));
            burst.push(Piece::Truncated(auth(20), 4 + auth(20).encode().len() / 2));
            burst
        })
        .collect();
    let fleet: Vec<Piece> = (20..24)
        .flat_map(|k| {
            plan.devices.iter().map(move |device| {
                let at = k.min(device.requests.len() - 1);
                Piece::Request(Request::Authenticate(device.requests[at].clone()))
            })
        })
        .collect();
    bursts.push(fleet);
    bursts
}

/// Runs cut every way a run ends, served from whole writes (runs as
/// long as each burst's stretch of auths) and from writes of 1–8
/// bytes under a [`FaultPlan`] (runs cut wherever a read ends): both
/// answer as the loopback oracle does, byte for byte.
#[test]
fn hostile_run_bursts_are_byte_identical_to_loopback_under_any_read_cuts() {
    let plan = TrafficPlan::build(&spec());
    let bursts = run_bursts(&plan);
    let expected = oracle(&plan, &bursts);
    // The bursts do what they claim: a newcomer enrolled mid-burst
    // authenticates, and a device is flagged in the middle of a run.
    let answers = |k: usize| -> Vec<Response> {
        expected[k]
            .iter()
            .map(|bytes| Response::decode(bytes).expect("oracle answers decode"))
            .collect()
    };
    let flagged = |r: &Response| {
        matches!(
            r,
            Response::Error {
                code: ErrorCode::DeviceFlagged,
                ..
            }
        )
    };
    let accept = Response::Verdict(WireVerdict::Accept);
    for (k, device) in plan.devices.iter().enumerate() {
        let answers = answers(k);
        assert_eq!(
            answers[4], accept,
            "newcomer of device {}",
            device.device_id
        );
        if device.role == Role::Benign {
            assert_eq!(answers[7], accept, "device {}", device.device_id);
            assert!(answers[8..11].iter().all(flagged), "{answers:?}");
        }
    }
    assert!(
        answers(bursts.len() - 1).iter().any(flagged),
        "the fleet burst meets flagged devices"
    );
    let longest = serve_bursts(&plan, &bursts, &expected, |stream, wire| {
        stream.write_all(wire)
    });
    assert!(
        longest >= 12,
        "whole writes served runs of {longest} at most"
    );
    for seed in [1u64, 2] {
        serve_bursts(&plan, &bursts, &expected, |stream, wire| {
            FaultyStream::new(stream, FaultPlan::new(seed).with_partial_io(RATE_ONE))
                .write_all(wire)
        });
    }
}
