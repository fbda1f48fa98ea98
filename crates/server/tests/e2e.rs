//! End-to-end serving tests.
//!
//! 1. **Real sockets** (Linux) — spawn the evented server on an
//!    ephemeral localhost port, then enroll, authenticate, and flag an
//!    attacker entirely over the wire, from multiple concurrent client
//!    connections, and check every outcome with `QueryVerdict`.
//! 2. **Deterministic loopback replay** — the same traffic plan built
//!    twice and replayed through two fresh loopback stacks must
//!    produce byte-identical response streams (requests already
//!    compare equal by construction).

use std::sync::Arc;

use ropuf_proto::Request;
use ropuf_server::{LoopbackTransport, RequestHandler, TrafficPlan, TrafficSpec, VerifierHandler};
use ropuf_verifier::{DetectorConfig, Verifier};

use ropuf_constructions::pairing::lisa::LisaConfig;

#[cfg(target_os = "linux")]
use rand::{rngs::StdRng, SeedableRng};
#[cfg(target_os = "linux")]
use ropuf_constructions::pairing::lisa::{LisaScheme, LISA_TAG};
#[cfg(target_os = "linux")]
use ropuf_constructions::{Device, DeviceResponse};
#[cfg(target_os = "linux")]
use ropuf_proto::{
    AuthItem, ErrorCode, RequestRef, Response, WireAuthResponse, WireFlagReason, WireVerdict,
};
#[cfg(target_os = "linux")]
use ropuf_server::{Client, EventedConfig, EventedServer, TcpTransport};
#[cfg(target_os = "linux")]
use ropuf_sim::{ArrayDims, Environment, RoArrayBuilder};

#[cfg(target_os = "linux")]
fn provisioned(seed: u64) -> Device {
    let mut rng = StdRng::seed_from_u64(seed);
    let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
    Device::provision(
        array,
        Box::new(LisaScheme::new(LisaConfig::default())),
        seed,
    )
    .unwrap()
}

#[cfg(target_os = "linux")]
fn genuine_item(device: &mut Device, id: u64, now: u64, nonce: &[u8]) -> AuthItem {
    let response = match ropuf_verifier::device_auth_response(device, nonce, Environment::nominal())
    {
        DeviceResponse::Tag(tag) => WireAuthResponse::Tag(tag),
        DeviceResponse::Failure => WireAuthResponse::Failure,
    };
    AuthItem {
        device_id: id,
        now,
        nonce: nonce.to_vec(),
        response,
        presented_helper: Some(device.helper().to_vec()),
    }
}

#[cfg(target_os = "linux")]
#[test]
fn enroll_authenticate_and_flag_over_real_sockets() {
    let verifier = Arc::new(Verifier::new(4, DetectorConfig::default()));
    let handler = Arc::new(VerifierHandler::new(verifier));
    let server = EventedServer::spawn("127.0.0.1:0", handler, EventedConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut client = Client::new(TcpTransport::connect(addr).expect("connect"));
    assert!(client.hello("e2e").unwrap().starts_with("ropuf-server/"));

    // Enroll two devices over the wire.
    let mut genuine = provisioned(1);
    let attacker_device = provisioned(2);
    for (id, device) in [(10u64, &genuine), (11u64, &attacker_device)] {
        client
            .enroll(
                id,
                LISA_TAG,
                device.helper().to_vec(),
                ropuf_verifier::auth_key(device.enrolled_key()),
            )
            .unwrap();
    }
    // Duplicate enrollment is a typed wire error.
    let dup = client
        .enroll(10, LISA_TAG, vec![], [0; 32])
        .unwrap_err()
        .error_code();
    assert_eq!(dup, Some(ErrorCode::DuplicateDevice));

    // Genuine device authenticates, repeatedly, spaced in time.
    for round in 0..3u64 {
        let item = genuine_item(
            &mut genuine,
            10,
            round * 16,
            format!("n-{round}").as_bytes(),
        );
        assert_eq!(client.authenticate(item).unwrap(), WireVerdict::Accept);
    }

    // The attacker presents a manipulated helper blob: flagged at the
    // wire, and the latch holds from a *different* connection.
    let mut manipulated = attacker_device.helper().to_vec();
    let last = manipulated.len() - 1;
    manipulated[last] ^= 1;
    let hostile = AuthItem {
        device_id: 11,
        now: 0,
        nonce: b"atk".to_vec(),
        response: WireAuthResponse::Failure,
        presented_helper: Some(manipulated),
    };
    let err = client.authenticate(hostile).unwrap_err();
    assert_eq!(err.error_code(), Some(ErrorCode::DeviceFlagged));

    let mut second = Client::new(TcpTransport::connect(addr).expect("second connection"));
    second.hello("e2e-2").unwrap();
    let still_flagged = second
        .authenticate(AuthItem {
            device_id: 11,
            now: 100,
            nonce: b"later".to_vec(),
            response: WireAuthResponse::Failure,
            presented_helper: Some(attacker_device.helper().to_vec()),
        })
        .unwrap_err();
    assert_eq!(still_flagged.error_code(), Some(ErrorCode::DeviceFlagged));
    assert_eq!(
        second.query_verdict(11).unwrap().map(|(_, r)| r),
        Some(WireFlagReason::HelperMismatch)
    );
    assert_eq!(second.query_verdict(10).unwrap(), None, "genuine unflagged");
    // Only the two enrolled ids are known.
    assert_eq!(
        second.query_verdict(12).unwrap_err().error_code(),
        Some(ErrorCode::UnknownDevice)
    );

    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn concurrent_connections_share_one_registry() {
    let verifier = Arc::new(Verifier::new(8, DetectorConfig::default()));
    let handler = Arc::new(VerifierHandler::new(verifier));
    let server =
        EventedServer::spawn("127.0.0.1:0", handler, EventedConfig::default()).expect("bind");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                let mut client = Client::new(TcpTransport::connect(addr).expect("connect"));
                client.hello(&format!("worker-{t}")).unwrap();
                for i in 0..20u64 {
                    let id = t * 100 + i;
                    client
                        .enroll(id, LISA_TAG, vec![LISA_TAG, 1], [t as u8; 32])
                        .unwrap();
                }
            });
        }
    });

    // Every connection's enrollments landed, and are visible from a
    // fifth connection.
    let mut client = Client::new(TcpTransport::connect(addr).expect("connect"));
    client.hello("checker").unwrap();
    for t in 0..4u64 {
        for i in 0..20u64 {
            assert_eq!(client.query_verdict(t * 100 + i).unwrap(), None);
        }
    }
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn malformed_frames_get_a_typed_error_not_a_crash() {
    use std::io::{Read, Write};

    let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
    let handler = Arc::new(VerifierHandler::new(verifier));
    let server =
        EventedServer::spawn("127.0.0.1:0", handler, EventedConfig::default()).expect("bind");
    let addr = server.local_addr();

    // Hand-rolled hostile frame: valid length prefix, garbage payload.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let payload = [0xEEu8, 1, 2, 3];
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).unwrap();
    let response = ropuf_proto::FrameReader::new(&answer[..])
        .read_response()
        .unwrap()
        .expect("server answers before closing");
    assert!(matches!(
        response,
        ropuf_proto::Response::Error {
            code: ErrorCode::MalformedRequest,
            ..
        }
    ));

    // The server survived: a fresh, well-formed connection still works.
    let mut client = Client::new(TcpTransport::connect(addr).expect("reconnect"));
    assert!(client.hello("after-garbage").is_ok());
    server.shutdown();
}

/// Answers `QueryVerdict` for device 0 with a metrics blob one frame
/// cap long, too large for any frame, and every other `QueryVerdict`
/// with "unflagged".
#[cfg(target_os = "linux")]
struct JumboHandler;

#[cfg(target_os = "linux")]
impl RequestHandler for JumboHandler {
    fn handle_ref(&self, request: RequestRef<'_>) -> Response {
        match request {
            RequestRef::QueryVerdict { device_id: 0 } => Response::MetricsBin {
                bytes: vec![0; ropuf_proto::MAX_FRAME as usize],
            },
            RequestRef::QueryVerdict { .. } => Response::FlagInfo { flagged: None },
            _ => Response::Error {
                code: ErrorCode::MalformedRequest,
                detail: "jumbo handler only answers verdict queries".into(),
            },
        }
    }
}

#[cfg(target_os = "linux")]
#[test]
fn oversize_response_is_a_typed_error_and_connection_survives() {
    let server = EventedServer::spawn(
        "127.0.0.1:0",
        Arc::new(JumboHandler),
        EventedConfig::default(),
    )
    .expect("bind");
    let mut client = Client::new(TcpTransport::connect(server.local_addr()).expect("connect"));
    let err = client.query_verdict(0).unwrap_err();
    assert_eq!(err.error_code(), Some(ErrorCode::ResponseTooLarge));
    // The connection is still frame-aligned and serviceable.
    assert_eq!(client.query_verdict(1).unwrap(), None);
    server.shutdown();
}

/// Replays a traffic plan through a fresh loopback stack, returning
/// the **encoded bytes** of every response in order.
fn loopback_replay(plan: &TrafficPlan, detector: DetectorConfig, shards: usize) -> Vec<Vec<u8>> {
    let verifier = Arc::new(Verifier::new(shards, detector));
    let results = verifier.enroll_batch(plan.enrollments());
    assert!(results.iter().all(Result::is_ok), "fresh ids enroll");
    let handler: Arc<dyn RequestHandler> = Arc::new(VerifierHandler::new(verifier));
    let mut transport = LoopbackTransport::new(handler);
    let mut responses = Vec::with_capacity(plan.total_requests());
    for device in &plan.devices {
        for item in &device.requests {
            let response = ropuf_server::Transport::roundtrip(
                &mut transport,
                &Request::Authenticate(item.clone()),
            )
            .expect("loopback cannot fail");
            responses.push(response.encode());
        }
    }
    responses
}

#[test]
fn loopback_replay_is_bit_for_bit_deterministic() {
    let spec = TrafficSpec {
        devices: 6,
        master_seed: 77,
        rounds: 3,
        lisa: LisaConfig::default(),
        detector: DetectorConfig::default(),
    };
    // Two independent builds of the same spec...
    let plan_a = TrafficPlan::build(&spec);
    let plan_b = TrafficPlan::build(&spec);
    assert_eq!(plan_a, plan_b, "traffic generation is deterministic");

    // ...replayed through two fresh serving stacks, byte-for-byte.
    let replay_a = loopback_replay(&plan_a, spec.detector, 4);
    let replay_b = loopback_replay(&plan_b, spec.detector, 4);
    assert_eq!(replay_a, replay_b, "wire responses are deterministic");

    // And the shard count is serving topology, not semantics.
    let replay_c = loopback_replay(&plan_a, spec.detector, 1);
    assert_eq!(replay_a, replay_c, "shard count cannot change verdicts");
}
