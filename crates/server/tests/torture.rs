//! Wire-torture suite: hostile and degenerate byte-stream behavior
//! against the evented server.
//!
//! Every scenario that is about protocol correctness (byte-at-a-time
//! delivery, mid-frame disconnects, oversized frames, pipelining) runs
//! against a single-loop and a multi-loop server through one
//! parametrized harness — the topologies must be indistinguishable at
//! the wire. Scenarios about resource policy (slow-loris eviction,
//! idle eviction, backpressure, overload shedding, churn gauges, the
//! held fan) run against one configured server each.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ropuf_proto::{
    parse_retry_after_ms, ErrorCode, FrameReader, FrameWriter, Request, Response, MAX_FRAME,
    PROTOCOL_VERSION,
};
use ropuf_server::{
    EventedConfig, EventedServer, LoopbackTransport, OverloadPolicy, RequestHandler, TrafficPlan,
    TrafficSpec, Transport, VerifierHandler,
};
use ropuf_verifier::{DetectorConfig, Verifier};

mod common;
use common::{device_requests, enrolled_handler, spec};

fn handler() -> Arc<dyn RequestHandler> {
    let verifier = Arc::new(Verifier::new(4, DetectorConfig::default()));
    Arc::new(VerifierHandler::new(verifier))
}

/// Runs `scenario` against a fresh server in each topology — the
/// single-loop default and four loops with per-loop `SO_REUSEPORT`
/// accept queues (the tail-latency topology): hostile bytes must be
/// handled identically whichever loop the kernel hashes the
/// connection onto.
fn for_each_topology(scenario: impl Fn(&str, SocketAddr)) {
    let single_loop = EventedServer::spawn("127.0.0.1:0", handler(), EventedConfig::default())
        .expect("bind single-loop");
    scenario("single-loop", single_loop.local_addr());
    single_loop.shutdown();

    let multi_loop = EventedServer::spawn(
        "127.0.0.1:0",
        handler(),
        EventedConfig {
            loops: 4,
            reuseport: true,
            ..EventedConfig::default()
        },
    )
    .expect("bind multi-loop");
    scenario("multi-loop", multi_loop.local_addr());
    multi_loop.shutdown();
}

fn hello_frame() -> Vec<u8> {
    let mut wire = Vec::new();
    FrameWriter::new(&mut wire)
        .write_request(&Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: "torture".into(),
        })
        .unwrap();
    wire
}

/// Reads one response off a raw stream, panicking on EOF.
fn read_response(stream: &mut TcpStream) -> Response {
    FrameReader::new(stream)
        .read_response()
        .expect("well-formed response")
        .expect("server must answer before closing")
}

/// Waits (bounded) until reading the stream reports EOF / reset,
/// i.e. the server closed the connection.
fn assert_closed_within(stream: &mut TcpStream, window: Duration) {
    stream
        .set_read_timeout(Some(window))
        .expect("set read timeout");
    let mut buf = [0u8; 64];
    let start = Instant::now();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // clean EOF: evicted
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return,
            Ok(_) => {} // stray bytes; keep reading
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("connection still open after {:?}", start.elapsed())
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
}

#[test]
fn byte_at_a_time_delivery_is_reassembled() {
    for_each_topology(|topology, addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        for byte in hello_frame() {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        match read_response(&mut stream) {
            Response::HelloOk { protocol, .. } => assert_eq!(protocol, PROTOCOL_VERSION),
            other => panic!("[{topology}] unexpected {other:?}"),
        }
    });
}

#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    for_each_topology(|topology, addr| {
        // A burst of peers that declare a frame and vanish mid-payload
        // (and one that vanishes mid-header).
        for i in 0..20 {
            let mut stream = TcpStream::connect(addr).unwrap();
            if i % 2 == 0 {
                stream.write_all(&100u32.to_le_bytes()).unwrap();
                stream.write_all(&[0xAA; 10]).unwrap();
            } else {
                stream.write_all(&[0x07, 0x00]).unwrap(); // half a header
            }
            drop(stream); // RST/EOF mid-frame
        }
        // The server survived and still serves well-formed traffic.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello_frame()).unwrap();
        assert!(
            matches!(read_response(&mut stream), Response::HelloOk { .. }),
            "[{topology}] server must keep serving after mid-frame disconnects"
        );
    });
}

#[test]
fn oversized_frame_is_rejected_with_a_typed_error() {
    for_each_topology(|topology, addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        match read_response(&mut stream) {
            Response::Error { code, .. } => assert_eq!(
                code,
                ErrorCode::MalformedRequest,
                "[{topology}] oversize must be typed"
            ),
            other => panic!("[{topology}] unexpected {other:?}"),
        }
        // And the connection is closed afterwards — the stream cannot
        // be re-synchronized once a forged length was declared.
        assert_closed_within(&mut stream, Duration::from_secs(2));
    });
}

#[test]
fn garbage_payload_is_rejected_with_a_typed_error() {
    for_each_topology(|topology, addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let payload = [0x55u8, 1, 2, 3, 4];
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(&payload).unwrap();
        match read_response(&mut stream) {
            Response::Error { code, .. } => assert_eq!(
                code,
                ErrorCode::MalformedRequest,
                "[{topology}] garbage must be typed"
            ),
            other => panic!("[{topology}] unexpected {other:?}"),
        }
        assert_closed_within(&mut stream, Duration::from_secs(2));
    });
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    for_each_topology(|topology, addr| {
        let count = 64u64;
        // Hello + a run of QueryVerdicts for distinct unknown ids, all
        // written in a single burst before reading anything back.
        let mut burst = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut burst);
            writer
                .write_request(&Request::Hello {
                    protocol: PROTOCOL_VERSION,
                    client: "pipeline".into(),
                })
                .unwrap();
            for id in 0..count {
                writer
                    .write_request(&Request::QueryVerdict {
                        device_id: 1000 + id,
                    })
                    .unwrap();
            }
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&burst).unwrap();

        let read_half = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(read_half);
        assert!(
            matches!(
                reader.read_response().unwrap(),
                Some(Response::HelloOk { .. })
            ),
            "[{topology}] first answer is the hello"
        );
        for id in 0..count {
            match reader.read_response().unwrap() {
                Some(Response::Error { code, detail }) => {
                    assert_eq!(code, ErrorCode::UnknownDevice);
                    assert!(
                        detail.contains(&(1000 + id).to_string()),
                        "[{topology}] answer out of order: wanted id {}, got {detail:?}",
                        1000 + id
                    );
                }
                other => panic!("[{topology}] unexpected {other:?}"),
            }
        }
    });
}

#[test]
fn half_closed_pipeline_is_answered_in_full_before_the_close() {
    for_each_topology(|topology, addr| {
        // The whole pipeline and the FIN arrive together: the server
        // reads the frames and the EOF in the same pass, and must still
        // answer every frame it already holds, in order, then close.
        let count = 48u64;
        let mut burst = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut burst);
            for id in 0..count {
                writer
                    .write_request(&Request::QueryVerdict {
                        device_id: 5000 + id,
                    })
                    .unwrap();
            }
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&burst).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        let mut reader = FrameReader::new(&stream);
        for id in 0..count {
            match reader.read_response() {
                Ok(Some(Response::Error { code, detail })) => {
                    assert_eq!(code, ErrorCode::UnknownDevice);
                    assert!(
                        detail.contains(&(5000 + id).to_string()),
                        "[{topology}] answer {id} out of order: {detail:?}"
                    );
                }
                other => panic!("[{topology}] answer {id}: {other:?}"),
            }
        }
        assert!(
            matches!(reader.read_response(), Ok(None)),
            "[{topology}] the server closes after the last answer"
        );
    });
}

// ── Resource policies ───────────────────────────────────────────────

fn spawn_evented(config: EventedConfig) -> EventedServer {
    EventedServer::spawn("127.0.0.1:0", handler(), config).expect("bind evented")
}

#[test]
fn slow_loris_partial_header_is_evicted() {
    let server = spawn_evented(EventedConfig {
        frame_timeout: Duration::from_millis(80),
        ..EventedConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Two bytes of a length prefix, then silence: a classic loris.
    stream.write_all(&[0x10, 0x00]).unwrap();
    assert_closed_within(&mut stream, Duration::from_secs(3));
    assert_eq!(server.evictions().1, 1, "counted as a slow-frame eviction");
    // A trickler is evicted too: one byte per 30 ms never finishes a
    // 16-byte frame inside an 80 ms window, even though each byte
    // individually looks like progress.
    let mut trickler = TcpStream::connect(server.local_addr()).unwrap();
    trickler.write_all(&16u32.to_le_bytes()).unwrap();
    let evicted_by = Instant::now() + Duration::from_secs(3);
    trickler
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let mut evicted = false;
    while Instant::now() < evicted_by {
        if trickler.write_all(&[0xAB]).is_err() {
            evicted = true; // EPIPE: server closed on us
            break;
        }
        let mut buf = [0u8; 8];
        match trickler.read(&mut buf) {
            Ok(0) => {
                evicted = true;
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                evicted = true;
                break;
            }
            _ => {}
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(evicted, "a mid-frame trickler must not hold a connection");
    server.shutdown();
}

#[test]
fn idle_connection_is_evicted() {
    let server = spawn_evented(EventedConfig {
        idle_timeout: Duration::from_millis(80),
        ..EventedConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A fully served request re-arms the idle timer…
    stream.write_all(&hello_frame()).unwrap();
    assert!(matches!(
        read_response(&mut stream),
        Response::HelloOk { .. }
    ));
    // …then silence gets the connection evicted.
    assert_closed_within(&mut stream, Duration::from_secs(3));
    assert!(server.evictions().0 >= 1, "counted as an idle eviction");
    server.shutdown();
}

#[test]
fn backpressure_pauses_reading_without_dropping_responses() {
    // Tiny high-water mark so a modest pipeline trips it.
    let server = spawn_evented(EventedConfig {
        max_write_buffer: 2 * 1024,
        ..EventedConfig::default()
    });
    let count = 400u64;
    let mut burst = Vec::new();
    {
        let mut writer = FrameWriter::new(&mut burst);
        for id in 0..count {
            writer
                .write_request(&Request::QueryVerdict { device_id: id })
                .unwrap();
        }
    }
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&burst).unwrap();
    // Let the server run into the high-water mark before we read a
    // single byte back.
    std::thread::sleep(Duration::from_millis(100));
    let read_half = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(read_half);
    for id in 0..count {
        match reader.read_response().unwrap() {
            Some(Response::Error { code, detail }) => {
                assert_eq!(code, ErrorCode::UnknownDevice);
                assert!(detail.contains(&id.to_string()), "in order: {detail:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(server.requests_served(), count);
    server.shutdown();
}

#[test]
fn connection_churn_returns_the_gauge_to_zero() {
    let server = spawn_evented(EventedConfig::default());
    let addr = server.local_addr();
    let churn = 150;
    for i in 0..churn {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello_frame()).unwrap();
        assert!(
            matches!(read_response(&mut stream), Response::HelloOk { .. }),
            "churned connection {i} must be served"
        );
    }
    assert_eq!(server.accepted_total(), churn);
    assert_eq!(server.requests_served(), churn);
    // Closes are observed on the server's next readiness pass.
    let deadline = Instant::now() + Duration::from_secs(3);
    while server.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.open_connections(), 0, "all churned sockets reaped");
    server.shutdown();
}

/// One strict request/response exchange; returns the answer's payload.
/// Nothing follows the answer on the stream, so a fresh reader per
/// exchange cannot swallow a later frame.
fn exchange(stream: &mut TcpStream, request: &Request) -> Vec<u8> {
    FrameWriter::new(&mut *stream)
        .write_request(request)
        .expect("send");
    FrameReader::new(stream)
        .read_frame()
        .expect("read")
        .expect("server answers every request")
}

#[test]
fn many_concurrent_connections_are_served() {
    // A held-open fan that carries traffic: every connection stays
    // established while two client threads replay a mixed benign/LISA
    // plan across it — the shape a thread-per-connection server cannot
    // serve beyond its thread count.
    let plan = TrafficPlan::build(&TrafficSpec {
        master_seed: 1,
        rounds: 4,
        ..spec()
    });
    assert!(plan.attackers().count() >= 2 && plan.benign().count() >= 2);
    let requests = device_requests(&plan);
    let server = EventedServer::spawn(
        "127.0.0.1:0",
        enrolled_handler(&plan, 8),
        EventedConfig::default(),
    )
    .expect("bind evented");
    let addr = server.local_addr();
    let fan = 1024;
    let mut streams: Vec<TcpStream> = (0..fan)
        .map(|_| TcpStream::connect(addr).expect("connect fan"))
        .collect();
    // All connections established simultaneously.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() < fan && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.open_connections(), fan, "all held open at once");
    for (i, stream) in streams.iter_mut().enumerate() {
        stream.set_nodelay(true).expect("nodelay");
        stream.write_all(&hello_frame()).unwrap();
        assert!(
            matches!(read_response(stream), Response::HelloOk { .. }),
            "held connection {i} must be served"
        );
    }

    // Two threads; each owns every other connection and every other
    // device, so a device's requests stay in order. Requests
    // round-robin across the thread's half of the fan.
    let (even, odd): (Vec<_>, Vec<_>) = streams
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let answers: Vec<(u64, Vec<Vec<u8>>, Duration)> = std::thread::scope(|scope| {
        let workers: Vec<_> = [even, odd]
            .into_iter()
            .enumerate()
            .map(|(t, half)| {
                let requests = &requests;
                scope.spawn(move || {
                    let mut conns: Vec<TcpStream> = half.into_iter().map(|(_, s)| s).collect();
                    let mut rr = 0;
                    let mut out = Vec::new();
                    for (id, device_requests) in requests.iter().skip(t).step_by(2) {
                        let mut bytes = Vec::new();
                        let mut slowest = Duration::ZERO;
                        for request in device_requests {
                            let slot = rr % conns.len();
                            rr += 1;
                            let t0 = Instant::now();
                            bytes.push(exchange(&mut conns[slot], request));
                            slowest = slowest.max(t0.elapsed());
                        }
                        out.push((*id, bytes, slowest));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay thread"))
            .collect()
    });

    // Each device's answers equal the loopback oracle's, byte for byte;
    // those bytes carry every DeviceFlagged rejection and the final
    // flag state.
    let mut oracle = LoopbackTransport::new(enrolled_handler(&plan, 8));
    for (id, device_requests) in &requests {
        let expected: Vec<Vec<u8>> = device_requests
            .iter()
            .map(|request| oracle.roundtrip(request).expect("loopback").encode())
            .collect();
        let (_, got, _) = answers
            .iter()
            .find(|(answered, _, _)| answered == id)
            .expect("every device replayed");
        assert_eq!(got, &expected, "device {id} answers");
    }
    // The tail gate: a generous 100 ms ceiling that catches
    // order-of-magnitude regressions on a noisy runner. It bounds the
    // maximum, which is never below the p999.
    let slowest = answers.iter().map(|(_, _, max)| *max).max().unwrap();
    assert!(
        slowest <= Duration::from_millis(100),
        "slowest exchange took {slowest:?}"
    );
    assert_eq!(
        server.requests_served(),
        (fan + plan.total_requests() + plan.devices.len()) as u64,
        "one hello per connection, every auth, one verdict query per device"
    );
    server.shutdown();
}

#[test]
fn pipelined_scrapes_past_the_budget_are_shed_with_a_retry_hint() {
    let server = spawn_evented(EventedConfig {
        overload: OverloadPolicy {
            brownout_pressure: 64 * 1024,
            max_pressure: 512 * 1024,
            retry_after_ms: 2,
        },
        ..EventedConfig::default()
    });
    let burst: u32 = 1024;
    let mut wire = Vec::new();
    {
        let mut writer = FrameWriter::new(&mut wire);
        for _ in 0..burst {
            writer.write_request(&Request::MetricsSnapshot).unwrap();
        }
    }
    // The whole burst goes out before a single answer is read, so the
    // answers pile up in the connection's out-buffer past the
    // brown-out budget.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&wire).unwrap();
    let t0 = Instant::now();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    let (mut served, mut shed) = (0u64, 0u64);
    for i in 0..burst {
        match reader.read_response().unwrap() {
            Some(Response::MetricsBin { .. }) => served += 1,
            Some(Response::Error {
                code: ErrorCode::Overloaded,
                detail,
            }) => {
                assert_eq!(parse_retry_after_ms(&detail), Some(2), "answer {i}");
                shed += 1;
            }
            other => panic!("answer {i}: unexpected {other:?}"),
        }
    }
    let drain = t0.elapsed();
    assert!(
        served > 0 && shed > 0,
        "served {served}, shed {shed}: brown-out sheds scrapes while some still serve"
    );
    assert!(
        drain < Duration::from_millis(1) * burst,
        "{burst} answers drained in {drain:?}: sheds must stay under 1 ms amortized"
    );
    // The connection survives its own overload.
    stream.write_all(&hello_frame()).unwrap();
    assert!(matches!(
        reader.read_response().unwrap(),
        Some(Response::HelloOk { .. })
    ));
    assert_eq!(
        server.telemetry().snapshot().counter_total("server.shed"),
        shed
    );
    server.shutdown();
}

#[test]
fn held_fan_spreads_across_reuseport_loops() {
    // The same held-open fan against the multi-loop topology: the
    // kernel hashes the connections across per-loop accept queues,
    // every one is served, and the loops really did share the work —
    // with 256 distinct 4-tuples over 2 queues, a topology where one
    // loop accepted everything means reuseport binding is broken.
    let server = spawn_evented(EventedConfig {
        loops: 2,
        reuseport: true,
        ..EventedConfig::default()
    });
    let addr = server.local_addr();
    let fan = 256;
    let mut streams: Vec<TcpStream> = (0..fan)
        .map(|_| TcpStream::connect(addr).expect("connect fan"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() < fan && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.open_connections(), fan, "all held open at once");
    let mut seen_loops = std::collections::HashSet::new();
    for (i, stream) in streams.iter_mut().enumerate() {
        let mut writer = FrameWriter::new(stream.try_clone().unwrap());
        writer.write_request(&Request::LoopInfo).unwrap();
        match read_response(stream) {
            Response::LoopInfoOk { loop_id, loops } => {
                assert_eq!(loops, 2);
                assert!(loop_id < 2, "connection {i} reported loop {loop_id}");
                seen_loops.insert(loop_id);
            }
            other => panic!("connection {i}: unexpected {other:?}"),
        }
    }
    assert_eq!(
        seen_loops.len(),
        2,
        "kernel never spread 256 connections across 2 accept queues"
    );
    assert_eq!(server.requests_served(), fan as u64);
    server.shutdown();
}
