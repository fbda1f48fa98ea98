//! The network serving surface of the ropuf verifier.
//!
//! PR 2 built the defender half — sharded registry, HMAC
//! authentication, online attack detection — but only as an in-process
//! library. This crate puts it on the wire: a concurrent TCP server
//! speaking [`ropuf-wire/v1`](ropuf_proto), an in-process loopback
//! transport with byte-identical semantics for deterministic tests,
//! a typed client, and the campaign-driven traffic model the `loadgen`
//! harness replays against it. Every future scaling PR (async I/O,
//! caching, replication) builds on this layer.
//!
//! # Pieces
//!
//! * [`handler`] — [`RequestHandler`]: protocol semantics against the
//!   shared [`Verifier`](ropuf_verifier::Verifier); quarantined
//!   devices are rejected at the wire with
//!   [`ErrorCode::DeviceFlagged`](ropuf_proto::ErrorCode).
//! * [`tcp`] — [`TcpServer`]: `std::net::TcpListener` accept loop
//!   dispatching connections to a fixed worker-thread pool, plus the
//!   client-side [`TcpTransport`].
//! * [`evented`] (Linux) — [`EventedServer`]: non-blocking epoll
//!   readiness loops driving per-connection state machines — the
//!   many-thousands-of-connections backend, with pipelining, bounded
//!   buffers, slow-client eviction, and graceful shutdown. Same
//!   handler, same wire semantics, proven equivalent by the
//!   `equivalence` test suite.
//! * [`sys`] (Linux) — the in-tree `epoll` and `SO_REUSEPORT`
//!   syscall wrappers (no `libc` crate; the workspace stays
//!   dependency-free).
//! * [`telemetry`] — [`ServerTelemetry`]: backend-labeled request and
//!   connection metrics, per-message-type phase latency histograms,
//!   and the slow-request trace ring; scrapeable mid-run over the wire
//!   via `Request::MetricsSnapshot` / `Request::TraceDump`.
//! * [`transport`] — the [`Transport`] abstraction, the
//!   [`LoopbackTransport`] (same handler, full codec, no sockets) and
//!   the typed [`Client`].
//! * [`traffic`] — [`TrafficPlan`]: deterministic mixed benign/LISA
//!   workloads built from campaign fleet seeds, replayable over any
//!   transport.
//!
//! # Example: loopback serving
//!
//! ```
//! use std::sync::Arc;
//! use ropuf_server::{Client, LoopbackTransport, VerifierHandler};
//! use ropuf_verifier::{DetectorConfig, Verifier};
//!
//! let verifier = Arc::new(Verifier::new(4, DetectorConfig::default()));
//! let handler = Arc::new(VerifierHandler::new(verifier));
//! let mut client = Client::new(LoopbackTransport::new(handler));
//! let server = client.hello("example").unwrap();
//! assert!(server.starts_with("ropuf-server/"));
//! ```
//!
//! For the socket path, see [`TcpServer`] and the `loadgen` binary in
//! `crates/bench`.

// `deny`, not `forbid`: the syscall wrappers in `sys::epoll` and
// `sys::net` are the sanctioned `#[allow(unsafe_code)]` islands (FFI
// boundary only); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
#[cfg(target_os = "linux")]
pub mod evented;
pub mod handler;
pub mod resilient;
pub mod sys;
pub mod tcp;
pub mod telemetry;
pub mod traffic;
pub mod transport;

pub use admission::{evented_pressure, Admission, OverloadPolicy, RequestClass};
#[cfg(target_os = "linux")]
pub use evented::{EventedConfig, EventedServer};
pub use handler::{wire_reason, wire_verdict, RequestHandler, VerifierHandler};
pub use resilient::{
    Deadlines, FaultyTcpTransport, PlanFactory, ResilientClient, RetryCause, RetryPolicy,
};
pub use tcp::{TcpServer, TcpTransport};
pub use telemetry::ServerTelemetry;
pub use traffic::{DeviceTraffic, Role, TrafficPlan, TrafficSpec};
pub use transport::{Client, ClientError, LoopbackTransport, Transport};
