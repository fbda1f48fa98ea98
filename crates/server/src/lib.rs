//! The network serving surface of the ropuf verifier.
//!
//! `ropuf_verifier` is the defender half — sharded registry, HMAC
//! authentication, online attack detection — as an in-process
//! library. This crate puts it on the wire: an epoll TCP server
//! speaking [`ropuf-wire/v1`](ropuf_proto), an in-process loopback
//! transport with byte-identical semantics for deterministic tests,
//! a typed client, and the campaign-driven traffic model the server
//! suites replay against it.
//!
//! The server runs on Linux only (it is built on `epoll`). Other
//! targets keep the handler, the loopback transport, the TCP client
//! and the traffic model.
//!
//! # Pieces
//!
//! * [`handler`] — [`RequestHandler`]: protocol semantics against the
//!   shared [`Verifier`](ropuf_verifier::Verifier); quarantined
//!   devices are rejected at the wire with
//!   [`ErrorCode::DeviceFlagged`](ropuf_proto::ErrorCode).
//! * [`evented`] (Linux) — [`EventedServer`]: non-blocking epoll
//!   readiness loops driving per-connection state machines — many
//!   thousands of connections per loop, with pipelining, bounded
//!   buffers, slow-client eviction, and graceful shutdown. Proven
//!   byte-for-byte equivalent to loopback by the `equivalence` test
//!   suite.
//! * [`sys`] (Linux) — the in-tree `epoll` and `SO_REUSEPORT`
//!   syscall wrappers (no `libc` crate; the workspace stays
//!   dependency-free).
//! * [`admission`] (Linux) — [`Admission`]: the server's two-threshold
//!   overload shedding.
//! * [`telemetry`] (Linux) — [`ServerTelemetry`]: request and
//!   connection metrics, per-message-type phase latency histograms,
//!   and the slow-request trace ring; scrapeable mid-run over the wire
//!   via `Request::MetricsSnapshot` / `Request::TraceDump`.
//! * [`transport`] — the [`Transport`] abstraction, the client-side
//!   [`TcpTransport`], the [`LoopbackTransport`] (same handler, full
//!   codec, no sockets) and the typed [`Client`].
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
//! For the socket path, see [`EventedServer`], the `torture`,
//! `equivalence` and `chaos` suites under `crates/server/tests`, and
//! the `servebench` benchmark at the repository root.

// `deny`, not `forbid`: the syscall wrappers in `sys::epoll` and
// `sys::net` are the sanctioned `#[allow(unsafe_code)]` islands (FFI
// boundary only); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_os = "linux")]
pub mod admission;
#[cfg(target_os = "linux")]
pub mod evented;
pub mod handler;
pub mod resilient;
pub mod sys;
#[cfg(target_os = "linux")]
pub mod telemetry;
pub mod traffic;
pub mod transport;

#[cfg(target_os = "linux")]
pub use admission::{evented_pressure, Admission, OverloadPolicy, RequestClass};
#[cfg(target_os = "linux")]
pub use evented::{EventedConfig, EventedServer};
pub use handler::{wire_reason, wire_verdict, RequestHandler, VerifierHandler};
pub use resilient::{
    Deadlines, FaultyTcpTransport, PlanFactory, ResilientClient, RetryCause, RetryPolicy,
};
#[cfg(target_os = "linux")]
pub use telemetry::ServerTelemetry;
pub use traffic::{DeviceTraffic, Role, TrafficPlan, TrafficSpec};
pub use transport::{Client, ClientError, LoopbackTransport, TcpTransport, Transport};
