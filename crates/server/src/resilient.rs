//! The resilient client: deadlines, reconnects, and idempotency-aware
//! retries over a faulty network.
//!
//! The plain [`Client`](crate::Client) assumes a healthy transport —
//! one error and the exchange is simply lost. This module is the
//! production posture: every socket operation has a deadline, every
//! failure is classified (connect, transport, overload) and retried
//! under a budgeted, capped-exponential-backoff [`RetryPolicy`] with
//! deterministic seeded jitter, and a torn connection is transparently
//! re-dialed. Retries respect idempotency per message type:
//!
//! | request | retry rule |
//! |---------|-----------|
//! | `Authenticate` / `BatchAuthenticate` | retry freely — the verifier judges each attempt on its own evidence; a replayed genuine attempt is just another genuine attempt |
//! | `QueryVerdict` / scrapes | retry freely — pure reads |
//! | `Enroll` | retry, treating [`ErrorCode::DuplicateDevice`] after a retry as success: the first attempt may have been applied with only its *answer* lost |
//! | answered [`ErrorCode::Overloaded`] | wait the server's `retry_after_ms` hint, then retry (budgeted like any other retry) |
//! | answered [`ErrorCode::ReadOnly`] and other typed errors | surface immediately — the server answered; retrying cannot change its mind |
//!
//! For chaos testing, the transport layer can be wrapped in a seeded
//! [`FaultPlan`] per connection — partial I/O, injected delays,
//! connection resets — making an entire retry storm deterministic and
//! replayable.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ropuf_proto::{
    parse_retry_after_ms, ErrorCode, FaultPlan, FaultyStream, FrameAccum, FrameError, FramePoll,
    Request, Response, MAX_FRAME,
};

use crate::transport::{ClientError, Transport};

/// Socket deadlines for one connection. `None` disables that deadline
/// (the [`Default`] is fully armed: 1 s connect, 5 s read/write —
/// generous for a LAN, finite for a wedge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// TCP connect deadline.
    pub connect: Option<Duration>,
    /// Per-`read(2)` deadline once connected.
    pub read: Option<Duration>,
    /// Per-`write(2)` deadline once connected.
    pub write: Option<Duration>,
}

impl Default for Deadlines {
    fn default() -> Self {
        Self {
            connect: Some(Duration::from_secs(1)),
            read: Some(Duration::from_secs(5)),
            write: Some(Duration::from_secs(5)),
        }
    }
}

impl Deadlines {
    /// No deadlines anywhere — the pre-hardening behavior.
    pub fn none() -> Self {
        Self {
            connect: None,
            read: None,
            write: None,
        }
    }
}

/// Capped exponential backoff with deterministic seeded jitter and a
/// hard retry budget.
///
/// The delay for retry `attempt` (0-based) of operation `op` is drawn
/// from `[base/2, base]` where `base = min(base_delay · 2^attempt,
/// max_delay)` — "equal jitter": never more than the cap, never so
/// small that a thundering herd stays in phase. The draw is a pure
/// function of `(seed, op, attempt)`, so a chaos run's entire timing
/// schedule replays bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per operation (total attempts = budget + 1).
    pub budget: u32,
    /// First retry's nominal delay.
    pub base_delay: Duration,
    /// Hard ceiling on any single delay.
    pub max_delay: Duration,
    /// Jitter seed; two clients with different seeds desynchronize.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            budget: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (attempts exactly once).
    pub fn no_retries() -> Self {
        Self {
            budget: 0,
            ..Self::default()
        }
    }

    /// The delay before retry `attempt` (0-based) of operation `op`.
    /// Deterministic in `(seed, op, attempt)`; always `<= max_delay`.
    pub fn delay(&self, op: u64, attempt: u32) -> Duration {
        let base_ns = u64::try_from(self.base_delay.as_nanos()).unwrap_or(u64::MAX);
        let cap_ns = u64::try_from(self.max_delay.as_nanos()).unwrap_or(u64::MAX);
        let exp_ns = base_ns.saturating_mul(1u64 << attempt.min(32)).min(cap_ns);
        // Equal jitter: [exp/2, exp], drawn deterministically.
        let half = exp_ns / 2;
        let roll = ropuf_numeric::splitmix64(
            self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt),
        );
        let jitter = if half == 0 {
            0
        } else {
            roll % (exp_ns - half + 1)
        };
        Duration::from_nanos(half + jitter)
    }
}

/// Why a retry happened — named in the error once the budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// The dial itself failed (refused, timed out).
    Connect,
    /// An established exchange died (reset, EOF, deadline).
    Transport,
    /// The server answered [`ErrorCode::Overloaded`].
    Overloaded,
}

impl RetryCause {
    fn slot(self) -> usize {
        match self {
            RetryCause::Connect => 0,
            RetryCause::Transport => 1,
            RetryCause::Overloaded => 2,
        }
    }
}

/// Cause names, in [`RetryCause::slot`] order.
const CAUSES: [&str; 3] = ["connect", "transport", "overloaded"];

/// A framed request/response transport over one TCP connection whose
/// byte stream runs through a [`FaultPlan`] — the chaos-capable
/// cousin of [`TcpTransport`](crate::TcpTransport). With a
/// transparent (default) plan it is an ordinary deadline-armed
/// transport.
#[derive(Debug)]
pub struct FaultyTcpTransport {
    stream: FaultyStream<TcpStream>,
    accum: FrameAccum,
    out: Vec<u8>,
}

impl FaultyTcpTransport {
    /// Dials `addr` under `deadlines` and arms `plan` on the stream.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures (a connect deadline that
    /// expires is `io::ErrorKind::TimedOut`).
    pub fn connect(addr: SocketAddr, deadlines: &Deadlines, plan: FaultPlan) -> io::Result<Self> {
        let stream = match deadlines.connect {
            Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true).ok(); // latency over batching
        stream.set_read_timeout(deadlines.read)?;
        stream.set_write_timeout(deadlines.write)?;
        Ok(Self {
            stream: FaultyStream::new(stream, plan),
            accum: FrameAccum::new(),
            out: Vec::new(),
        })
    }

    /// One exchange returning the raw response payload bytes — the
    /// bit-for-bit comparison form the equivalence suites consume.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on transport or framing failure.
    pub fn roundtrip_raw(&mut self, request_payload: &[u8]) -> Result<Vec<u8>, FrameError> {
        self.out.clear();
        ropuf_proto::append_frame(&mut self.out, request_payload)?;
        // write_all through the fault plan: partial writes and delays
        // are absorbed here, resets surface as io errors.
        io::Write::write_all(&mut self.stream, &self.out).map_err(FrameError::Io)?;
        ropuf_proto::frame::bound_scratch(&mut self.out);
        match self.accum.poll(&mut self.stream)? {
            FramePoll::Frame => {
                let payload = self.accum.frames().next().unwrap_or_default().to_vec();
                self.accum.finish_frames(1);
                Ok(payload)
            }
            // This stream blocks, so Pending only comes from an expired
            // read deadline (`SO_RCVTIMEO` reads fail with EAGAIN on
            // Linux): the exchange is over.
            FramePoll::Pending => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline expired before the answer arrived",
            ))),
            FramePoll::Eof => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-exchange",
            ))),
        }
    }
}

impl Transport for FaultyTcpTransport {
    fn roundtrip_frame(&mut self, request_payload: &[u8]) -> Result<Response, FrameError> {
        let payload = self.roundtrip_raw(request_payload)?;
        Ok(Response::decode(&payload)?)
    }
}

/// Per-connection fault plans: called with a connection serial
/// (0 for the first dial, 1 for the first re-dial, …) and returns the
/// plan to arm on that connection's stream.
pub type PlanFactory = Box<dyn FnMut(u64) -> FaultPlan + Send>;

/// A self-healing typed client: dials on demand, re-dials on
/// transport failure, and retries per the idempotency table in the
/// [module docs](self).
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    deadlines: Deadlines,
    plans: Option<PlanFactory>,
    conn: Option<FaultyTcpTransport>,
    conn_serial: u64,
    op_serial: u64,
    retries: u64,
    reconnects: u64,
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .field("conn_serial", &self.conn_serial)
            .finish_non_exhaustive()
    }
}

impl ResilientClient {
    /// Builds a client for `addr`. Nothing is dialed until the first
    /// operation.
    ///
    /// # Errors
    ///
    /// Address resolution failure.
    pub fn new(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
        deadlines: Deadlines,
    ) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(Self {
            addr,
            policy,
            deadlines,
            plans: None,
            conn: None,
            conn_serial: 0,
            op_serial: 0,
            retries: 0,
            reconnects: 0,
        })
    }

    /// Arms a per-connection fault-plan factory (chaos testing).
    pub fn with_faults(mut self, plans: PlanFactory) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Total retries so far, all causes.
    pub fn retries_total(&self) -> u64 {
        self.retries
    }

    /// Connections re-dialed after the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn ensure_connected(&mut self) -> io::Result<&mut FaultyTcpTransport> {
        if self.conn.is_none() {
            let serial = self.conn_serial;
            self.conn_serial += 1;
            if serial > 0 {
                self.reconnects += 1;
            }
            let plan = match &mut self.plans {
                Some(factory) => factory(serial),
                None => FaultPlan::new(0), // fresh plan: fully transparent
            };
            self.conn = Some(FaultyTcpTransport::connect(
                self.addr,
                &self.deadlines,
                plan,
            )?);
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// One budgeted exchange, returning the raw response payload. The
    /// core loop every typed method builds on; `dup_ok` is the enroll
    /// idempotency rule (`DuplicateDevice` after at least one retry is
    /// reported as-is but guaranteed to be this device's own record —
    /// the caller maps it to success).
    ///
    /// # Errors
    ///
    /// The final attempt's failure once the budget is exhausted, or
    /// the first non-retryable server answer.
    pub fn exchange_raw(&mut self, request_payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        let op = self.op_serial;
        self.op_serial += 1;
        let mut attempt: u32 = 0;
        loop {
            let outcome: Result<Vec<u8>, (RetryCause, Option<Duration>)> = match self
                .ensure_connected()
            {
                Ok(conn) => match conn.roundtrip_raw(request_payload) {
                    Ok(payload) => {
                        // Peek for an overload answer: [0xEE][code=8].
                        if payload.first() == Some(&0xEE)
                            && payload.get(1) == Some(&ErrorCode::Overloaded.code())
                        {
                            let hint = Response::decode(&payload)
                                .ok()
                                .and_then(|r| match r {
                                    Response::Error { detail, .. } => parse_retry_after_ms(&detail),
                                    _ => None,
                                })
                                .map(|ms| Duration::from_millis(u64::from(ms)));
                            Err((RetryCause::Overloaded, hint))
                        } else {
                            return Ok(payload);
                        }
                    }
                    Err(_) => {
                        // The exchange died mid-flight: the connection
                        // is in an unknown framing state, drop it.
                        self.conn = None;
                        Err((RetryCause::Transport, None))
                    }
                },
                Err(_) => Err((RetryCause::Connect, None)),
            };
            let (cause, hint) = outcome.expect_err("success returned above");
            if attempt >= self.policy.budget {
                return Err(ClientError::Transport(FrameError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "retry budget ({}) exhausted; last failure: {}",
                        self.policy.budget,
                        CAUSES[cause.slot()]
                    ),
                ))));
            }
            self.retries += 1;
            // An overloaded server said when to come back; cap its
            // hint by the policy's ceiling like any other delay.
            let delay = match hint {
                Some(server_hint) => server_hint.min(self.policy.max_delay),
                None => self.policy.delay(op, attempt),
            };
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = self.exchange_raw(&request.encode())?;
        let response = Response::decode(&payload)
            .map_err(|e| ClientError::Transport(FrameError::Decode(e)))?;
        match response {
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            response => Ok(response),
        }
    }

    /// Version handshake, retried per policy.
    ///
    /// # Errors
    ///
    /// See [`ResilientClient::exchange_raw`] and
    /// [`Client::hello`](crate::Client::hello).
    pub fn hello(&mut self, client_name: &str) -> Result<String, ClientError> {
        match self.exchange(&Request::Hello {
            protocol: ropuf_proto::PROTOCOL_VERSION,
            client: client_name.to_string(),
        })? {
            Response::HelloOk { server, .. } => Ok(server),
            _ => Err(ClientError::UnexpectedResponse("HelloOk")),
        }
    }

    /// Enrollment with the idempotent retry rule: a
    /// [`ErrorCode::DuplicateDevice`] answer after this *same call*
    /// already retried is success — the earlier attempt was applied
    /// and only its answer was lost.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::DuplicateDevice`] on the *first* attempt is a real
    /// conflict and surfaces; [`ErrorCode::ReadOnly`] always surfaces.
    pub fn enroll(
        &mut self,
        device_id: u64,
        scheme_tag: u8,
        helper: Vec<u8>,
        key_digest: [u8; 32],
    ) -> Result<(), ClientError> {
        let retries_before = self.retries_total();
        match self.exchange(&Request::Enroll {
            device_id,
            scheme_tag,
            helper,
            key_digest,
        }) {
            Ok(Response::EnrollOk { .. }) => Ok(()),
            Ok(_) => Err(ClientError::UnexpectedResponse("EnrollOk")),
            Err(e)
                if e.error_code() == Some(ErrorCode::DuplicateDevice)
                    && self.retries_total() > retries_before =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// One authentication attempt, retried freely.
    ///
    /// # Errors
    ///
    /// See [`Client::authenticate`](crate::Client::authenticate).
    pub fn authenticate(
        &mut self,
        item: ropuf_proto::AuthItem,
    ) -> Result<ropuf_proto::WireVerdict, ClientError> {
        match self.exchange(&Request::Authenticate(item))? {
            Response::Verdict(verdict) => Ok(verdict),
            _ => Err(ClientError::UnexpectedResponse("Verdict")),
        }
    }

    /// A device's flag state, retried freely.
    ///
    /// # Errors
    ///
    /// See [`Client::query_verdict`](crate::Client::query_verdict).
    pub fn query_verdict(
        &mut self,
        device_id: u64,
    ) -> Result<Option<(u64, ropuf_proto::WireFlagReason)>, ClientError> {
        match self.exchange(&Request::QueryVerdict { device_id })? {
            Response::FlagInfo { flagged } => Ok(flagged),
            _ => Err(ClientError::UnexpectedResponse("FlagInfo")),
        }
    }

    /// A live metrics scrape, retried freely (it may be shed under
    /// brown-out — the retry waits out the `retry_after_ms` hint).
    ///
    /// # Errors
    ///
    /// See [`Client::metrics`](crate::Client::metrics).
    pub fn metrics(&mut self) -> Result<ropuf_telemetry::Snapshot, ClientError> {
        match self.exchange(&Request::MetricsSnapshot)? {
            Response::MetricsBin { bytes } => ropuf_telemetry::Snapshot::decode(&bytes)
                .map_err(|_| ClientError::UnexpectedResponse("decodable ropuf-metrics/v1 blob")),
            _ => Err(ClientError::UnexpectedResponse("MetricsBin")),
        }
    }

    /// Drops the current connection (the next operation re-dials).
    /// Chaos tests use this to pin a plan change to an exact boundary.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }
}

const _: () = assert!(MAX_FRAME > 0); // keep the import honest

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_capped_jittered_and_deterministic() {
        let policy = RetryPolicy {
            budget: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            seed: 42,
        };
        for op in 0..32u64 {
            for attempt in 0..16u32 {
                let d = policy.delay(op, attempt);
                assert!(d <= policy.max_delay, "delay {d:?} over cap");
                let nominal = policy
                    .base_delay
                    .saturating_mul(1 << attempt.min(32))
                    .min(policy.max_delay);
                assert!(d >= nominal / 2, "delay {d:?} under half of {nominal:?}");
                // Deterministic: same inputs, same delay.
                assert_eq!(d, policy.delay(op, attempt));
            }
        }
        // Different seeds desynchronize at least one draw.
        let other = RetryPolicy { seed: 43, ..policy };
        assert!((0..32).any(|op| other.delay(op, 3) != policy.delay(op, 3)));
    }

    #[test]
    fn refused_connection_exhausts_the_budget_and_fails() {
        // Nothing listens on this address: every dial fails fast.
        let policy = RetryPolicy {
            budget: 2,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_micros(200),
            seed: 7,
        };
        let mut client = ResilientClient::new("127.0.0.1:1", policy, Deadlines::default()).unwrap();
        let err = client.hello("nobody-home").unwrap_err();
        assert!(
            err.to_string().contains("retry budget (2) exhausted"),
            "{err}"
        );
        assert_eq!(client.retries_total(), 2);
    }

    #[test]
    fn read_deadline_ends_an_exchange_with_a_silent_server() {
        // The listener accepts (the kernel completes the handshake) but
        // nobody ever answers: each attempt must end at the read
        // deadline, and the budget must end the call.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let policy = RetryPolicy {
            budget: 1,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            seed: 3,
        };
        let deadlines = Deadlines {
            read: Some(Duration::from_millis(100)),
            ..Deadlines::default()
        };
        let mut client =
            ResilientClient::new(silent.local_addr().unwrap(), policy, deadlines).unwrap();
        let started = std::time::Instant::now();
        let err = client.hello("anyone-there").unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "took {:?}",
            started.elapsed()
        );
        assert!(
            err.to_string().contains("retry budget (1) exhausted"),
            "{err}"
        );
        assert_eq!(client.retries_total(), 1);
    }
}
