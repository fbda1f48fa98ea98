//! Client-side transports and the typed protocol client.
//!
//! [`Transport`] is one request/response exchange; two implementations
//! exist — [`TcpTransport`] over real sockets and [`LoopbackTransport`]
//! calling a handler in-process. The loopback path still **encodes and
//! decodes both directions** through the `ropuf_proto` codec, so a
//! loopback scenario exercises byte-identical wire behavior (minus the
//! kernel) and replays bit-for-bit deterministically — which is what
//! the campaign replay tests assert.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use ropuf_proto::{
    AuthItem, AuthItemRef, ErrorCode, FrameError, FrameReader, FrameWriter, Request, RequestRef,
    Response, WireFlagReason, WireVerdict, PROTOCOL_VERSION,
};

use ropuf_proto::frame::bound_scratch;

use crate::handler::RequestHandler;

/// One synchronous request/response exchange with a server.
///
/// The required entry takes an **already-encoded** request payload, so
/// callers ([`Client`]) encode into a reused buffer once and every
/// transport ships those bytes without re-encoding or copying.
pub trait Transport {
    /// Sends one encoded request frame payload and awaits its
    /// response.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on transport or codec failure.
    fn roundtrip_frame(&mut self, request_payload: &[u8]) -> Result<Response, FrameError>;

    /// Convenience: encodes `request` (allocating) and exchanges it.
    ///
    /// # Errors
    ///
    /// See [`Transport::roundtrip_frame`].
    fn roundtrip(&mut self, request: &Request) -> Result<Response, FrameError> {
        self.roundtrip_frame(&request.encode())
    }
}

/// Client-side transport over a connected [`TcpStream`].
#[derive(Debug)]
pub struct TcpTransport {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
}

impl TcpTransport {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects under [`Deadlines`](crate::resilient::Deadlines): the
    /// dial, every read, and every write each get a finite budget, so
    /// a wedged server surfaces as `io::ErrorKind::TimedOut`/
    /// `WouldBlock` instead of hanging the client forever.
    ///
    /// # Errors
    ///
    /// Propagates resolution, connection, configuration, and clone
    /// failures.
    pub fn connect_with_deadlines(
        addr: impl ToSocketAddrs,
        deadlines: &crate::resilient::Deadlines,
    ) -> io::Result<Self> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = match deadlines.connect {
            Some(timeout) => TcpStream::connect_timeout(&resolved, timeout)?,
            None => TcpStream::connect(resolved)?,
        };
        stream.set_read_timeout(deadlines.read)?;
        stream.set_write_timeout(deadlines.write)?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true).ok(); // latency over batching
        let write_half = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(stream),
            writer: FrameWriter::new(write_half),
        })
    }
}

impl Transport for TcpTransport {
    fn roundtrip_frame(&mut self, request_payload: &[u8]) -> Result<Response, FrameError> {
        self.writer.write_frame(request_payload)?;
        match self.reader.read_response()? {
            Some(response) => Ok(response),
            None => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-exchange",
            ))),
        }
    }
}

/// In-process transport: the same handler the server's event loop
/// calls, reached through a full encode/decode of both the request and
/// the response, without sockets. Deterministic and dependency-free —
/// the campaign/test path. Requests are decoded with the same
/// borrowing decoder the event loop uses, so a loopback exchange
/// exercises byte-identical wire behavior (minus the kernel).
pub struct LoopbackTransport {
    handler: Arc<dyn RequestHandler>,
    /// Reused response-encode buffer (the response's trip through the
    /// codec, without a socket to carry it).
    response_scratch: Vec<u8>,
}

impl std::fmt::Debug for LoopbackTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackTransport").finish_non_exhaustive()
    }
}

impl LoopbackTransport {
    /// Wraps a handler.
    pub fn new(handler: Arc<dyn RequestHandler>) -> Self {
        Self {
            handler,
            response_scratch: Vec::new(),
        }
    }
}

impl Transport for LoopbackTransport {
    fn roundtrip_frame(&mut self, request_payload: &[u8]) -> Result<Response, FrameError> {
        // Borrowing decode, exactly as the event loop does.
        let decoded = RequestRef::decode(request_payload)?;
        let response = self.handler.handle_ref(decoded);
        // And the response takes the same trip back.
        response.encode_into(&mut self.response_scratch);
        let decoded = Response::decode(&self.response_scratch)?;
        bound_scratch(&mut self.response_scratch);
        Ok(decoded)
    }
}

/// Client-side failure: transport trouble, a server-reported wire
/// error, or a response of the wrong shape.
#[derive(Debug)]
pub enum ClientError {
    /// The exchange itself failed.
    Transport(FrameError),
    /// The server answered with a typed wire error.
    Server {
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server answered with a response type the request cannot
    /// produce (protocol bug or hostile server).
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Server { code, detail } => {
                write!(f, "server error {code:?}: {detail}")
            }
            ClientError::UnexpectedResponse(expected) => {
                write!(f, "response shape mismatch: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Transport(e)
    }
}

impl ClientError {
    /// The wire error code, when the failure is a server-reported
    /// error.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Typed `ropuf-wire/v1` client over any [`Transport`].
///
/// Requests are encoded into a buffer the client owns and reuses, so a
/// steady-state request loop allocates nothing on the send side.
#[derive(Debug)]
pub struct Client<T: Transport> {
    transport: T,
    encode_scratch: Vec<u8>,
}

impl<T: Transport> Client<T> {
    /// Wraps a transport. Callers usually [`Client::hello`] first.
    pub fn new(transport: T) -> Self {
        Self {
            transport,
            encode_scratch: Vec::new(),
        }
    }

    fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        // Owned encode path: keeps even batch requests allocation-free
        // (`Request::encode_into` does not build per-item views).
        request.encode_into(&mut self.encode_scratch);
        self.finish_exchange()
    }

    fn exchange_ref(&mut self, request: &RequestRef<'_>) -> Result<Response, ClientError> {
        request.encode_into(&mut self.encode_scratch);
        self.finish_exchange()
    }

    fn finish_exchange(&mut self) -> Result<Response, ClientError> {
        let result = self.transport.roundtrip_frame(&self.encode_scratch);
        bound_scratch(&mut self.encode_scratch);
        match result? {
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            response => Ok(response),
        }
    }

    /// Version handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnsupportedProtocol`]
    /// on version mismatch.
    pub fn hello(&mut self, client_name: &str) -> Result<String, ClientError> {
        match self.exchange(&Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: client_name.to_string(),
        })? {
            Response::HelloOk { server, .. } => Ok(server),
            _ => Err(ClientError::UnexpectedResponse("HelloOk")),
        }
    }

    /// Enrolls a device (the registry stores the digest, never a key).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::DuplicateDevice`] when the id is taken.
    pub fn enroll(
        &mut self,
        device_id: u64,
        scheme_tag: u8,
        helper: Vec<u8>,
        key_digest: [u8; 32],
    ) -> Result<(), ClientError> {
        match self.exchange(&Request::Enroll {
            device_id,
            scheme_tag,
            helper,
            key_digest,
        })? {
            Response::EnrollOk { .. } => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("EnrollOk")),
        }
    }

    /// One authentication attempt.
    ///
    /// # Errors
    ///
    /// A quarantined device comes back as [`ClientError::Server`] with
    /// [`ErrorCode::DeviceFlagged`] — the wire-level rejection.
    pub fn authenticate(&mut self, item: AuthItem) -> Result<WireVerdict, ClientError> {
        self.authenticate_ref(item.as_ref())
    }

    /// One authentication attempt from a borrowed item — the replay
    /// hot path: the item's bytes are encoded straight from the
    /// caller's buffers into the client's reused encode buffer, no
    /// clone per request.
    ///
    /// # Errors
    ///
    /// See [`Client::authenticate`].
    pub fn authenticate_ref(&mut self, item: AuthItemRef<'_>) -> Result<WireVerdict, ClientError> {
        match self.exchange_ref(&RequestRef::Authenticate(item))? {
            Response::Verdict(verdict) => Ok(verdict),
            _ => Err(ClientError::UnexpectedResponse("Verdict")),
        }
    }

    /// A batch of attempts; verdicts come back in item order, flags
    /// inline.
    ///
    /// # Errors
    ///
    /// Transport/shape failures only — per-item outcomes are verdicts.
    pub fn authenticate_batch(
        &mut self,
        items: Vec<AuthItem>,
    ) -> Result<Vec<WireVerdict>, ClientError> {
        match self.exchange(&Request::BatchAuthenticate { items })? {
            Response::VerdictBatch(verdicts) => Ok(verdicts),
            _ => Err(ClientError::UnexpectedResponse("VerdictBatch")),
        }
    }

    /// A device's flag state: `None` when enrolled and unflagged.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDevice`] when the id is not enrolled.
    pub fn query_verdict(
        &mut self,
        device_id: u64,
    ) -> Result<Option<(u64, WireFlagReason)>, ClientError> {
        match self.exchange(&Request::QueryVerdict { device_id })? {
            Response::FlagInfo { flagged } => Ok(flagged),
            _ => Err(ClientError::UnexpectedResponse("FlagInfo")),
        }
    }

    /// A live `ropuf-metrics/v1` scrape of the serving stack: the
    /// server's own metrics merged with the verifier's. Decoded
    /// and CRC-verified client-side;
    /// [`Snapshot::render_text`](ropuf_telemetry::Snapshot::render_text)
    /// turns the result into the human view.
    ///
    /// # Errors
    ///
    /// Transport/shape failures, or
    /// [`ClientError::UnexpectedResponse`] when the returned blob does
    /// not decode as `ropuf-metrics/v1`.
    pub fn metrics(&mut self) -> Result<ropuf_telemetry::Snapshot, ClientError> {
        match self.exchange(&Request::MetricsSnapshot)? {
            Response::MetricsBin { bytes } => ropuf_telemetry::Snapshot::decode(&bytes)
                .map_err(|_| ClientError::UnexpectedResponse("decodable ropuf-metrics/v1 blob")),
            _ => Err(ClientError::UnexpectedResponse("MetricsBin")),
        }
    }

    /// The server's slow-request trace ring as a decoded
    /// `ropuf-trace/v1` snapshot (empty over loopback — traces live in
    /// the server).
    ///
    /// # Errors
    ///
    /// Transport/shape failures, or
    /// [`ClientError::UnexpectedResponse`] when the returned blob does
    /// not decode as `ropuf-trace/v1`.
    pub fn trace_dump(&mut self) -> Result<ropuf_telemetry::TraceSnapshot, ClientError> {
        match self.exchange(&Request::TraceDump)? {
            Response::TraceBin { bytes } => ropuf_telemetry::TraceSnapshot::decode(&bytes)
                .map_err(|_| ClientError::UnexpectedResponse("decodable ropuf-trace/v1 blob")),
            _ => Err(ClientError::UnexpectedResponse("TraceBin")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::VerifierHandler;
    use ropuf_verifier::{DetectorConfig, Verifier};

    fn loopback_client() -> Client<LoopbackTransport> {
        let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
        Client::new(LoopbackTransport::new(Arc::new(VerifierHandler::new(
            verifier,
        ))))
    }

    #[test]
    fn hello_over_loopback() {
        let mut client = loopback_client();
        let server = client.hello("unit-test").unwrap();
        assert!(server.starts_with("ropuf-server/"), "{server}");
    }

    #[test]
    fn server_errors_become_typed_client_errors() {
        let mut client = loopback_client();
        let err = client.query_verdict(12345).unwrap_err();
        assert_eq!(err.error_code(), Some(ErrorCode::UnknownDevice));
        assert!(err.to_string().contains("12345"), "{err}");
    }
}
