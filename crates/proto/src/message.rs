//! `ropuf-wire/v1` message types and their byte encodings.
//!
//! One frame carries exactly one message: a one-byte message type
//! followed by the type's fields in declaration order, all integers
//! little-endian, all variable-length fields `u32`-length-prefixed
//! (see [`codec`](crate::codec)). Requests use type bytes `0x01..`,
//! responses `0x81..`, so a stream audit can tell directions apart.
//! Decoding is strict: unknown type bytes, unknown discriminants,
//! forged lengths, truncation and trailing bytes are all typed
//! [`DecodeError`]s — never panics, never over-reads.

use crate::codec::{DecodeError, Reader, Writer, MAX_BYTES, MAX_ITEMS};

/// Protocol revision spoken by this crate. A [`Request::Hello`] with a
/// different value is answered with
/// [`ErrorCode::UnsupportedProtocol`].
pub const PROTOCOL_VERSION: u16 = 1;

/// Human-readable name of the wire schema (mirrors the JSON schema
/// tags used by the campaign/verifier artifacts).
pub const WIRE_SCHEMA: &str = "ropuf-wire/v1";

mod ty {
    //! Message-type bytes.
    pub const HELLO: u8 = 0x01;
    pub const ENROLL: u8 = 0x02;
    pub const AUTHENTICATE: u8 = 0x03;
    pub const BATCH_AUTHENTICATE: u8 = 0x04;
    pub const QUERY_VERDICT: u8 = 0x05;
    // 0x06 (a JSON registry snapshot) is retired.
    pub const SNAPSHOT_V2: u8 = 0x07;
    pub const METRICS_SNAPSHOT: u8 = 0x08;
    pub const TRACE_DUMP: u8 = 0x09;
    // 0x0A (a time-series history dump) is retired.
    pub const LOOP_INFO: u8 = 0x0B;
    pub const HELLO_OK: u8 = 0x81;
    pub const ENROLL_OK: u8 = 0x82;
    pub const VERDICT: u8 = 0x83;
    pub const VERDICT_BATCH: u8 = 0x84;
    pub const FLAG_INFO: u8 = 0x85;
    // 0x86 (the JSON snapshot answer) is retired.
    pub const SNAPSHOT_BIN: u8 = 0x87;
    pub const METRICS_BIN: u8 = 0x88;
    pub const TRACE_BIN: u8 = 0x89;
    // 0x8A (the time-series answer) is retired.
    pub const LOOP_INFO_OK: u8 = 0x8B;
    pub const ERROR: u8 = 0xEE;
}

/// Why a device was flagged, on the wire. Mirrors the verifier's
/// `FlagReason` without depending on it — the protocol crate stands
/// alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFlagReason {
    /// Presented helper parses but differs from the enrolled bytes.
    HelperMismatch,
    /// Presented helper no longer parses for the enrolled scheme.
    MalformedHelper,
    /// Query-rate budget exceeded.
    RateBudget,
    /// Too many consecutive failed authentications.
    FailureStreak,
}

impl WireFlagReason {
    /// Wire discriminant.
    pub fn code(self) -> u8 {
        match self {
            WireFlagReason::HelperMismatch => 0,
            WireFlagReason::MalformedHelper => 1,
            WireFlagReason::RateBudget => 2,
            WireFlagReason::FailureStreak => 3,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_code(value: u8) -> Result<Self, DecodeError> {
        match value {
            0 => Ok(WireFlagReason::HelperMismatch),
            1 => Ok(WireFlagReason::MalformedHelper),
            2 => Ok(WireFlagReason::RateBudget),
            3 => Ok(WireFlagReason::FailureStreak),
            _ => Err(DecodeError::UnknownDiscriminant {
                field: "flag_reason",
                value,
            }),
        }
    }

    /// Short machine-readable label, matching the verifier's
    /// `FlagReason::label` strings.
    pub fn label(self) -> &'static str {
        match self {
            WireFlagReason::HelperMismatch => "helper-mismatch",
            WireFlagReason::MalformedHelper => "malformed-helper",
            WireFlagReason::RateBudget => "rate-budget",
            WireFlagReason::FailureStreak => "failure-streak",
        }
    }
}

/// Per-request verdict, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireVerdict {
    /// The response verified and no detector tripped.
    Accept,
    /// The response did not verify — below the flagging bar.
    Reject,
    /// A detector tripped; the device is quarantined.
    Flagged(WireFlagReason),
}

impl WireVerdict {
    /// `true` for [`WireVerdict::Accept`].
    pub fn is_accept(self) -> bool {
        matches!(self, WireVerdict::Accept)
    }

    /// `true` for [`WireVerdict::Flagged`].
    pub fn is_flagged(self) -> bool {
        matches!(self, WireVerdict::Flagged(_))
    }

    fn encode(self, out: &mut Vec<u8>) {
        match self {
            WireVerdict::Accept => out.put_u8(0),
            WireVerdict::Reject => out.put_u8(1),
            WireVerdict::Flagged(reason) => {
                out.put_u8(2);
                out.put_u8(reason.code());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(WireVerdict::Accept),
            1 => Ok(WireVerdict::Reject),
            2 => Ok(WireVerdict::Flagged(WireFlagReason::from_code(r.u8()?)?)),
            value => Err(DecodeError::UnknownDiscriminant {
                field: "verdict",
                value,
            }),
        }
    }
}

/// What the authenticating device answered the nonce with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAuthResponse {
    /// Key reconstruction failed observably.
    Failure,
    /// HMAC tag over the nonce under the device's derived credential.
    Tag([u8; 32]),
}

impl WireAuthResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireAuthResponse::Failure => out.put_u8(0),
            WireAuthResponse::Tag(tag) => {
                out.put_u8(1);
                out.extend_from_slice(tag);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(WireAuthResponse::Failure),
            1 => Ok(WireAuthResponse::Tag(r.digest()?)),
            value => Err(DecodeError::UnknownDiscriminant {
                field: "auth_response",
                value,
            }),
        }
    }
}

/// One authentication attempt: the unit of both
/// [`Request::Authenticate`] and [`Request::BatchAuthenticate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthItem {
    /// Claimed device identity.
    pub device_id: u64,
    /// Logical timestamp (non-decreasing per device) driving the
    /// verifier's rate-budget window.
    pub now: u64,
    /// Challenge nonce this request answers.
    pub nonce: Vec<u8>,
    /// The device's answer.
    pub response: WireAuthResponse,
    /// The device's current helper NVM contents when the gateway can
    /// read them (`None` skips the integrity signal).
    pub presented_helper: Option<Vec<u8>>,
}

impl AuthItem {
    /// A borrowed view of this item (cheap — no byte copies).
    pub fn as_ref(&self) -> AuthItemRef<'_> {
        AuthItemRef {
            device_id: self.device_id,
            now: self.now,
            nonce: &self.nonce,
            response: self.response,
            presented_helper: self.presented_helper.as_deref(),
        }
    }
}

/// Borrowed twin of [`AuthItem`]: the byte fields point into the frame
/// payload (or a caller's buffers), so decoding one — and serving it —
/// copies nothing. Call [`AuthItemRef::to_owned`] to keep it past the
/// buffer's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthItemRef<'a> {
    /// Claimed device identity.
    pub device_id: u64,
    /// Logical timestamp (non-decreasing per device).
    pub now: u64,
    /// Challenge nonce this request answers.
    pub nonce: &'a [u8],
    /// The device's answer.
    pub response: WireAuthResponse,
    /// The device's current helper NVM contents, when readable.
    pub presented_helper: Option<&'a [u8]>,
}

impl<'a> AuthItemRef<'a> {
    /// Copies the borrowed fields into an owned [`AuthItem`].
    pub fn to_owned(&self) -> AuthItem {
        AuthItem {
            device_id: self.device_id,
            now: self.now,
            nonce: self.nonce.to_vec(),
            response: self.response,
            presented_helper: self.presented_helper.map(<[u8]>::to_vec),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64(self.device_id);
        out.put_u64(self.now);
        out.put_bytes(self.nonce);
        self.response.encode(out);
        match self.presented_helper {
            None => out.put_u8(0),
            Some(helper) => {
                out.put_u8(1);
                out.put_bytes(helper);
            }
        }
    }

    fn decode(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let device_id = r.u64()?;
        let now = r.u64()?;
        let nonce = r.bytes_ref("nonce", MAX_BYTES)?;
        let response = WireAuthResponse::decode(r)?;
        let presented_helper = match r.u8()? {
            0 => None,
            1 => Some(r.bytes_ref("presented_helper", MAX_BYTES)?),
            value => {
                return Err(DecodeError::UnknownDiscriminant {
                    field: "presented_helper_marker",
                    value,
                })
            }
        };
        Ok(Self {
            device_id,
            now,
            nonce,
            response,
            presented_helper,
        })
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version handshake; the first message on a connection.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        protocol: u16,
        /// Free-form client identification (UTF-8).
        client: String,
    },
    /// Enroll a device: the registry stores the derived credential,
    /// never the key.
    Enroll {
        /// Identity to enroll under.
        device_id: u64,
        /// Wire tag of the helper-data scheme.
        scheme_tag: u8,
        /// Helper blob as enrolled (integrity reference).
        helper: Vec<u8>,
        /// SHA-256 of the enrolled key bytes.
        key_digest: [u8; 32],
    },
    /// One authentication attempt.
    Authenticate(AuthItem),
    /// A batch of attempts, served under amortized shard locking.
    BatchAuthenticate {
        /// The attempts, verdicts come back in this order.
        items: Vec<AuthItem>,
    },
    /// Ask for a device's flag state.
    QueryVerdict {
        /// Device to look up.
        device_id: u64,
    },
    /// Ask for the binary registry snapshot (the compact,
    /// CRC-protected, flag-preserving format the verifier's store
    /// writes).
    SnapshotV2,
    /// Ask for a `ropuf-metrics/v1` telemetry snapshot covering every
    /// instrumented layer behind this connection (server + verifier).
    MetricsSnapshot,
    /// Ask for the server's slow-request trace ring as a
    /// `ropuf-trace/v1` blob.
    TraceDump,
    /// Ask which event loop owns this connection. The evented server
    /// answers with the accepting loop's id; loopback answers
    /// `(0, 1)`. Topology-aware clients use this to route a device's
    /// traffic to a connection on the loop that owns the device's
    /// registry shard.
    LoopInfo,
}

impl Request {
    /// A borrowed view of this request. Cheap for every variant except
    /// [`Request::BatchAuthenticate`], which allocates one small `Vec`
    /// of per-item views (never the item bytes themselves).
    pub fn as_ref(&self) -> RequestRef<'_> {
        match self {
            Request::Hello { protocol, client } => RequestRef::Hello {
                protocol: *protocol,
                client,
            },
            Request::Enroll {
                device_id,
                scheme_tag,
                helper,
                key_digest,
            } => RequestRef::Enroll {
                device_id: *device_id,
                scheme_tag: *scheme_tag,
                helper,
                key_digest: *key_digest,
            },
            Request::Authenticate(item) => RequestRef::Authenticate(item.as_ref()),
            Request::BatchAuthenticate { items } => RequestRef::BatchAuthenticate {
                items: items.iter().map(AuthItem::as_ref).collect(),
            },
            Request::QueryVerdict { device_id } => RequestRef::QueryVerdict {
                device_id: *device_id,
            },
            Request::SnapshotV2 => RequestRef::SnapshotV2,
            Request::MetricsSnapshot => RequestRef::MetricsSnapshot,
            Request::TraceDump => RequestRef::TraceDump,
            Request::LoopInfo => RequestRef::LoopInfo,
        }
    }

    /// Encodes into a fresh frame payload (type byte + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes into `out`, clearing it first — the buffer-reusing twin
    /// of [`Request::encode`]: a steady-state connection encodes every
    /// request into the same buffer with zero allocations. Encodes the
    /// owned fields directly (not via [`Request::as_ref`]) so even the
    /// batch variant stays allocation-free; the wire_props suite pins
    /// the two encoders byte-for-byte.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // Only the batch variant needs its own arm: `as_ref` would
        // allocate a Vec of item views for it, while every other
        // variant borrows for free.
        if let Request::BatchAuthenticate { items } = self {
            out.clear();
            out.put_u8(ty::BATCH_AUTHENTICATE);
            let count = u32::try_from(items.len()).expect("batch exceeds u32");
            out.put_u32(count);
            for item in items {
                item.as_ref().encode(out);
            }
        } else {
            self.as_ref().encode_into(out);
        }
    }

    /// Decodes one frame payload, copying byte fields out (decode via
    /// [`RequestRef::decode`] to borrow them instead). Strict: the
    /// payload must be exactly one well-formed request.
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] for any malformed input; this function
    /// never panics.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        RequestRef::decode(payload).map(RequestRef::into_owned)
    }
}

/// Borrowed twin of [`Request`]: what the server hot path decodes. All
/// byte fields point into the frame payload, so decoding a request —
/// and authenticating from it — copies nothing; [`RequestRef::into_owned`]
/// is the copy-on-keep escape hatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// See [`Request::Hello`].
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        protocol: u16,
        /// Free-form client identification (UTF-8).
        client: &'a str,
    },
    /// See [`Request::Enroll`].
    Enroll {
        /// Identity to enroll under.
        device_id: u64,
        /// Wire tag of the helper-data scheme.
        scheme_tag: u8,
        /// Helper blob as enrolled (integrity reference).
        helper: &'a [u8],
        /// SHA-256 of the enrolled key bytes.
        key_digest: [u8; 32],
    },
    /// See [`Request::Authenticate`].
    Authenticate(AuthItemRef<'a>),
    /// See [`Request::BatchAuthenticate`].
    BatchAuthenticate {
        /// The attempts, verdicts come back in this order.
        items: Vec<AuthItemRef<'a>>,
    },
    /// See [`Request::QueryVerdict`].
    QueryVerdict {
        /// Device to look up.
        device_id: u64,
    },
    /// See [`Request::SnapshotV2`].
    SnapshotV2,
    /// See [`Request::MetricsSnapshot`].
    MetricsSnapshot,
    /// See [`Request::TraceDump`].
    TraceDump,
    /// See [`Request::LoopInfo`].
    LoopInfo,
}

impl<'a> RequestRef<'a> {
    /// Copies every borrowed field into an owned [`Request`].
    pub fn into_owned(self) -> Request {
        match self {
            RequestRef::Hello { protocol, client } => Request::Hello {
                protocol,
                client: client.to_owned(),
            },
            RequestRef::Enroll {
                device_id,
                scheme_tag,
                helper,
                key_digest,
            } => Request::Enroll {
                device_id,
                scheme_tag,
                helper: helper.to_vec(),
                key_digest,
            },
            RequestRef::Authenticate(item) => Request::Authenticate(item.to_owned()),
            RequestRef::BatchAuthenticate { items } => Request::BatchAuthenticate {
                items: items.iter().map(AuthItemRef::to_owned).collect(),
            },
            RequestRef::QueryVerdict { device_id } => Request::QueryVerdict { device_id },
            RequestRef::SnapshotV2 => Request::SnapshotV2,
            RequestRef::MetricsSnapshot => Request::MetricsSnapshot,
            RequestRef::TraceDump => Request::TraceDump,
            RequestRef::LoopInfo => Request::LoopInfo,
        }
    }

    /// Encodes into `out`, clearing it first. Byte-identical to
    /// encoding the owned [`Request`] this view mirrors.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            RequestRef::Hello { protocol, client } => {
                out.put_u8(ty::HELLO);
                out.put_u16(*protocol);
                out.put_bytes(client.as_bytes());
            }
            RequestRef::Enroll {
                device_id,
                scheme_tag,
                helper,
                key_digest,
            } => {
                out.put_u8(ty::ENROLL);
                out.put_u64(*device_id);
                out.put_u8(*scheme_tag);
                out.put_bytes(helper);
                out.extend_from_slice(key_digest);
            }
            RequestRef::Authenticate(item) => {
                out.put_u8(ty::AUTHENTICATE);
                item.encode(out);
            }
            RequestRef::BatchAuthenticate { items } => {
                out.put_u8(ty::BATCH_AUTHENTICATE);
                let count = u32::try_from(items.len()).expect("batch exceeds u32");
                out.put_u32(count);
                for item in items {
                    item.encode(out);
                }
            }
            RequestRef::QueryVerdict { device_id } => {
                out.put_u8(ty::QUERY_VERDICT);
                out.put_u64(*device_id);
            }
            RequestRef::SnapshotV2 => out.put_u8(ty::SNAPSHOT_V2),
            RequestRef::MetricsSnapshot => out.put_u8(ty::METRICS_SNAPSHOT),
            RequestRef::TraceDump => out.put_u8(ty::TRACE_DUMP),
            RequestRef::LoopInfo => out.put_u8(ty::LOOP_INFO),
        }
    }

    /// Decodes one frame payload without copying byte fields (the
    /// batch-item list itself is the only allocation). Strictness and
    /// error behavior are identical to [`Request::decode`] — the owned
    /// decoder *is* this one plus copies.
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] for any malformed input; this function
    /// never panics.
    pub fn decode(payload: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            ty::HELLO => RequestRef::Hello {
                protocol: r.u16()?,
                client: r.str_ref("client", MAX_BYTES)?,
            },
            ty::ENROLL => RequestRef::Enroll {
                device_id: r.u64()?,
                scheme_tag: r.u8()?,
                helper: r.bytes_ref("helper", MAX_BYTES)?,
                key_digest: r.digest()?,
            },
            ty::AUTHENTICATE => RequestRef::Authenticate(AuthItemRef::decode(&mut r)?),
            ty::BATCH_AUTHENTICATE => {
                let count = r.count("batch_items", MAX_ITEMS)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(AuthItemRef::decode(&mut r)?);
                }
                RequestRef::BatchAuthenticate { items }
            }
            ty::QUERY_VERDICT => RequestRef::QueryVerdict {
                device_id: r.u64()?,
            },
            ty::SNAPSHOT_V2 => RequestRef::SnapshotV2,
            ty::METRICS_SNAPSHOT => RequestRef::MetricsSnapshot,
            ty::TRACE_DUMP => RequestRef::TraceDump,
            ty::LOOP_INFO => RequestRef::LoopInfo,
            other => return Err(DecodeError::UnknownMessage(other)),
        };
        r.finish()?;
        Ok(request)
    }
}

/// Typed failure a server reports instead of a success response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Hello carried a protocol version this server does not speak.
    UnsupportedProtocol,
    /// Enroll named an id that is already enrolled.
    DuplicateDevice,
    /// The named device is not enrolled (flag queries only —
    /// authentication deliberately answers `Reject` instead, so the
    /// wire does not reveal enrollment status to guessers).
    UnknownDevice,
    /// The device is quarantined: its detector flagged it, and the
    /// flag latches. Carried by the wire-level rejection of further
    /// single-authentication traffic.
    DeviceFlagged,
    /// The frame decoded to no valid request.
    MalformedRequest,
    /// The server produced a response that exceeds the frame cap
    /// (e.g. a registry snapshot past `MAX_FRAME`); the request was
    /// served but the answer cannot travel this protocol revision.
    ResponseTooLarge,
    /// The server could not serve a well-formed request for an
    /// internal reason — e.g. its durable write-ahead log rejected an
    /// enrollment. The request was **not** applied; retrying is safe.
    Internal,
    /// Admission control shed the request before it was handled: the
    /// server is over its in-flight/out-buffer budget. The request was
    /// **not** applied. The detail carries `retry_after_ms=<n>` (see
    /// [`overload_detail`] / [`parse_retry_after_ms`]); clients should
    /// back off at least that long before retrying.
    Overloaded,
    /// The server latched its read-only degraded mode (durable WAL
    /// append/fsync failed): authentications keep serving from memory,
    /// but mutations (enrollments) are refused until an operator
    /// intervenes. The request was **not** applied; retrying against
    /// this server will keep answering `ReadOnly`.
    ReadOnly,
}

impl ErrorCode {
    /// Wire discriminant.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::UnsupportedProtocol => 1,
            ErrorCode::DuplicateDevice => 2,
            ErrorCode::UnknownDevice => 3,
            ErrorCode::DeviceFlagged => 4,
            ErrorCode::MalformedRequest => 5,
            ErrorCode::ResponseTooLarge => 6,
            ErrorCode::Internal => 7,
            ErrorCode::Overloaded => 8,
            ErrorCode::ReadOnly => 9,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_code(value: u8) -> Result<Self, DecodeError> {
        match value {
            1 => Ok(ErrorCode::UnsupportedProtocol),
            2 => Ok(ErrorCode::DuplicateDevice),
            3 => Ok(ErrorCode::UnknownDevice),
            4 => Ok(ErrorCode::DeviceFlagged),
            5 => Ok(ErrorCode::MalformedRequest),
            6 => Ok(ErrorCode::ResponseTooLarge),
            7 => Ok(ErrorCode::Internal),
            8 => Ok(ErrorCode::Overloaded),
            9 => Ok(ErrorCode::ReadOnly),
            _ => Err(DecodeError::UnknownDiscriminant {
                field: "error_code",
                value,
            }),
        }
    }
}

/// The detail string an [`ErrorCode::Overloaded`] answer carries:
/// `retry_after_ms=<n>`. Kept as plain text inside the existing error
/// frame so ropuf-wire/v1 parsers that ignore details stay compatible;
/// [`parse_retry_after_ms`] is the typed reader.
pub fn overload_detail(retry_after_ms: u32) -> String {
    format!("retry_after_ms={retry_after_ms}")
}

/// Parses the `retry_after_ms=<n>` detail of an
/// [`ErrorCode::Overloaded`] answer. `None` when the detail does not
/// carry a well-formed hint — callers fall back to their own backoff.
pub fn parse_retry_after_ms(detail: &str) -> Option<u32> {
    let value = detail.strip_prefix("retry_after_ms=")?;
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Successful handshake.
    HelloOk {
        /// Server's [`PROTOCOL_VERSION`].
        protocol: u16,
        /// Free-form server identification (UTF-8).
        server: String,
    },
    /// The enrollment was recorded.
    EnrollOk {
        /// Echo of the enrolled id.
        device_id: u64,
    },
    /// Verdict for one [`Request::Authenticate`].
    Verdict(WireVerdict),
    /// Verdicts for one [`Request::BatchAuthenticate`], in item order.
    VerdictBatch(Vec<WireVerdict>),
    /// Answer to [`Request::QueryVerdict`].
    FlagInfo {
        /// `(timestamp, reason)` of the first flag; `None` when the
        /// device is enrolled and unflagged.
        flagged: Option<(u64, WireFlagReason)>,
    },
    /// The binary registry snapshot. The payload is
    /// opaque to the wire layer — it is the self-validating (magic +
    /// version + CRC) blob the verifier's store module defines.
    SnapshotBin {
        /// The snapshot bytes.
        bytes: Vec<u8>,
    },
    /// A `ropuf-metrics/v1` telemetry snapshot. Opaque to the wire
    /// layer, like [`Response::SnapshotBin`]: the blob carries its own
    /// magic, version and CRC (see `ropuf_telemetry::codec`).
    MetricsBin {
        /// The metrics blob.
        bytes: Vec<u8>,
    },
    /// A `ropuf-trace/v1` slow-request trace dump, equally opaque.
    TraceBin {
        /// The trace blob.
        bytes: Vec<u8>,
    },
    /// Answer to [`Request::LoopInfo`]: which event loop serves this
    /// connection, out of how many.
    LoopInfoOk {
        /// Id of the loop that owns this connection (`0`-based).
        loop_id: u32,
        /// Total event loops the server runs (`1` for single-threaded
        /// backends).
        loops: u32,
    },
    /// Typed failure.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (UTF-8, for logs — codes are the
        /// contract).
        detail: String,
    },
}

impl Response {
    /// Encodes into a fresh frame payload (type byte + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes into `out`, clearing it first — the buffer-reusing twin
    /// of [`Response::encode`] the server workers answer through.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Response::HelloOk { protocol, server } => {
                out.put_u8(ty::HELLO_OK);
                out.put_u16(*protocol);
                out.put_bytes(server.as_bytes());
            }
            Response::EnrollOk { device_id } => {
                out.put_u8(ty::ENROLL_OK);
                out.put_u64(*device_id);
            }
            Response::Verdict(verdict) => {
                out.put_u8(ty::VERDICT);
                verdict.encode(out);
            }
            Response::VerdictBatch(verdicts) => {
                out.put_u8(ty::VERDICT_BATCH);
                let count = u32::try_from(verdicts.len()).expect("batch exceeds u32");
                out.put_u32(count);
                for v in verdicts {
                    v.encode(out);
                }
            }
            Response::FlagInfo { flagged } => {
                out.put_u8(ty::FLAG_INFO);
                match flagged {
                    None => out.put_u8(0),
                    Some((at, reason)) => {
                        out.put_u8(1);
                        out.put_u64(*at);
                        out.put_u8(reason.code());
                    }
                }
            }
            Response::SnapshotBin { bytes } => {
                out.put_u8(ty::SNAPSHOT_BIN);
                out.put_bytes(bytes);
            }
            Response::MetricsBin { bytes } => {
                out.put_u8(ty::METRICS_BIN);
                out.put_bytes(bytes);
            }
            Response::TraceBin { bytes } => {
                out.put_u8(ty::TRACE_BIN);
                out.put_bytes(bytes);
            }
            Response::LoopInfoOk { loop_id, loops } => {
                out.put_u8(ty::LOOP_INFO_OK);
                out.put_u32(*loop_id);
                out.put_u32(*loops);
            }
            Response::Error { code, detail } => {
                out.put_u8(ty::ERROR);
                out.put_u8(code.code());
                out.put_bytes(detail.as_bytes());
            }
        }
    }

    /// Decodes one frame payload. Strict, like [`Request::decode`].
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] for any malformed input; this function
    /// never panics.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            ty::HELLO_OK => Response::HelloOk {
                protocol: r.u16()?,
                server: r.string("server", MAX_BYTES)?,
            },
            ty::ENROLL_OK => Response::EnrollOk {
                device_id: r.u64()?,
            },
            ty::VERDICT => Response::Verdict(WireVerdict::decode(&mut r)?),
            ty::VERDICT_BATCH => {
                let count = r.count("batch_verdicts", MAX_ITEMS)?;
                let mut verdicts = Vec::with_capacity(count);
                for _ in 0..count {
                    verdicts.push(WireVerdict::decode(&mut r)?);
                }
                Response::VerdictBatch(verdicts)
            }
            ty::FLAG_INFO => Response::FlagInfo {
                flagged: match r.u8()? {
                    0 => None,
                    1 => Some((r.u64()?, WireFlagReason::from_code(r.u8()?)?)),
                    value => {
                        return Err(DecodeError::UnknownDiscriminant {
                            field: "flag_marker",
                            value,
                        })
                    }
                },
            },
            ty::SNAPSHOT_BIN => Response::SnapshotBin {
                // Snapshots may legitimately exceed MAX_BYTES; the
                // frame-size cap is the allocation bound here.
                bytes: r.bytes("snapshot_v2", crate::frame::MAX_FRAME as usize)?,
            },
            ty::METRICS_BIN => Response::MetricsBin {
                bytes: r.bytes("metrics", crate::frame::MAX_FRAME as usize)?,
            },
            ty::TRACE_BIN => Response::TraceBin {
                bytes: r.bytes("trace", crate::frame::MAX_FRAME as usize)?,
            },
            ty::LOOP_INFO_OK => Response::LoopInfoOk {
                loop_id: r.u32()?,
                loops: r.u32()?,
            },
            ty::ERROR => Response::Error {
                code: ErrorCode::from_code(r.u8()?)?,
                detail: r.string("detail", MAX_BYTES)?,
            },
            other => return Err(DecodeError::UnknownMessage(other)),
        };
        r.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_item() -> AuthItem {
        AuthItem {
            device_id: 42,
            now: 7,
            nonce: b"nonce-0".to_vec(),
            response: WireAuthResponse::Tag([9; 32]),
            presented_helper: Some(vec![0x4C, 1, 2, 3]),
        }
    }

    #[test]
    fn every_request_roundtrips() {
        let requests = vec![
            Request::Hello {
                protocol: PROTOCOL_VERSION,
                client: "roundtrip".into(),
            },
            Request::Enroll {
                device_id: 5,
                scheme_tag: b'L',
                helper: vec![1, 2, 3],
                key_digest: [7; 32],
            },
            Request::Authenticate(sample_item()),
            Request::BatchAuthenticate {
                items: vec![
                    sample_item(),
                    AuthItem {
                        presented_helper: None,
                        response: WireAuthResponse::Failure,
                        ..sample_item()
                    },
                ],
            },
            Request::QueryVerdict { device_id: 1 },
            Request::SnapshotV2,
            Request::MetricsSnapshot,
            Request::TraceDump,
            Request::LoopInfo,
        ];
        for request in requests {
            let bytes = request.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        let responses = vec![
            Response::HelloOk {
                protocol: 1,
                server: "ropuf-server".into(),
            },
            Response::EnrollOk { device_id: 9 },
            Response::Verdict(WireVerdict::Accept),
            Response::Verdict(WireVerdict::Flagged(WireFlagReason::RateBudget)),
            Response::VerdictBatch(vec![
                WireVerdict::Accept,
                WireVerdict::Reject,
                WireVerdict::Flagged(WireFlagReason::HelperMismatch),
            ]),
            Response::FlagInfo { flagged: None },
            Response::FlagInfo {
                flagged: Some((77, WireFlagReason::FailureStreak)),
            },
            Response::SnapshotBin {
                bytes: b"RPUFSNP2\x02\x00rest-is-opaque-here".to_vec(),
            },
            Response::MetricsBin {
                bytes: b"RPUFMET1\x01\x00opaque-to-this-layer".to_vec(),
            },
            Response::TraceBin {
                bytes: b"RPUFTRC1\x01\x00opaque-to-this-layer".to_vec(),
            },
            Response::LoopInfoOk {
                loop_id: 3,
                loops: 4,
            },
            Response::Error {
                code: ErrorCode::DeviceFlagged,
                detail: "quarantined".into(),
            },
        ];
        for response in responses {
            let bytes = response.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), response);
        }
    }

    #[test]
    fn unknown_type_bytes_are_typed_errors() {
        assert_eq!(
            Request::decode(&[0x7F]),
            Err(DecodeError::UnknownMessage(0x7F))
        );
        // The retired JSON snapshot and time-series pairs decode as
        // unknown.
        for retired in [0x06, 0x0A] {
            assert_eq!(
                Request::decode(&[retired]),
                Err(DecodeError::UnknownMessage(retired))
            );
        }
        for retired in [0x86, 0x8A] {
            assert_eq!(
                Response::decode(&[retired, 0, 0, 0, 0]),
                Err(DecodeError::UnknownMessage(retired))
            );
        }
        assert_eq!(
            Response::decode(&[0x02, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::UnknownMessage(0x02)),
            "request bytes are not valid responses"
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::MetricsSnapshot.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn forged_batch_count_is_rejected_before_allocation() {
        let mut bytes = vec![0x04]; // BatchAuthenticate
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes),
            Err(DecodeError::LengthOutOfBounds {
                field: "batch_items",
                ..
            })
        ));
    }

    #[test]
    fn error_code_discriminants_are_stable() {
        for code in [
            ErrorCode::UnsupportedProtocol,
            ErrorCode::DuplicateDevice,
            ErrorCode::UnknownDevice,
            ErrorCode::DeviceFlagged,
            ErrorCode::MalformedRequest,
            ErrorCode::ResponseTooLarge,
            ErrorCode::Internal,
            ErrorCode::Overloaded,
            ErrorCode::ReadOnly,
        ] {
            assert_eq!(ErrorCode::from_code(code.code()), Ok(code));
        }
        assert!(ErrorCode::from_code(0).is_err());
        assert!(ErrorCode::from_code(10).is_err());
        assert!(ErrorCode::from_code(99).is_err());
    }

    #[test]
    fn overload_detail_roundtrips() {
        assert_eq!(parse_retry_after_ms(&overload_detail(0)), Some(0));
        assert_eq!(parse_retry_after_ms(&overload_detail(25)), Some(25));
        assert_eq!(
            parse_retry_after_ms(&overload_detail(u32::MAX)),
            Some(u32::MAX)
        );
        assert_eq!(parse_retry_after_ms(""), None);
        assert_eq!(parse_retry_after_ms("retry_after_ms="), None);
        assert_eq!(parse_retry_after_ms("retry_after_ms=12x"), None);
        assert_eq!(parse_retry_after_ms("shed class=scrape"), None);
    }
}
