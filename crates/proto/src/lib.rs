//! `ropuf-wire/v1` — the binary wire protocol of the ropuf serving
//! layer.
//!
//! The ROADMAP's north star is a verifier that "serves heavy traffic
//! from millions of users"; that needs a real serving surface, and a
//! serving surface needs a wire contract. This crate is that contract,
//! self-contained and dependency-free (the offline crate set has no
//! `serde`/`tokio`): message types, their byte encodings, and a
//! length-framed stream layer over `std::io::{Read, Write}` that both
//! the TCP server (`ropuf_server`) and its clients (servebench, tests)
//! speak.
//!
//! # Format
//!
//! A frame is `[length: u32 le][payload]`, the payload exactly one
//! message: a one-byte type followed by the fields in declaration
//! order. All integers are little-endian; variable-length fields carry
//! explicit `u32` lengths. The same hostile-input posture as the
//! helper-data wire format (`ropuf_constructions::wire`, paper §VII-C)
//! applies one layer up:
//!
//! * decoding **never panics** and never reads out of bounds — every
//!   anomaly is a typed [`DecodeError`];
//! * every declared length/count is validated against both a semantic
//!   cap ([`codec::MAX_BYTES`], [`codec::MAX_ITEMS`], [`MAX_FRAME`])
//!   and the bytes actually present, **before** allocation;
//! * one frame is exactly one message: truncation and trailing bytes
//!   are errors.
//!
//! # Messages
//!
//! | direction | message | purpose |
//! |-----------|---------|---------|
//! | → | [`Request::Hello`] | version handshake |
//! | → | [`Request::Enroll`] | enroll `{scheme tag, helper, key digest}` (the verifier keeps the helper's digest) |
//! | → | [`Request::Authenticate`] | one nonce/tag attempt |
//! | → | [`Request::BatchAuthenticate`] | many attempts, amortized locking |
//! | → | [`Request::QueryVerdict`] | a device's flag state |
//! | → | [`Request::SnapshotV2`] | binary registry snapshot |
//! | ← | [`Response::HelloOk`], [`Response::EnrollOk`], [`Response::Verdict`], [`Response::VerdictBatch`], [`Response::FlagInfo`], [`Response::SnapshotBin`] | success answers |
//! | ← | [`Response::Error`] | typed failure ([`ErrorCode`]) — notably [`ErrorCode::DeviceFlagged`]: quarantined devices are rejected at the wire |
//!
//! Type bytes `0x06`/`0x86` (a JSON registry snapshot) and `0x0A`/`0x8A`
//! (a time-series history dump) are retired and decode as
//! [`DecodeError::UnknownMessage`].
//!
//! # Example
//!
//! ```
//! use ropuf_proto::{FrameReader, FrameWriter, Request, PROTOCOL_VERSION};
//!
//! // Any Read/Write pair carries frames; here an in-memory buffer.
//! let mut wire = Vec::new();
//! FrameWriter::new(&mut wire)
//!     .write_request(&Request::Hello {
//!         protocol: PROTOCOL_VERSION,
//!         client: "example".into(),
//!     })
//!     .unwrap();
//! let decoded = FrameReader::new(&wire[..]).read_request().unwrap();
//! assert!(matches!(decoded, Some(Request::Hello { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod faults;
pub mod frame;
pub mod message;

pub use codec::DecodeError;
pub use faults::{derive_seed, FaultPlan, FaultStats, FaultyStream, RATE_ONE};
pub use frame::{
    append_frame, FrameAccum, FrameError, FramePoll, FrameReader, FrameWriter, MAX_FRAME,
    SCRATCH_RETAIN,
};
pub use message::{
    overload_detail, parse_retry_after_ms, AuthItem, AuthItemRef, ErrorCode, Request, RequestRef,
    Response, WireAuthResponse, WireFlagReason, WireVerdict, PROTOCOL_VERSION, WIRE_SCHEMA,
};
