//! The binary registry snapshot codec (`RPUFSNP2` container, layout
//! version 3).
//!
//! A snapshot is one self-validating blob:
//!
//! ```text
//! ┌────────────┬─────────┬────────┬───────────┬──────────────┬───────┐
//! │ magic [8]  │ version │ shards │ devices   │ device × N   │ crc32 │
//! │ "RPUFSNP2" │ u16 LE  │ u32 LE │ count u64 │ (see below)  │ u32 LE│
//! └────────────┴─────────┴────────┴───────────┴──────────────┴───────┘
//! ```
//!
//! One device record (devices are **strictly ascending by id**, which
//! makes the encoding canonical and duplicate-free by construction):
//!
//! ```text
//! device_id u64 · scheme_tag u8 · flag u8 (0 = none,
//! 1 = flagged → at u64 · reason u8) · helper_digest [32] ·
//! key_digest [32]
//! ```
//!
//! An unflagged record is 74 bytes whatever the helper size. Only
//! version 3 is read: a helper-carrying version-2 snapshot fails
//! closed as [`SnapshotV2Error::UnsupportedVersion`].
//!
//! The trailing CRC-32 (IEEE) covers every preceding byte, so a
//! truncated or bit-flipped snapshot fails closed before any of it is
//! believed. Decoding follows the `ropuf_proto` discipline: every
//! length is checked against both a semantic cap and the bytes
//! actually present *before* allocation, every malformed input maps to
//! a typed [`SnapshotV2Error`], and nothing panics.
//!
//! A snapshot carries the detector's quarantine latch, so a restart
//! never un-flags devices the crashed process had caught manipulating
//! helper data.

use std::fmt;

use ropuf_proto::codec::{Reader, Writer};

use crate::detector::FlagReason;
use crate::registry::{StoredRecord, MAX_SHARDS};
use crate::store::crc32;

/// Leading magic of every snapshot.
pub const MAGIC: [u8; 8] = *b"RPUFSNP2";

/// Layout version this module reads and writes (the only one).
pub const VERSION: u16 = 3;

/// Fixed prefix: magic + version + shards + device count.
const HEADER_LEN: usize = 8 + 2 + 4 + 8;

/// Smallest possible device record: id(8) + tag(1) + flag marker(1) +
/// helper digest(32) + key digest(32). Bounds how many devices a
/// declared count can plausibly promise for the bytes present.
const MIN_DEVICE_LEN: usize = 8 + 1 + 1 + 32 + 32;

/// Typed snapshot decode failure — the complete list of ways a
/// snapshot can be malformed. Decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotV2Error {
    /// Shorter than the fixed header + CRC trailer.
    TooShort {
        /// Bytes present.
        len: usize,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// A version this build does not read.
    UnsupportedVersion(u16),
    /// Shard count of zero or beyond [`MAX_SHARDS`].
    ShardCountOutOfRange(u32),
    /// Declared device count exceeds what the bytes present could hold.
    CountOutOfBounds {
        /// The declared count.
        declared: u64,
        /// Most devices the remaining bytes could encode.
        limit: u64,
    },
    /// The trailing CRC-32 does not match the body.
    CrcMismatch {
        /// CRC stored in the snapshot.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// A field inside a device record failed to decode.
    Field(ropuf_proto::DecodeError),
    /// A flag record carries a reason byte no release ever wrote.
    UnknownFlagReason(u8),
    /// A flag marker byte other than 0 or 1.
    BadFlagMarker(u8),
    /// Device ids are not strictly ascending.
    OutOfOrder {
        /// Id of the previous record.
        prev: u64,
        /// The offending id.
        next: u64,
    },
    /// The same device id appears twice (reported by registry loads
    /// built from decoded snapshots; the decoder itself rejects this
    /// as [`SnapshotV2Error::OutOfOrder`]).
    DuplicateDevice(u64),
}

impl fmt::Display for SnapshotV2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotV2Error::TooShort { len } => {
                write!(f, "{len} bytes is shorter than a snapshot header")
            }
            SnapshotV2Error::BadMagic => write!(f, "missing RPUFSNP2 magic"),
            SnapshotV2Error::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotV2Error::ShardCountOutOfRange(n) => {
                write!(f, "shard count {n} out of range 1..={MAX_SHARDS}")
            }
            SnapshotV2Error::CountOutOfBounds { declared, limit } => {
                write!(f, "declared {declared} devices, bytes can hold {limit}")
            }
            SnapshotV2Error::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            SnapshotV2Error::Field(e) => write!(f, "device record: {e}"),
            SnapshotV2Error::UnknownFlagReason(b) => write!(f, "unknown flag reason {b:#04x}"),
            SnapshotV2Error::BadFlagMarker(b) => write!(f, "flag marker {b:#04x} is not 0 or 1"),
            SnapshotV2Error::OutOfOrder { prev, next } => {
                write!(f, "device ids not strictly ascending: {next} after {prev}")
            }
            SnapshotV2Error::DuplicateDevice(id) => write!(f, "device {id} appears twice"),
        }
    }
}

impl std::error::Error for SnapshotV2Error {}

impl From<ropuf_proto::DecodeError> for SnapshotV2Error {
    fn from(e: ropuf_proto::DecodeError) -> Self {
        SnapshotV2Error::Field(e)
    }
}

/// One decoded device: stored record plus the persisted quarantine
/// flag, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDevice {
    /// The enrolled device id.
    pub device_id: u64,
    /// The stored record.
    pub record: StoredRecord,
    /// `(timestamp, reason)` of the persisted flag latch.
    pub flag: Option<(u64, FlagReason)>,
}

/// A fully validated snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotV2 {
    /// Shard count the registry was running with.
    pub shards: usize,
    /// Devices, strictly ascending by id.
    pub devices: Vec<SnapshotDevice>,
}

/// Encodes a fleet as a snapshot — the inverse of [`decode`].
/// `devices` must be sorted ascending by id (the registry's dump
/// already is).
///
/// # Panics
///
/// Panics if `devices` is not strictly ascending by id — encoder
/// misuse, not input data.
pub fn encode(shards: usize, devices: &[SnapshotDevice]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 4 + devices.len() * MIN_DEVICE_LEN);
    out.extend_from_slice(&MAGIC);
    out.put_u16(VERSION);
    out.put_u32(u32::try_from(shards).expect("shard count fits u32"));
    out.put_u64(devices.len() as u64);
    let mut prev: Option<u64> = None;
    for SnapshotDevice {
        device_id,
        record,
        flag,
    } in devices
    {
        if let Some(p) = prev {
            assert!(
                *device_id > p,
                "snapshot devices must ascend: {device_id} after {p}"
            );
        }
        prev = Some(*device_id);
        out.put_u64(*device_id);
        out.put_u8(record.scheme_tag);
        match flag {
            None => out.put_u8(0),
            Some((at, reason)) => {
                out.put_u8(1);
                out.put_u64(*at);
                out.put_u8(reason.code());
            }
        }
        out.extend_from_slice(&record.helper_digest);
        out.extend_from_slice(&record.key_digest);
    }
    let crc = crc32(&out);
    out.put_u32(crc);
    out
}

/// Decodes and fully validates a snapshot.
///
/// # Errors
///
/// A typed [`SnapshotV2Error`] for any malformed input; never panics,
/// never over-allocates (the device count is checked against the bytes
/// actually present before any allocation).
pub fn decode(bytes: &[u8]) -> Result<SnapshotV2, SnapshotV2Error> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(SnapshotV2Error::TooShort { len: bytes.len() });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotV2Error::BadMagic);
    }
    // CRC first: nothing past the magic is believed until the whole
    // blob checks out.
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("len 4"));
    let computed = crc32(body);
    if stored != computed {
        return Err(SnapshotV2Error::CrcMismatch { stored, computed });
    }
    let mut r = Reader::new(&body[MAGIC.len()..]);
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotV2Error::UnsupportedVersion(version));
    }
    let shards = r.u32()?;
    if shards == 0 || u64::from(shards) > MAX_SHARDS {
        return Err(SnapshotV2Error::ShardCountOutOfRange(shards));
    }
    let declared = r.u64()?;
    let limit = (r.remaining() / MIN_DEVICE_LEN) as u64;
    if declared > limit {
        return Err(SnapshotV2Error::CountOutOfBounds { declared, limit });
    }
    let mut devices = Vec::with_capacity(declared as usize);
    let mut prev: Option<u64> = None;
    for _ in 0..declared {
        let device_id = r.u64()?;
        if let Some(p) = prev {
            if device_id <= p {
                return Err(SnapshotV2Error::OutOfOrder {
                    prev: p,
                    next: device_id,
                });
            }
        }
        prev = Some(device_id);
        let scheme_tag = r.u8()?;
        let flag = match r.u8()? {
            0 => None,
            1 => {
                let at = r.u64()?;
                let code = r.u8()?;
                let reason =
                    FlagReason::from_code(code).ok_or(SnapshotV2Error::UnknownFlagReason(code))?;
                Some((at, reason))
            }
            other => return Err(SnapshotV2Error::BadFlagMarker(other)),
        };
        let helper_digest = r.digest()?;
        let key_digest = r.digest()?;
        devices.push(SnapshotDevice {
            device_id,
            record: StoredRecord {
                scheme_tag,
                helper_digest,
                key_digest,
            },
            flag,
        });
    }
    r.finish()?;
    Ok(SnapshotV2 {
        shards: shards as usize,
        devices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_constructions::pairing::lisa::LISA_TAG;

    fn fleet() -> Vec<SnapshotDevice> {
        vec![
            SnapshotDevice {
                device_id: 3,
                record: StoredRecord {
                    scheme_tag: LISA_TAG,
                    helper_digest: [3; 32],
                    key_digest: [7; 32],
                },
                flag: None,
            },
            SnapshotDevice {
                device_id: 9,
                record: StoredRecord {
                    scheme_tag: LISA_TAG,
                    helper_digest: [9; 32],
                    key_digest: [9; 32],
                },
                flag: Some((42, FlagReason::HelperMismatch)),
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_records_and_flags() {
        let devices = fleet();
        let bytes = encode(4, &devices);
        assert!(bytes.starts_with(&MAGIC));
        // Header, one unflagged 74-byte record, one flagged (+9), CRC.
        assert_eq!(bytes.len(), HEADER_LEN + 74 + 83 + 4);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.shards, 4);
        assert_eq!(decoded.devices, devices);
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error() {
        let bytes = encode(2, &fleet());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        decode(&bytes).unwrap();
    }

    #[test]
    fn every_point_mutation_is_rejected() {
        let bytes = encode(2, &fleet());
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(decode(&mutated).is_err(), "bit flip at byte {i} accepted");
        }
    }

    #[test]
    fn forged_count_cannot_over_allocate() {
        // Rebuild a header declaring u64::MAX devices over no bytes,
        // with a valid CRC so the count check itself is exercised.
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.put_u16(VERSION);
        out.put_u32(1);
        out.put_u64(u64::MAX);
        let crc = crc32(&out);
        out.put_u32(crc);
        assert!(matches!(
            decode(&out),
            Err(SnapshotV2Error::CountOutOfBounds { .. })
        ));
    }

    #[test]
    fn out_of_order_devices_are_rejected() {
        // Hand-build a snapshot whose two devices descend (9 then 3),
        // with a valid CRC so the ordering check itself is exercised.
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.put_u16(VERSION);
        out.put_u32(1);
        out.put_u64(2);
        for id in [9u64, 3] {
            out.put_u64(id);
            out.put_u8(LISA_TAG);
            out.put_u8(0);
            out.extend_from_slice(&[0u8; 32]);
            out.extend_from_slice(&[0u8; 32]);
        }
        let crc = crc32(&out);
        out.put_u32(crc);
        assert_eq!(
            decode(&out),
            Err(SnapshotV2Error::OutOfOrder { prev: 9, next: 3 })
        );
    }
}
