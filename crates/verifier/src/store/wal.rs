//! The append-only write-ahead log.
//!
//! Every durable registry mutation — an enrollment, a detector flag
//! latching — is appended here **before** it becomes visible in
//! memory, so a crash either shows the mutation in the log or never
//! acknowledged it. Records are individually framed and checksummed:
//!
//! ```text
//! ┌────────┬────────┬─────────────────┐
//! │ len    │ crc32  │ payload         │   len = payload bytes,
//! │ u32 LE │ u32 LE │ (len bytes)     │   crc32 = IEEE, over payload
//! └────────┴────────┴─────────────────┘
//! ```
//!
//! Payloads (same `ropuf_proto` primitives as the wire):
//!
//! | type byte | record | fields |
//! |-----------|--------|--------|
//! | `0x03` | Enroll | `device_id u64 · scheme_tag u8 · helper_digest [32] · key_digest [32]` |
//! | `0x02` | Flag   | `device_id u64 · at u64 · reason u8` |
//!
//! An enroll frame is 82 bytes. A helper-carrying `0x01` enroll frame
//! stops replay ([`WalDecodeError::UnknownRecordType`]): an old frame
//! of a 28-byte helper is exactly as long as a new one, so the new
//! layout cannot reuse its type byte.
//!
//! A crash mid-append leaves a *torn* final record — a short header, a
//! short body, or a body that fails its CRC. The reader stops at the
//! first frame that does not validate and reports how it tore; replay
//! of everything before that point is the prefix-consistent recovery
//! the crash-injection suite locks down. Decoding never panics and a
//! forged length can never over-allocate ([`MAX_RECORD`] and the
//! remaining-bytes check both bound it).

use std::fmt;

use ropuf_proto::codec::{Reader, Writer};

use crate::detector::FlagReason;
use crate::registry::StoredRecord;
use crate::store::crc32;

/// Type byte of an enrollment record.
pub const RECORD_ENROLL: u8 = 0x03;
/// Type byte of a flag-transition record.
pub const RECORD_FLAG: u8 = 0x02;

/// Frame header: payload length + payload CRC.
pub const FRAME_HEADER: usize = 8;

/// Largest payload a frame may declare. Generous against real records
/// (at most 74 bytes) while bounding what a corrupt length can
/// allocate.
pub const MAX_RECORD: usize = 128 * 1024;

/// One durable registry mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A device was enrolled.
    Enroll {
        /// The enrolled id.
        device_id: u64,
        /// The stored record.
        record: StoredRecord,
    },
    /// A device's detector latched a flag.
    Flag {
        /// The flagged id.
        device_id: u64,
        /// Device timestamp at which the flag latched.
        at: u64,
        /// Why it latched.
        reason: FlagReason,
    },
}

/// Why WAL reading stopped — a torn tail after a crash, or genuine
/// corruption. Either way the reader stops; replay keeps everything
/// before the failed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalDecodeError {
    /// Fewer than [`FRAME_HEADER`] bytes remain — the append died
    /// inside the frame header.
    IncompleteHeader {
        /// Bytes left.
        remaining: usize,
    },
    /// The header declares more payload than remains — the append died
    /// inside the body.
    IncompleteBody {
        /// Declared payload length.
        declared: usize,
        /// Bytes left after the header.
        remaining: usize,
    },
    /// The header declares a payload beyond [`MAX_RECORD`].
    OversizeRecord {
        /// Declared payload length.
        declared: u64,
    },
    /// The payload does not match its CRC — torn mid-body overwrite or
    /// bit rot.
    CrcMismatch {
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload checksummed but does not parse as a record.
    BadRecord(ropuf_proto::DecodeError),
    /// A type byte no release ever wrote.
    UnknownRecordType(u8),
    /// A flag reason byte no release ever wrote.
    UnknownFlagReason(u8),
}

impl fmt::Display for WalDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalDecodeError::IncompleteHeader { remaining } => {
                write!(f, "torn frame header: {remaining} of {FRAME_HEADER} bytes")
            }
            WalDecodeError::IncompleteBody {
                declared,
                remaining,
            } => write!(f, "torn frame body: {remaining} of {declared} bytes"),
            WalDecodeError::OversizeRecord { declared } => {
                write!(f, "declared payload {declared} exceeds {MAX_RECORD}")
            }
            WalDecodeError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WalDecodeError::BadRecord(e) => write!(f, "payload does not parse: {e}"),
            WalDecodeError::UnknownRecordType(b) => write!(f, "unknown record type {b:#04x}"),
            WalDecodeError::UnknownFlagReason(b) => write!(f, "unknown flag reason {b:#04x}"),
        }
    }
}

impl std::error::Error for WalDecodeError {}

impl WalRecord {
    /// Appends the record's payload (no frame) to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Enroll { device_id, record } => {
                out.put_u8(RECORD_ENROLL);
                out.put_u64(*device_id);
                out.put_u8(record.scheme_tag);
                out.extend_from_slice(&record.helper_digest);
                out.extend_from_slice(&record.key_digest);
            }
            WalRecord::Flag {
                device_id,
                at,
                reason,
            } => {
                out.put_u8(RECORD_FLAG);
                out.put_u64(*device_id);
                out.put_u64(*at);
                out.put_u8(reason.code());
            }
        }
    }

    /// Appends the record as one framed entry (`len · crc · payload`)
    /// to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(80);
        self.encode_payload(&mut payload);
        debug_assert!(payload.len() <= MAX_RECORD, "record exceeds MAX_RECORD");
        out.put_u32(u32::try_from(payload.len()).expect("payload fits u32"));
        out.put_u32(crc32(&payload));
        out.extend_from_slice(&payload);
    }

    /// The record as one framed entry.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + 64);
        self.encode_into(&mut out);
        out
    }

    /// Parses one checksummed payload.
    fn decode_payload(payload: &[u8]) -> Result<WalRecord, WalDecodeError> {
        let mut r = Reader::new(payload);
        let record = match r.u8().map_err(WalDecodeError::BadRecord)? {
            RECORD_ENROLL => {
                let device_id = r.u64().map_err(WalDecodeError::BadRecord)?;
                let scheme_tag = r.u8().map_err(WalDecodeError::BadRecord)?;
                let helper_digest = r.digest().map_err(WalDecodeError::BadRecord)?;
                let key_digest = r.digest().map_err(WalDecodeError::BadRecord)?;
                WalRecord::Enroll {
                    device_id,
                    record: StoredRecord {
                        scheme_tag,
                        helper_digest,
                        key_digest,
                    },
                }
            }
            RECORD_FLAG => {
                let device_id = r.u64().map_err(WalDecodeError::BadRecord)?;
                let at = r.u64().map_err(WalDecodeError::BadRecord)?;
                let code = r.u8().map_err(WalDecodeError::BadRecord)?;
                let reason =
                    FlagReason::from_code(code).ok_or(WalDecodeError::UnknownFlagReason(code))?;
                WalRecord::Flag {
                    device_id,
                    at,
                    reason,
                }
            }
            other => return Err(WalDecodeError::UnknownRecordType(other)),
        };
        r.finish().map_err(WalDecodeError::BadRecord)?;
        Ok(record)
    }
}

/// Streaming reader over one segment's bytes. Yields records until the
/// bytes run out cleanly or a frame fails to validate.
#[derive(Debug)]
pub struct WalReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WalReader<'a> {
    /// A reader at the start of a segment's bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Byte offset of the next unread frame — on error, where the
    /// segment tore.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The next record: `None` at a clean end of segment,
    /// `Some(Err(_))` at a torn or corrupt frame (the reader stays put;
    /// further calls return the same error).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<WalRecord, WalDecodeError>> {
        let remaining = self.bytes.len() - self.pos;
        if remaining == 0 {
            return None;
        }
        if remaining < FRAME_HEADER {
            return Some(Err(WalDecodeError::IncompleteHeader { remaining }));
        }
        let header = &self.bytes[self.pos..self.pos + FRAME_HEADER];
        let declared = u32::from_le_bytes(header[..4].try_into().expect("len 4")) as usize;
        let stored = u32::from_le_bytes(header[4..].try_into().expect("len 4"));
        if declared > MAX_RECORD {
            return Some(Err(WalDecodeError::OversizeRecord {
                declared: declared as u64,
            }));
        }
        let body_remaining = remaining - FRAME_HEADER;
        if declared > body_remaining {
            return Some(Err(WalDecodeError::IncompleteBody {
                declared,
                remaining: body_remaining,
            }));
        }
        let payload = &self.bytes[self.pos + FRAME_HEADER..self.pos + FRAME_HEADER + declared];
        let computed = crc32(payload);
        if stored != computed {
            return Some(Err(WalDecodeError::CrcMismatch { stored, computed }));
        }
        match WalRecord::decode_payload(payload) {
            Ok(record) => {
                self.pos += FRAME_HEADER + declared;
                Some(Ok(record))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_constructions::pairing::lisa::LISA_TAG;

    fn enroll(id: u64) -> WalRecord {
        WalRecord::Enroll {
            device_id: id,
            record: StoredRecord {
                scheme_tag: LISA_TAG,
                helper_digest: [!(id as u8); 32],
                key_digest: [id as u8; 32],
            },
        }
    }

    fn flag(id: u64) -> WalRecord {
        WalRecord::Flag {
            device_id: id,
            at: 100 + id,
            reason: FlagReason::RateBudget,
        }
    }

    fn drain(bytes: &[u8]) -> (Vec<WalRecord>, Option<WalDecodeError>) {
        let mut reader = WalReader::new(bytes);
        let mut records = Vec::new();
        loop {
            match reader.next() {
                None => return (records, None),
                Some(Ok(r)) => records.push(r),
                Some(Err(e)) => return (records, Some(e)),
            }
        }
    }

    #[test]
    fn enroll_frames_are_82_bytes() {
        assert_eq!(enroll(1).encode().len(), 82);
        assert_eq!(flag(1).encode().len(), FRAME_HEADER + 18);
    }

    #[test]
    fn records_roundtrip_in_sequence() {
        let written = vec![enroll(1), flag(1), enroll(2), flag(9)];
        let mut bytes = Vec::new();
        for r in &written {
            r.encode_into(&mut bytes);
        }
        let (read, err) = drain(&bytes);
        assert_eq!(err, None);
        assert_eq!(read, written);
    }

    #[test]
    fn truncation_at_any_offset_keeps_the_prefix() {
        let written = vec![enroll(1), flag(1), enroll(2)];
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &written {
            r.encode_into(&mut bytes);
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let (read, err) = drain(&bytes[..cut]);
            // The reader yields exactly the fully-contained records...
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(read.len(), complete, "cut at {cut}");
            assert_eq!(read[..], written[..complete], "cut at {cut}");
            // ...and reports a torn tail unless the cut fell exactly on
            // a record boundary.
            assert_eq!(err.is_some(), !boundaries.contains(&cut), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_at_the_bad_frame() {
        let mut bytes = Vec::new();
        enroll(1).encode_into(&mut bytes);
        let first_len = bytes.len();
        enroll(2).encode_into(&mut bytes);
        // Flip a payload byte of the second record.
        let target = first_len + FRAME_HEADER + 2;
        bytes[target] ^= 0xFF;
        let (read, err) = drain(&bytes);
        assert_eq!(read, vec![enroll(1)]);
        assert!(matches!(err, Some(WalDecodeError::CrcMismatch { .. })));
    }

    #[test]
    fn oversize_length_is_typed_not_an_allocation() {
        let mut bytes = Vec::new();
        bytes.put_u32(u32::MAX);
        bytes.put_u32(0);
        let (read, err) = drain(&bytes);
        assert!(read.is_empty());
        assert!(matches!(err, Some(WalDecodeError::OversizeRecord { .. })));
    }

    #[test]
    fn unknown_record_type_is_typed() {
        let payload = [0x77u8, 0, 0];
        let mut bytes = Vec::new();
        bytes.put_u32(payload.len() as u32);
        bytes.put_u32(crc32(&payload));
        bytes.extend_from_slice(&payload);
        let (_, err) = drain(&bytes);
        assert_eq!(err, Some(WalDecodeError::UnknownRecordType(0x77)));
    }
}
