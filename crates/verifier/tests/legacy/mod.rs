//! Builders for the store layouts this build no longer reads: the
//! version-2 snapshot record and the `0x01` WAL enroll frame, both of
//! which carried the enrolled helper bytes instead of their digest.
//! Shared by the suites that check those layouts fail closed.

use ropuf_proto::codec::Writer;
use ropuf_verifier::store::crc32;
use ropuf_verifier::store::snapshot::MAGIC;

/// One unflagged device in the old layouts.
pub struct OldDevice {
    pub device_id: u64,
    pub scheme_tag: u8,
    pub helper: Vec<u8>,
    pub key_digest: [u8; 32],
}

/// A CRC-sealed version-2 snapshot of `devices` (ascending ids).
pub fn v2_snapshot(shards: u32, devices: &[OldDevice]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.put_u16(2);
    out.put_u32(shards);
    out.put_u64(devices.len() as u64);
    for d in devices {
        out.put_u64(d.device_id);
        out.put_u8(d.scheme_tag);
        out.put_u8(0);
        out.put_bytes(&d.helper);
        out.extend_from_slice(&d.key_digest);
    }
    let crc = crc32(&out);
    out.put_u32(crc);
    out
}

/// One framed `0x01` enroll record.
pub fn enroll_frame_0x01(d: &OldDevice) -> Vec<u8> {
    let mut payload = vec![0x01];
    payload.put_u64(d.device_id);
    payload.put_u8(d.scheme_tag);
    payload.put_bytes(&d.helper);
    payload.extend_from_slice(&d.key_digest);
    let mut out = Vec::new();
    out.put_u32(payload.len() as u32);
    out.put_u32(crc32(&payload));
    out.extend_from_slice(&payload);
    out
}
