//! Property tests for the durable codecs, mirroring the wire-protocol
//! suite in `crates/proto/tests/wire_props.rs`:
//!
//! 1. **Roundtrip** — arbitrary fleets survive the snapshot codec and
//!    WAL record sequences survive the frame codec, bit for bit.
//! 2. **Hostility** — byte soup, strict prefixes and point mutations
//!    of valid encodings produce typed errors; the decoders never
//!    panic, never over-allocate from forged lengths, and never yield a
//!    record that was not written.
//! 3. **Old layouts fail closed** — a version-2 snapshot and a `0x01`
//!    WAL enroll frame (both carried helper bytes) are typed errors,
//!    never a silently misread record.
//! 4. **Digest-only storage** — enrolling arbitrary helpers stores and
//!    snapshots exactly their digests.

mod legacy;

use proptest::collection::vec;
use proptest::prelude::*;

use ropuf_constructions::helper_digest;
use ropuf_verifier::store::snapshot::{self, SnapshotDevice, SnapshotV2Error};
use ropuf_verifier::store::wal::{WalDecodeError, WalReader, WalRecord};
use ropuf_verifier::{DetectorConfig, EnrollmentRecord, FlagReason, ShardedRegistry, StoredRecord};

use legacy::OldDevice;

/// The enrollment input behind seed byte `s`: varied helper sizes.
fn enrollment(s: u8) -> EnrollmentRecord {
    EnrollmentRecord {
        scheme_tag: s % 5,
        helper: vec![s; usize::from(s % 41)],
        key_digest: [s.wrapping_mul(31); 32],
    }
}

/// Deterministically expands per-device seed bytes into a fleet with
/// strictly ascending ids, varied helpers and a mix of flagged /
/// unflagged devices (the vendored proptest has no composite
/// strategies, so structure is derived from flat byte vectors).
fn fleet_from(seeds: &[u8]) -> Vec<SnapshotDevice> {
    let mut id = 0u64;
    seeds
        .iter()
        .map(|&s| {
            id += 1 + u64::from(s % 7) * 1000;
            let flag = (s % 3 == 0).then(|| {
                let reason = FlagReason::from_code(s % 4).expect("codes 0..=3 are valid");
                (u64::from(s) * 977, reason)
            });
            SnapshotDevice {
                device_id: id,
                record: StoredRecord::from(&enrollment(s)),
                flag,
            }
        })
        .collect()
}

/// The fleet's mutation history as WAL records: every enrollment, then
/// a flag record per flagged device.
fn wal_records(fleet: &[SnapshotDevice]) -> Vec<WalRecord> {
    let mut records = Vec::new();
    for device in fleet {
        records.push(WalRecord::Enroll {
            device_id: device.device_id,
            record: device.record,
        });
    }
    for device in fleet {
        if let Some((at, reason)) = device.flag {
            records.push(WalRecord::Flag {
                device_id: device.device_id,
                at,
                reason,
            });
        }
    }
    records
}

proptest! {
    /// Snapshot roundtrip: decode(encode(fleet)) reproduces every
    /// device, record and flag, and a load → re-encode is
    /// byte-identical (the format is canonical).
    #[test]
    fn v2_snapshot_roundtrips_arbitrary_fleets(
        seeds in vec(any::<u8>(), 0..24),
        shards in 1usize..12,
    ) {
        let fleet = fleet_from(&seeds);
        let bytes = snapshot::encode(shards, &fleet);

        let decoded = snapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.shards, shards);
        prop_assert_eq!(&decoded.devices, &fleet);

        let registry = ShardedRegistry::from_snapshot_v2(&bytes, DetectorConfig::default())
            .expect("own encoding loads");
        prop_assert_eq!(registry.snapshot_v2(), bytes);
    }

    /// Every strict prefix of a snapshot fails with a typed error —
    /// the trailing CRC makes any cut detectable.
    #[test]
    fn v2_strict_prefixes_are_typed_errors(seeds in vec(any::<u8>(), 1..12)) {
        let fleet = fleet_from(&seeds);
        let bytes = snapshot::encode(3, &fleet);
        for cut in 0..bytes.len() {
            prop_assert!(
                snapshot::decode(&bytes[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    /// Any single-byte change to a snapshot is rejected: CRC-32
    /// detects every one-byte corruption, including in the CRC itself.
    #[test]
    fn v2_point_mutations_are_rejected(
        seeds in vec(any::<u8>(), 0..12),
        flip in any::<u8>(),
        pos_seed in any::<u64>(),
    ) {
        let fleet = fleet_from(&seeds);
        let mut bytes = snapshot::encode(2, &fleet);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip | 1; // guaranteed to change the byte
        prop_assert!(snapshot::decode(&bytes).is_err());
    }

    /// Byte soup never panics the snapshot decoder, and a forged
    /// device count cannot drive allocation past the byte budget.
    #[test]
    fn v2_byte_soup_never_panics(soup in vec(any::<u8>(), 0..600)) {
        let _ = snapshot::decode(&soup);
        // Worst case: valid magic + version glued onto soup.
        let mut framed = snapshot::MAGIC.to_vec();
        framed.extend_from_slice(&snapshot::VERSION.to_le_bytes());
        framed.extend_from_slice(&soup);
        let _ = snapshot::decode(&framed);
    }

    /// WAL frame sequences roundtrip in order through the reader.
    #[test]
    fn wal_sequences_roundtrip(seeds in vec(any::<u8>(), 0..24)) {
        let fleet = fleet_from(&seeds);
        let records = wal_records(&fleet);
        let mut bytes = Vec::new();
        for r in &records {
            r.encode_into(&mut bytes);
        }
        let mut reader = WalReader::new(&bytes);
        for expected in &records {
            let got = reader.next().expect("record present").expect("valid");
            prop_assert_eq!(&got, expected);
        }
        prop_assert!(reader.next().is_none(), "clean end of log");
        prop_assert_eq!(reader.offset(), bytes.len());
    }

    /// Cutting a WAL segment at an arbitrary offset yields exactly the
    /// fully-contained prefix of records, then either a clean end (cut
    /// on a boundary) or one typed torn-tail error — never a panic,
    /// never a phantom record.
    #[test]
    fn wal_truncation_yields_exactly_the_contained_prefix(
        seeds in vec(any::<u8>(), 1..16),
        cut_seed in any::<u64>(),
    ) {
        let fleet = fleet_from(&seeds);
        let records = wal_records(&fleet);
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            r.encode_into(&mut bytes);
            boundaries.push(bytes.len());
        }
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();

        let mut reader = WalReader::new(&bytes[..cut]);
        for expected in &records[..complete] {
            let got = reader.next().expect("contained record").expect("valid");
            prop_assert_eq!(&got, expected);
        }
        match reader.next() {
            None => prop_assert!(
                boundaries.contains(&cut),
                "clean end only on a record boundary (cut {})", cut
            ),
            Some(Err(_)) => prop_assert!(
                !boundaries.contains(&cut),
                "torn tail only mid-record (cut {})", cut
            ),
            Some(Ok(r)) => prop_assert!(false, "phantom record {r:?} past the cut"),
        }
    }

    /// WAL byte soup: the reader terminates without panicking, and a
    /// mutated valid stream fails with a typed error at the mutated
    /// frame, having yielded exactly the records before it.
    #[test]
    fn wal_byte_soup_and_mutations_never_panic(
        soup in vec(any::<u8>(), 0..400),
        seeds in vec(any::<u8>(), 1..8),
        flip in any::<u8>(),
        pos_seed in any::<u64>(),
    ) {
        let mut reader = WalReader::new(&soup);
        while let Some(next) = reader.next() {
            if next.is_err() {
                break; // the reader stays put on errors; stop like recovery does
            }
        }

        let records = wal_records(&fleet_from(&seeds));
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            r.encode_into(&mut bytes);
            boundaries.push(bytes.len());
        }
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip | 1;
        let hit = boundaries.iter().filter(|&&b| b <= pos).count() - 1;
        let mut reader = WalReader::new(&bytes);
        let mut read = 0;
        while let Some(next) = reader.next() {
            match next {
                Ok(r) => {
                    prop_assert_eq!(&r, &records[read]);
                    read += 1;
                }
                Err(
                    WalDecodeError::CrcMismatch { .. }
                    | WalDecodeError::IncompleteHeader { .. }
                    | WalDecodeError::IncompleteBody { .. }
                    | WalDecodeError::OversizeRecord { .. }
                    | WalDecodeError::BadRecord(_)
                    | WalDecodeError::UnknownRecordType(_)
                    | WalDecodeError::UnknownFlagReason(_),
                ) => break,
            }
        }
        prop_assert_eq!(read, hit);
    }

    /// Enrolling arbitrary helpers through the batch path stores, and
    /// snapshots, exactly each helper's digest next to the key digest,
    /// and a load of that snapshot stores the same records.
    #[test]
    fn enrolled_helpers_are_stored_as_digests(
        seeds in vec(any::<u8>(), 0..16),
        shards in 1usize..8,
    ) {
        let registry = ShardedRegistry::new(shards, DetectorConfig::default());
        let batch: Vec<(u64, EnrollmentRecord)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, enrollment(s)))
            .collect();
        prop_assert!(registry.enroll_batch(batch.clone()).iter().all(Result::is_ok));
        let loaded = ShardedRegistry::from_snapshot_v2(
            &registry.snapshot_v2(),
            DetectorConfig::default(),
        ).expect("own snapshot loads");
        for (id, input) in &batch {
            let want = StoredRecord {
                scheme_tag: input.scheme_tag,
                helper_digest: helper_digest(&input.helper),
                key_digest: input.key_digest,
            };
            prop_assert_eq!(registry.record(*id), Some(want));
            prop_assert_eq!(loaded.record(*id), Some(want));
        }
    }

    /// Old layouts fail closed whatever they hold: a version-2
    /// snapshot is `UnsupportedVersion(2)`, and a `0x01` enroll frame
    /// is `UnknownRecordType(0x01)` with nothing read.
    #[test]
    fn old_layouts_are_typed_errors(seeds in vec(any::<u8>(), 0..12)) {
        let old: Vec<OldDevice> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let e = enrollment(s);
                OldDevice {
                    device_id: i as u64,
                    scheme_tag: e.scheme_tag,
                    helper: e.helper,
                    key_digest: e.key_digest,
                }
            })
            .collect();
        prop_assert_eq!(
            snapshot::decode(&legacy::v2_snapshot(3, &old)),
            Err(SnapshotV2Error::UnsupportedVersion(2))
        );
        for device in &old {
            let frame = legacy::enroll_frame_0x01(device);
            let mut reader = WalReader::new(&frame);
            prop_assert_eq!(reader.next(), Some(Err(WalDecodeError::UnknownRecordType(0x01))));
            prop_assert_eq!(reader.offset(), 0);
        }
    }
}

/// Non-property pin: the typed error taxonomy is reachable — a forged
/// count, a bad magic, an unsupported version and a truncated body
/// each produce their own variant (not a catch-all).
#[test]
fn v2_error_taxonomy_is_precise() {
    let fleet = fleet_from(&[1, 2, 3]);
    let good = snapshot::encode(2, &fleet);

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        snapshot::decode(&bad_magic),
        Err(SnapshotV2Error::BadMagic)
    ));

    assert!(matches!(
        snapshot::decode(&good[..10]),
        Err(SnapshotV2Error::TooShort { len: 10 })
    ));
}
