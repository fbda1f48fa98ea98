//! Crash-injection recovery suite for the durable registry.
//!
//! The contract under test: recovery from a store directory whose
//! active WAL segment was cut at **any** byte offset — every record
//! boundary and every offset inside a record — yields a
//! prefix-consistent registry (exactly the mutations whose records are
//! fully contained before the cut, in order), never panics, and never
//! resurrects a flag whose record was dropped. Plus: the same sweep on
//! top of a compacted snapshot base, corruption (not just truncation)
//! stopping replay, a corrupt snapshot falling back to an older valid
//! one, old store layouts failing closed, and a recovered fleet whose
//! replayed traffic verdicts are identical to the never-crashed
//! fleet's.

mod legacy;

use std::fs;
use std::path::PathBuf;

use ropuf_constructions::DeviceResponse;
use ropuf_verifier::store::wal::{WalDecodeError, WalReader, WalRecord, FRAME_HEADER};
use ropuf_verifier::store::{self, StoreOptions};
use ropuf_verifier::{
    client_tag, AuthRequest, AuthVerdict, BatchScratch, DetectorConfig, EnrollmentRecord,
    FlagReason, ShardedRegistry, StoredRecord, Verifier,
};

const LISA_TAG: u8 = b'L';

/// Unique scratch directory per test; recreated clean on entry.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ropuf-recovery-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn record(fill: u8) -> EnrollmentRecord {
    EnrollmentRecord {
        scheme_tag: LISA_TAG,
        helper: vec![LISA_TAG, 1, fill, fill.wrapping_mul(3)],
        key_digest: [fill; 32],
    }
}

fn stored(fill: u8) -> StoredRecord {
    StoredRecord::from(&record(fill))
}

/// The scripted mutation history the raw truncation sweep uses: a mix
/// of enrollments and flag transitions with differing record sizes, so
/// cuts land in headers, bodies, and boundaries of both kinds.
fn script() -> Vec<WalRecord> {
    vec![
        WalRecord::Enroll {
            device_id: 1,
            record: stored(1),
        },
        WalRecord::Enroll {
            device_id: 2,
            record: stored(2),
        },
        WalRecord::Flag {
            device_id: 1,
            at: 10,
            reason: FlagReason::RateBudget,
        },
        WalRecord::Enroll {
            device_id: 3,
            record: stored(3),
        },
        WalRecord::Flag {
            device_id: 3,
            at: 30,
            reason: FlagReason::FailureStreak,
        },
    ]
}

/// Encodes `records` into one segment's bytes, returning the byte
/// boundaries after each record (boundary 0 = empty prefix).
fn encode_segment(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0usize];
    for r in records {
        r.encode_into(&mut bytes);
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// Expected state after replaying the first `n` records of a segment
/// over `base_ids`: newly enrolled ids and `(device, at, reason)`
/// flags (for base or newly-enrolled devices).
fn expected_state(
    records: &[WalRecord],
    n: usize,
    base_ids: &[u64],
) -> (Vec<u64>, Vec<(u64, u64, FlagReason)>) {
    let mut enrolled = Vec::new();
    let mut flags = Vec::new();
    for r in &records[..n] {
        match r {
            WalRecord::Enroll { device_id, .. } => enrolled.push(*device_id),
            WalRecord::Flag {
                device_id,
                at,
                reason,
            } => {
                if enrolled.contains(device_id) || base_ids.contains(device_id) {
                    flags.push((*device_id, *at, *reason));
                }
            }
        }
    }
    (enrolled, flags)
}

/// Asserts a recovered registry holds exactly `base` + the
/// fully-contained prefix of `records`, for the sweep cut at `cut`.
#[allow(clippy::type_complexity)]
fn assert_prefix_consistent(
    registry: &ShardedRegistry,
    base: &[(u64, Option<(u64, FlagReason)>)],
    records: &[WalRecord],
    boundaries: &[usize],
    cut: usize,
) {
    let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
    let base_ids: Vec<u64> = base.iter().map(|(id, _)| *id).collect();
    let (enrolled, flags) = expected_state(records, complete, &base_ids);

    assert_eq!(registry.len(), base.len() + enrolled.len(), "cut at {cut}");
    for (id, base_flag) in base {
        assert!(registry.record(*id).is_some(), "cut at {cut}: base {id}");
        // A base device's flag is its snapshot flag unless a contained
        // WAL record flags it (first flag wins, so a snapshot flag is
        // never overwritten by replay).
        let wal_flag = flags
            .iter()
            .find(|(fid, _, _)| fid == id)
            .map(|(_, at, reason)| (*at, *reason));
        assert_eq!(
            registry.flag_info(*id),
            base_flag.or(wal_flag),
            "cut at {cut}: flag of base device {id}"
        );
    }
    for id in &enrolled {
        assert!(registry.record(*id).is_some(), "cut at {cut}: device {id}");
    }
    // Flags: exactly the fully-recorded ones — a flag whose record was
    // dropped by the cut must never resurrect.
    let mut expected_flagged: Vec<u64> = base
        .iter()
        .filter(|(_, f)| f.is_some())
        .map(|(id, _)| *id)
        .chain(flags.iter().map(|(id, _, _)| *id))
        .collect();
    expected_flagged.sort_unstable();
    expected_flagged.dedup();
    assert_eq!(registry.flagged_devices(), expected_flagged, "cut at {cut}");
    for (id, at, reason) in &flags {
        if base_ids.contains(id) {
            continue; // base devices asserted above (snapshot flag wins)
        }
        assert_eq!(
            registry.flag_info(*id),
            Some((*at, *reason)),
            "cut at {cut}: flag of device {id}"
        );
    }
}

#[test]
fn every_truncation_offset_recovers_prefix_consistent() {
    let records = script();
    let (bytes, boundaries) = encode_segment(&records);
    let dir = scratch("sweep");
    for cut in 0..=bytes.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // The crashed process's active segment, cut mid-write.
        fs::write(dir.join("wal-00000000000000000001.log"), &bytes[..cut]).unwrap();

        let (registry, report) =
            store::recover(&dir, 4, DetectorConfig::default()).expect("recovery never fails");
        assert_prefix_consistent(&registry, &[], &records, &boundaries, cut);

        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        let (enrolled, flags) = expected_state(&records, complete, &[]);
        assert_eq!(report.enrolls_applied as usize, enrolled.len(), "cut {cut}");
        assert_eq!(report.flags_applied as usize, flags.len(), "cut {cut}");
        assert_eq!(
            report.torn_tail.is_some(),
            !boundaries.contains(&cut),
            "cut at {cut}: tear reported iff the cut is mid-record"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Same sweep, but the cut segment sits on top of a compacted snapshot
/// whose devices (one of them flagged) must survive **every** cut.
/// The store directory is built through the real durable API, not
/// hand-assembled bytes: open, enroll, flag, compact, mutate, "crash".
#[test]
fn truncation_sweep_on_a_compacted_snapshot_base() {
    let dir = scratch("snapbase");
    let (verifier, _) =
        Verifier::open_durable(&dir, 2, DetectorConfig::default(), StoreOptions::default())
            .unwrap();
    verifier.registry().enroll(10, record(10)).unwrap();
    verifier.registry().enroll(11, record(11)).unwrap();
    // Flag device 11 through the serving path: a consecutive-failure
    // streak (default streak budget is 4).
    for i in 0..4 {
        verifier.observe_raw(11, i * 100, None, false);
    }
    let base_flag = verifier.flag_info(11).expect("streak latched the flag");
    verifier.compact().unwrap();

    // Post-snapshot mutations land in the fresh active segment.
    verifier.registry().enroll(12, record(12)).unwrap();
    for i in 0..4 {
        verifier.observe_raw(10, 1000 + i * 100, None, false);
    }
    assert!(verifier.flag_info(10).is_some());
    verifier.sync().unwrap();
    drop(verifier); // crash

    // Exactly one snapshot and one WAL segment should remain.
    let wal_files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .collect();
    assert_eq!(wal_files.len(), 1, "compaction pruned superseded segments");
    let segment = &wal_files[0];
    let bytes = fs::read(segment).unwrap();

    // Parse the real segment to learn its records and boundaries.
    let mut reader = WalReader::new(&bytes);
    let mut records = Vec::new();
    let mut boundaries = vec![0usize];
    while let Some(next) = reader.next() {
        records.push(next.expect("uncut segment is fully valid"));
        boundaries.push(reader.offset());
    }
    assert_eq!(
        records.len(),
        2,
        "segment holds the enroll of 12 and the flag of 10"
    );

    let base = [(10, None), (11, Some(base_flag))];
    for cut in 0..=bytes.len() {
        fs::write(segment, &bytes[..cut]).unwrap();
        let (registry, report) =
            store::recover(&dir, 4, DetectorConfig::default()).expect("recovery never fails");
        assert_eq!(report.snapshot_seq, Some(1), "snapshot is always the base");
        assert_prefix_consistent(&registry, &base, &records, &boundaries, cut);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corruption_mid_segment_stops_replay_at_the_bad_frame() {
    let records = script();
    let (bytes, boundaries) = encode_segment(&records);
    let dir = scratch("corrupt");
    fs::create_dir_all(&dir).unwrap();
    // Flip one byte inside record 3's body (device 3's enrollment).
    let mut corrupted = bytes.clone();
    let target = boundaries[3] + FRAME_HEADER + 1;
    corrupted[target] ^= 0xFF;
    fs::write(dir.join("wal-00000000000000000001.log"), &corrupted).unwrap();

    let (registry, report) = store::recover(&dir, 4, DetectorConfig::default()).unwrap();
    // Records before the corrupt frame applied (two enrolls + one
    // flag); the corrupt enroll and everything after dropped.
    assert_eq!(registry.len(), 2);
    assert!(registry.record(3).is_none(), "corrupt enroll not applied");
    assert_eq!(registry.flagged_devices(), vec![1]);
    let torn = report.torn_tail.expect("corruption reported");
    assert_eq!(torn.offset, boundaries[3]);
    assert!(matches!(torn.error, WalDecodeError::CrcMismatch { .. }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_older_valid_one() {
    let dir = scratch("snapfallback");
    fs::create_dir_all(&dir).unwrap();
    let older = ShardedRegistry::new(2, DetectorConfig::default());
    older.enroll(1, record(1)).unwrap();
    fs::write(
        dir.join("snapshot-00000000000000000001.v2"),
        older.snapshot_v2(),
    )
    .unwrap();
    let newer = ShardedRegistry::new(2, DetectorConfig::default());
    newer.enroll(1, record(1)).unwrap();
    newer.enroll(2, record(2)).unwrap();
    let mut newer_bytes = newer.snapshot_v2();
    let len = newer_bytes.len();
    newer_bytes[len / 2] ^= 0xFF; // corrupt the newer snapshot
    fs::write(dir.join("snapshot-00000000000000000003.v2"), newer_bytes).unwrap();

    let (registry, report) = store::recover(&dir, 4, DetectorConfig::default()).unwrap();
    assert_eq!(report.snapshot_seq, Some(1), "fell back to the valid base");
    assert_eq!(report.snapshots_skipped, 1);
    assert_eq!(registry.len(), 1);
    assert!(registry.record(1).is_some());
    let _ = fs::remove_dir_all(&dir);
}

/// Stores written before the registry kept helper digests fail
/// closed: the version-2 snapshot is skipped (counted), and WAL replay
/// stops, typed, at the first `0x01` enroll frame. The frame of a
/// 28-byte helper is exactly as long as a new one, which is why the new
/// layout has its own type byte: read as one, it would carry a wrong
/// helper digest and quarantine a benign device on its first auth.
#[test]
fn old_store_layouts_are_skipped_or_stop_replay() {
    let dir = scratch("oldlayouts");
    fs::create_dir_all(&dir).unwrap();
    let old = |device_id: u64, helper_len: usize| legacy::OldDevice {
        device_id,
        scheme_tag: LISA_TAG,
        helper: vec![LISA_TAG; helper_len],
        key_digest: [device_id as u8; 32],
    };
    fs::write(
        dir.join("snapshot-00000000000000000001.v2"),
        legacy::v2_snapshot(2, &[old(1, 4), old(2, 28)]),
    )
    .unwrap();
    let mut wal = Vec::new();
    WalRecord::Enroll {
        device_id: 5,
        record: stored(5),
    }
    .encode_into(&mut wal);
    let boundary = wal.len();
    let old_frame = legacy::enroll_frame_0x01(&old(6, 28));
    assert_eq!(old_frame.len(), boundary, "as long as a new enroll frame");
    wal.extend_from_slice(&old_frame);
    WalRecord::Enroll {
        device_id: 7,
        record: stored(7),
    }
    .encode_into(&mut wal);
    fs::write(dir.join("wal-00000000000000000002.log"), &wal).unwrap();

    let (registry, report) = store::recover(&dir, 4, DetectorConfig::default()).unwrap();
    assert_eq!(report.snapshot_seq, None);
    assert_eq!(report.snapshots_skipped, 1);
    assert_eq!(report.enrolls_applied, 1);
    assert_eq!(registry.len(), 1);
    assert_eq!(registry.record(5), Some(stored(5)));
    let torn = report.torn_tail.expect("the old frame stops replay");
    assert_eq!(torn.offset, boundary);
    assert_eq!(torn.error, WalDecodeError::UnknownRecordType(0x01));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_of_missing_directory_is_empty_not_an_error() {
    let dir = scratch("missing"); // never created
    let (registry, report) = store::recover(&dir, 4, DetectorConfig::default()).unwrap();
    assert!(registry.is_empty());
    assert_eq!(report, store::RecoveryReport::default());
}

// ---------------------------------------------------------------------
// Replay equivalence: recovered == never-crashed.
// ---------------------------------------------------------------------

/// Deterministic xorshift stream for traffic synthesis.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One auth request against `device_id`: genuine (correct tag for its
/// `record(fill)` digest) or a failure, per `genuine`.
fn request(device_id: u64, now: u64, genuine: bool, seed: u64) -> AuthRequest {
    let nonce = seed.to_le_bytes().to_vec();
    let response = if genuine {
        DeviceResponse::Tag(client_tag(&[device_id as u8; 32], &nonce))
    } else {
        DeviceResponse::Failure
    };
    AuthRequest {
        device_id,
        now,
        nonce,
        response,
        presented_helper: None,
    }
}

/// After a crash, latched flags are durable but soft detector state
/// (failure streaks in progress, rate-window entries) is not — that is
/// the documented contract. So a replay is verdict-identical iff the
/// pre-crash traffic leaves no soft state behind: every unflagged
/// device ends on a success (streak reset) and post-crash timestamps
/// sit far past the rate window. This test builds exactly that
/// schedule and asserts the recovered fleet answers the post-crash
/// traffic identically to a fleet that never crashed.
#[test]
fn recovered_fleet_replays_identically_to_never_crashed() {
    let dir = scratch("replay");
    let (durable, _) =
        Verifier::open_durable(&dir, 4, DetectorConfig::default(), StoreOptions::default())
            .unwrap();
    let control = Verifier::new(4, DetectorConfig::default());

    let fleet: Vec<u64> = (1..=16).collect();
    for &id in &fleet {
        durable.registry().enroll(id, record(id as u8)).unwrap();
        control.registry().enroll(id, record(id as u8)).unwrap();
    }

    // Pre-crash: flag devices 3 and 7 outright (failure streaks); give
    // everyone else mixed traffic ending on a genuine success.
    let mut seed = 0x5EED_CAFE_F00D_u64;
    let mut pre = Vec::new();
    for &id in &fleet {
        if id == 3 || id == 7 {
            for k in 0..4 {
                pre.push(request(id, k * 50, false, xorshift(&mut seed)));
            }
        } else {
            pre.push(request(id, 10, id % 2 == 0, xorshift(&mut seed)));
            pre.push(request(id, 400, true, xorshift(&mut seed)));
        }
    }
    for r in &pre {
        let a = durable.authenticate_query(r.as_query());
        let b = control.authenticate_query(r.as_query());
        assert_eq!(a, b, "pre-crash divergence on device {}", r.device_id);
    }
    drop(durable); // crash: no compaction, no explicit sync

    let (recovered, report) =
        Verifier::open_durable(&dir, 4, DetectorConfig::default(), StoreOptions::default())
            .unwrap();
    assert_eq!(report.enrolls_applied, fleet.len() as u64);
    assert_eq!(report.flags_applied, 2);
    assert!(report.torn_tail.is_none(), "clean shutdown, clean log");

    // Same durable state, bit for bit: flags and records.
    for &id in &fleet {
        assert_eq!(recovered.flag_info(id), control.flag_info(id), "{id}");
        assert_eq!(
            recovered.registry().record(id),
            control.registry().record(id)
        );
    }

    // Post-crash traffic, far past the rate window: verdict streams
    // from the recovered fleet and the never-crashed fleet must match
    // exactly — including Flagged rejections from 3 and 7 and fresh
    // streak-latches accumulated entirely after the crash (device 12).
    let mut post = Vec::new();
    for step in 0..6u64 {
        for &id in &fleet {
            let genuine = id != 12 && (id + step) % 3 != 0;
            let now = 1_000_000 + step * 1_000 + id;
            post.push(request(id, now, genuine, xorshift(&mut seed)));
        }
    }
    let got: Vec<AuthVerdict> = post
        .iter()
        .map(|r| recovered.authenticate_query(r.as_query()))
        .collect();
    let want: Vec<AuthVerdict> = post
        .iter()
        .map(|r| control.authenticate_query(r.as_query()))
        .collect();
    assert_eq!(got, want, "replay over recovered fleet diverged");
    assert_eq!(
        recovered.flag_info(12),
        control.flag_info(12),
        "post-crash streak latched identically"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A batch writes the `Flag` records it latches in query order, so the
/// WAL a batch leaves is byte for byte the one the same queries served
/// one at a time leave. The flags latch in several shards, in a query
/// order that is not shard order (a batch judges shard by shard).
#[test]
fn a_batch_logs_its_flags_in_query_order() {
    let fleet: Vec<u64> = (1..=16).collect();
    let streak = u64::from(DetectorConfig::default().failure_streak);
    // Round after round of failures, newest device first, spaced past
    // the rate window: every device latches its streak in the last
    // round, in descending id order.
    let mut seed = 0x0DE5_C0DE_u64;
    let queries: Vec<AuthRequest> = (0..streak)
        .flat_map(|round| fleet.iter().rev().map(move |&id| (round, id)))
        .map(|(round, id)| request(id, round * 1_000, false, xorshift(&mut seed)))
        .collect();
    let mut segments = Vec::new();
    for batched in [false, true] {
        let dir = scratch(if batched {
            "flags-batched"
        } else {
            "flags-one-by-one"
        });
        let (verifier, _) =
            Verifier::open_durable(&dir, 4, DetectorConfig::default(), StoreOptions::default())
                .unwrap();
        for &id in &fleet {
            verifier.registry().enroll(id, record(id as u8)).unwrap();
        }
        let verdicts: Vec<AuthVerdict> = if batched {
            let queries: Vec<_> = queries.iter().map(AuthRequest::as_query).collect();
            let mut verdicts = Vec::new();
            verifier.authenticate_batch_with(&queries, &mut BatchScratch::new(), &mut verdicts);
            verdicts
        } else {
            queries
                .iter()
                .map(|r| verifier.authenticate_query(r.as_query()))
                .collect()
        };
        let latched: Vec<u64> = queries
            .iter()
            .zip(&verdicts)
            .filter(|(r, v)| v.is_flagged() && r.now == (streak - 1) * 1_000)
            .map(|(r, _)| r.device_id)
            .collect();
        assert_eq!(latched.len(), fleet.len(), "every device latches");
        let shards: Vec<usize> = latched
            .iter()
            .map(|&id| verifier.registry().shard_of(id))
            .collect();
        assert!(
            shards.windows(2).any(|w| w[0] > w[1]),
            "query order must not be shard order: {shards:?}"
        );
        let seq = verifier.registry().store().unwrap().active_segment_seq();
        drop(verifier);
        segments.push(fs::read(dir.join(format!("wal-{seq:020}.log"))).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }
    let mut reader = WalReader::new(&segments[0]);
    let mut flags = 0;
    while let Some(record) = reader.next() {
        flags += usize::from(matches!(record.unwrap(), WalRecord::Flag { .. }));
    }
    assert_eq!(flags, fleet.len(), "one Flag record per device");
    assert_eq!(
        segments[0], segments[1],
        "batched and one-by-one serving logged different bytes"
    );
}
