//! Durable storage for the registry: binary snapshots + write-ahead
//! log.
//!
//! A durable registry lives in one directory:
//!
//! ```text
//! store/
//!   snapshot-00000000000000000007.v2   last compaction's full state
//!   wal-00000000000000000008.log       closed segment
//!   wal-00000000000000000009.log       active segment (append-only)
//! ```
//!
//! One monotonically increasing sequence number orders both kinds of
//! file. The invariants:
//!
//! * **Write-ahead**: a mutation is appended (and, per
//!   [`SyncPolicy`], fsynced) to the active segment *before* it is
//!   applied in memory.
//! * **Rotation**: when the active segment passes
//!   [`StoreOptions::segment_bytes`], it is fsynced and closed, and
//!   appends continue in `wal-<seq+1>`. A fresh segment is also opened
//!   on every [`DeviceStore::open`] — recovery never appends to a file
//!   a dead process may have torn.
//! * **Compaction** ([`crate::Verifier::compact`]): rotate (so segment
//!   `S` closes), write the full registry as `snapshot-S.v2` (to a
//!   temp file, fsync, rename — the snapshot is atomic-or-absent),
//!   then delete segments `≤ S` and older snapshots. The snapshot may
//!   include mutations already landing in segment `S+1`; replaying
//!   them again is harmless (duplicate enrolls keep the first record,
//!   flag re-latches are no-ops), so recovery stays correct without
//!   stalling writers during the snapshot write.
//! * **Recovery** ([`recover`]): newest snapshot that validates (CRC +
//!   schema) is the base — corrupt ones are skipped, falling back to
//!   older snapshots or an empty registry. Then every WAL segment with
//!   a higher sequence replays in order, stopping at the first frame
//!   that fails to validate (the torn tail of a crashed append). The
//!   result is prefix-consistent: exactly the acknowledged mutations
//!   whose records survived, in order, and never a flag whose record
//!   was dropped.

pub mod faults;
pub mod snapshot;
pub mod wal;

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::detector::{DetectorConfig, FlagReason};
use crate::registry::{RegistryError, ShardedRegistry, StoredRecord};
use faults::StoreFaults;
use snapshot::SnapshotV2Error;
use wal::{WalDecodeError, WalReader, WalRecord};

/// CRC-32 (IEEE 802.3, the zlib polynomial) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum framing both snapshot and
/// WAL records.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every append batch — strongest durability, one disk
    /// round-trip per acknowledged mutation.
    EveryRecord,
    /// fsync on segment rotation, compaction, and explicit
    /// [`DeviceStore::sync`] — the default: a crash can lose the tail
    /// of the active segment (recovery handles the tear), never
    /// corrupt it.
    #[default]
    OnRotate,
}

/// Tuning for a durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// When appends are fsynced.
    pub sync_policy: SyncPolicy,
    /// Rotate the active segment once it passes this many bytes.
    pub segment_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            sync_policy: SyncPolicy::default(),
            segment_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Durable-store failure.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// What the store was doing.
        context: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A snapshot failed to decode.
    Snapshot(SnapshotV2Error),
    /// The operation needs a durable store but the registry was opened
    /// in-memory.
    NotDurable,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, error } => write!(f, "{context}: {error}"),
            StoreError::Snapshot(e) => write!(f, "snapshot: {e}"),
            StoreError::NotDurable => write!(f, "registry has no durable store attached"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SnapshotV2Error> for StoreError {
    fn from(e: SnapshotV2Error) -> Self {
        StoreError::Snapshot(e)
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> StoreError {
    move |error| StoreError::Io { context, error }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    Wal,
    Snapshot,
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:020}.v2"))
}

fn parse_name(name: &str) -> Option<(FileKind, u64)> {
    if let Some(seq) = name
        .strip_prefix("wal-")
        .and_then(|r| r.strip_suffix(".log"))
    {
        return seq.parse().ok().map(|s| (FileKind::Wal, s));
    }
    if let Some(seq) = name
        .strip_prefix("snapshot-")
        .and_then(|r| r.strip_suffix(".v2"))
    {
        return seq.parse().ok().map(|s| (FileKind::Snapshot, s));
    }
    None
}

/// Every recognized store file in `dir`, as `(kind, seq)` pairs.
fn list_store_files(dir: &Path) -> Result<Vec<(FileKind, u64)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err("list store directory"))? {
        let entry = entry.map_err(io_err("list store directory"))?;
        if let Some(parsed) = entry.file_name().to_str().and_then(parse_name) {
            out.push(parsed);
        }
    }
    Ok(out)
}

/// Best-effort directory fsync so renames/creates survive a crash of
/// the *filesystem* metadata, not just the file contents. Failure is
/// ignored: not all platforms support fsync on directories.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The active WAL segment behind the store's append lock.
#[derive(Debug)]
struct ActiveSegment {
    file: File,
    seq: u64,
    bytes: u64,
}

/// WAL activity counters. Detached (unregistered) by default so a bare
/// [`DeviceStore::open`] costs nothing extra;
/// [`DeviceStore::attach_telemetry`] swaps in registered handles.
#[derive(Debug, Default)]
struct StoreMetrics {
    wal_bytes: ropuf_telemetry::Counter,
    wal_fsyncs: ropuf_telemetry::Counter,
    wal_rotations: ropuf_telemetry::Counter,
    /// Transitions into the read-only degraded mode (0 → 1 in any
    /// single process lifetime; the latch never clears).
    degraded_transitions: ropuf_telemetry::Counter,
    /// Injected faults that actually fired, by kind.
    faults_injected: [ropuf_telemetry::Counter; 3],
}

/// `faults.injected{kind}` label values, in [`StoreMetrics`] order.
const FAULT_KINDS: [&str; 3] = ["wal_append", "wal_fsync", "snapshot_rename"];

/// The durable half of a registry: owns the store directory, the
/// active WAL segment, and the compaction machinery. Thread-safe —
/// appends serialize on one internal lock, which is fine because the
/// auth hot path only touches it on the rare flag transition.
#[derive(Debug)]
pub struct DeviceStore {
    dir: PathBuf,
    options: StoreOptions,
    active: Mutex<ActiveSegment>,
    io_errors: AtomicU64,
    /// Latched `true` on the first WAL append/fsync failure: the store
    /// can no longer promise write-ahead durability, so the serving
    /// layer must refuse mutations (read-only degraded mode).
    degraded: AtomicBool,
    faults: Option<StoreFaults>,
    metrics: StoreMetrics,
}

impl DeviceStore {
    /// Opens (creating if needed) the store directory and starts a
    /// fresh active segment numbered after everything already present.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory or segment cannot be
    /// created.
    pub fn open(dir: &Path, options: StoreOptions) -> Result<Self, StoreError> {
        fs::create_dir_all(dir).map_err(io_err("create store directory"))?;
        let max_seq = list_store_files(dir)?
            .into_iter()
            .map(|(_, seq)| seq)
            .max()
            .unwrap_or(0);
        let seq = max_seq + 1;
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(wal_path(dir, seq))
            .map_err(io_err("create wal segment"))?;
        sync_dir(dir);
        Ok(Self {
            dir: dir.to_path_buf(),
            options,
            active: Mutex::new(ActiveSegment {
                file,
                seq,
                bytes: 0,
            }),
            io_errors: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            faults: None,
            metrics: StoreMetrics::default(),
        })
    }

    /// Arms a deterministic fault schedule: the scheduled WAL
    /// append/fsync and snapshot-rename operations return injected
    /// errors, exercising the same degraded paths a real disk failure
    /// would. Called before the store is shared (`&mut self`), like
    /// [`DeviceStore::attach_telemetry`].
    pub fn inject_faults(&mut self, faults: StoreFaults) {
        self.faults = Some(faults);
    }

    /// Registers this store's WAL counters (`verifier.wal.*`) in
    /// `telemetry`. Called before the store is shared (`&mut self`), so
    /// the serving path always sees the registered handles.
    pub fn attach_telemetry(&mut self, telemetry: &ropuf_telemetry::Registry) {
        self.metrics = StoreMetrics {
            wal_bytes: telemetry.counter("verifier.wal.bytes", &[]),
            wal_fsyncs: telemetry.counter("verifier.wal.fsyncs", &[]),
            wal_rotations: telemetry.counter("verifier.wal.rotations", &[]),
            degraded_transitions: telemetry.counter("server.degraded_transitions", &[]),
            faults_injected: FAULT_KINDS
                .map(|kind| telemetry.counter("faults.injected", &[("kind", kind)])),
        };
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the segment currently taking appends.
    pub fn active_segment_seq(&self) -> u64 {
        self.active.lock().expect("store lock poisoned").seq
    }

    /// Count of best-effort appends (flag transitions) the disk
    /// rejected. Zero in any healthy run; the serving path counts
    /// instead of failing.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// `true` once any WAL append or fsync has failed: write-ahead
    /// durability is gone and the serving layer must refuse mutations.
    /// The latch never clears within a process — recovery from a disk
    /// failure is a restart decision, not something to flap on.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Latches the read-only degraded mode, counting the transition
    /// exactly once (`server.degraded_transitions`).
    fn mark_degraded(&self) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.metrics.degraded_transitions.inc();
        }
    }

    /// Runs the armed fault schedule's hook for one operation family,
    /// counting an injection when it fires.
    fn faulted(
        &self,
        kind: usize,
        hook: impl FnOnce(&StoreFaults) -> std::io::Result<()>,
        context: &'static str,
    ) -> Result<(), StoreError> {
        if let Some(faults) = &self.faults {
            if let Err(error) = hook(faults) {
                self.metrics.faults_injected[kind].inc();
                return Err(StoreError::Io { context, error });
            }
        }
        Ok(())
    }

    /// Appends one framed buffer under the lock, rotating afterwards
    /// if the segment passed its size threshold. Any failure — real or
    /// injected — latches the degraded mode before it propagates.
    fn append_locked(&self, buf: &[u8]) -> Result<(), StoreError> {
        let mut active = self.active.lock().expect("store lock poisoned");
        let result = self.append_under_lock(&mut active, buf);
        if result.is_err() {
            self.mark_degraded();
        }
        result
    }

    fn append_under_lock(&self, active: &mut ActiveSegment, buf: &[u8]) -> Result<(), StoreError> {
        self.faulted(0, StoreFaults::on_append, "append wal record")?;
        active
            .file
            .write_all(buf)
            .map_err(io_err("append wal record"))?;
        active.bytes += buf.len() as u64;
        self.metrics.wal_bytes.add(buf.len() as u64);
        if self.options.sync_policy == SyncPolicy::EveryRecord {
            self.faulted(1, StoreFaults::on_sync, "sync wal record")?;
            active.file.sync_data().map_err(io_err("sync wal record"))?;
            self.metrics.wal_fsyncs.inc();
        }
        if active.bytes >= self.options.segment_bytes {
            self.rotate_locked(active)?;
        }
        Ok(())
    }

    /// Write-ahead logs a batch of enrollments as one append. Items are
    /// [`StoredRecord`]s or anything that converts into one — an
    /// [`EnrollmentRecord`](crate::EnrollmentRecord) is digested on the
    /// way in.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] — the caller must then *not* apply the batch
    /// (no record, no state).
    pub fn log_enrolls<R: Into<StoredRecord>>(
        &self,
        items: impl Iterator<Item = (u64, R)>,
    ) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(256);
        for (device_id, record) in items {
            WalRecord::Enroll {
                device_id,
                record: record.into(),
            }
            .encode_into(&mut buf);
        }
        if buf.is_empty() {
            return Ok(());
        }
        self.append_locked(&buf)
    }

    /// Write-ahead logs a flag transition, best-effort: serving must
    /// not fail because the disk hiccuped, so errors are counted
    /// ([`DeviceStore::io_errors`]) rather than returned. The flag
    /// stays latched in memory either way.
    pub fn log_flag_best_effort(&self, device_id: u64, at: u64, reason: FlagReason) {
        let record = WalRecord::Flag {
            device_id,
            at,
            reason,
        };
        if self.append_locked(&record.encode()).is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// fsyncs the active segment — everything acknowledged so far is
    /// durable after this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the fsync fails.
    pub fn sync(&self) -> Result<(), StoreError> {
        let active = self.active.lock().expect("store lock poisoned");
        let result = self
            .faulted(1, StoreFaults::on_sync, "sync wal segment")
            .and_then(|()| active.file.sync_data().map_err(io_err("sync wal segment")));
        if result.is_err() {
            self.mark_degraded();
            return result;
        }
        self.metrics.wal_fsyncs.inc();
        Ok(())
    }

    fn rotate_locked(&self, active: &mut ActiveSegment) -> Result<u64, StoreError> {
        let synced = self
            .faulted(1, StoreFaults::on_sync, "sync wal segment")
            .and_then(|()| active.file.sync_data().map_err(io_err("sync wal segment")));
        if let Err(error) = synced {
            self.mark_degraded();
            return Err(error);
        }
        self.metrics.wal_fsyncs.inc();
        self.metrics.wal_rotations.inc();
        let closed = active.seq;
        let seq = closed + 1;
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(wal_path(&self.dir, seq))
            .map_err(io_err("create wal segment"))?;
        sync_dir(&self.dir);
        *active = ActiveSegment {
            file,
            seq,
            bytes: 0,
        };
        Ok(closed)
    }

    /// fsyncs and closes the active segment, continuing appends in the
    /// next one. Returns the closed segment's sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the fsync or the new segment fails.
    pub fn rotate(&self) -> Result<u64, StoreError> {
        let mut active = self.active.lock().expect("store lock poisoned");
        self.rotate_locked(&mut active)
    }

    /// Installs `bytes` as `snapshot-<seq>.v2` atomically (temp file →
    /// fsync → rename → dir fsync) and prunes everything it supersedes:
    /// WAL segments `≤ seq` and snapshots `< seq`. The second half of
    /// compaction — [`crate::Verifier::compact`] drives the whole
    /// sequence.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the snapshot cannot be written; pruning
    /// failures are ignored (stale files are re-pruned by the next
    /// compaction and never confuse recovery, which prefers the newest
    /// valid snapshot).
    pub fn install_snapshot(&self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
        // Hold the append lock: serializes concurrent compactions and
        // pins the active segment strictly above `seq` while pruning.
        let active = self.active.lock().expect("store lock poisoned");
        assert!(active.seq > seq, "snapshot must cover only closed segments");
        let final_path = snapshot_path(&self.dir, seq);
        let tmp_path = final_path.with_extension("v2.tmp");
        {
            let mut tmp = File::create(&tmp_path).map_err(io_err("create snapshot temp file"))?;
            tmp.write_all(bytes).map_err(io_err("write snapshot"))?;
            tmp.sync_all().map_err(io_err("sync snapshot"))?;
        }
        // A failed rename leaves the previous snapshot + WAL authoritative
        // — compaction is retryable, so it does not latch degraded mode.
        self.faulted(2, StoreFaults::on_rename, "install snapshot")?;
        fs::rename(&tmp_path, &final_path).map_err(io_err("install snapshot"))?;
        sync_dir(&self.dir);
        if let Ok(files) = list_store_files(&self.dir) {
            for (kind, file_seq) in files {
                let stale = match kind {
                    FileKind::Wal => file_seq <= seq,
                    FileKind::Snapshot => file_seq < seq,
                };
                if stale {
                    let path = match kind {
                        FileKind::Wal => wal_path(&self.dir, file_seq),
                        FileKind::Snapshot => snapshot_path(&self.dir, file_seq),
                    };
                    let _ = fs::remove_file(path);
                }
            }
        }
        Ok(())
    }
}

/// Where and how a WAL segment tore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment the bad frame was in.
    pub segment_seq: u64,
    /// Byte offset of the bad frame within the segment.
    pub offset: usize,
    /// How the frame failed to validate.
    pub error: WalDecodeError,
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot used as the base, if any validated.
    pub snapshot_seq: Option<u64>,
    /// Snapshots that failed to read or decode and were skipped.
    pub snapshots_skipped: usize,
    /// WAL segments whose records were replayed (fully or to a tear).
    pub segments_replayed: usize,
    /// Enrollment records applied from the WAL.
    pub enrolls_applied: u64,
    /// Flag records applied from the WAL.
    pub flags_applied: u64,
    /// Enrollment records skipped because the device already existed
    /// (normal after compaction overlap; the first record wins).
    pub duplicate_enrolls: u64,
    /// Flag records naming devices not in the registry (counted, not
    /// fatal).
    pub unknown_flag_devices: u64,
    /// The torn final frame, if the log did not end cleanly.
    pub torn_tail: Option<TornTail>,
}

/// Rebuilds a registry from a store directory: newest valid snapshot +
/// WAL tail, stopping at the first frame that fails to validate.
/// `default_shards` applies only when no snapshot supplies a shard
/// count. A missing directory recovers to an empty registry.
///
/// # Errors
///
/// [`StoreError::Io`] only for directory/segment *read* failures —
/// malformed content is never an error here, it bounds the recovered
/// prefix (snapshots are skipped, WAL replay stops at the tear).
pub fn recover(
    dir: &Path,
    default_shards: usize,
    detector_config: DetectorConfig,
) -> Result<(ShardedRegistry, RecoveryReport), StoreError> {
    let mut report = RecoveryReport::default();
    if !dir.exists() {
        return Ok((
            ShardedRegistry::new(default_shards, detector_config),
            report,
        ));
    }
    let files = list_store_files(dir)?;

    // Base: the newest snapshot that reads and validates end to end.
    let mut snapshot_seqs: Vec<u64> = files
        .iter()
        .filter(|(kind, _)| *kind == FileKind::Snapshot)
        .map(|(_, seq)| *seq)
        .collect();
    snapshot_seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut base: Option<(u64, snapshot::SnapshotV2)> = None;
    for seq in snapshot_seqs {
        match fs::read(snapshot_path(dir, seq)) {
            Ok(bytes) => match snapshot::decode(&bytes) {
                Ok(snap) => {
                    base = Some((seq, snap));
                    break;
                }
                Err(_) => report.snapshots_skipped += 1,
            },
            Err(_) => report.snapshots_skipped += 1,
        }
    }

    let (registry, snapshot_seq) = match base {
        Some((seq, snap)) => {
            report.snapshot_seq = Some(seq);
            let registry = ShardedRegistry::restore(snap, detector_config)
                .expect("decoded snapshot ids are strictly ascending");
            (registry, seq)
        }
        None => (ShardedRegistry::new(default_shards, detector_config), 0),
    };

    // Tail: replay WAL segments newer than the base, in order, until
    // the log ends or a frame fails to validate.
    let mut wal_seqs: Vec<u64> = files
        .iter()
        .filter(|(kind, seq)| {
            *kind == FileKind::Wal && (report.snapshot_seq.is_none() || *seq > snapshot_seq)
        })
        .map(|(_, seq)| *seq)
        .collect();
    wal_seqs.sort_unstable();
    'segments: for seq in wal_seqs {
        let bytes = fs::read(wal_path(dir, seq)).map_err(io_err("read wal segment"))?;
        report.segments_replayed += 1;
        let mut reader = WalReader::new(&bytes);
        loop {
            match reader.next() {
                None => break,
                Some(Ok(WalRecord::Enroll { device_id, record })) => {
                    match registry.enroll_recovered(device_id, record, None) {
                        Ok(()) => report.enrolls_applied += 1,
                        Err(RegistryError::Duplicate { .. }) => report.duplicate_enrolls += 1,
                        Err(e) => unreachable!("recovery enroll cannot hit storage: {e}"),
                    }
                }
                Some(Ok(WalRecord::Flag {
                    device_id,
                    at,
                    reason,
                })) => {
                    let applied = registry
                        .with_entry(device_id, |e| e.detector.restore_flag(at, reason))
                        .is_some();
                    if applied {
                        report.flags_applied += 1;
                    } else {
                        report.unknown_flag_devices += 1;
                    }
                }
                Some(Err(error)) => {
                    report.torn_tail = Some(TornTail {
                        segment_seq: seq,
                        offset: reader.offset(),
                        error,
                    });
                    break 'segments;
                }
            }
        }
    }
    Ok((registry, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value from the CRC catalogue.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn file_names_roundtrip() {
        let dir = Path::new("/tmp/x");
        let wal = wal_path(dir, 42);
        let snap = snapshot_path(dir, 7);
        assert_eq!(
            parse_name(wal.file_name().unwrap().to_str().unwrap()),
            Some((FileKind::Wal, 42))
        );
        assert_eq!(
            parse_name(snap.file_name().unwrap().to_str().unwrap()),
            Some((FileKind::Snapshot, 7))
        );
        assert_eq!(parse_name("snapshot-abc.v2"), None);
        assert_eq!(parse_name("other.txt"), None);
        // Temp files from an interrupted compaction are not store files.
        assert_eq!(parse_name("snapshot-00000000000000000007.v2.tmp"), None);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ropuf-store-faults-{tag}-{}", std::process::id()))
    }

    fn record() -> crate::EnrollmentRecord {
        crate::EnrollmentRecord {
            scheme_tag: 1,
            helper: vec![7; 16],
            key_digest: [9; 32],
        }
    }

    #[test]
    fn injected_wal_append_fault_latches_degraded_once() {
        let dir = scratch_dir("append");
        let _ = fs::remove_dir_all(&dir);
        let mut store = DeviceStore::open(&dir, StoreOptions::default()).unwrap();
        store.inject_faults(StoreFaults::new().fail_append_at(1));
        store.attach_telemetry(&ropuf_telemetry::Registry::new());
        let record = record();

        assert!(store.log_enrolls([(1u64, &record)].into_iter()).is_ok());
        assert!(!store.is_degraded(), "healthy append must not latch");

        let err = store
            .log_enrolls([(2u64, &record)].into_iter())
            .unwrap_err();
        assert!(err.to_string().contains("injected wal append"));
        assert!(store.is_degraded(), "failed append must latch");

        // One-shot fault: later appends succeed, the latch stays.
        assert!(store.log_enrolls([(3u64, &record)].into_iter()).is_ok());
        assert!(store.is_degraded(), "latch never clears");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fsync_fault_latches_and_counts_transition_once() {
        let dir = scratch_dir("fsync");
        let _ = fs::remove_dir_all(&dir);
        let telemetry = ropuf_telemetry::Registry::new();
        let mut store = DeviceStore::open(
            &dir,
            StoreOptions {
                sync_policy: SyncPolicy::EveryRecord,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store.inject_faults(StoreFaults::new().fail_sync_at(0));
        store.attach_telemetry(&telemetry);
        let record = record();

        assert!(store.log_enrolls([(1u64, &record)].into_iter()).is_err());
        assert!(store.is_degraded());
        // A second failure path must not double-count the transition.
        let _ = store.sync();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter_total("server.degraded_transitions"), 1);
        assert_eq!(snap.counter_total("faults.injected"), 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_fault_fails_compaction_without_latching() {
        let dir = scratch_dir("rename");
        let _ = fs::remove_dir_all(&dir);
        let mut store = DeviceStore::open(&dir, StoreOptions::default()).unwrap();
        store.inject_faults(StoreFaults::new().fail_rename_at(0));
        store.attach_telemetry(&ropuf_telemetry::Registry::new());

        store.rotate().unwrap();
        let seq = store.active_segment_seq() - 1;
        let err = store
            .install_snapshot(seq, b"not a real snapshot")
            .unwrap_err();
        assert!(err.to_string().contains("injected snapshot rename"));
        assert!(
            !store.is_degraded(),
            "compaction failure is retryable, not a durability loss"
        );
        // The retry (op 1) goes through.
        store.install_snapshot(seq, b"not a real snapshot").unwrap();

        let _ = fs::remove_dir_all(&dir);
    }
}
