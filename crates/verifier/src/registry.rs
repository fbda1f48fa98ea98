//! The sharded enrollment registry.
//!
//! One [`StoredRecord`] per enrolled device: `{scheme tag, helper
//! digest, key digest}`. Enrollment takes the helper blob
//! ([`EnrollmentRecord`]), digests it and drops it: the detector judges
//! a presented helper against the enrolled digest only, which is the
//! paper's countermeasure (helper-data integrity) and all that serving
//! and recovery read. Records are hashed across N shards, each behind
//! its own lock, so concurrent enrollment and authentication scale
//! across threads instead of serializing on one registry-wide mutex.
//! Each entry also carries its device's detector runtime state, so one
//! shard lock covers a whole authenticate step (lookup + detect); the
//! detector thresholds ([`DetectorConfig`]) are held once per registry.
//!
//! # Entry layout: chunked slab + compact handles
//!
//! A shard is **not** a `HashMap<u64, DeviceEntry>`. Entries live in a
//! per-shard slab indexed by a compact `u32` [`DeviceHandle`], and a
//! side map resolves device id → handle. The slab grows in fixed-size
//! chunks of [`SLAB_CHUNK`] entries, so growth never copies the entries
//! already stored (a doubling `Vec` would briefly hold two copies of
//! the shard, under its lock). The hot auth path resolves the handle
//! once and then works on the slab slot; the id map stays small and
//! dense — 12 bytes of key material per device instead of a map entry
//! dragging the ~190-byte entry around — and batched authentication
//! walks the slab instead of pointer-chasing a big map.
//!
//! # Persistence
//!
//! * Snapshots — the length-prefixed, CRC-protected binary format in
//!   [`crate::store::snapshot`] ([`ShardedRegistry::snapshot_v2`] /
//!   [`ShardedRegistry::from_snapshot_v2`]), which persists the stored
//!   records and the flag state.
//! * The WAL ([`crate::store::wal`]) — when a registry is opened
//!   durably ([`crate::Verifier::open_durable`]), every enrollment and
//!   every flag transition is appended to an fsync-rotated segment log
//!   before it is acknowledged, and crash recovery replays
//!   latest-valid-snapshot + WAL tail.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

use ropuf_constructions::helper_digest;
use ropuf_hash::HmacKey;
use ropuf_numeric::splitmix64 as mix;

use crate::detector::{AuthVerdict, DetectorConfig, DetectorState, FlagReason};
use crate::store::snapshot::{self, SnapshotDevice, SnapshotV2Error};
use crate::store::DeviceStore;

/// Largest shard count a snapshot may request — a hard cap against
/// resource exhaustion via a forged `shards` field (snapshots are
/// operator-supplied input, same rationale as `wire::MAX_COUNT`).
pub const MAX_SHARDS: u64 = 1 << 16;

/// Entries per slab chunk: a shard's slab grows one chunk at a time.
pub const SLAB_CHUNK: usize = 256;

/// Compact per-shard slab index of an enrolled device. Stable for the
/// life of the registry (devices are never evicted), so hot paths can
/// resolve a device id once and keep the handle.
pub type DeviceHandle = u32;

/// The shard a device id hashes to in a registry of `shards` shards.
///
/// This is the pure form of [`ShardedRegistry::shard_of`], exposed so
/// remote parties (the multi-loop server's affinity accounting, the
/// load generator's loop-affine routing) can predict placement without
/// holding a registry. Returns `0` when `shards` is `0` so callers
/// never divide by zero on an unsharded handler.
pub fn shard_for(device_id: u64, shards: usize) -> usize {
    if shards == 0 {
        return 0;
    }
    (mix(device_id) % shards as u64) as usize
}

/// What a device is enrolled with: the input to
/// [`ShardedRegistry::enroll`] and [`ShardedRegistry::enroll_batch`].
///
/// The `key_digest` is the derived verification credential (see the
/// crate-level protocol notes) — the registry never holds the PUF
/// master key itself. The helper blob is digested at enrollment and
/// not kept: what the registry stores is a [`StoredRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnrollmentRecord {
    /// Wire tag of the scheme the device was enrolled under.
    pub scheme_tag: u8,
    /// The helper blob as enrolled (digested into the integrity
    /// reference).
    pub helper: Vec<u8>,
    /// SHA-256 of the enrolled key bytes — the HMAC verification key.
    pub key_digest: [u8; 32],
}

/// What the registry stores, snapshots and logs per enrolled device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord {
    /// Wire tag of the scheme the device was enrolled under.
    pub scheme_tag: u8,
    /// Digest of the enrolled helper blob
    /// ([`ropuf_constructions::helper_digest`]) — the integrity
    /// reference a presented helper is checked against.
    pub helper_digest: [u8; 32],
    /// SHA-256 of the enrolled key bytes — the HMAC verification key.
    pub key_digest: [u8; 32],
}

impl From<&EnrollmentRecord> for StoredRecord {
    /// Digests the helper blob.
    fn from(record: &EnrollmentRecord) -> Self {
        Self {
            scheme_tag: record.scheme_tag,
            helper_digest: helper_digest(&record.helper),
            key_digest: record.key_digest,
        }
    }
}

/// Registry operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The device id is already enrolled.
    Duplicate {
        /// The offending id.
        device_id: u64,
    },
    /// The durable write-ahead log rejected the operation — the
    /// enrollment was **not** applied (write-ahead means no record, no
    /// state).
    Storage(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Duplicate { device_id } => {
                write!(f, "device {device_id} is already enrolled")
            }
            RegistryError::Storage(e) => write!(f, "write-ahead log rejected the operation: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One slab entry: the stored record plus the device's detector
/// runtime state, co-located so a single shard lock covers an entire
/// authenticate step. Also caches the precomputed HMAC key schedule
/// ([`HmacKey`]) of the stored credential, so serving an
/// authentication never re-derives it — tag verification is two
/// midstate clones per request instead of a full key schedule. The
/// `key_digest` stays beside it because snapshots persist it and the
/// midstates cannot be inverted to recover it.
#[derive(Debug, Clone)]
pub(crate) struct DeviceEntry {
    pub(crate) device_id: u64,
    pub(crate) record: StoredRecord,
    pub(crate) hmac_key: HmacKey,
    pub(crate) detector: DetectorState,
}

impl DeviceEntry {
    /// Builds the entry, deriving the cached HMAC midstates from the
    /// record — the only place the key schedule is computed.
    /// `restored_flag` re-latches a flag recovered from durable
    /// storage.
    pub(crate) fn new(
        device_id: u64,
        record: StoredRecord,
        restored_flag: Option<(u64, FlagReason)>,
    ) -> Self {
        let mut detector = DetectorState::default();
        if let Some((at, reason)) = restored_flag {
            detector.restore_flag(at, reason);
        }
        Self {
            device_id,
            hmac_key: HmacKey::new(&record.key_digest),
            record,
            detector,
        }
    }

    /// Feeds one query to the device's detector. The second element is
    /// `Some((at, reason))` exactly when this query latched the flag,
    /// which is what the durable layer records in the WAL. (The verdict
    /// alone cannot tell — a quarantined device answers `Flagged` on
    /// every query.)
    pub(crate) fn observe(
        &mut self,
        config: &DetectorConfig,
        now: u64,
        presented_helper: Option<&[u8]>,
        auth_ok: bool,
    ) -> (AuthVerdict, Option<(u64, FlagReason)>) {
        let before = self.detector.flagged().is_some();
        let verdict = self.detector.observe(
            config,
            self.record.scheme_tag,
            &self.record.helper_digest,
            now,
            presented_helper,
            auth_ok,
        );
        let newly = if before {
            None
        } else {
            self.detector.flagged()
        };
        (verdict, newly)
    }
}

/// One shard: the chunked entry slab plus the id → handle index.
/// Entries sit in enrollment order, handle `h` in chunk
/// `h / SLAB_CHUNK`; the index map carries only `(u64, u32)` pairs.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    chunks: Vec<Vec<DeviceEntry>>,
    index: HashMap<u64, DeviceHandle>,
}

impl Shard {
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Resolves a device id to its slab handle.
    pub(crate) fn handle_of(&self, device_id: u64) -> Option<DeviceHandle> {
        self.index.get(&device_id).copied()
    }

    /// Direct slab access by handle (the post-resolution hot path).
    pub(crate) fn entry_at(&mut self, handle: DeviceHandle) -> &mut DeviceEntry {
        let h = handle as usize;
        &mut self.chunks[h / SLAB_CHUNK][h % SLAB_CHUNK]
    }

    /// Resolve + index in one step.
    pub(crate) fn get_mut(&mut self, device_id: u64) -> Option<&mut DeviceEntry> {
        let handle = self.handle_of(device_id)?;
        Some(self.entry_at(handle))
    }

    pub(crate) fn contains(&self, device_id: u64) -> bool {
        self.index.contains_key(&device_id)
    }

    /// Appends an entry to the slab and indexes it, opening a new chunk
    /// when the last one is full. The caller has already rejected
    /// duplicates.
    fn insert(&mut self, entry: DeviceEntry) -> DeviceHandle {
        let len = self.index.len();
        let handle = DeviceHandle::try_from(len).expect("shard slab exceeds u32 handles");
        if len.is_multiple_of(SLAB_CHUNK) {
            self.chunks.push(Vec::with_capacity(SLAB_CHUNK));
        }
        self.index.insert(entry.device_id, handle);
        self.chunks
            .last_mut()
            .expect("a chunk with room")
            .push(entry);
        handle
    }

    /// Iterates the slab in enrollment order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DeviceEntry> {
        self.chunks.iter().flatten()
    }
}

/// Device-id → [`StoredRecord`] map, hashed across N independently
/// locked shards, each a chunked slab of entries indexed by compact
/// `u32` handles.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Mutex<Shard>>,
    detector_config: DetectorConfig,
    store: Option<Arc<DeviceStore>>,
}

impl ShardedRegistry {
    /// Creates an empty registry with `shards` shards (`0` is promoted
    /// to 1). Every enrolled device is judged with `detector_config`.
    pub fn new(shards: usize, detector_config: DetectorConfig) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            detector_config,
            store: None,
        }
    }

    /// Attaches the durable store: from here on every enrollment and
    /// flag transition is written ahead to the WAL.
    pub(crate) fn attach_store(&mut self, store: Arc<DeviceStore>) {
        self.store = Some(store);
    }

    /// The attached durable store, if the registry was opened durably.
    pub fn store(&self) -> Option<&Arc<DeviceStore>> {
        self.store.as_ref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The detector thresholds every enrolled device is judged with.
    pub fn detector_config(&self) -> DetectorConfig {
        self.detector_config
    }

    /// Shard index a device id hashes to.
    pub fn shard_of(&self, device_id: u64) -> usize {
        shard_for(device_id, self.shards.len())
    }

    fn lock(&self, shard_index: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[shard_index]
            .lock()
            .expect("shard lock poisoned")
    }

    /// Enrolls a device. The helper is digested and dropped before the
    /// shard lock is taken. When a durable store is attached, the
    /// stored record hits the WAL **before** the in-memory state
    /// (write-ahead): a crash either shows the device in the log or
    /// never acknowledged it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] when the id is already enrolled,
    /// [`RegistryError::Storage`] when the WAL append fails (the
    /// enrollment is not applied).
    ///
    /// # Panics
    ///
    /// Panics if the shard lock is poisoned (a previous holder
    /// panicked).
    pub fn enroll(&self, device_id: u64, record: EnrollmentRecord) -> Result<(), RegistryError> {
        self.enroll_stored(device_id, StoredRecord::from(&record))
    }

    /// [`ShardedRegistry::enroll`] from an already digested record.
    pub(crate) fn enroll_stored(
        &self,
        device_id: u64,
        record: StoredRecord,
    ) -> Result<(), RegistryError> {
        self.insert_one(DeviceEntry::new(device_id, record, None), true)
    }

    /// Inserts a device recovered from durable storage: no WAL append
    /// (the record is already in the log or snapshot), optionally
    /// re-latching a recovered flag.
    pub(crate) fn enroll_recovered(
        &self,
        device_id: u64,
        record: StoredRecord,
        flag: Option<(u64, FlagReason)>,
    ) -> Result<(), RegistryError> {
        self.insert_one(DeviceEntry::new(device_id, record, flag), false)
    }

    /// Inserts a built entry under its shard lock, write-ahead logging
    /// it first when `log` is set and a store is attached.
    fn insert_one(&self, entry: DeviceEntry, log: bool) -> Result<(), RegistryError> {
        let device_id = entry.device_id;
        let mut shard = self.lock(self.shard_of(device_id));
        if shard.contains(device_id) {
            return Err(RegistryError::Duplicate { device_id });
        }
        if let Some(store) = self.store.as_ref().filter(|_| log) {
            store
                .log_enrolls(std::iter::once((device_id, entry.record)))
                .map_err(|e| RegistryError::Storage(e.to_string()))?;
        }
        shard.insert(entry);
        Ok(())
    }

    /// Enrolls a whole batch, locking each shard **once** per batch
    /// instead of once per device — the bulk path fleet provisioning
    /// (benchmarks, test fleets, server startup) goes through. Results
    /// come back in input order; a device id appearing twice in one
    /// batch enrolls the first occurrence and reports
    /// [`RegistryError::Duplicate`] for the rest, exactly as
    /// sequential [`ShardedRegistry::enroll`] calls would. With a
    /// durable store attached, each shard's accepted records are
    /// written ahead in one WAL append batch.
    ///
    /// Every helper is digested first, in input order, and freed as it
    /// is digested (in allocation order, so the frees coalesce cheaply).
    /// Entries are then built and inserted one shard at a time, each
    /// shard's outside its lock: the call never stages more than one
    /// shard's new entries.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned (a previous holder panicked).
    pub fn enroll_batch(
        &self,
        entries: Vec<(u64, EnrollmentRecord)>,
    ) -> Vec<Result<(), RegistryError>> {
        let records: Vec<(u64, StoredRecord)> = entries
            .into_iter()
            .map(|(device_id, record)| (device_id, StoredRecord::from(&record)))
            .collect();
        let mut results: Vec<Result<(), RegistryError>> = vec![Ok(()); records.len()];
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shard_count()];
        for (i, (device_id, _)) in records.iter().enumerate() {
            buckets[self.shard_of(*device_id)].push(i);
        }
        let mut staged: Vec<(usize, DeviceEntry)> = Vec::new();
        // Ids accepted so far in the current shard's batch: the first
        // occurrence wins, later ones are duplicates. Default hasher,
        // since the ids come from outside the program.
        let mut batch_ids: HashSet<u64> = HashSet::new();
        for (shard_index, indices) in buckets.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            // Build this shard's entries (HMAC key schedules) *before*
            // taking its lock, like the sequential path — concurrent
            // serving traffic must not stall behind a bulk load.
            staged.clear();
            staged.extend(indices.iter().map(|&i| {
                let (device_id, record) = records[i];
                (i, DeviceEntry::new(device_id, record, None))
            }));
            batch_ids.clear();
            batch_ids.reserve(indices.len());
            let mut shard = self.lock(shard_index);
            staged.retain(|(i, entry)| {
                let device_id = entry.device_id;
                if shard.contains(device_id) || !batch_ids.insert(device_id) {
                    results[*i] = Err(RegistryError::Duplicate { device_id });
                    return false;
                }
                true
            });
            // Write-ahead: the whole shard batch is logged in one WAL
            // append before any of it becomes visible.
            if let Some(store) = &self.store {
                let log = store.log_enrolls(staged.iter().map(|(_, e)| (e.device_id, e.record)));
                if let Err(e) = log {
                    let msg = e.to_string();
                    for (i, _) in &staged {
                        results[*i] = Err(RegistryError::Storage(msg.clone()));
                    }
                    continue;
                }
            }
            shard.index.reserve(staged.len());
            for (_, entry) in staged.drain(..) {
                shard.insert(entry);
            }
        }
        results
    }

    /// Total enrolled devices (locks every shard once).
    pub fn len(&self) -> usize {
        self.shard_lens().into_iter().sum()
    }

    /// `true` when no device is enrolled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enrolled devices per shard, in shard order (locks each shard
    /// once) — the source for the `verifier.registry.entries` gauges.
    pub fn shard_lens(&self) -> Vec<usize> {
        (0..self.shards.len()).map(|i| self.lock(i).len()).collect()
    }

    /// Runs `f` on the device's entry under its shard lock.
    pub(crate) fn with_entry<R>(
        &self,
        device_id: u64,
        f: impl FnOnce(&mut DeviceEntry) -> R,
    ) -> Option<R> {
        self.lock(self.shard_of(device_id))
            .get_mut(device_id)
            .map(f)
    }

    /// Grants `f` direct access to one locked shard (the batched
    /// authentication path locks each shard once per batch).
    pub(crate) fn with_shard<R>(&self, shard_index: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        f(&mut self.lock(shard_index))
    }

    /// Appends a flag transition to the WAL, best-effort: serving must
    /// not fail because the disk hiccuped, so an append error is
    /// counted on the store ([`DeviceStore::io_errors`]) instead of
    /// propagated. No-op without a durable store.
    pub(crate) fn log_flag(&self, device_id: u64, at: u64, reason: FlagReason) {
        if let Some(store) = &self.store {
            store.log_flag_best_effort(device_id, at, reason);
        }
    }

    /// A device's stored record.
    pub fn record(&self, device_id: u64) -> Option<StoredRecord> {
        self.with_entry(device_id, |e| e.record)
    }

    /// The compact slab handle a device id resolves to inside its
    /// shard, if enrolled. `(shard, handle)` is stable for the life of
    /// the registry.
    pub fn handle(&self, device_id: u64) -> Option<(usize, DeviceHandle)> {
        let shard_index = self.shard_of(device_id);
        self.lock(shard_index)
            .handle_of(device_id)
            .map(|h| (shard_index, h))
    }

    /// A device's flag state from one lookup: `None` when the device is
    /// not enrolled, `Some(None)` while it is unflagged, and
    /// `Some(Some((timestamp, reason)))` once flagged.
    pub fn enrolled_flag(&self, device_id: u64) -> Option<Option<(u64, FlagReason)>> {
        self.with_entry(device_id, |e| e.detector.flagged())
    }

    /// `(timestamp, reason)` of the device's first flag, if flagged.
    pub fn flag_info(&self, device_id: u64) -> Option<(u64, FlagReason)> {
        self.enrolled_flag(device_id).flatten()
    }

    /// Device ids currently flagged, ascending.
    pub fn flagged_devices(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(
                self.lock(i)
                    .iter()
                    .filter(|e| e.detector.flagged().is_some())
                    .map(|e| e.device_id),
            );
        }
        out.sort_unstable();
        out
    }

    /// Dumps every device sorted by id — the snapshot encoder's input.
    fn dump(&self) -> Vec<SnapshotDevice> {
        let mut devices: Vec<SnapshotDevice> = Vec::new();
        for i in 0..self.shards.len() {
            devices.extend(self.lock(i).iter().map(|e| SnapshotDevice {
                device_id: e.device_id,
                record: e.record,
                flag: e.detector.flagged(),
            }));
        }
        devices.sort_unstable_by_key(|d| d.device_id);
        devices
    }

    /// Serializes the registry as a binary snapshot — compact,
    /// CRC-protected, flag-preserving, and canonical (devices sorted by
    /// id, so the same enrolled set emits the same bytes regardless of
    /// enrollment order). See [`crate::store::snapshot`] for the
    /// layout.
    pub fn snapshot_v2(&self) -> Vec<u8> {
        snapshot::encode(self.shard_count(), &self.dump())
    }

    /// Loads a binary snapshot, restoring flag state (detector rate
    /// windows and streaks start fresh — they are runtime state of one
    /// serving epoch; the quarantine latch is not).
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotV2Error`] for any malformed input; decoding
    /// never panics.
    pub fn from_snapshot_v2(
        bytes: &[u8],
        detector_config: DetectorConfig,
    ) -> Result<Self, SnapshotV2Error> {
        let decoded = snapshot::decode(bytes)?;
        let registry = Self::new(decoded.shards, detector_config);
        for device in decoded.devices {
            registry
                .enroll_recovered(device.device_id, device.record, device.flag)
                .map_err(|_| SnapshotV2Error::DuplicateDevice(device.device_id))?;
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_constructions::pairing::lisa::LISA_TAG;

    fn record(fill: u8) -> EnrollmentRecord {
        EnrollmentRecord {
            scheme_tag: LISA_TAG,
            helper: vec![LISA_TAG, 1, fill, fill],
            key_digest: [fill; 32],
        }
    }

    #[test]
    fn enroll_lookup_and_duplicate_rejection() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        assert!(r.is_empty());
        r.enroll(1, record(7)).unwrap();
        r.enroll(2, record(8)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.record(1).unwrap().key_digest, [7; 32]);
        assert_eq!(r.record(3), None);
        assert_eq!(
            r.enroll(1, record(9)),
            Err(RegistryError::Duplicate { device_id: 1 })
        );
    }

    #[test]
    fn sharding_spreads_sequential_ids() {
        let r = ShardedRegistry::new(8, DetectorConfig::default());
        let mut seen = std::collections::HashSet::new();
        for id in 0..64u64 {
            seen.insert(r.shard_of(id));
            assert!(r.shard_of(id) < 8);
            assert_eq!(r.shard_of(id), r.shard_of(id), "stable");
        }
        assert!(
            seen.len() >= 6,
            "sequential ids should hit most of 8 shards, got {}",
            seen.len()
        );
    }

    #[test]
    fn handles_are_compact_and_stable() {
        let r = ShardedRegistry::new(2, DetectorConfig::default());
        for id in 0..32u64 {
            r.enroll(id, record(id as u8)).unwrap();
        }
        assert_eq!(r.handle(999), None);
        // Handles are dense per shard: every handle is below the
        // shard's population, and re-resolution is stable.
        for id in 0..32u64 {
            let (shard, handle) = r.handle(id).expect("enrolled");
            assert_eq!(shard, r.shard_of(id));
            assert!((handle as usize) < r.len());
            assert_eq!(r.handle(id), Some((shard, handle)), "stable");
        }
    }

    #[test]
    fn enroll_batch_matches_sequential_and_reports_duplicates_in_order() {
        // Sequential reference.
        let seq = ShardedRegistry::new(4, DetectorConfig::default());
        for id in 0..16u64 {
            seq.enroll(id, record(id as u8)).unwrap();
        }
        // Batched: same 16 devices plus an intra-batch duplicate and a
        // duplicate of an already-batched id.
        let pre = ShardedRegistry::new(4, DetectorConfig::default());
        pre.enroll(100, record(1)).unwrap();
        let mut batch: Vec<(u64, EnrollmentRecord)> =
            (0..16u64).map(|id| (id, record(id as u8))).collect();
        batch.push((3, record(99))); // intra-batch duplicate
        batch.push((100, record(98))); // already enrolled
        let results = pre.enroll_batch(batch);
        assert_eq!(results.len(), 18);
        assert!(results[..16].iter().all(Result::is_ok));
        assert_eq!(
            results[16],
            Err(RegistryError::Duplicate { device_id: 3 }),
            "second occurrence in one batch loses"
        );
        assert_eq!(
            results[17],
            Err(RegistryError::Duplicate { device_id: 100 })
        );
        assert_eq!(pre.len(), 17);
        // First occurrence won: device 3 kept its original record.
        assert_eq!(pre.record(3).unwrap().key_digest, [3; 32]);
        for id in 0..16u64 {
            assert_eq!(pre.record(id), seq.record(id), "device {id}");
        }
    }

    #[test]
    fn zero_shards_promoted_to_one() {
        let r = ShardedRegistry::new(0, DetectorConfig::default());
        assert_eq!(r.shard_count(), 1);
        r.enroll(5, record(1)).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn concurrent_enrollment_across_threads() {
        let r = Arc::new(ShardedRegistry::new(4, DetectorConfig::default()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        r.enroll(t * 1000 + i, record((t * 50 + i) as u8)).unwrap();
                    }
                });
            }
        });
        assert_eq!(r.len(), 200);
    }

    #[test]
    fn slab_chunks_keep_handles_dense_across_chunk_boundaries() {
        let r = ShardedRegistry::new(1, DetectorConfig::default());
        let n = 2 * SLAB_CHUNK as u64 + 3;
        let batch: Vec<(u64, EnrollmentRecord)> = (0..n).map(|id| (id, record(id as u8))).collect();
        assert!(r.enroll_batch(batch).iter().all(Result::is_ok));
        r.enroll(n, record(1)).unwrap();
        for id in 0..=n {
            assert_eq!(r.handle(id), Some((0, id as DeviceHandle)), "device {id}");
        }
        for id in 0..n {
            assert_eq!(r.record(id).unwrap().key_digest, [id as u8; 32]);
        }
        assert_eq!(r.len(), n as usize + 1);
    }

    #[test]
    fn snapshot_roundtrip_is_lossless_and_deterministic() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        // Enroll out of order: the snapshot must sort by id.
        r.enroll(9, record(9)).unwrap();
        r.enroll(2, record(2)).unwrap();
        r.enroll(700, record(3)).unwrap();
        let snap = r.snapshot_v2();
        let ids: Vec<u64> = snapshot::decode(&snap)
            .unwrap()
            .devices
            .iter()
            .map(|d| d.device_id)
            .collect();
        assert_eq!(ids, [2, 9, 700]);

        let loaded = ShardedRegistry::from_snapshot_v2(&snap, DetectorConfig::default()).unwrap();
        assert_eq!(loaded.shard_count(), 4);
        assert_eq!(loaded.len(), 3);
        for id in [2u64, 9, 700] {
            assert_eq!(loaded.record(id), r.record(id), "device {id}");
        }
        // Emit → load → emit is byte-identical, and the enrollment
        // order does not reach the bytes.
        assert_eq!(loaded.snapshot_v2(), snap);
        let reordered = ShardedRegistry::new(4, DetectorConfig::default());
        for (id, fill) in [(700u64, 3u8), (2, 2), (9, 9)] {
            reordered.enroll(id, record(fill)).unwrap();
        }
        assert_eq!(reordered.snapshot_v2(), snap);
    }

    #[test]
    fn v2_snapshot_roundtrips_and_sniffs() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        r.enroll(3, record(3)).unwrap();
        r.enroll(11, record(11)).unwrap();
        let v2 = r.snapshot_v2();
        // The container magic, then the current layout version.
        assert_eq!(v2[..8], snapshot::MAGIC);
        assert_eq!(v2[8..10], snapshot::VERSION.to_le_bytes());
        let loaded = ShardedRegistry::from_snapshot_v2(&v2, DetectorConfig::default()).unwrap();
        assert_eq!(loaded.shard_count(), 4);
        assert_eq!(loaded.record(3), r.record(3));
        assert_eq!(loaded.record(11), r.record(11));
        assert_eq!(loaded.snapshot_v2(), v2, "emit → load → emit is stable");
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let cfg = DetectorConfig::default();
        assert!(matches!(
            ShardedRegistry::from_snapshot_v2(b"not a snapshot", cfg),
            Err(SnapshotV2Error::TooShort { .. })
        ));
        let mut bad_magic = ShardedRegistry::new(1, cfg).snapshot_v2();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            ShardedRegistry::from_snapshot_v2(&bad_magic, cfg).unwrap_err(),
            SnapshotV2Error::BadMagic
        );
        // A forged giant shard count must be a typed error, not an
        // allocation abort (CRC re-sealed so the count is what fails).
        let mut forged = ShardedRegistry::new(1, cfg).snapshot_v2();
        forged[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        let body = forged.len() - 4;
        let crc = crate::store::crc32(&forged[..body]);
        forged[body..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ShardedRegistry::from_snapshot_v2(&forged, cfg).unwrap_err(),
            SnapshotV2Error::ShardCountOutOfRange(u32::MAX)
        );
    }
}
