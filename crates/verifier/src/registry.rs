//! The sharded enrollment registry.
//!
//! One record per enrolled device: `{scheme tag, helper bytes, key
//! digest}`. Records are hashed across N shards, each behind its own
//! lock, so concurrent enrollment and authentication scale across
//! threads instead of serializing on one registry-wide mutex — the
//! ROADMAP's "heavy traffic from millions of users" shape. Each entry
//! also carries its device's [`DeviceDetector`] runtime state, so one
//! shard lock covers a whole authenticate step (lookup + detect).
//!
//! # Entry layout: slab + compact handles
//!
//! A shard is **not** a `HashMap<u64, DeviceEntry>`. Entries live in a
//! contiguous per-shard slab (`Vec<DeviceEntry>`) indexed by a compact
//! `u32` [`DeviceHandle`], and a side map resolves device id → handle.
//! The hot auth path resolves the handle once and then works on the
//! slab slot; at fleet scale (the ROADMAP's 10M-device target) this
//! keeps the id map small and dense — 12 bytes of key material per
//! device instead of a map entry dragging the whole ~300-byte record +
//! detector around — and gives batched authentication cache-friendly
//! sequential slab walks instead of pointer-chasing a big map.
//!
//! # Persistence
//!
//! Two snapshot formats and a write-ahead log:
//!
//! * `ropuf-verifier/v1` — the legacy hand-rolled JSON snapshot
//!   ([`ShardedRegistry::snapshot_json`] /
//!   [`ShardedRegistry::from_snapshot`]). Still loads; **new saves
//!   should emit v2** (see [`crate::store`]), and
//!   [`ShardedRegistry::load_snapshot_auto`] sniffs either format, so
//!   migration is "load whatever you have, save v2".
//! * `ropuf-verifier/v2` — the length-prefixed, CRC-protected binary
//!   format in [`crate::store::snapshot`], which also persists flag
//!   state (v1 silently reset detectors on load).
//! * The WAL ([`crate::store::wal`]) — when a registry is opened
//!   durably ([`crate::Verifier::open_durable`]), every enrollment and
//!   every flag transition is appended to an fsync-rotated segment log
//!   before it is acknowledged, and crash recovery replays
//!   latest-valid-snapshot + WAL tail.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

use ropuf_constructions::scheme_name_of_tag;
use ropuf_hash::HmacKey;
use ropuf_numeric::splitmix64 as mix;

use crate::detector::{DetectorConfig, DeviceDetector, FlagReason};
use crate::json::{self, JsonValue};
use crate::store::snapshot::{self, SnapshotV2Error};
use crate::store::DeviceStore;

/// Version tag embedded in every v1 (JSON) registry snapshot.
pub const SCHEMA: &str = "ropuf-verifier/v1";

/// Largest shard count a snapshot may request — a hard cap against
/// resource exhaustion via a forged `shards` field (snapshots are
/// operator-supplied input, same rationale as `wire::MAX_COUNT`).
pub const MAX_SHARDS: u64 = 1 << 16;

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

/// What the defender stores per enrolled device.
///
/// The `key_digest` is the derived verification credential (see the
/// crate-level protocol notes) — the registry never holds the PUF
/// master key itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnrollmentRecord {
    /// Wire tag of the scheme the device was enrolled under.
    pub scheme_tag: u8,
    /// The helper blob as enrolled (integrity reference).
    pub helper: Vec<u8>,
    /// SHA-256 of the enrolled key bytes — the HMAC verification key.
    pub key_digest: [u8; 32],
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

/// Snapshot load errors (v1 JSON; v2 loads report
/// [`SnapshotV2Error`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The document is not valid JSON.
    Json(String),
    /// The document parses but violates the `ropuf-verifier/v1` shape.
    Schema(&'static str),
    /// A hex field failed to decode.
    Hex(&'static str),
    /// Two devices share an id.
    Duplicate(u64),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "snapshot is not valid JSON: {e}"),
            SnapshotError::Schema(what) => write!(f, "snapshot schema violation: {what}"),
            SnapshotError::Hex(field) => write!(f, "snapshot field {field} is not valid hex"),
            SnapshotError::Duplicate(id) => write!(f, "snapshot enrolls device {id} twice"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One slab entry: the durable record plus the device's detector
/// runtime state, co-located so a single shard lock covers an entire
/// authenticate step. Also caches the precomputed HMAC key schedule
/// ([`HmacKey`]) of the stored credential, so serving an
/// authentication never re-derives it — tag verification is two
/// midstate clones per request instead of a full key schedule.
#[derive(Debug, Clone)]
pub(crate) struct DeviceEntry {
    pub(crate) device_id: u64,
    pub(crate) record: EnrollmentRecord,
    pub(crate) detector: DeviceDetector,
    pub(crate) hmac_key: HmacKey,
}

impl DeviceEntry {
    /// Builds the entry, deriving the detector and the cached HMAC
    /// midstates from the record. The only place the key schedule is
    /// computed — everything after enrollment clones midstates.
    /// `restored_flag` re-latches a flag recovered from durable
    /// storage.
    pub(crate) fn new(
        device_id: u64,
        record: EnrollmentRecord,
        config: DetectorConfig,
        restored_flag: Option<(u64, FlagReason)>,
    ) -> Self {
        let mut detector = DeviceDetector::new(config, record.scheme_tag, &record.helper);
        if let Some((at, reason)) = restored_flag {
            detector.restore_flag(at, reason);
        }
        let hmac_key = HmacKey::new(&record.key_digest);
        Self {
            device_id,
            record,
            detector,
            hmac_key,
        }
    }
}

/// One shard: the entry slab plus the id → handle index. Entries sit
/// contiguously in enrollment order; the index map carries only
/// `(u64, u32)` pairs.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    slots: Vec<DeviceEntry>,
    index: HashMap<u64, DeviceHandle>,
}

impl Shard {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Resolves a device id to its slab handle.
    pub(crate) fn handle_of(&self, device_id: u64) -> Option<DeviceHandle> {
        self.index.get(&device_id).copied()
    }

    /// Direct slab access by handle (the post-resolution hot path).
    pub(crate) fn entry_at(&mut self, handle: DeviceHandle) -> &mut DeviceEntry {
        &mut self.slots[handle as usize]
    }

    /// Resolve + index in one step.
    pub(crate) fn get_mut(&mut self, device_id: u64) -> Option<&mut DeviceEntry> {
        let handle = self.handle_of(device_id)?;
        Some(self.entry_at(handle))
    }

    pub(crate) fn contains(&self, device_id: u64) -> bool {
        self.index.contains_key(&device_id)
    }

    /// Appends an entry to the slab and indexes it. The caller has
    /// already rejected duplicates.
    fn insert(&mut self, entry: DeviceEntry) -> DeviceHandle {
        let handle =
            DeviceHandle::try_from(self.slots.len()).expect("shard slab exceeds u32 handles");
        self.index.insert(entry.device_id, handle);
        self.slots.push(entry);
        handle
    }

    /// Iterates the slab in enrollment order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DeviceEntry> {
        self.slots.iter()
    }
}

/// Device-id → [`EnrollmentRecord`] map, hashed across N independently
/// locked shards, each a slab of entries indexed by compact `u32`
/// handles.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Mutex<Shard>>,
    detector_config: DetectorConfig,
    store: Option<Arc<DeviceStore>>,
}

impl ShardedRegistry {
    /// Creates an empty registry with `shards` shards (`0` is promoted
    /// to 1). Every enrolled device gets a [`DeviceDetector`] built
    /// from `detector_config`.
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

    /// The detector thresholds new enrollments receive.
    pub fn detector_config(&self) -> DetectorConfig {
        self.detector_config
    }

    /// Shard index a device id hashes to.
    pub fn shard_of(&self, device_id: u64) -> usize {
        shard_for(device_id, self.shards.len())
    }

    /// Enrolls a device. When a durable store is attached, the
    /// enrollment record hits the WAL **before** the in-memory state
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
        let entry = DeviceEntry::new(device_id, record, self.detector_config, None);
        let mut shard = self.shards[self.shard_of(device_id)]
            .lock()
            .expect("shard lock poisoned");
        if shard.contains(device_id) {
            return Err(RegistryError::Duplicate { device_id });
        }
        if let Some(store) = &self.store {
            store
                .log_enrolls(std::iter::once((device_id, &entry.record)))
                .map_err(|e| RegistryError::Storage(e.to_string()))?;
        }
        shard.insert(entry);
        Ok(())
    }

    /// Inserts a device recovered from durable storage: no WAL append
    /// (the record is already in the log or snapshot), optionally
    /// re-latching a recovered flag.
    pub(crate) fn enroll_recovered(
        &self,
        device_id: u64,
        record: EnrollmentRecord,
        flag: Option<(u64, FlagReason)>,
    ) -> Result<(), RegistryError> {
        let entry = DeviceEntry::new(device_id, record, self.detector_config, flag);
        let mut shard = self.shards[self.shard_of(device_id)]
            .lock()
            .expect("shard lock poisoned");
        if shard.contains(device_id) {
            return Err(RegistryError::Duplicate { device_id });
        }
        shard.insert(entry);
        Ok(())
    }

    /// Enrolls a whole batch, locking each shard **once** per batch
    /// instead of once per device — the bulk path fleet provisioning
    /// (loadgen, server startup) goes through. Results come back in
    /// input order; a device id appearing twice in one batch enrolls
    /// the first occurrence and reports
    /// [`RegistryError::Duplicate`] for the rest, exactly as
    /// sequential [`ShardedRegistry::enroll`] calls would. With a
    /// durable store attached, each shard's accepted records are
    /// written ahead in one WAL append batch.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned (a previous holder panicked).
    pub fn enroll_batch(
        &self,
        entries: Vec<(u64, EnrollmentRecord)>,
    ) -> Vec<Result<(), RegistryError>> {
        let mut results: Vec<Result<(), RegistryError>> = Vec::with_capacity(entries.len());
        results.resize_with(entries.len(), || Ok(()));
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shard_count()];
        for (i, (device_id, _)) in entries.iter().enumerate() {
            buckets[self.shard_of(*device_id)].push(i);
        }
        // Build the entries (helper digest + HMAC key schedule) *before*
        // taking any shard lock, like the sequential path — concurrent
        // serving traffic must not stall behind a bulk load.
        let mut entries: Vec<Option<DeviceEntry>> = entries
            .into_iter()
            .map(|(device_id, record)| {
                Some(DeviceEntry::new(
                    device_id,
                    record,
                    self.detector_config,
                    None,
                ))
            })
            .collect();
        let mut accepted: Vec<usize> = Vec::new();
        // Ids accepted so far in the current shard's batch: the first
        // occurrence wins, later ones are duplicates. Default hasher,
        // since the ids come from outside the program.
        let mut batch_ids: HashSet<u64> = HashSet::new();
        for (shard_index, indices) in buckets.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            accepted.clear();
            batch_ids.clear();
            batch_ids.reserve(indices.len());
            let mut shard = self.shards[shard_index]
                .lock()
                .expect("shard lock poisoned");
            for &i in indices {
                let device_id = entries[i].as_ref().expect("entry pending").device_id;
                if shard.contains(device_id) || !batch_ids.insert(device_id) {
                    results[i] = Err(RegistryError::Duplicate { device_id });
                    continue;
                }
                accepted.push(i);
            }
            // Write-ahead: the whole shard batch is logged in one WAL
            // append before any of it becomes visible.
            if let Some(store) = &self.store {
                let log = store.log_enrolls(accepted.iter().map(|&i| {
                    let e = entries[i].as_ref().expect("entry pending");
                    (e.device_id, &e.record)
                }));
                if let Err(e) = log {
                    let msg = e.to_string();
                    for &i in &accepted {
                        results[i] = Err(RegistryError::Storage(msg.clone()));
                    }
                    continue;
                }
            }
            for &i in &accepted {
                shard.insert(entries[i].take().expect("each entry consumed once"));
            }
        }
        results
    }

    /// Total enrolled devices (locks every shard once).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// `true` when no device is enrolled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enrolled devices per shard, in shard order (locks each shard
    /// once) — the source for the `verifier.registry.entries` gauges.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .collect()
    }

    /// Runs `f` on the device's entry under its shard lock.
    pub(crate) fn with_entry<R>(
        &self,
        device_id: u64,
        f: impl FnOnce(&mut DeviceEntry) -> R,
    ) -> Option<R> {
        let mut shard = self.shards[self.shard_of(device_id)]
            .lock()
            .expect("shard lock poisoned");
        shard.get_mut(device_id).map(f)
    }

    /// Grants `f` direct access to one locked shard (the batched
    /// authentication path locks each shard once per batch).
    pub(crate) fn with_shard<R>(&self, shard_index: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        let mut shard = self.shards[shard_index]
            .lock()
            .expect("shard lock poisoned");
        f(&mut shard)
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

    /// Copy of a device's enrollment record.
    pub fn record(&self, device_id: u64) -> Option<EnrollmentRecord> {
        self.with_entry(device_id, |e| e.record.clone())
    }

    /// The compact slab handle a device id resolves to inside its
    /// shard, if enrolled. `(shard, handle)` is stable for the life of
    /// the registry.
    pub fn handle(&self, device_id: u64) -> Option<(usize, DeviceHandle)> {
        let shard_index = self.shard_of(device_id);
        let shard = self.shards[shard_index]
            .lock()
            .expect("shard lock poisoned");
        shard.handle_of(device_id).map(|h| (shard_index, h))
    }

    /// `(timestamp, reason)` of the device's first flag, if flagged.
    pub fn flag_info(&self, device_id: u64) -> Option<(u64, FlagReason)> {
        self.with_entry(device_id, |e| e.detector.flagged())
            .flatten()
    }

    /// Device ids currently flagged, ascending.
    pub fn flagged_devices(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock poisoned");
            out.extend(
                shard
                    .iter()
                    .filter(|e| e.detector.flagged().is_some())
                    .map(|e| e.device_id),
            );
        }
        out.sort_unstable();
        out
    }

    /// Dumps every device sorted by id: `(id, record, flag)` — the
    /// shared source for both snapshot encoders.
    pub(crate) fn dump(&self) -> Vec<(u64, EnrollmentRecord, Option<(u64, FlagReason)>)> {
        let mut devices: Vec<(u64, EnrollmentRecord, Option<(u64, FlagReason)>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock poisoned");
            devices.extend(
                shard
                    .iter()
                    .map(|e| (e.device_id, e.record.clone(), e.detector.flagged())),
            );
        }
        devices.sort_unstable_by_key(|(id, _, _)| *id);
        devices
    }

    /// Serializes the registry under the legacy `ropuf-verifier/v1`
    /// JSON schema (fixed key order, devices sorted by id —
    /// byte-identical for the same enrolled set regardless of
    /// enrollment order or shard count, apart from the recorded
    /// `shards` field itself). Flag state is **not** representable in
    /// v1; new saves should use [`ShardedRegistry::snapshot_v2`].
    pub fn snapshot_json(&self) -> String {
        let devices = self.dump();
        let mut out = String::with_capacity(128 + 160 * devices.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"shards\": {},\n", self.shards.len()));
        out.push_str("  \"devices\": [\n");
        for (i, (id, record, _)) in devices.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"device_id\": {id}, \"scheme\": \"{}\", \"scheme_tag\": {}, \"helper\": \"{}\", \"key_digest\": \"{}\"}}",
                scheme_name_of_tag(record.scheme_tag).unwrap_or("unknown"),
                record.scheme_tag,
                json::to_hex(&record.helper),
                json::to_hex(&record.key_digest),
            ));
            if i + 1 < devices.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes the registry as a `ropuf-verifier/v2` binary
    /// snapshot — the save format: compact, CRC-protected, and
    /// flag-preserving. See [`crate::store::snapshot`] for the layout.
    pub fn snapshot_v2(&self) -> Vec<u8> {
        snapshot::encode(self.shard_count(), &self.dump())
    }

    /// Loads a `ropuf-verifier/v2` binary snapshot, restoring flag
    /// state (detector rate windows and streaks start fresh — they are
    /// runtime state of one serving epoch; the quarantine latch is
    /// not).
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

    /// Loads a snapshot in either format, sniffing the magic bytes:
    /// the explicit migration path from v1 deployments ("load whatever
    /// is on disk, save v2").
    ///
    /// # Errors
    ///
    /// The v2 decoder's error when the magic matches v2, otherwise the
    /// v1 JSON loader's error boxed into [`SnapshotError`].
    pub fn load_snapshot_auto(
        bytes: &[u8],
        detector_config: DetectorConfig,
    ) -> Result<Self, SnapshotError> {
        if snapshot::looks_like_v2(bytes) {
            return Self::from_snapshot_v2(bytes, detector_config)
                .map_err(|e| SnapshotError::Json(format!("v2 snapshot: {e}")));
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotError::Json("snapshot is neither v2 binary nor UTF-8".into()))?;
        Self::from_snapshot(text, detector_config)
    }

    /// Loads a legacy `ropuf-verifier/v1` JSON snapshot. The shard
    /// count comes from the snapshot; detectors start fresh (v1 cannot
    /// carry flag state — migrate to v2 to keep quarantines across
    /// restarts).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] for malformed JSON, a schema
    /// violation, bad hex, or duplicate device ids.
    pub fn from_snapshot(
        snapshot: &str,
        detector_config: DetectorConfig,
    ) -> Result<Self, SnapshotError> {
        let doc = json::parse(snapshot).map_err(|e| SnapshotError::Json(e.to_string()))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s == SCHEMA => {}
            _ => return Err(SnapshotError::Schema("missing or unsupported schema tag")),
        }
        let shards = doc
            .get("shards")
            .and_then(JsonValue::as_u64)
            .filter(|&n| n <= MAX_SHARDS)
            .ok_or(SnapshotError::Schema("missing or implausible shard count"))?
            as usize;
        let devices = doc
            .get("devices")
            .and_then(JsonValue::as_array)
            .ok_or(SnapshotError::Schema("missing devices array"))?;

        let registry = Self::new(shards, detector_config);
        for device in devices {
            let device_id = device
                .get("device_id")
                .and_then(JsonValue::as_u64)
                .ok_or(SnapshotError::Schema("device without device_id"))?;
            let scheme_tag = device
                .get("scheme_tag")
                .and_then(JsonValue::as_u64)
                .filter(|&t| t <= u8::MAX as u64)
                .ok_or(SnapshotError::Schema("device without scheme_tag"))?
                as u8;
            let helper_hex = device
                .get("helper")
                .and_then(JsonValue::as_str)
                .ok_or(SnapshotError::Schema("device without helper"))?;
            let helper = json::from_hex(helper_hex).map_err(|_| SnapshotError::Hex("helper"))?;
            let digest_hex = device
                .get("key_digest")
                .and_then(JsonValue::as_str)
                .ok_or(SnapshotError::Schema("device without key_digest"))?;
            let digest_bytes =
                json::from_hex(digest_hex).map_err(|_| SnapshotError::Hex("key_digest"))?;
            let key_digest: [u8; 32] = digest_bytes
                .try_into()
                .map_err(|_| SnapshotError::Schema("key_digest is not 32 bytes"))?;
            registry
                .enroll_recovered(
                    device_id,
                    EnrollmentRecord {
                        scheme_tag,
                        helper,
                        key_digest,
                    },
                    None,
                )
                .map_err(|_| SnapshotError::Duplicate(device_id))?;
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
    fn snapshot_roundtrip_is_lossless_and_deterministic() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        // Enroll out of order: the snapshot must sort by id.
        r.enroll(9, record(9)).unwrap();
        r.enroll(2, record(2)).unwrap();
        r.enroll(700, record(3)).unwrap();
        let snap = r.snapshot_json();
        assert!(snap.contains("\"schema\": \"ropuf-verifier/v1\""));
        assert!(snap.find("\"device_id\": 2").unwrap() < snap.find("\"device_id\": 9").unwrap());

        let loaded = ShardedRegistry::from_snapshot(&snap, DetectorConfig::default()).unwrap();
        assert_eq!(loaded.shard_count(), 4);
        assert_eq!(loaded.len(), 3);
        for id in [2u64, 9, 700] {
            assert_eq!(loaded.record(id), r.record(id), "device {id}");
        }
        // Emit → load → emit is byte-identical.
        assert_eq!(loaded.snapshot_json(), snap);
    }

    #[test]
    fn v2_snapshot_roundtrips_and_sniffs() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        r.enroll(3, record(3)).unwrap();
        r.enroll(11, record(11)).unwrap();
        let v2 = r.snapshot_v2();
        let loaded = ShardedRegistry::from_snapshot_v2(&v2, DetectorConfig::default()).unwrap();
        assert_eq!(loaded.shard_count(), 4);
        assert_eq!(loaded.record(3), r.record(3));
        assert_eq!(loaded.record(11), r.record(11));
        assert_eq!(loaded.snapshot_v2(), v2, "emit → load → emit is stable");
        // The auto loader takes both formats.
        let via_auto = ShardedRegistry::load_snapshot_auto(&v2, DetectorConfig::default()).unwrap();
        assert_eq!(via_auto.record(3), r.record(3));
        let via_auto_v1 = ShardedRegistry::load_snapshot_auto(
            r.snapshot_json().as_bytes(),
            DetectorConfig::default(),
        )
        .unwrap();
        assert_eq!(via_auto_v1.record(11), r.record(11));
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let cfg = DetectorConfig::default();
        assert!(matches!(
            ShardedRegistry::from_snapshot("not json", cfg),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            ShardedRegistry::from_snapshot("{\"schema\": \"other/v9\"}", cfg),
            Err(SnapshotError::Schema(_))
        ));
        // A forged giant shard count must be a typed error, not an
        // allocation abort.
        let forged_shards =
            format!("{{\"schema\": \"{SCHEMA}\", \"shards\": 99999999999999, \"devices\": []}}");
        assert!(matches!(
            ShardedRegistry::from_snapshot(&forged_shards, cfg),
            Err(SnapshotError::Schema(_))
        ));
        let bad_hex = format!(
            "{{\"schema\": \"{SCHEMA}\", \"shards\": 1, \"devices\": [{{\"device_id\": 0, \"scheme\": \"lisa\", \"scheme_tag\": 76, \"helper\": \"zz\", \"key_digest\": \"00\"}}]}}"
        );
        assert!(matches!(
            ShardedRegistry::from_snapshot(&bad_hex, cfg),
            Err(SnapshotError::Hex("helper"))
        ));
        let dup = format!(
            "{{\"schema\": \"{SCHEMA}\", \"shards\": 1, \"devices\": [\
             {{\"device_id\": 3, \"scheme\": \"lisa\", \"scheme_tag\": 76, \"helper\": \"4c01\", \"key_digest\": \"{}\"}},\
             {{\"device_id\": 3, \"scheme\": \"lisa\", \"scheme_tag\": 76, \"helper\": \"4c01\", \"key_digest\": \"{}\"}}]}}",
            "00".repeat(32),
            "00".repeat(32)
        );
        assert!(matches!(
            ShardedRegistry::from_snapshot(&dup, cfg),
            Err(SnapshotError::Duplicate(3))
        ));
    }
}
