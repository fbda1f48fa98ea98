//! The authentication service: verdicts for genuine and hostile
//! traffic, single and batched.
//!
//! [`Verifier`] glues the [`ShardedRegistry`] to per-device
//! [`DeviceDetector`](crate::DeviceDetector)s: one
//! [`Verifier::authenticate_query`] call takes the device's shard lock
//! exactly once, does record lookup, HMAC verification against the
//! enrolled key digest, and online attack detection, and returns the
//! combined [`AuthVerdict`].
//! [`Verifier::authenticate_batch_with`] amortizes shard locking across
//! a whole request batch. These two are the only tag-checking entry
//! points.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ropuf_constructions::{helper_digest, Device, DeviceResponse};
use ropuf_hash::{hmac_sha256, sha256};
use ropuf_numeric::BitVec;
use ropuf_sim::Environment;
use ropuf_telemetry::{Counter, Registry as TelemetryRegistry, Snapshot as TelemetrySnapshot};

use crate::detector::{digest_presented, AuthVerdict, DetectorConfig, FlagReason};
use crate::prefetch;
use crate::registry::{
    DeviceEntry, EnrollmentRecord, RegistryError, ShardedRegistry, StoredRecord,
};
use crate::store::faults::StoreFaults;
use crate::store::snapshot::SnapshotV2Error;
use crate::store::{self, DeviceStore, RecoveryReport, StoreError, StoreOptions};

/// Derives the verification credential stored in the registry: the
/// SHA-256 digest of the enrolled key bytes. See the crate-level
/// protocol notes — the registry holds this digest, never the key.
pub fn auth_key(key: &BitVec) -> [u8; 32] {
    sha256(&key.to_bytes())
}

/// The tag a client with key digest `key_digest` answers `nonce` with.
pub fn client_tag(key_digest: &[u8; 32], nonce: &[u8]) -> [u8; 32] {
    hmac_sha256(key_digest, nonce)
}

/// Client-side authentication step for a real (simulated) device:
/// reconstruct the key from current helper NVM at the given operating
/// point, derive the key digest, and answer the verifier's nonce.
/// Reconstruction failure is reported as [`DeviceResponse::Failure`],
/// exactly like any other key-dependent application behavior.
pub fn device_auth_response(device: &mut Device, nonce: &[u8], env: Environment) -> DeviceResponse {
    match device.reconstruct_key(env) {
        Ok(key) => DeviceResponse::Tag(client_tag(&auth_key(&key), nonce)),
        Err(_) => DeviceResponse::Failure,
    }
}

/// One device's inputs to [`Verifier::enroll_batch`]: the same data
/// [`Verifier::enroll`] takes, with the key already reduced to its
/// digest so bulk callers (wire enrollment, snapshot imports) never
/// need the raw key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEnrollment {
    /// Identity to enroll under.
    pub device_id: u64,
    /// Wire tag of the scheme the device was enrolled with.
    pub scheme_tag: u8,
    /// The helper blob as enrolled (digested into the integrity
    /// reference).
    pub helper: Vec<u8>,
    /// The derived verification credential ([`auth_key`]).
    pub key_digest: [u8; 32],
}

/// One authentication request as the verifier sees it.
#[derive(Debug, Clone)]
pub struct AuthRequest {
    /// Claimed device identity.
    pub device_id: u64,
    /// Logical timestamp (non-decreasing per device) driving the
    /// rate-budget window.
    pub now: u64,
    /// The challenge nonce this request answers.
    pub nonce: Vec<u8>,
    /// The device's response: a tag, or an observable reconstruction
    /// failure.
    pub response: DeviceResponse,
    /// The device's current helper NVM contents when the gateway can
    /// read them (`None` skips the integrity signal for this request).
    pub presented_helper: Option<Vec<u8>>,
}

impl AuthRequest {
    /// A borrowed view of this request (no byte copies).
    pub fn as_query(&self) -> AuthQuery<'_> {
        AuthQuery {
            device_id: self.device_id,
            now: self.now,
            nonce: &self.nonce,
            response: self.response,
            presented_helper: self.presented_helper.as_deref(),
        }
    }
}

/// Borrowed twin of [`AuthRequest`]: the shape the wire handler serves
/// directly from a decoded frame, so the serving hot path never copies
/// nonce or helper bytes.
#[derive(Debug, Clone, Copy)]
pub struct AuthQuery<'a> {
    /// Claimed device identity.
    pub device_id: u64,
    /// Logical timestamp (non-decreasing per device).
    pub now: u64,
    /// The challenge nonce this request answers.
    pub nonce: &'a [u8],
    /// The device's response.
    pub response: DeviceResponse,
    /// The device's current helper NVM contents, when readable.
    pub presented_helper: Option<&'a [u8]>,
}

/// Reusable scratch for [`Verifier::authenticate_batch_with`]: the
/// per-shard index buckets, kept allocated across batches so
/// steady-state batched serving stops churning the allocator.
#[derive(Debug, Default)]
pub struct BatchScratch {
    buckets: Vec<Vec<usize>>,
    latched: Vec<(u64, u64, FlagReason)>,
}

impl BatchScratch {
    /// An empty scratch; buckets grow to the verifier's shard count on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pre-resolved handles onto the verifier's hot-path counters: verdict
/// accounting must cost a striped `Relaxed` add, not a registry lookup.
#[derive(Debug)]
struct VerifierMetrics {
    accept: Counter,
    reject: Counter,
    /// Indexed by [`flag_reason_index`].
    flagged: [Counter; 4],
}

/// All four flag reasons, in [`flag_reason_index`] order.
const FLAG_REASONS: [FlagReason; 4] = [
    FlagReason::HelperMismatch,
    FlagReason::MalformedHelper,
    FlagReason::RateBudget,
    FlagReason::FailureStreak,
];

fn flag_reason_index(reason: FlagReason) -> usize {
    match reason {
        FlagReason::HelperMismatch => 0,
        FlagReason::MalformedHelper => 1,
        FlagReason::RateBudget => 2,
        FlagReason::FailureStreak => 3,
    }
}

impl VerifierMetrics {
    fn new(telemetry: &TelemetryRegistry) -> Self {
        Self {
            accept: telemetry.counter("verifier.auth.accept", &[]),
            reject: telemetry.counter("verifier.auth.reject", &[]),
            flagged: FLAG_REASONS.map(|reason| {
                telemetry.counter("verifier.auth.flagged", &[("reason", reason.label())])
            }),
        }
    }

    #[inline]
    fn note(&self, verdict: AuthVerdict) {
        match verdict {
            AuthVerdict::Accept => self.accept.inc(),
            AuthVerdict::Reject => self.reject.inc(),
            AuthVerdict::Flagged(reason) => self.flagged[flag_reason_index(reason)].inc(),
        }
    }
}

/// The defender-side verifier service.
///
/// Thread-safe by construction: all mutable state lives behind the
/// registry's per-shard locks, so `&Verifier` can be shared across a
/// serving thread pool.
#[derive(Debug)]
pub struct Verifier {
    registry: ShardedRegistry,
    telemetry: TelemetryRegistry,
    metrics: VerifierMetrics,
}

impl Verifier {
    /// Wraps a registry, wiring up this verifier's own telemetry
    /// namespace (`verifier.*`). Every constructor funnels through
    /// here, so the metrics exist — at zero — from the first request.
    fn assemble(registry: ShardedRegistry) -> Self {
        let telemetry = TelemetryRegistry::new();
        let metrics = VerifierMetrics::new(&telemetry);
        Self {
            registry,
            telemetry,
            metrics,
        }
    }

    /// Creates a verifier with an empty `shards`-shard registry; every
    /// enrolled device gets a detector built from `detector_config`.
    pub fn new(shards: usize, detector_config: DetectorConfig) -> Self {
        Self::assemble(ShardedRegistry::new(shards, detector_config))
    }

    /// Restores a verifier from a binary registry snapshot, including
    /// persisted quarantine flags.
    ///
    /// # Errors
    ///
    /// Propagates the typed [`SnapshotV2Error`] from the decoder.
    pub fn from_snapshot_v2(
        bytes: &[u8],
        detector_config: DetectorConfig,
    ) -> Result<Self, SnapshotV2Error> {
        Ok(Self::assemble(ShardedRegistry::from_snapshot_v2(
            bytes,
            detector_config,
        )?))
    }

    /// Opens a durable verifier backed by a store directory: recovers
    /// the registry from the newest valid snapshot + WAL tail (see
    /// [`store::recover`]), then attaches a fresh write-ahead segment
    /// so every subsequent enrollment and flag transition is logged
    /// before it is acknowledged. Returns the verifier together with
    /// the [`RecoveryReport`] describing what recovery found.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory or a WAL segment cannot be
    /// read, or the new active segment cannot be created. Malformed
    /// *content* is never an error — it bounds the recovered prefix.
    pub fn open_durable(
        dir: &Path,
        shards: usize,
        detector_config: DetectorConfig,
        options: StoreOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_durable_faulted(dir, shards, detector_config, options, None)
    }

    /// [`Verifier::open_durable`] with a deterministic fault schedule
    /// armed on the store before it is shared — the chaos-test entry
    /// point: the scheduled WAL/snapshot operations fail exactly where
    /// the schedule says, exercising the read-only degraded latch.
    ///
    /// # Errors
    ///
    /// Same as [`Verifier::open_durable`].
    pub fn open_durable_faulted(
        dir: &Path,
        shards: usize,
        detector_config: DetectorConfig,
        options: StoreOptions,
        faults: Option<StoreFaults>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let (mut registry, report) = store::recover(dir, shards, detector_config)?;
        let verifier = {
            let telemetry = TelemetryRegistry::new();
            let mut store = DeviceStore::open(dir, options)?;
            if let Some(faults) = faults {
                store.inject_faults(faults);
            }
            store.attach_telemetry(&telemetry);
            registry.attach_store(Arc::new(store));
            let metrics = VerifierMetrics::new(&telemetry);
            Self {
                registry,
                telemetry,
                metrics,
            }
        };
        // What recovery found, as gauges: scraping a freshly restarted
        // server shows how much state the WAL replay reconstructed.
        let t = &verifier.telemetry;
        t.gauge("verifier.recovery.enrolls_applied", &[])
            .set(report.enrolls_applied);
        t.gauge("verifier.recovery.flags_applied", &[])
            .set(report.flags_applied);
        t.gauge("verifier.recovery.segments_replayed", &[])
            .set(report.segments_replayed as u64);
        t.gauge("verifier.recovery.snapshots_skipped", &[])
            .set(report.snapshots_skipped as u64);
        t.gauge("verifier.recovery.duplicate_enrolls", &[])
            .set(report.duplicate_enrolls);
        t.gauge("verifier.recovery.unknown_flag_devices", &[])
            .set(report.unknown_flag_devices);
        t.gauge("verifier.recovery.torn_tail", &[])
            .set(u64::from(report.torn_tail.is_some()));
        Ok((verifier, report))
    }

    /// The registry as a binary snapshot (compact, CRC-protected,
    /// flag-preserving).
    pub fn snapshot_v2(&self) -> Vec<u8> {
        self.registry.snapshot_v2()
    }

    /// Compacts the durable store: closes the active WAL segment,
    /// writes the full registry as that segment's snapshot, and prunes
    /// every file the snapshot supersedes. Serving continues
    /// throughout — only the rotation itself holds the append lock.
    /// Returns the new snapshot's sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotDurable`] on an in-memory verifier;
    /// [`StoreError::Io`] if rotation or the snapshot write fails.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let started = Instant::now();
        let store = self.registry.store().ok_or(StoreError::NotDurable)?;
        let closed = store.rotate()?;
        let bytes = self.registry.snapshot_v2();
        store.install_snapshot(closed, &bytes)?;
        // Cold path: the registry lookup (idempotent registration) is
        // fine here, unlike the per-request counters.
        self.telemetry
            .histogram("verifier.compaction.duration_ns", &[])
            .record_duration(started.elapsed());
        Ok(closed)
    }

    /// fsyncs the durable store's active segment — everything
    /// acknowledged so far survives a crash after this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotDurable`] on an in-memory verifier;
    /// [`StoreError::Io`] if the fsync fails.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.registry.store().ok_or(StoreError::NotDurable)?.sync()
    }

    /// The underlying registry (snapshots, flag inspection, stats).
    pub fn registry(&self) -> &ShardedRegistry {
        &self.registry
    }

    /// This verifier's telemetry registry (`verifier.*` namespace) —
    /// server layers merge it into their own at scrape time.
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.telemetry
    }

    /// A telemetry snapshot with the sampled gauges refreshed: per-shard
    /// entry counts are read from the registry at the moment of the
    /// scrape (nothing on the enrollment path maintains them).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        for (shard, len) in self.registry.shard_lens().into_iter().enumerate() {
            self.telemetry
                .gauge(
                    "verifier.registry.entries",
                    &[("shard", &shard.to_string())],
                )
                .set(len as u64);
        }
        self.telemetry.snapshot()
    }

    /// Enrolls a device from its enrollment outputs: stores the scheme
    /// tag, the helper blob's digest as integrity reference, and the
    /// derived key digest — not the helper, not the key.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] when the id is already enrolled.
    pub fn enroll(
        &self,
        device_id: u64,
        scheme_tag: u8,
        helper: &[u8],
        key: &BitVec,
    ) -> Result<(), RegistryError> {
        self.registry.enroll_stored(
            device_id,
            StoredRecord {
                scheme_tag,
                helper_digest: helper_digest(helper),
                key_digest: auth_key(key),
            },
        )
    }

    /// Enrolls a whole fleet in one shard-partitioned call: entries
    /// are bucketed by shard and each shard lock is taken **once** per
    /// batch instead of once per device. Results come back in input
    /// order; duplicates (against the registry or within the batch)
    /// report [`RegistryError::Duplicate`] individually, exactly as a
    /// per-device [`Verifier::enroll`] loop would.
    pub fn enroll_batch(&self, batch: Vec<BatchEnrollment>) -> Vec<Result<(), RegistryError>> {
        self.registry.enroll_batch(
            batch
                .into_iter()
                .map(|e| {
                    (
                        e.device_id,
                        EnrollmentRecord {
                            scheme_tag: e.scheme_tag,
                            helper: e.helper,
                            key_digest: e.key_digest,
                        },
                    )
                })
                .collect(),
        )
    }

    /// Serves one authentication request from a borrowed view — the
    /// zero-copy entry the wire handler uses: shard lock once, cached
    /// HMAC-midstate tag verification, detector update.
    ///
    /// An unknown device id is a plain [`AuthVerdict::Reject`]: the
    /// registry cannot attribute detector state to an identity it never
    /// enrolled.
    pub fn authenticate_query(&self, query: AuthQuery<'_>) -> AuthVerdict {
        let config = self.registry.detector_config();
        let mut latched: Option<(u64, FlagReason)> = None;
        let verdict = self
            .registry
            .with_entry(query.device_id, |entry| {
                let (verdict, newly) = Self::judge(&config, entry, &query);
                latched = newly;
                verdict
            })
            .unwrap_or(AuthVerdict::Reject);
        // WAL append outside the shard lock: a flag latch is rare, and
        // serving other devices in the shard must not stall on disk.
        if let Some((at, reason)) = latched {
            self.registry.log_flag(query.device_id, at, reason);
        }
        self.metrics.note(verdict);
        verdict
    }

    /// Serves a batch of borrowed queries, locking each shard **once**
    /// per batch instead of once per query. Verdicts come back in
    /// query order; queries for the same device are judged in their
    /// slice order, so batched and sequential serving agree. The
    /// per-shard buckets and the verdict vector are caller-owned and
    /// reused across batches, so a steady-state batch loop allocates
    /// nothing. `verdicts` is cleared and refilled.
    pub fn authenticate_batch_with(
        &self,
        queries: &[AuthQuery<'_>],
        scratch: &mut BatchScratch,
        verdicts: &mut Vec<AuthVerdict>,
    ) {
        verdicts.clear();
        verdicts.resize(queries.len(), AuthVerdict::Reject);
        scratch
            .buckets
            .resize(self.registry.shard_count(), Vec::new());
        for bucket in &mut scratch.buckets {
            bucket.clear();
        }
        for (i, query) in queries.iter().enumerate() {
            scratch.buckets[self.registry.shard_of(query.device_id)].push(i);
        }
        scratch.latched.clear();
        let config = self.registry.detector_config();
        for (shard_index, indices) in scratch.buckets.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let latched = &mut scratch.latched;
            self.registry.with_shard(shard_index, |shard| {
                for &i in indices {
                    let query = &queries[i];
                    if let Some(entry) = shard.get_mut(query.device_id) {
                        let (verdict, newly) = Self::judge(&config, entry, query);
                        verdicts[i] = verdict;
                        if let Some((at, reason)) = newly {
                            latched.push((query.device_id, at, reason));
                        }
                    }
                }
            });
        }
        // Flag latches hit the WAL after every shard lock is released.
        for &(device_id, at, reason) in &scratch.latched {
            self.registry.log_flag(device_id, at, reason);
        }
        for &verdict in verdicts.iter() {
            self.metrics.note(verdict);
        }
    }

    /// Monitoring entry for closed-loop scenarios where an application
    /// gateway already established whether the response verified (e.g.
    /// the campaign engine observing an attack's oracle traffic):
    /// bypasses tag recomputation and feeds the detector directly.
    pub fn observe_raw(
        &self,
        device_id: u64,
        now: u64,
        presented_helper: Option<&[u8]>,
        auth_ok: bool,
    ) -> AuthVerdict {
        let config = self.registry.detector_config();
        let mut latched: Option<(u64, FlagReason)> = None;
        let verdict = self
            .registry
            .with_entry(device_id, |entry| {
                let presented = digest_presented(&config, presented_helper);
                let (verdict, newly) = entry.observe(&config, now, presented, auth_ok);
                latched = newly;
                verdict
            })
            .unwrap_or(AuthVerdict::Reject);
        if let Some((at, reason)) = latched {
            self.registry.log_flag(device_id, at, reason);
        }
        self.metrics.note(verdict);
        verdict
    }

    /// `(timestamp, reason)` of a device's first flag, if flagged.
    pub fn flag_info(&self, device_id: u64) -> Option<(u64, FlagReason)> {
        self.registry.flag_info(device_id)
    }

    /// Tag verification + detection on an entry whose shard lock the
    /// caller holds. Tag verification runs from the entry's cached HMAC
    /// midstates — no key-schedule derivation, no allocation. The
    /// second element is the flag this query latched, if any (see
    /// [`DeviceEntry::observe`]).
    ///
    /// Over a large fleet the entry and its rate window are usually not
    /// in cache, and waiting for them costs more than the hashing. So
    /// the step asks for the entry's lines first, digests the presented
    /// helper (which reads no registry state) while they arrive, then
    /// asks for the rate window's lines, reachable only through the
    /// entry, and verifies the tag while those arrive.
    fn judge(
        config: &DetectorConfig,
        entry: &mut DeviceEntry,
        query: &AuthQuery<'_>,
    ) -> (AuthVerdict, Option<(u64, FlagReason)>) {
        prefetch::lines(entry);
        let presented = digest_presented(config, query.presented_helper);
        entry.detector.prefetch_window();
        let auth_ok = match &query.response {
            DeviceResponse::Tag(tag) => entry.hmac_key.verify(query.nonce, tag),
            DeviceResponse::Failure => false,
        };
        entry.observe(config, query.now, presented, auth_ok)
    }
}

/// Convenience: the default detector thresholds.
impl Default for Verifier {
    /// An 8-shard verifier with [`DetectorConfig::default`] thresholds.
    fn default() -> Self {
        Self::new(8, DetectorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::FlagReason;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
    use ropuf_sim::{ArrayDims, RoArrayBuilder};

    fn provisioned(seed: u64) -> Device {
        let mut rng = StdRng::seed_from_u64(seed);
        let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
        Device::provision(
            array,
            Box::new(LisaScheme::new(LisaConfig::default())),
            seed,
        )
        .unwrap()
    }

    /// A request with genuine traffic shape: correct tag, enrolled
    /// helper presented.
    fn genuine_request(device: &mut Device, id: u64, now: u64, nonce: &[u8]) -> AuthRequest {
        AuthRequest {
            device_id: id,
            now,
            nonce: nonce.to_vec(),
            response: device_auth_response(device, nonce, Environment::nominal()),
            presented_helper: Some(device.helper().to_vec()),
        }
    }

    /// Serves `requests` as one [`Verifier::authenticate_batch_with`]
    /// batch.
    fn serve_batch(v: &Verifier, requests: &[AuthRequest]) -> Vec<AuthVerdict> {
        let queries: Vec<AuthQuery<'_>> = requests.iter().map(AuthRequest::as_query).collect();
        let mut verdicts = Vec::new();
        v.authenticate_batch_with(&queries, &mut BatchScratch::new(), &mut verdicts);
        verdicts
    }

    #[test]
    fn genuine_device_authenticates() {
        let mut device = provisioned(1);
        let v = Verifier::new(4, DetectorConfig::default());
        v.enroll(10, LISA_TAG, device.helper(), device.enrolled_key())
            .unwrap();
        let req = genuine_request(&mut device, 10, 0, b"n-0");
        assert!(v.authenticate_query(req.as_query()).is_accept());
        assert_eq!(v.flag_info(10), None);
    }

    #[test]
    fn unknown_device_rejects() {
        let v = Verifier::new(4, DetectorConfig::default());
        let req = AuthRequest {
            device_id: 99,
            now: 0,
            nonce: b"n".to_vec(),
            response: DeviceResponse::Failure,
            presented_helper: None,
        };
        assert_eq!(v.authenticate_query(req.as_query()), AuthVerdict::Reject);
    }

    #[test]
    fn wrong_tag_rejects_and_streak_flags() {
        let device = provisioned(2);
        let cfg = DetectorConfig {
            failure_streak: 3,
            ..DetectorConfig::default()
        };
        let v = Verifier::new(2, cfg);
        v.enroll(5, LISA_TAG, device.helper(), device.enrolled_key())
            .unwrap();
        let forged = AuthRequest {
            device_id: 5,
            now: 0,
            nonce: b"n".to_vec(),
            response: DeviceResponse::Tag([0xAB; 32]),
            presented_helper: Some(device.helper().to_vec()),
        };
        // Space the attempts out so the rate budget stays quiet and the
        // streak signal is what fires.
        for i in 0..2u64 {
            let req = AuthRequest {
                now: i * 100,
                ..forged.clone()
            };
            assert_eq!(v.authenticate_query(req.as_query()), AuthVerdict::Reject);
        }
        let req = AuthRequest { now: 200, ..forged };
        assert_eq!(
            v.authenticate_query(req.as_query()),
            AuthVerdict::Flagged(FlagReason::FailureStreak)
        );
        assert!(v.flag_info(5).is_some());
    }

    #[test]
    fn manipulated_helper_flags_on_first_sight() {
        let mut device = provisioned(3);
        let v = Verifier::default();
        v.enroll(1, LISA_TAG, device.helper(), device.enrolled_key())
            .unwrap();
        // The attacker wrote a (valid-format) manipulated blob; the
        // device still answers, the gateway reads the NVM.
        let mut manipulated = device.helper().to_vec();
        let last = manipulated.len() - 1;
        manipulated[last] ^= 0x01;
        device.write_helper(manipulated.clone());
        let req = AuthRequest {
            device_id: 1,
            now: 0,
            nonce: b"n".to_vec(),
            response: device_auth_response(&mut device, b"n", Environment::nominal()),
            presented_helper: Some(manipulated),
        };
        assert!(v.authenticate_query(req.as_query()).is_flagged());
        assert_eq!(v.flag_info(1).map(|(t, _)| t), Some(0));
    }

    #[test]
    fn batched_equals_sequential_and_preserves_order() {
        let mut d0 = provisioned(4);
        let mut d1 = provisioned(5);
        let make = |shards: usize, d0: &mut Device, d1: &mut Device| {
            let v = Verifier::new(shards, DetectorConfig::default());
            v.enroll(0, LISA_TAG, d0.helper(), d0.enrolled_key())
                .unwrap();
            v.enroll(1, LISA_TAG, d1.helper(), d1.enrolled_key())
                .unwrap();
            v
        };
        let mut requests = Vec::new();
        for k in 0..6u64 {
            let nonce = format!("n-{k}");
            let (dev, id) = if k % 2 == 0 {
                (&mut d0, 0u64)
            } else {
                (&mut d1, 1u64)
            };
            requests.push(genuine_request(dev, id, k * 10, nonce.as_bytes()));
        }
        // Replaying the same recorded traffic batched vs sequentially
        // (fresh verifiers: detector state accumulates) must agree, at
        // any shard count.
        for shards in [1usize, 4] {
            let sequential = make(shards, &mut d0, &mut d1);
            let one_by_one: Vec<AuthVerdict> = requests
                .iter()
                .map(|r| sequential.authenticate_query(r.as_query()))
                .collect();
            let batched = make(shards, &mut d0, &mut d1);
            let at_once = serve_batch(&batched, &requests);
            assert_eq!(one_by_one, at_once, "shards={shards}");
            assert!(at_once.iter().all(AuthVerdict::is_accept));
        }
    }

    #[test]
    fn batch_scratch_is_reusable_across_batches() {
        let mut device = provisioned(13);
        let v = Verifier::new(4, DetectorConfig::default());
        v.enroll(0, LISA_TAG, device.helper(), device.enrolled_key())
            .unwrap();
        let mut scratch = BatchScratch::new();
        let mut verdicts = Vec::new();
        for round in 0..3u64 {
            let req = genuine_request(&mut device, 0, round * 100, b"r");
            let queries = [req.as_query()];
            v.authenticate_batch_with(&queries, &mut scratch, &mut verdicts);
            assert_eq!(verdicts.len(), 1, "round {round}");
            assert!(verdicts[0].is_accept(), "round {round}");
        }
    }

    #[test]
    fn batch_with_unknown_devices_rejects_those_only() {
        let mut device = provisioned(6);
        let v = Verifier::new(2, DetectorConfig::default());
        v.enroll(0, LISA_TAG, device.helper(), device.enrolled_key())
            .unwrap();
        let good = genuine_request(&mut device, 0, 0, b"x");
        let mut stranger = good.clone();
        stranger.device_id = 777;
        let verdicts = serve_batch(&v, &[stranger, good]);
        assert_eq!(verdicts[0], AuthVerdict::Reject);
        assert!(verdicts[1].is_accept());
    }

    #[test]
    fn enroll_batch_then_authenticate() {
        let mut d0 = provisioned(9);
        let mut d1 = provisioned(10);
        let v = Verifier::new(4, DetectorConfig::default());
        let batch = vec![
            BatchEnrollment {
                device_id: 0,
                scheme_tag: LISA_TAG,
                helper: d0.helper().to_vec(),
                key_digest: auth_key(d0.enrolled_key()),
            },
            BatchEnrollment {
                device_id: 1,
                scheme_tag: LISA_TAG,
                helper: d1.helper().to_vec(),
                key_digest: auth_key(d1.enrolled_key()),
            },
            BatchEnrollment {
                device_id: 1, // intra-batch duplicate
                scheme_tag: LISA_TAG,
                helper: d1.helper().to_vec(),
                key_digest: [0; 32],
            },
        ];
        let results = v.enroll_batch(batch);
        assert_eq!(
            results,
            vec![
                Ok(()),
                Ok(()),
                Err(RegistryError::Duplicate { device_id: 1 })
            ]
        );
        assert_eq!(v.registry().len(), 2);
        // The first occurrence's credential won, so both authenticate.
        for (id, dev) in [(0u64, &mut d0), (1u64, &mut d1)] {
            let req = genuine_request(dev, id, 0, b"post-batch");
            assert!(
                v.authenticate_query(req.as_query()).is_accept(),
                "device {id}"
            );
        }
    }

    #[test]
    fn snapshot_restores_serving_state() {
        let mut device = provisioned(7);
        let v = Verifier::new(4, DetectorConfig::default());
        v.enroll(42, LISA_TAG, device.helper(), device.enrolled_key())
            .unwrap();
        let snap = v.snapshot_v2();
        let restored = Verifier::from_snapshot_v2(&snap, DetectorConfig::default()).unwrap();
        let req = genuine_request(&mut device, 42, 0, b"after-restore");
        assert!(restored.authenticate_query(req.as_query()).is_accept());
    }

    #[test]
    fn observe_raw_feeds_detector_directly() {
        let device = provisioned(8);
        let v = Verifier::default();
        v.enroll(3, LISA_TAG, device.helper(), device.enrolled_key())
            .unwrap();
        assert!(v.observe_raw(3, 0, Some(device.helper()), true).is_accept());
        let garbage = vec![0xEE; 9];
        assert!(v.observe_raw(3, 1, Some(&garbage), false).is_flagged());
        assert_eq!(v.observe_raw(999, 0, None, true), AuthVerdict::Reject);
    }
}
