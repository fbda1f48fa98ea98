//! Defender-side verifier service: sharded enrollment registry,
//! authenticated traffic serving, and online attack detection.
//!
//! The paper's attacker model rests on helper data being **public and
//! writable**, and its closing discussion (§VII) argues that what
//! separates a toy key generator from a deployable one is the defender
//! loop: helper-data integrity checks and query monitoring. This crate
//! is that missing half. It enrolls fleets of devices, serves
//! authentication traffic fast (per-shard locking, batched verification),
//! and detects helper-data-manipulation attacks online, so closed-loop
//! campaigns can measure *time-to-detection* and *queries-before-flag*
//! next to attack success.
//!
//! # Pieces
//!
//! * [`registry`] — [`ShardedRegistry`]: device-id → [`StoredRecord`]
//!   `{scheme tag, helper digest, key digest}`, hashed across N shards
//!   with per-shard locks so concurrent enrollment and authentication
//!   scale across threads. Enrollment takes an [`EnrollmentRecord`]
//!   and keeps only the helper's digest. Entries live in per-shard
//!   chunked slabs indexed by compact `u32` handles. Snapshots save as
//!   binary ([`ShardedRegistry::snapshot_v2`]).
//! * [`store`] — the durable storage layer: the binary snapshot
//!   codec, the CRC-framed write-ahead log of enrollments and flag
//!   transitions, fsync'd segment rotation, compaction, and
//!   crash-recovery replay ([`store::recover`]). Opened through
//!   [`Verifier::open_durable`].
//! * [`detector`] — [`DeviceDetector`]: the per-device online attack
//!   detector combining three weak signals into one [`AuthVerdict`] —
//!   a helper-data integrity check against the enrolled blob's digest
//!   (digest compare + wire-format reparse), a sliding-window
//!   query-rate budget, and a consecutive-failure counter.
//! * [`service`] — [`Verifier`]: the authentication service API,
//!   [`Verifier::authenticate_query`] plus the batched
//!   [`Verifier::authenticate_batch_with`] variant, serving mixed fleets
//!   of all four constructions; also the client-side helpers that turn a
//!   [`Device`](ropuf_constructions::Device) into verifier traffic.
//!
//! # Authentication protocol
//!
//! The registry never stores the PUF master key. At enrollment the
//! defender derives a verification credential — the **key digest**
//! `SHA-256(key bytes)` ([`auth_key`]) — and stores only that. A client
//! device reconstructs its key from (possibly manipulated) helper NVM,
//! derives the same digest, and answers a nonce with
//! `HMAC-SHA256(digest, nonce)` ([`client_tag`] /
//! [`device_auth_response`]); the verifier recomputes the tag from the
//! stored digest. A stolen registry therefore leaks authentication
//! credentials but not the key material other applications derive from
//! the PUF secret.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
//! use ropuf_constructions::Device;
//! use ropuf_sim::{ArrayDims, Environment, RoArrayBuilder};
//! use ropuf_verifier::{device_auth_response, AuthQuery, DetectorConfig, Verifier};
//!
//! // Defender enrolls a device into a 4-shard registry.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
//! let mut device =
//!     Device::provision(array, Box::new(LisaScheme::new(LisaConfig::default())), 2).unwrap();
//! let verifier = Verifier::new(4, DetectorConfig::default());
//! verifier
//!     .enroll(7, LISA_TAG, device.helper(), device.enrolled_key())
//!     .unwrap();
//!
//! // The device authenticates: reconstruct key, answer the nonce.
//! let response = device_auth_response(&mut device, b"challenge-0", Environment::nominal());
//! let verdict = verifier.authenticate_query(AuthQuery {
//!     device_id: 7,
//!     now: 0,
//!     nonce: b"challenge-0",
//!     response,
//!     presented_helper: Some(device.helper()),
//! });
//! assert!(verdict.is_accept());
//! ```

// `deny`, not `forbid`: the cache-line prefetch hints in `prefetch`
// are the sanctioned `#[allow(unsafe_code)]` island; everything else
// stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
mod index;
mod prefetch;
pub mod registry;
pub mod service;
pub mod store;

pub use detector::{AuthVerdict, DetectorConfig, DeviceDetector, FlagReason};
pub use registry::{
    shard_for, DeviceHandle, EnrollmentRecord, RegistryError, ShardedRegistry, StoredRecord,
};
pub use service::{
    auth_key, client_tag, device_auth_response, AuthQuery, AuthRequest, BatchEnrollment,
    BatchScratch, Verifier,
};
pub use store::faults::StoreFaults;
pub use store::snapshot::SnapshotV2Error;
pub use store::{DeviceStore, RecoveryReport, StoreError, StoreOptions, SyncPolicy, TornTail};
