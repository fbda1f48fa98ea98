//! Protocol semantics: `ropuf-wire/v1` requests against the
//! [`Verifier`].
//!
//! [`RequestHandler`] is the transport-independent core of the server:
//! the evented server and the in-process loopback transport both
//! funnel decoded requests through the same `handle_ref` call, so a
//! scenario exercised over loopback is bit-for-bit the scenario the
//! socket path serves.
//!
//! The one deliberate asymmetry: a **single** [`Request::Authenticate`]
//! for a quarantined device is answered with a typed wire error
//! ([`ErrorCode::DeviceFlagged`]) — the gateway refuses the traffic
//! outright — while [`Request::BatchAuthenticate`] reports
//! [`WireVerdict::Flagged`] inline per item, because a batch's other
//! verdicts must still come back positionally.

use std::sync::Arc;

use ropuf_constructions::DeviceResponse;
use ropuf_proto::{
    AuthItemRef, ErrorCode, Request, RequestRef, Response, WireAuthResponse, WireFlagReason,
    WireVerdict, PROTOCOL_VERSION,
};
use ropuf_verifier::{AuthQuery, AuthVerdict, BatchScratch, FlagReason, Verifier};

/// A server-side request processor: one decoded request in, one
/// response out. Must be shareable across serving threads.
pub trait RequestHandler: Send + Sync {
    /// Serves one borrowed request — the zero-copy path the event
    /// loops decode into, straight from the frame buffer.
    fn handle_ref(&self, request: RequestRef<'_>) -> Response;

    /// Serves one owned request through
    /// [`RequestHandler::handle_ref`].
    fn handle(&self, request: Request) -> Response {
        self.handle_ref(request.as_ref())
    }

    /// Registry shard count behind this handler, or `0` when the
    /// handler has no sharded registry. The evented server uses this
    /// for the device-id → loop affinity accounting; the default opts
    /// out.
    fn shard_count(&self) -> usize {
        0
    }
}

/// Converts the verifier's flag reason to its wire representation.
pub fn wire_reason(reason: FlagReason) -> WireFlagReason {
    match reason {
        FlagReason::HelperMismatch => WireFlagReason::HelperMismatch,
        FlagReason::MalformedHelper => WireFlagReason::MalformedHelper,
        FlagReason::RateBudget => WireFlagReason::RateBudget,
        FlagReason::FailureStreak => WireFlagReason::FailureStreak,
    }
}

/// Converts a verifier verdict to its wire representation.
pub fn wire_verdict(verdict: AuthVerdict) -> WireVerdict {
    match verdict {
        AuthVerdict::Accept => WireVerdict::Accept,
        AuthVerdict::Reject => WireVerdict::Reject,
        AuthVerdict::Flagged(reason) => WireVerdict::Flagged(wire_reason(reason)),
    }
}

/// Translates one borrowed wire [`AuthItemRef`] into the verifier's
/// borrowed query shape — field moves only, no byte copies.
fn auth_query<'a>(item: &AuthItemRef<'a>) -> AuthQuery<'a> {
    AuthQuery {
        device_id: item.device_id,
        now: item.now,
        nonce: item.nonce,
        response: match item.response {
            WireAuthResponse::Failure => DeviceResponse::Failure,
            WireAuthResponse::Tag(tag) => DeviceResponse::Tag(tag),
        },
        presented_helper: item.presented_helper,
    }
}

/// The production handler: `ropuf-wire/v1` served by a shared
/// [`Verifier`].
#[derive(Debug, Clone)]
pub struct VerifierHandler {
    verifier: Arc<Verifier>,
    server_name: String,
}

impl VerifierHandler {
    /// Wraps a verifier. The same `Arc` may simultaneously serve
    /// in-process callers; all state lives behind the registry's
    /// per-shard locks.
    pub fn new(verifier: Arc<Verifier>) -> Self {
        Self {
            verifier,
            server_name: format!("ropuf-server/{}", env!("CARGO_PKG_VERSION")),
        }
    }

    /// The served verifier (inspection, snapshots, direct enrollment).
    pub fn verifier(&self) -> &Arc<Verifier> {
        &self.verifier
    }

    /// `true` once the durable store has latched its read-only degraded
    /// mode (a WAL append or fsync failed). In-memory registries are
    /// never degraded — there is no durability to lose.
    pub fn read_only(&self) -> bool {
        self.verifier
            .registry()
            .store()
            .is_some_and(|store| store.is_degraded())
    }
}

impl RequestHandler for VerifierHandler {
    /// Everything the hot path touches
    /// (nonces, presented helpers) stays borrowed from the frame
    /// buffer; only enrollment — which must persist its bytes — copies.
    fn handle_ref(&self, request: RequestRef<'_>) -> Response {
        match request {
            RequestRef::Hello { protocol, client } => {
                if protocol != PROTOCOL_VERSION {
                    return Response::Error {
                        code: ErrorCode::UnsupportedProtocol,
                        detail: format!(
                            "client {client:?} speaks v{protocol}, server speaks v{PROTOCOL_VERSION}"
                        ),
                    };
                }
                Response::HelloOk {
                    protocol: PROTOCOL_VERSION,
                    server: self.server_name.clone(),
                }
            }
            RequestRef::Enroll {
                device_id,
                scheme_tag,
                helper,
                key_digest,
            } => {
                // Once the store latches degraded, mutations are refused
                // up front — auths keep serving from memory, but an
                // enrollment the WAL can't record must not be accepted.
                if self.read_only() {
                    return Response::Error {
                        code: ErrorCode::ReadOnly,
                        detail: "registry is read-only: write-ahead log failed".into(),
                    };
                }
                let record = ropuf_verifier::EnrollmentRecord {
                    scheme_tag,
                    helper: helper.to_vec(),
                    key_digest,
                };
                match self.verifier.registry().enroll(device_id, record) {
                    Ok(()) => Response::EnrollOk { device_id },
                    Err(e @ ropuf_verifier::RegistryError::Duplicate { .. }) => Response::Error {
                        code: ErrorCode::DuplicateDevice,
                        detail: e.to_string(),
                    },
                    // A write-ahead-log failure means the enrollment was
                    // NOT applied (no record, no state) and the store has
                    // just latched degraded; retrying elsewhere is safe.
                    Err(e @ ropuf_verifier::RegistryError::Storage(_)) => Response::Error {
                        code: ErrorCode::ReadOnly,
                        detail: e.to_string(),
                    },
                }
            }
            RequestRef::Authenticate(item) => {
                match self.verifier.authenticate_query(auth_query(&item)) {
                    AuthVerdict::Flagged(reason) => Response::Error {
                        code: ErrorCode::DeviceFlagged,
                        detail: format!("device quarantined: {}", reason.label()),
                    },
                    verdict => Response::Verdict(wire_verdict(verdict)),
                }
            }
            RequestRef::BatchAuthenticate { items } => {
                // Per-worker-thread scratch: the serving threads are a
                // fixed pool, so this amortizes the shard buckets and
                // the verdict vector across every batch a worker ever
                // serves instead of reallocating them per request.
                thread_local! {
                    static BATCH_SCRATCH: std::cell::RefCell<(BatchScratch, Vec<AuthVerdict>)> =
                        std::cell::RefCell::new((BatchScratch::new(), Vec::new()));
                }
                let queries: Vec<AuthQuery<'_>> = items.iter().map(auth_query).collect();
                BATCH_SCRATCH.with(|cell| {
                    let (scratch, verdicts) = &mut *cell.borrow_mut();
                    self.verifier
                        .authenticate_batch_with(&queries, scratch, verdicts);
                    Response::VerdictBatch(verdicts.iter().copied().map(wire_verdict).collect())
                })
            }
            RequestRef::QueryVerdict { device_id } => {
                match self.verifier.registry().enrolled_flag(device_id) {
                    None => Response::Error {
                        code: ErrorCode::UnknownDevice,
                        detail: format!("device {device_id} is not enrolled"),
                    },
                    Some(flag) => Response::FlagInfo {
                        flagged: flag.map(|(at, reason)| (at, wire_reason(reason))),
                    },
                }
            }
            RequestRef::SnapshotV2 => Response::SnapshotBin {
                bytes: self.verifier.snapshot_v2(),
            },
            // The handler answers with the verifier's metrics only; a
            // server backend in front of this handler intercepts the
            // request, merges its own `server.*` namespace into the
            // blob, and re-encodes. Over loopback there is no server
            // layer, so the verifier's view is the whole answer.
            RequestRef::MetricsSnapshot => Response::MetricsBin {
                bytes: self.verifier.telemetry_snapshot().encode(),
            },
            // Slow-request traces live in the serving backend, not the
            // verifier; standalone (loopback) the ring is empty.
            RequestRef::TraceDump => Response::TraceBin {
                bytes: ropuf_telemetry::TraceSnapshot::default().encode(),
            },
            // Topology discovery: the handler itself is single-context,
            // so it answers loop 0 of 1. The evented server intercepts
            // this request and substitutes the accepting loop's real
            // coordinates.
            RequestRef::LoopInfo => Response::LoopInfoOk {
                loop_id: 0,
                loops: 1,
            },
        }
    }

    fn shard_count(&self) -> usize {
        self.verifier.registry().shard_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
    use ropuf_constructions::Device;
    use ropuf_proto::AuthItem;
    use ropuf_sim::{ArrayDims, Environment, RoArrayBuilder};
    use ropuf_verifier::{auth_key, client_tag, DetectorConfig};

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

    fn handler() -> VerifierHandler {
        VerifierHandler::new(Arc::new(Verifier::new(4, DetectorConfig::default())))
    }

    fn enroll(h: &VerifierHandler, device: &Device, id: u64) {
        let response = h.handle(Request::Enroll {
            device_id: id,
            scheme_tag: LISA_TAG,
            helper: device.helper().to_vec(),
            key_digest: auth_key(device.enrolled_key()),
        });
        assert_eq!(response, Response::EnrollOk { device_id: id });
    }

    fn genuine_item(device: &mut Device, id: u64, now: u64, nonce: &[u8]) -> AuthItem {
        let response =
            match ropuf_verifier::device_auth_response(device, nonce, Environment::nominal()) {
                DeviceResponse::Tag(tag) => WireAuthResponse::Tag(tag),
                DeviceResponse::Failure => WireAuthResponse::Failure,
            };
        AuthItem {
            device_id: id,
            now,
            nonce: nonce.to_vec(),
            response,
            presented_helper: Some(device.helper().to_vec()),
        }
    }

    #[test]
    fn hello_negotiates_version() {
        let h = handler();
        assert!(matches!(
            h.handle(Request::Hello {
                protocol: PROTOCOL_VERSION,
                client: "t".into()
            }),
            Response::HelloOk {
                protocol: PROTOCOL_VERSION,
                ..
            }
        ));
        assert!(matches!(
            h.handle(Request::Hello {
                protocol: 99,
                client: "t".into()
            }),
            Response::Error {
                code: ErrorCode::UnsupportedProtocol,
                ..
            }
        ));
    }

    #[test]
    fn enroll_authenticate_accepts_and_duplicates_error() {
        let h = handler();
        let mut device = provisioned(1);
        enroll(&h, &device, 7);
        assert!(matches!(
            h.handle(Request::Enroll {
                device_id: 7,
                scheme_tag: LISA_TAG,
                helper: vec![],
                key_digest: [0; 32],
            }),
            Response::Error {
                code: ErrorCode::DuplicateDevice,
                ..
            }
        ));
        let verdict = h.handle(Request::Authenticate(genuine_item(&mut device, 7, 0, b"n")));
        assert_eq!(verdict, Response::Verdict(WireVerdict::Accept));
    }

    #[test]
    fn unknown_device_authenticate_is_reject_not_unknown() {
        // Authentication must not reveal enrollment status.
        let h = handler();
        let item = AuthItem {
            device_id: 404,
            now: 0,
            nonce: b"n".to_vec(),
            response: WireAuthResponse::Failure,
            presented_helper: None,
        };
        assert_eq!(
            h.handle(Request::Authenticate(item)),
            Response::Verdict(WireVerdict::Reject)
        );
        assert!(matches!(
            h.handle(Request::QueryVerdict { device_id: 404 }),
            Response::Error {
                code: ErrorCode::UnknownDevice,
                ..
            }
        ));
    }

    #[test]
    fn flagged_device_is_rejected_at_the_wire() {
        let h = handler();
        let device = provisioned(2);
        enroll(&h, &device, 1);
        let mut manipulated = device.helper().to_vec();
        let last = manipulated.len() - 1;
        manipulated[last] ^= 1;
        let hostile = AuthItem {
            device_id: 1,
            now: 0,
            nonce: b"n".to_vec(),
            response: WireAuthResponse::Failure,
            presented_helper: Some(manipulated),
        };
        // First hostile query flags; the flag itself already comes back
        // as the typed wire error.
        let first = h.handle(Request::Authenticate(hostile.clone()));
        assert!(matches!(
            first,
            Response::Error {
                code: ErrorCode::DeviceFlagged,
                ..
            }
        ));
        // The latch holds for every later request, genuine or not.
        let later = h.handle(Request::Authenticate(AuthItem {
            presented_helper: Some(device.helper().to_vec()),
            ..hostile
        }));
        assert!(matches!(
            later,
            Response::Error {
                code: ErrorCode::DeviceFlagged,
                ..
            }
        ));
        // And the flag is inspectable.
        match h.handle(Request::QueryVerdict { device_id: 1 }) {
            Response::FlagInfo {
                flagged: Some((0, reason)),
            } => assert_eq!(reason, WireFlagReason::HelperMismatch),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_reports_flags_inline() {
        let h = handler();
        let mut device = provisioned(3);
        enroll(&h, &device, 0);
        let good = genuine_item(&mut device, 0, 0, b"x");
        let forged = AuthItem {
            device_id: 0,
            now: 1,
            nonce: b"y".to_vec(),
            response: WireAuthResponse::Tag([0xAB; 32]),
            presented_helper: Some(vec![0xEE; 5]), // malformed helper: flags
        };
        match h.handle(Request::BatchAuthenticate {
            items: vec![good, forged],
        }) {
            Response::VerdictBatch(verdicts) => {
                assert_eq!(verdicts[0], WireVerdict::Accept);
                assert_eq!(
                    verdicts[1],
                    WireVerdict::Flagged(WireFlagReason::MalformedHelper)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn v2_snapshot_is_served_and_loads() {
        let h = handler();
        let device = provisioned(6);
        enroll(&h, &device, 11);
        match h.handle(Request::SnapshotV2) {
            Response::SnapshotBin { bytes } => {
                let restored = Verifier::from_snapshot_v2(&bytes, DetectorConfig::default())
                    .expect("served v2 snapshot loads");
                assert!(restored.registry().record(11).is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tag_verification_uses_stored_digest() {
        let h = handler();
        let device = provisioned(5);
        enroll(&h, &device, 2);
        let digest = auth_key(device.enrolled_key());
        let nonce = b"challenge".to_vec();
        let item = AuthItem {
            device_id: 2,
            now: 0,
            nonce: nonce.clone(),
            response: WireAuthResponse::Tag(client_tag(&digest, &nonce)),
            presented_helper: None,
        };
        assert_eq!(
            h.handle(Request::Authenticate(item)),
            Response::Verdict(WireVerdict::Accept)
        );
    }
}
