//! Traffic helpers shared by the torture, equivalence and chaos
//! suites.

use std::sync::Arc;

use ropuf_constructions::pairing::lisa::LisaConfig;
use ropuf_proto::Request;
use ropuf_server::{RequestHandler, TrafficPlan, TrafficSpec, VerifierHandler};
use ropuf_verifier::{DetectorConfig, Verifier};

/// The suites' reference plan: 8 devices, two of them LISA attackers.
pub fn spec() -> TrafficSpec {
    TrafficSpec {
        devices: 8,
        master_seed: 2024,
        rounds: 3,
        lisa: LisaConfig::default(),
        detector: DetectorConfig::default(),
    }
}

/// A fresh verifier stack with the plan's fleet enrolled.
pub fn enrolled_handler(plan: &TrafficPlan, shards: usize) -> Arc<dyn RequestHandler> {
    let verifier = Arc::new(Verifier::new(shards, DetectorConfig::default()));
    let results = verifier.enroll_batch(plan.enrollments());
    assert!(results.iter().all(Result::is_ok), "fresh ids enroll");
    Arc::new(VerifierHandler::new(verifier))
}

/// Per-device request list: the auth trajectory plus a final
/// `QueryVerdict`, so the registry's flag state is part of the
/// compared answers too.
pub fn device_requests(plan: &TrafficPlan) -> Vec<(u64, Vec<Request>)> {
    plan.devices
        .iter()
        .map(|device| {
            let mut requests: Vec<Request> = device
                .requests
                .iter()
                .cloned()
                .map(Request::Authenticate)
                .collect();
            requests.push(Request::QueryVerdict {
                device_id: device.device_id,
            });
            (device.device_id, requests)
        })
        .collect()
}
