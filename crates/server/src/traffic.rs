//! The campaign-driven traffic model the load generator replays.
//!
//! A [`TrafficPlan`] is a fully materialized, deterministic request
//! workload: a mixed fleet (the first quarter LISA devices that get
//! attacked, the rest benign across the other three constructions,
//! mirroring the `campaign_verifier` scenario) where every device
//! carries its enrollment record plus the exact [`AuthItem`] sequence
//! it will send. Benign devices authenticate once per round across a
//! temperature sweep, spaced inside the detector's rate window.
//! Attacked devices replay a **real LISA attack trajectory**: the
//! attack from `ropuf_attacks` runs against the simulated device with
//! a recording monitor attached, and every oracle query becomes the
//! authentication attempt a verifier gateway would have seen — the
//! manipulated helper bytes presented, and a valid tag exactly when
//! the device's response matched its enrolled behavior.
//!
//! Everything derives from `(master_seed, device_id)` through the
//! campaign's seed derivation, so two builds of the same spec are
//! identical — the property the loopback replay test asserts
//! bit-for-bit through the wire codec.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_attacks::lisa::LisaAttack;
use ropuf_attacks::{Oracle, TrafficMonitor};
use ropuf_campaign::FleetSpec;
use ropuf_constructions::cooperative::{CooperativeConfig, CooperativeScheme, COOP_TAG};
use ropuf_constructions::group::{GroupBasedConfig, GroupBasedScheme, GROUP_TAG};
use ropuf_constructions::pairing::distilled::{
    DistilledConfig, DistilledPairingScheme, DISTILLED_TAG,
};
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
use ropuf_constructions::{DeviceResponse, HelperDataScheme};
use ropuf_proto::{AuthItem, WireAuthResponse};
use ropuf_sim::{ArrayDims, Environment};
use ropuf_verifier::{auth_key, client_tag, BatchEnrollment, DetectorConfig};

/// What a fleet member does during the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Authenticates honestly, once per round.
    Benign,
    /// Replays a captured LISA key-recovery trajectory.
    LisaAttacker,
}

/// One device's share of the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTraffic {
    /// Fleet identity (also the wire device id).
    pub device_id: u64,
    /// Scheme display name ("lisa", "cooperative", …).
    pub scheme: &'static str,
    /// Benign or attacker.
    pub role: Role,
    /// What the verifier stores for this device.
    pub enrollment: BatchEnrollment,
    /// The exact authentication attempts, in send order (timestamps
    /// are per-device logical clocks, non-decreasing).
    pub requests: Vec<AuthItem>,
}

/// Workload shape: fleet size, mix, and replay length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Fleet size; the first `max(devices/4, 1)` members are LISA
    /// attack targets, the rest round-robin the other constructions.
    pub devices: usize,
    /// Root of all per-device seed derivation (campaign convention).
    pub master_seed: u64,
    /// Benign authentication rounds (one request per device each).
    pub rounds: usize,
    /// Scheme configuration of the attacked slice.
    pub lisa: LisaConfig,
    /// Detector thresholds the server will run — benign pacing keeps
    /// inside this rate budget.
    pub detector: DetectorConfig,
}

impl TrafficSpec {
    /// Number of attacked devices in this spec.
    pub fn attacked(&self) -> usize {
        if self.devices == 0 {
            0
        } else {
            (self.devices / 4).max(1)
        }
    }
}

/// Per-scheme fleet slot, mirroring the `campaign_verifier` mix.
fn scheme_for(slot: usize) -> (&'static str, u8, ArrayDims, Box<dyn HelperDataScheme>) {
    match slot {
        0 => (
            "lisa",
            LISA_TAG,
            ArrayDims::new(16, 8),
            Box::new(LisaScheme::new(LisaConfig::default())),
        ),
        1 => (
            "cooperative",
            COOP_TAG,
            ArrayDims::new(16, 8),
            Box::new(CooperativeScheme::new(CooperativeConfig::default())),
        ),
        2 => (
            "group-based",
            GROUP_TAG,
            ArrayDims::new(10, 4),
            Box::new(GroupBasedScheme::new(GroupBasedConfig::default())),
        ),
        _ => (
            "distiller-pairing",
            DISTILLED_TAG,
            ArrayDims::new(10, 4),
            Box::new(DistilledPairingScheme::new(DistilledConfig::default())),
        ),
    }
}

/// Records every oracle query a running attack issues: the helper
/// bytes presented and whether the response matched the device's
/// enrolled behavior — the two facts a verifier gateway sees.
#[derive(Debug)]
struct RecordingMonitor {
    expected: DeviceResponse,
    events: Rc<RefCell<Vec<(Vec<u8>, bool)>>>,
}

impl TrafficMonitor for RecordingMonitor {
    fn observe(&mut self, helper: &[u8], response: &DeviceResponse) -> bool {
        self.events
            .borrow_mut()
            .push((helper.to_vec(), response == &self.expected));
        false // recording only; the server-side detector judges later
    }
}

/// The materialized workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPlan {
    /// Per-device traffic, device ids ascending.
    pub devices: Vec<DeviceTraffic>,
}

impl TrafficPlan {
    /// Builds the full plan for `spec`. Deterministic: equal specs
    /// yield equal plans (the replay contract the server suites
    /// rely on).
    ///
    /// Devices whose sampled array cannot support their scheme are
    /// skipped, exactly as fleet provisioning does elsewhere.
    pub fn build(spec: &TrafficSpec) -> Self {
        let attacked = spec.attacked();
        let temps: Vec<Environment> = Environment::sweep(18.0, 32.0, spec.rounds.max(1)).collect();
        // Benign pacing: well inside the rate budget (same spacing rule
        // as campaign_verifier).
        let gap = 2 * spec.detector.rate_window / u64::from(spec.detector.rate_budget).max(1);
        let mut devices = Vec::with_capacity(spec.devices);
        for id in 0..spec.devices {
            let slot = if id < attacked {
                0
            } else {
                1 + (id - attacked) % 3
            };
            let (scheme_name, tag, dims, scheme) = scheme_for(slot);
            let fleet = FleetSpec {
                dims,
                devices: spec.devices,
                master_seed: spec.master_seed,
            };
            let Ok(mut device) = fleet.provision_device(id, scheme.as_ref()) else {
                continue;
            };
            let enrollment = BatchEnrollment {
                device_id: id as u64,
                scheme_tag: tag,
                helper: device.helper().to_vec(),
                key_digest: auth_key(device.enrolled_key()),
            };
            let (role, requests) = if id < attacked {
                (
                    Role::LisaAttacker,
                    attack_requests(&mut device, &enrollment, &fleet, id, spec.lisa),
                )
            } else {
                let mut requests = Vec::with_capacity(temps.len());
                for (round, env) in temps.iter().enumerate() {
                    let nonce = format!("auth-{id}-{round}").into_bytes();
                    let response =
                        match ropuf_verifier::device_auth_response(&mut device, &nonce, *env) {
                            DeviceResponse::Tag(t) => WireAuthResponse::Tag(t),
                            DeviceResponse::Failure => WireAuthResponse::Failure,
                        };
                    requests.push(AuthItem {
                        device_id: id as u64,
                        now: round as u64 * gap,
                        nonce,
                        response,
                        presented_helper: Some(enrollment.helper.clone()),
                    });
                }
                (Role::Benign, requests)
            };
            devices.push(DeviceTraffic {
                device_id: id as u64,
                scheme: scheme_name,
                role,
                enrollment,
                requests,
            });
        }
        Self { devices }
    }

    /// The fleet's enrollment batch (input to `Verifier::enroll_batch`).
    pub fn enrollments(&self) -> Vec<BatchEnrollment> {
        self.devices.iter().map(|d| d.enrollment.clone()).collect()
    }

    /// Total authentication requests across the fleet.
    pub fn total_requests(&self) -> usize {
        self.devices.iter().map(|d| d.requests.len()).sum()
    }

    /// Devices with [`Role::LisaAttacker`].
    pub fn attackers(&self) -> impl Iterator<Item = &DeviceTraffic> {
        self.devices.iter().filter(|d| d.role == Role::LisaAttacker)
    }

    /// Devices with [`Role::Benign`].
    pub fn benign(&self) -> impl Iterator<Item = &DeviceTraffic> {
        self.devices.iter().filter(|d| d.role == Role::Benign)
    }
}

/// Runs the real LISA attack against `device` with a recording monitor
/// and converts every oracle query into the authentication attempt the
/// gateway saw: manipulated helper presented, valid tag iff the
/// response matched enrolled behavior, timestamps back-to-back (the
/// adversarial extreme of the rate model, as in the campaign monitor).
fn attack_requests(
    device: &mut ropuf_constructions::Device,
    enrollment: &BatchEnrollment,
    fleet: &FleetSpec,
    id: usize,
    lisa: LisaConfig,
) -> Vec<AuthItem> {
    let truth = device.enrolled_key().clone();
    let events = Rc::new(RefCell::new(Vec::new()));
    {
        let mut oracle = Oracle::new(device);
        let expected = oracle.expected_response(&truth);
        oracle.attach_monitor(Box::new(RecordingMonitor {
            expected,
            events: Rc::clone(&events),
        }));
        let mut rng = StdRng::seed_from_u64(fleet.seeds(id).attack);
        // The trajectory is the product; whether recovery succeeded is
        // the campaign engine's business, not the load generator's.
        let _ = LisaAttack::new(lisa).run(&mut oracle, &mut rng);
    }
    let events = events.borrow();
    events
        .iter()
        .enumerate()
        .map(|(i, (helper, auth_ok))| {
            let nonce = format!("atk-{id}-{i}").into_bytes();
            let response = if *auth_ok {
                WireAuthResponse::Tag(client_tag(&enrollment.key_digest, &nonce))
            } else {
                WireAuthResponse::Failure
            };
            AuthItem {
                device_id: id as u64,
                now: 1 + i as u64,
                nonce,
                response,
                presented_helper: Some(helper.clone()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TrafficSpec {
        TrafficSpec {
            devices: 6,
            master_seed: 5,
            rounds: 3,
            lisa: LisaConfig::default(),
            detector: DetectorConfig::default(),
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let a = TrafficPlan::build(&small_spec());
        let b = TrafficPlan::build(&small_spec());
        assert_eq!(a, b);
        assert!(a.total_requests() > 0);
    }

    #[test]
    fn mix_matches_spec() {
        let plan = TrafficPlan::build(&small_spec());
        assert_eq!(plan.attackers().count(), 1, "6 devices -> 1 attacked");
        assert_eq!(plan.benign().count(), plan.devices.len() - 1);
        for d in plan.benign() {
            assert_eq!(d.requests.len(), 3, "one request per round");
            assert!(
                d.requests
                    .iter()
                    .all(|r| r.presented_helper.as_deref() == Some(&d.enrollment.helper[..])),
                "benign traffic presents the enrolled helper"
            );
            let mut last = 0;
            for r in &d.requests {
                assert!(r.now >= last, "per-device clock is non-decreasing");
                last = r.now;
            }
        }
    }

    #[test]
    fn attack_traffic_contains_manipulated_helpers() {
        let plan = TrafficPlan::build(&small_spec());
        let attacker = plan.attackers().next().unwrap();
        assert!(
            attacker.requests.len() > 10,
            "a real trajectory has many queries, got {}",
            attacker.requests.len()
        );
        assert!(
            attacker
                .requests
                .iter()
                .any(|r| r.presented_helper.as_deref() != Some(&attacker.enrollment.helper[..])),
            "the trajectory must present manipulated helper bytes"
        );
    }
}
