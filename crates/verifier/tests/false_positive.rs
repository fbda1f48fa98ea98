//! The detector's false-positive bound, as a property: a fleet that is
//! **never manipulated** — genuine helper blobs, honest clients, benign
//! pacing — is never `Flagged` under nominal operating noise, for any
//! master seed, fleet size or scheme mix the strategy draws.
//!
//! Occasional `Reject` verdicts are allowed (a noisy reconstruction is
//! an honest failure, and the streak threshold exists precisely so
//! isolated noise does not escalate); `Flagged` is the defender crying
//! attack, and a benign fleet must never trigger it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_constructions::group::{GroupBasedConfig, GroupBasedScheme, GROUP_TAG};
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
use ropuf_constructions::{Device, HelperDataScheme};
use ropuf_numeric::splitmix64 as mix;
use ropuf_sim::{ArrayDims, Environment, RoArrayBuilder};
use ropuf_verifier::{device_auth_response, AuthQuery, DetectorConfig, Verifier};

fn provision(
    master_seed: u64,
    id: u64,
    dims: ArrayDims,
    scheme: &dyn HelperDataScheme,
) -> Option<Device> {
    let mut array_rng = StdRng::seed_from_u64(mix(master_seed ^ mix(id)));
    let array = RoArrayBuilder::new(dims).build(&mut array_rng);
    Device::provision(array, scheme.clone_box(), mix(master_seed ^ mix(id ^ 0xA5))).ok()
}

proptest! {
    #[test]
    fn benign_fleet_is_never_flagged(master_seed in any::<u64>(),
                                     devices in 1usize..5,
                                     auths in 4usize..12) {
        let config = DetectorConfig::default();
        let verifier = Verifier::new(4, config);
        let lisa = LisaScheme::new(LisaConfig::default());
        let group = GroupBasedScheme::new(GroupBasedConfig::default());

        let mut fleet: Vec<(u64, Device)> = Vec::new();
        for id in 0..devices as u64 {
            // Alternate the scheme mix; skip devices whose sampled
            // array legitimately cannot enroll.
            let (tag, dims, scheme): (u8, ArrayDims, &dyn HelperDataScheme) = if id % 2 == 0 {
                (LISA_TAG, ArrayDims::new(16, 8), &lisa)
            } else {
                (GROUP_TAG, ArrayDims::new(10, 4), &group)
            };
            if let Some(device) = provision(master_seed, id, dims, scheme) {
                verifier.enroll(id, tag, device.helper(), device.enrolled_key()).unwrap();
                fleet.push((id, device));
            }
        }

        // Benign pacing: per-device requests spaced well outside the
        // rate window.
        let gap = config.rate_window + 1;
        for k in 0..auths {
            for (id, device) in fleet.iter_mut() {
                let nonce = format!("fp-{id}-{k}").into_bytes();
                let response =
                    device_auth_response(device, &nonce, Environment::nominal());
                let verdict = verifier.authenticate_query(AuthQuery {
                    device_id: *id,
                    now: k as u64 * gap,
                    nonce: &nonce,
                    response,
                    presented_helper: Some(device.helper()),
                });
                prop_assert!(
                    !verdict.is_flagged(),
                    "benign device {id} flagged at auth {k}: {verdict:?}"
                );
            }
        }
        for (id, _) in &fleet {
            prop_assert!(verifier.flag_info(*id).is_none());
        }
    }
}
