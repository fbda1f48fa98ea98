//! One detector, five entry points, one behaviour: on random configs
//! and query streams (enrolled, tampered, malformed, truncated and
//! absent helpers; failure runs; steps just inside, on and past the
//! rate window's edge), a verbatim copy of the earlier per-device
//! detector, the public [`DeviceDetector`], [`Verifier::observe_raw`]
//! through the registry, and the tag-verifying
//! [`Verifier::authenticate_query`] and
//! [`Verifier::authenticate_batch_with`] return identical verdicts and
//! first flags.

use std::collections::VecDeque;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
use ropuf_constructions::{helper_digest, validate_helper, Device, DeviceResponse, SanityPolicy};
use ropuf_sim::{ArrayDims, RoArrayBuilder};
use ropuf_verifier::{
    auth_key, client_tag, AuthQuery, AuthRequest, AuthVerdict, BatchEnrollment, BatchScratch,
    DetectorConfig, DeviceDetector, FlagReason, Verifier,
};

/// The detector as it was when each device kept its own config and
/// digest, verbatim.
#[derive(Debug, Clone)]
struct ReferenceDetector {
    config: DetectorConfig,
    scheme_tag: u8,
    enrolled_digest: [u8; 32],
    recent: VecDeque<u64>,
    consecutive_failures: u32,
    flagged: Option<(u64, FlagReason)>,
}

impl ReferenceDetector {
    fn new(config: DetectorConfig, scheme_tag: u8, enrolled_helper: &[u8]) -> Self {
        Self {
            config,
            scheme_tag,
            enrolled_digest: helper_digest(enrolled_helper),
            recent: VecDeque::new(),
            consecutive_failures: 0,
            flagged: None,
        }
    }

    fn flagged(&self) -> Option<(u64, FlagReason)> {
        self.flagged
    }

    fn observe(&mut self, now: u64, presented_helper: Option<&[u8]>, auth_ok: bool) -> AuthVerdict {
        // Quarantine latch: a flagged device stays flagged.
        if let Some((_, reason)) = self.flagged {
            return AuthVerdict::Flagged(reason);
        }

        // Signal 1: helper integrity (digest compare + wire reparse).
        if self.config.integrity_check {
            if let Some(helper) = presented_helper {
                if helper_digest(helper) != self.enrolled_digest {
                    let reason = if validate_helper(self.scheme_tag, helper, SanityPolicy::Lenient)
                        .is_err()
                    {
                        FlagReason::MalformedHelper
                    } else {
                        FlagReason::HelperMismatch
                    };
                    return self.flag(now, reason);
                }
            }
        }

        // Signal 2: sliding-window query-rate budget.
        while self
            .recent
            .front()
            .is_some_and(|&t| t + self.config.rate_window <= now)
        {
            self.recent.pop_front();
        }
        self.recent.push_back(now);
        if self.recent.len() > self.config.rate_budget as usize {
            return self.flag(now, FlagReason::RateBudget);
        }

        // Signal 3: consecutive-failure streak.
        if auth_ok {
            self.consecutive_failures = 0;
            AuthVerdict::Accept
        } else {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.config.failure_streak {
                self.flag(now, FlagReason::FailureStreak)
            } else {
                AuthVerdict::Reject
            }
        }
    }

    fn flag(&mut self, now: u64, reason: FlagReason) -> AuthVerdict {
        self.flagged = Some((now, reason));
        AuthVerdict::Flagged(reason)
    }
}

/// Devices per case, all served by one registry.
const DEVICES: usize = 3;

/// Real LISA helpers and key digests, provisioned once: a tampered
/// real helper still parses (`HelperMismatch`), byte soup cannot.
fn helpers() -> &'static [(Vec<u8>, [u8; 32])] {
    static HELPERS: OnceLock<Vec<(Vec<u8>, [u8; 32])>> = OnceLock::new();
    HELPERS.get_or_init(|| {
        (0..DEVICES as u64)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
                let device = Device::provision(
                    array,
                    Box::new(LisaScheme::new(LisaConfig::default())),
                    seed,
                )
                .expect("a 16x8 LISA array enrolls");
                (device.helper().to_vec(), auth_key(device.enrolled_key()))
            })
            .collect()
    })
}

/// The helper a query presents, chosen by `kind`.
fn presented(enrolled: &[u8], kind: u64) -> Option<Vec<u8>> {
    match kind % 8 {
        0..=2 => Some(enrolled.to_vec()),
        3 => {
            // Tampered in place: still parses for the scheme.
            let mut h = enrolled.to_vec();
            let last = h.len() - 1;
            h[last] ^= 1;
            Some(h)
        }
        4 => Some(vec![0xEE; 7]),
        5 => Some(enrolled[..enrolled.len() / 2].to_vec()),
        _ => None,
    }
}

/// A verifier with every device of [`helpers`] enrolled.
fn enrolled_verifier(shards: usize, config: DetectorConfig) -> Verifier {
    let verifier = Verifier::new(shards, config);
    let enrolled = verifier.enroll_batch(
        helpers()
            .iter()
            .enumerate()
            .map(|(id, (helper, key_digest))| BatchEnrollment {
                device_id: id as u64,
                scheme_tag: LISA_TAG,
                helper: helper.clone(),
                key_digest: *key_digest,
            })
            .collect(),
    );
    assert!(enrolled.iter().all(Result::is_ok));
    verifier
}

/// Serves `batch` through [`Verifier::authenticate_batch_with`] and
/// checks its verdicts against `want`, then every device's first flag
/// against the reference's.
fn serve_batch(
    verifier: &Verifier,
    batch: &mut Vec<(AuthRequest, AuthVerdict)>,
    reference: &[ReferenceDetector],
    scratch: &mut BatchScratch,
) -> Result<(), TestCaseError> {
    let queries: Vec<AuthQuery<'_>> = batch.iter().map(|(r, _)| r.as_query()).collect();
    let mut verdicts = Vec::new();
    verifier.authenticate_batch_with(&queries, scratch, &mut verdicts);
    let want: Vec<AuthVerdict> = batch.iter().map(|&(_, v)| v).collect();
    prop_assert_eq!(verdicts, want);
    for (id, r) in reference.iter().enumerate() {
        prop_assert_eq!(verifier.flag_info(id as u64), r.flagged());
    }
    batch.clear();
    Ok(())
}

proptest! {
    #[test]
    fn reference_public_and_registry_detectors_agree(
        integrity_check in any::<bool>(),
        rate_window in 1u64..40,
        rate_budget in 1u32..10,
        failure_streak in 1u32..6,
        shards in 1usize..5,
        fail_quarters in 0u64..5,
        steps in vec(any::<u64>(), 1..160),
    ) {
        let config = DetectorConfig {
            integrity_check,
            rate_window,
            rate_budget,
            failure_streak,
        };
        let helpers = helpers();
        let verifier = enrolled_verifier(shards, config);
        // The tag-verifying entry points, one verifier each: single
        // queries, and batches of 1–8 consecutive steps.
        let by_query = enrolled_verifier(shards, config);
        let by_batch = enrolled_verifier(shards, config);
        let mut batch: Vec<(AuthRequest, AuthVerdict)> = Vec::new();
        let mut scratch = BatchScratch::new();
        let mut failures = 0u64;
        let mut reference: Vec<ReferenceDetector> = helpers
            .iter()
            .map(|(h, _)| ReferenceDetector::new(config, LISA_TAG, h))
            .collect();
        let mut public: Vec<DeviceDetector> = helpers
            .iter()
            .map(|(h, _)| DeviceDetector::new(config, LISA_TAG, h))
            .collect();
        for (id, r) in reference.iter().enumerate() {
            let stored = verifier.registry().record(id as u64).expect("enrolled");
            prop_assert_eq!(stored.helper_digest, r.enrolled_digest);
        }

        let mut now = 0u64;
        for (i, step) in steps.into_iter().enumerate() {
            let device = (step % DEVICES as u64) as usize;
            now += match (step >> 8) % 7 {
                0 => 0,
                1 => 1,
                2 => rate_window - 1,
                3 => rate_window,
                4 => rate_window + 1,
                5 => 10 * rate_window,
                _ => (step >> 24) % 3,
            };
            let helper = presented(&helpers[device].0, step >> 16);
            // 0..=4 quarters failing: isolated failures up to runs.
            let auth_ok = (step >> 32) % 4 >= fail_quarters;

            let want = reference[device].observe(now, helper.as_deref(), auth_ok);
            let got_public = public[device].observe(now, helper.as_deref(), auth_ok);
            let got_registry =
                verifier.observe_raw(device as u64, now, helper.as_deref(), auth_ok);
            prop_assert_eq!(got_public, want);
            prop_assert_eq!(got_registry, want);
            let flag = reference[device].flagged();
            prop_assert_eq!(public[device].flagged(), flag);
            prop_assert_eq!(verifier.flag_info(device as u64), flag);

            // A real tag when the step authenticates; otherwise a forged
            // tag and a reconstruction failure in turn.
            let nonce = (i as u64).to_le_bytes().to_vec();
            let response = if auth_ok {
                DeviceResponse::Tag(client_tag(&helpers[device].1, &nonce))
            } else {
                failures += 1;
                if failures.is_multiple_of(2) {
                    DeviceResponse::Tag([0xA5; 32])
                } else {
                    DeviceResponse::Failure
                }
            };
            let request = AuthRequest {
                device_id: device as u64,
                now,
                nonce,
                response,
                presented_helper: helper,
            };
            prop_assert_eq!(by_query.authenticate_query(request.as_query()), want);
            prop_assert_eq!(by_query.flag_info(device as u64), flag);
            batch.push((request, want));
            if batch.len() as u64 > (step >> 40) % 8 {
                serve_batch(&by_batch, &mut batch, &reference, &mut scratch)?;
            }
        }
        serve_batch(&by_batch, &mut batch, &reference, &mut scratch)?;
    }
}
