//! Per-device online attack detection.
//!
//! Each of the paper's attacks (§VI) needs two things the defender can
//! see: **manipulated helper data** on the device and **many queries**,
//! most of which fail key regeneration. No single observation proves an
//! attack — helper NVM can glitch, devices fail occasionally under
//! noise, traffic bursts happen — so the detector combines three weak
//! signals into one [`AuthVerdict`] per query, in the spirit of the
//! evidence-combination calculi for belief functions:
//!
//! 1. **Helper integrity** — the presented helper blob is
//!    digest-compared against the enrolled helper's digest (the only
//!    trace of the enrolled bytes the defender keeps) and, on a
//!    mismatch, wire-format reparsed for the enrolled scheme to name
//!    the reason. Any mismatch is the strongest evidence the paper's
//!    attacks exist at all.
//! 2. **Query-rate budget** — a sliding window over logical time; the
//!    statistical attacks need hundreds of queries where a benign
//!    device authenticates a handful of times.
//! 3. **Failure streak** — consecutive failed authentications; error
//!    injection drives regeneration failure rates toward 1 for wrong
//!    hypotheses, while benign noise failures are rare and isolated.
//!
//! A flag **latches**: once a device is flagged it stays quarantined
//! until the defender intervenes, and the flag timestamp is the
//! time-to-detection measurement closed-loop campaigns report.

use std::collections::VecDeque;
use std::fmt;

use ropuf_constructions::{helper_digest, validate_helper, SanityPolicy};

use crate::prefetch;

/// Why a device was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagReason {
    /// The presented helper blob parses but its digest differs from
    /// the enrolled helper's.
    HelperMismatch,
    /// The presented helper blob no longer parses for the enrolled
    /// scheme.
    MalformedHelper,
    /// More queries inside the sliding window than the budget allows.
    RateBudget,
    /// Too many consecutive failed authentications.
    FailureStreak,
}

impl FlagReason {
    /// Short machine-readable label ("helper-mismatch", …) used in
    /// campaign reports.
    pub fn label(&self) -> &'static str {
        match self {
            FlagReason::HelperMismatch => "helper-mismatch",
            FlagReason::MalformedHelper => "malformed-helper",
            FlagReason::RateBudget => "rate-budget",
            FlagReason::FailureStreak => "failure-streak",
        }
    }

    /// Stable one-byte discriminant used by the durable storage layer
    /// (snapshots and WAL flag records). Matches
    /// the `ropuf-wire/v1` `WireFlagReason` numbering.
    pub fn code(self) -> u8 {
        match self {
            FlagReason::HelperMismatch => 0,
            FlagReason::MalformedHelper => 1,
            FlagReason::RateBudget => 2,
            FlagReason::FailureStreak => 3,
        }
    }

    /// Parses a stored discriminant; `None` for bytes no release ever
    /// wrote (storage decoders turn that into a typed error).
    pub fn from_code(value: u8) -> Option<Self> {
        match value {
            0 => Some(FlagReason::HelperMismatch),
            1 => Some(FlagReason::MalformedHelper),
            2 => Some(FlagReason::RateBudget),
            3 => Some(FlagReason::FailureStreak),
            _ => None,
        }
    }
}

impl fmt::Display for FlagReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-query decision of the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthVerdict {
    /// The response verified and no detector tripped.
    Accept,
    /// The response did not verify (unknown device, wrong tag, or an
    /// observable reconstruction failure) — below the flagging bar.
    Reject,
    /// A detector tripped; the device is quarantined.
    Flagged(FlagReason),
}

impl AuthVerdict {
    /// `true` for [`AuthVerdict::Accept`].
    pub fn is_accept(&self) -> bool {
        matches!(self, AuthVerdict::Accept)
    }

    /// `true` for [`AuthVerdict::Flagged`].
    pub fn is_flagged(&self) -> bool {
        matches!(self, AuthVerdict::Flagged(_))
    }
}

/// Detector thresholds, shared by every device of a verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Enable the helper-data integrity signal (reparse + digest
    /// compare) when a query presents helper bytes.
    pub integrity_check: bool,
    /// Width of the sliding query-rate window, in ticks of the caller's
    /// logical clock.
    pub rate_window: u64,
    /// Maximum queries tolerated inside one window before flagging.
    pub rate_budget: u32,
    /// Consecutive failed authentications before flagging.
    pub failure_streak: u32,
}

impl Default for DetectorConfig {
    /// Defaults sized for the closed-loop scenarios: a benign device
    /// authenticating every few ticks stays far inside every budget,
    /// while the paper's attacks (hundreds of back-to-back queries with
    /// manipulated helper blobs) trip within a handful of queries.
    fn default() -> Self {
        Self {
            integrity_check: true,
            rate_window: 64,
            rate_budget: 32,
            failure_streak: 4,
        }
    }
}

/// The integrity signal's input for one query: the presented helper
/// with its digest, or `None` when `config` disables the signal or the
/// query presents no helper. Kept apart from [`DetectorState::observe`]
/// so the verifier can hash before it touches the device's entry.
pub(crate) fn digest_presented<'a>(
    config: &DetectorConfig,
    presented_helper: Option<&'a [u8]>,
) -> Option<(&'a [u8], [u8; 32])> {
    presented_helper
        .filter(|_| config.integrity_check)
        .map(|helper| (helper, helper_digest(helper)))
}

/// A device's detector runtime state: the rate window, the failure
/// streak and the quarantine latch. What the detector judges against —
/// the thresholds, the scheme tag and the enrolled helper's digest — is
/// passed in on each query, so a registry holds one [`DetectorConfig`]
/// for every device and each entry holds only its own digest.
#[derive(Debug, Clone, Default)]
pub(crate) struct DetectorState {
    recent: VecDeque<u64>,
    consecutive_failures: u32,
    flagged: Option<(u64, FlagReason)>,
}

impl DetectorState {
    /// `(timestamp, reason)` of the first flag, once flagged.
    pub(crate) fn flagged(&self) -> Option<(u64, FlagReason)> {
        self.flagged
    }

    /// Re-latches a flag recorded by the durable storage layer, so a
    /// recovered registry quarantines exactly the devices the crashed
    /// process had quarantined. First flag wins, like the live latch:
    /// restoring onto an already-flagged device is a no-op.
    pub(crate) fn restore_flag(&mut self, at: u64, reason: FlagReason) {
        if self.flagged.is_none() {
            self.flagged = Some((at, reason));
        }
    }

    /// Starts loading the cache lines of the rate window that
    /// [`DetectorState::observe`] reads first (its oldest entry) and
    /// writes (after its newest).
    pub(crate) fn prefetch_window(&self) {
        let (front, back) = self.recent.as_slices();
        if let Some(oldest) = front.first() {
            prefetch::lines(oldest);
        }
        if let Some(newest) = back.last().or(front.last()) {
            prefetch::lines(newest);
        }
    }

    /// Judges one query of a device enrolled under `scheme_tag` with a
    /// helper whose digest is `enrolled_digest` (see
    /// [`DeviceDetector::observe`]). `presented` is the query's helper
    /// with its digest, from [`digest_presented`].
    pub(crate) fn observe(
        &mut self,
        config: &DetectorConfig,
        scheme_tag: u8,
        enrolled_digest: &[u8; 32],
        now: u64,
        presented: Option<(&[u8], [u8; 32])>,
        auth_ok: bool,
    ) -> AuthVerdict {
        // Quarantine latch: a flagged device stays flagged.
        if let Some((_, reason)) = self.flagged {
            return AuthVerdict::Flagged(reason);
        }

        // Signal 1: helper integrity (digest compare + wire reparse).
        if config.integrity_check {
            if let Some((helper, digest)) = presented {
                if digest != *enrolled_digest {
                    let reason =
                        if validate_helper(scheme_tag, helper, SanityPolicy::Lenient).is_err() {
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
            .is_some_and(|&t| t + config.rate_window <= now)
        {
            self.recent.pop_front();
        }
        self.recent.push_back(now);
        if self.recent.len() > config.rate_budget as usize {
            return self.flag(now, FlagReason::RateBudget);
        }

        // Signal 3: consecutive-failure streak.
        if auth_ok {
            self.consecutive_failures = 0;
            AuthVerdict::Accept
        } else {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= config.failure_streak {
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

/// Online attack detector for one enrolled device.
///
/// `observe` consumes the defender-visible facts of one query —
/// logical timestamp, presented helper bytes (when the gateway can read
/// the device's NVM), and whether the response verified — and returns
/// the combined verdict. Timestamps must be non-decreasing per device.
///
/// The registry runs the same detector on its entries' state with one
/// shared config; this standalone form carries its own.
#[derive(Debug, Clone)]
pub struct DeviceDetector {
    config: DetectorConfig,
    scheme_tag: u8,
    enrolled_digest: [u8; 32],
    state: DetectorState,
}

impl DeviceDetector {
    /// Creates the detector for a device enrolled with `enrolled_helper`
    /// under the scheme identified by `scheme_tag`. Only the helper's
    /// digest is kept.
    pub fn new(config: DetectorConfig, scheme_tag: u8, enrolled_helper: &[u8]) -> Self {
        Self {
            config,
            scheme_tag,
            enrolled_digest: helper_digest(enrolled_helper),
            state: DetectorState::default(),
        }
    }

    /// `(timestamp, reason)` of the first flag, once flagged.
    pub fn flagged(&self) -> Option<(u64, FlagReason)> {
        self.state.flagged()
    }

    /// Judges one query. `presented_helper` is the device's current
    /// helper NVM contents when the defender can read them (`None`
    /// disables the integrity signal for this query); `auth_ok` is
    /// whether the response verified against the enrolled credential.
    pub fn observe(
        &mut self,
        now: u64,
        presented_helper: Option<&[u8]>,
        auth_ok: bool,
    ) -> AuthVerdict {
        self.state.observe(
            &self.config,
            self.scheme_tag,
            &self.enrolled_digest,
            now,
            digest_presented(&self.config, presented_helper),
            auth_ok,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_constructions::pairing::lisa::LISA_TAG;

    /// A structurally valid enrolled blob is irrelevant for most signal
    /// tests; integrity is exercised with real blobs in the service
    /// tests, here with digest mismatches on raw bytes.
    fn detector(config: DetectorConfig) -> (DeviceDetector, Vec<u8>) {
        let enrolled = vec![LISA_TAG, 1, 2, 3, 4];
        (DeviceDetector::new(config, LISA_TAG, &enrolled), enrolled)
    }

    fn relaxed() -> DetectorConfig {
        DetectorConfig {
            integrity_check: true,
            rate_window: 10,
            rate_budget: 3,
            failure_streak: 2,
        }
    }

    #[test]
    fn matching_helper_and_good_auth_accepts() {
        let (mut d, enrolled) = detector(relaxed());
        assert_eq!(d.observe(0, Some(&enrolled), true), AuthVerdict::Accept);
        assert_eq!(d.flagged(), None);
    }

    #[test]
    fn tampered_helper_flags_immediately_and_latches() {
        let (mut d, enrolled) = detector(relaxed());
        let mut tampered = enrolled.clone();
        tampered[2] ^= 0xFF;
        // Tampered bytes may or may not reparse; either way it's a flag.
        let v = d.observe(5, Some(&tampered), true);
        assert!(v.is_flagged());
        assert_eq!(d.flagged().map(|(t, _)| t), Some(5));
        // Latch: even a pristine follow-up query stays flagged.
        assert!(d.observe(6, Some(&enrolled), true).is_flagged());
    }

    #[test]
    fn garbage_helper_reports_malformed() {
        let (mut d, _) = detector(relaxed());
        let garbage = vec![0xEE; 7];
        assert_eq!(
            d.observe(0, Some(&garbage), true),
            AuthVerdict::Flagged(FlagReason::MalformedHelper)
        );
    }

    #[test]
    fn rate_budget_flags_bursts_but_not_spaced_traffic() {
        let cfg = relaxed(); // window 10, budget 3
        let (mut d, enrolled) = detector(cfg);
        // Spaced traffic: one query per 11 ticks never accumulates.
        for i in 0..10u64 {
            assert_eq!(
                d.observe(i * 11, Some(&enrolled), true),
                AuthVerdict::Accept
            );
        }
        // Burst: 4 queries in one window trips the budget.
        let (mut d, enrolled) = detector(cfg);
        for i in 0..3u64 {
            assert!(!d.observe(100 + i, Some(&enrolled), true).is_flagged());
        }
        assert_eq!(
            d.observe(103, Some(&enrolled), true),
            AuthVerdict::Flagged(FlagReason::RateBudget)
        );
    }

    #[test]
    fn failure_streak_flags_and_success_resets() {
        let (mut d, enrolled) = detector(relaxed()); // streak 2
        assert_eq!(d.observe(0, Some(&enrolled), false), AuthVerdict::Reject);
        assert_eq!(d.observe(20, Some(&enrolled), true), AuthVerdict::Accept);
        assert_eq!(d.observe(40, Some(&enrolled), false), AuthVerdict::Reject);
        assert_eq!(
            d.observe(60, Some(&enrolled), false),
            AuthVerdict::Flagged(FlagReason::FailureStreak)
        );
    }

    #[test]
    fn integrity_can_be_disabled() {
        let mut cfg = relaxed();
        cfg.integrity_check = false;
        let (mut d, enrolled) = detector(cfg);
        let mut tampered = enrolled;
        tampered[3] ^= 1;
        assert_eq!(d.observe(0, Some(&tampered), true), AuthVerdict::Accept);
    }

    #[test]
    fn no_helper_means_no_integrity_signal() {
        let (mut d, _) = detector(relaxed());
        assert_eq!(d.observe(0, None, true), AuthVerdict::Accept);
    }
}
