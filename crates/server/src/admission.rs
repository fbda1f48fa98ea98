//! Admission control: bounded budgets with graceful brown-out.
//!
//! An overloaded verifier must degrade *predictably*: answer cheap
//! typed errors fast instead of queueing unboundedly, and shed the
//! traffic that matters least first. The policy here is two
//! thresholds over one pressure signal, [`evented_pressure`]: a
//! connection's queued out-buffer bytes plus the event loop's
//! ready-list backlog, in byte equivalents:
//!
//! * **brown-out** (`brownout_pressure`): observability scrapes
//!   (metrics/trace/snapshots) and `QueryVerdict` lookups
//!   are shed with [`ErrorCode::Overloaded`]; authentication and
//!   enrollment keep serving. Scrapes are the right first sacrifice —
//!   they are large, bursty, and retryable, and the fleet has other
//!   replicas to scrape.
//! * **hard limit** (`max_pressure`): everything but the `Hello`
//!   handshake is shed. The answer is a pre-classified one-byte-peek
//!   decision plus a tiny error frame — no decode, no verifier work —
//!   so it leaves the server in well under a millisecond and tells
//!   the client exactly when to come back (`retry_after_ms`).
//!
//! Shedding is visible: every refusal counts into
//! `server.shed{class}`. The default policy is disabled (infinite
//! budgets) so existing deployments and the equivalence suites are
//! byte-for-byte unaffected until a budget is configured.

use ropuf_proto::{overload_detail, ErrorCode, Response};
use ropuf_telemetry::Counter;

use crate::telemetry::ServerTelemetry;

/// Coarse request taxonomy for admission decisions, classifiable from
/// the first payload byte alone — shedding must not pay for a decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// `Authenticate` / `BatchAuthenticate` — the product traffic,
    /// shed last.
    Auth,
    /// `Enroll` — mutations; kept through brown-out, shed at the hard
    /// limit.
    Mutate,
    /// `QueryVerdict` — point lookups, shed at brown-out.
    Verdict,
    /// Snapshots and observability dumps — shed first at brown-out.
    Scrape,
    /// `Hello` and unclassifiable bytes — handshakes are admitted
    /// always (they are how a client learns who it is talking to),
    /// garbage is cheaper to reject through the normal decode error
    /// path than to special-case here.
    Other,
}

impl RequestClass {
    /// Classifies a request by its wire type byte (the first payload
    /// byte of a frame).
    pub fn of(msg_type: u8) -> Self {
        match msg_type {
            0x03 | 0x04 => RequestClass::Auth,
            0x02 => RequestClass::Mutate,
            0x05 => RequestClass::Verdict,
            0x07..=0x09 => RequestClass::Scrape,
            _ => RequestClass::Other,
        }
    }

    /// The `class` label value for `server.shed`.
    pub fn label(self) -> &'static str {
        match self {
            RequestClass::Auth => "auth",
            RequestClass::Mutate => "mutate",
            RequestClass::Verdict => "verdict",
            RequestClass::Scrape => "scrape",
            RequestClass::Other => "other",
        }
    }

    fn slot(self) -> usize {
        match self {
            RequestClass::Auth => 0,
            RequestClass::Mutate => 1,
            RequestClass::Verdict => 2,
            RequestClass::Scrape => 3,
            RequestClass::Other => 4,
        }
    }
}

/// Every class, in [`RequestClass::slot`] order.
const CLASSES: [RequestClass; 5] = [
    RequestClass::Auth,
    RequestClass::Mutate,
    RequestClass::Verdict,
    RequestClass::Scrape,
    RequestClass::Other,
];

/// Ready events below this depth contribute nothing to pressure: batch
/// sizes in the tens are the evented loop's normal operating point,
/// not overload.
pub const READY_BACKLOG_GRACE: u64 = 256;

/// Pressure (in pending-out-byte equivalents) each ready event beyond
/// [`READY_BACKLOG_GRACE`] adds: a deep ready list means that many
/// more frames are already committed to decode + handle + flush ahead
/// of this one.
pub const READY_EVENT_COST: u64 = 4096;

/// The evented backend's pressure signal: the connection's unsent
/// response bytes **plus** the depth of the epoll ready list still
/// waiting behind the event being serviced. Pending-out bytes alone
/// (PR 9) miss a ready-wait-dominated overload — thousands of
/// connections with empty out-buffers all going ready at once — so
/// backlog beyond [`READY_BACKLOG_GRACE`] is folded in at
/// [`READY_EVENT_COST`] byte-equivalents per event.
pub fn evented_pressure(pending_out_bytes: u64, ready_backlog: u64) -> u64 {
    pending_out_bytes.saturating_add(
        ready_backlog
            .saturating_sub(READY_BACKLOG_GRACE)
            .saturating_mul(READY_EVENT_COST),
    )
}

/// Overload thresholds, in the pending-out-byte equivalents
/// [`evented_pressure`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// At or above this pressure, scrapes and verdict lookups are
    /// shed (brown-out).
    pub brownout_pressure: u64,
    /// At or above this pressure, everything but `Hello` is shed.
    pub max_pressure: u64,
    /// Backoff hint carried in the `Overloaded` error detail.
    pub retry_after_ms: u32,
}

impl OverloadPolicy {
    /// The disabled policy: infinite budgets, nothing is ever shed.
    pub fn disabled() -> Self {
        Self {
            brownout_pressure: u64::MAX,
            max_pressure: u64::MAX,
            retry_after_ms: 50,
        }
    }

    /// `true` when any budget is finite.
    pub fn is_enabled(&self) -> bool {
        self.brownout_pressure != u64::MAX || self.max_pressure != u64::MAX
    }
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The server's admission gate: the policy and the shed counters.
/// Shareable across event loops; a decision compares the pressure
/// against the two thresholds.
#[derive(Debug)]
pub struct Admission {
    policy: OverloadPolicy,
    shed: [Counter; CLASSES.len()],
}

impl Admission {
    /// Builds the gate, registering `server.shed{class}` counters in
    /// the server's telemetry.
    pub fn new(policy: OverloadPolicy, telemetry: &ServerTelemetry) -> Self {
        Self {
            policy,
            shed: CLASSES.map(|class| telemetry.shed_counter(class.label())),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Decides one request given the current pressure.
    /// `None` admits; `Some(response)` is the shed answer to write
    /// back (already counted in `server.shed{class}`).
    pub fn check(&self, class: RequestClass, pressure: u64) -> Option<Response> {
        let shed = if pressure >= self.policy.max_pressure {
            class != RequestClass::Other
        } else if pressure >= self.policy.brownout_pressure {
            matches!(class, RequestClass::Verdict | RequestClass::Scrape)
        } else {
            false
        };
        if !shed {
            return None;
        }
        self.shed[class.slot()].inc();
        Some(Response::Error {
            code: ErrorCode::Overloaded,
            detail: overload_detail(self.policy.retry_after_ms),
        })
    }

    /// Total requests shed so far, all classes.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(Counter::get).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn telemetry() -> std::sync::Arc<ServerTelemetry> {
        ServerTelemetry::new(Duration::ZERO, 8)
    }

    #[test]
    fn classes_cover_the_wire_bytes() {
        assert_eq!(RequestClass::of(0x03), RequestClass::Auth);
        assert_eq!(RequestClass::of(0x04), RequestClass::Auth);
        assert_eq!(RequestClass::of(0x02), RequestClass::Mutate);
        assert_eq!(RequestClass::of(0x05), RequestClass::Verdict);
        for scrape in 0x07..=0x09 {
            assert_eq!(RequestClass::of(scrape), RequestClass::Scrape);
        }
        // Retired bytes are garbage now: rejected by the decoder, not
        // shed.
        assert_eq!(RequestClass::of(0x06), RequestClass::Other);
        assert_eq!(RequestClass::of(0x0A), RequestClass::Other);
        assert_eq!(RequestClass::of(0x01), RequestClass::Other);
        // LoopInfo is topology discovery, admitted like the handshake.
        assert_eq!(RequestClass::of(0x0B), RequestClass::Other);
        assert_eq!(RequestClass::of(0xEE), RequestClass::Other);
    }

    #[test]
    fn ready_backlog_trips_brownout_with_empty_out_buffers() {
        let t = telemetry();
        let gate = Admission::new(
            OverloadPolicy {
                brownout_pressure: 64 * 1024,
                max_pressure: 512 * 1024,
                retry_after_ms: 2,
            },
            &t,
        );
        // Normal batch depths add no pressure at all.
        assert_eq!(evented_pressure(0, 0), 0);
        assert_eq!(evented_pressure(0, READY_BACKLOG_GRACE), 0);
        assert_eq!(
            gate.check(RequestClass::Verdict, evented_pressure(0, 64)),
            None
        );
        // A ready list deep past the grace band is overload even when
        // not a single byte is queued for write — the PR 9 signal
        // (pending-out only) could never see this.
        let deep = READY_BACKLOG_GRACE + 64 * 1024 / READY_EVENT_COST;
        assert!(evented_pressure(0, deep) >= 64 * 1024);
        assert!(gate
            .check(RequestClass::Verdict, evented_pressure(0, deep))
            .is_some());
        // And the two signals compose: bytes already near the budget
        // need only a shallow backlog to cross it.
        assert!(gate
            .check(
                RequestClass::Scrape,
                evented_pressure(60 * 1024, READY_BACKLOG_GRACE + 1)
            )
            .is_some());
        // Auth still serves through brown-out either way.
        assert_eq!(
            gate.check(RequestClass::Auth, evented_pressure(0, deep)),
            None
        );
    }

    #[test]
    fn disabled_policy_admits_everything() {
        let t = telemetry();
        let gate = Admission::new(OverloadPolicy::disabled(), &t);
        assert!(!gate.policy().is_enabled());
        for class in CLASSES {
            assert_eq!(gate.check(class, u64::MAX - 1), None);
        }
        assert_eq!(gate.shed_total(), 0);
    }

    #[test]
    fn brownout_sheds_scrapes_and_verdicts_only() {
        let t = telemetry();
        let gate = Admission::new(
            OverloadPolicy {
                brownout_pressure: 10,
                max_pressure: 100,
                retry_after_ms: 25,
            },
            &t,
        );
        // Below brown-out: everything admitted.
        for class in CLASSES {
            assert_eq!(gate.check(class, 9), None);
        }
        // Brown-out: scrape + verdict shed with the retry hint; auth
        // and enroll keep serving.
        for class in [RequestClass::Scrape, RequestClass::Verdict] {
            match gate.check(class, 10) {
                Some(Response::Error { code, detail }) => {
                    assert_eq!(code, ErrorCode::Overloaded);
                    assert_eq!(ropuf_proto::parse_retry_after_ms(&detail), Some(25));
                }
                other => panic!("expected shed, got {other:?}"),
            }
        }
        assert_eq!(gate.check(RequestClass::Auth, 10), None);
        assert_eq!(gate.check(RequestClass::Mutate, 10), None);
        // Hard limit: only Hello survives.
        assert!(gate.check(RequestClass::Auth, 100).is_some());
        assert!(gate.check(RequestClass::Mutate, 100).is_some());
        assert_eq!(gate.check(RequestClass::Other, 100), None);
        assert_eq!(gate.shed_total(), 4);
        // The sheds are attributable by class.
        let snap = t.snapshot();
        assert_eq!(snap.counter_total("server.shed"), 4);
        match snap.find("server.shed", &[("backend", "evented"), ("class", "auth")]) {
            Some(ropuf_telemetry::MetricValue::Counter(v)) => assert_eq!(*v, 1),
            other => panic!("expected auth shed counter, got {other:?}"),
        }
    }
}
