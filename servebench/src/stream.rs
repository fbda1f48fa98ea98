//! The seeded request stream: which device asks what, and when.
//!
//! Everything a run sends derives from `--seed` through [`Rng`]: the
//! Poisson arrival times ([`Arrivals`]) and the operation sequence
//! ([`Stream`]). Encoding is a pure function of that sequence and the
//! fleet, so one seed gives one byte stream.

use ropuf_proto::{append_frame, AuthItemRef, RequestRef, WireAuthResponse};
use ropuf_verifier::DetectorConfig;

use crate::setup::Fleet;

/// Benign fleet size enrolled through `Verifier::enroll_batch`.
pub const FLEET: usize = 65_536;

/// `MetricsSnapshot` cadence on `attack-mix` (the CI ops-console rate).
pub const SCRAPE_EVERY_NS: u64 = 250_000_000;

/// Logical ticks between two requests of one benign device: half the
/// detector's rate budget, the same spacing `TrafficPlan` uses, so no
/// benign device ever trips the rate window.
pub fn benign_gap() -> u64 {
    let d = DetectorConfig::default();
    2 * d.rate_window / u64::from(d.rate_budget).max(1)
}

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Independent sub-streams of one seed.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Poisson arrivals: exponential gaps at a fixed mean rate.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl Arrivals {
    /// The schedule of phase number `phase` of a run.
    pub fn new(seed: u64, phase: u64, rate_per_s: f64) -> Self {
        Self {
            rng: Rng::new(sub_seed(seed, 100 + phase)),
            mean_gap_ns: 1e9 / rate_per_s,
            next_ns: 0.0,
        }
    }

    /// Due time of the next arrival, nanoseconds from the phase start.
    pub fn peek(&self) -> u64 {
        self.next_ns as u64
    }

    pub fn advance(&mut self) {
        self.next_ns += -self.rng.unit().ln() * self.mean_gap_ns;
    }
}

/// The workloads: one where the event loop's per-frame cost dominates,
/// one that mixes in writes, errors, WAL appends and scrapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AuthSingle,
    AttackMix,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Self::AuthSingle, Self::AttackMix];

    pub fn name(self) -> &'static str {
        match self {
            Self::AuthSingle => "auth-single",
            Self::AttackMix => "attack-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rate of the fixed-rate phase, frames per second: about a
    /// tenth of saturation, so latency is service time rather than
    /// queueing, and host CPU steal does not tip the event loop into
    /// overload (at 25,000/s, 22% steal put p50 at 1.7 ms).
    pub fn rate(self) -> f64 {
        match self {
            Self::AuthSingle => 15_000.0,
            Self::AttackMix => 15_000.0,
        }
    }

    pub fn durable(self) -> bool {
        self == Self::AttackMix
    }
}

/// What a frame asks, and so what its answer must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Benign single auth of a fleet device: `Verdict(Accept)`.
    Auth,
    /// Wire enroll of a new id (benign or attack target): `EnrollOk`.
    Enroll,
    /// Step `aux` of a replayed LISA trajectory.
    Attack,
    /// `QueryVerdict` of an attacked id: flagged.
    Query,
    /// `MetricsSnapshot`: a decodable blob.
    Scrape,
}

impl Kind {
    /// Operations this frame completes (`max_rps`, `cpu_us_per_op`).
    pub fn ops(self) -> u64 {
        match self {
            Kind::Scrape => 0,
            _ => 1,
        }
    }

    /// The server's `msg` telemetry label for this frame.
    pub fn msg(self) -> &'static str {
        match self {
            Kind::Auth | Kind::Attack => "auth",
            Kind::Enroll => "enroll",
            Kind::Query => "query-verdict",
            Kind::Scrape => "metrics",
        }
    }
}

/// One sent frame: what the receiver checks its answer against, plus
/// the client-side span stamps (nanoseconds from the phase epoch; the
/// encode and write stamps are taken only in traced runs).
#[derive(Debug, Clone, Copy)]
pub struct Desc {
    pub kind: Kind,
    /// Device id; with `now`, the key that joins the handler-side span.
    pub id: u64,
    /// Logical `now`.
    pub now: u64,
    /// `trajectory << 16 | step` for [`Kind::Attack`], the trajectory
    /// for [`Kind::Query`].
    pub aux: u32,
    pub intended: u64,
    pub encode0: u64,
    pub encode1: u64,
    pub write0: u64,
    pub write1: u64,
}

/// A LISA replay in progress: enroll, then every trajectory query,
/// then one verdict query.
#[derive(Debug, Clone, Copy)]
struct Episode {
    id: u64,
    traj: usize,
    step: usize,
}

/// The operation sequence of one workload, encoded frame by frame.
pub struct Stream<'a> {
    workload: Workload,
    fleet: &'a Fleet,
    rng: Rng,
    nows: Vec<u64>,
    gap: u64,
    next_id: u64,
    episode: Option<Episode>,
    episodes: usize,
    payload: Vec<u8>,
}

impl<'a> Stream<'a> {
    /// The stream of round `round` of a run against a fresh registry.
    pub fn new(workload: Workload, fleet: &'a Fleet, round: u32) -> Self {
        Self {
            workload,
            fleet,
            rng: Rng::new(sub_seed(fleet.seed, 1000 + u64::from(round))),
            nows: vec![0; fleet.creds.len()],
            gap: benign_gap(),
            next_id: fleet.creds.len() as u64,
            episode: None,
            episodes: 0,
            payload: Vec::with_capacity(1024),
        }
    }

    fn device(&mut self) -> usize {
        self.rng.below(self.fleet.creds.len() as u64) as usize
    }

    /// A benign auth item for fleet device `d`, advancing its clock.
    fn benign_item(&mut self, d: usize) -> AuthItemRef<'a> {
        let fleet = self.fleet;
        let c = &fleet.creds[d];
        let now = self.nows[d];
        self.nows[d] += self.gap;
        AuthItemRef {
            device_id: d as u64,
            now,
            nonce: &c.nonce,
            response: WireAuthResponse::Tag(c.tag),
            presented_helper: Some(&fleet.helpers[usize::from(c.slot)].bytes),
        }
    }

    /// Appends the next operation's frame to `out`.
    pub fn next_frame(&mut self, out: &mut Vec<u8>) -> Desc {
        match self.workload {
            Workload::AuthSingle => self.auth(out),
            Workload::AttackMix => match self.rng.below(10) {
                0..=7 => self.auth(out),
                8 => self.enroll(out),
                _ => self.attack(out),
            },
        }
    }

    fn finish(&mut self, request: &RequestRef<'_>, out: &mut Vec<u8>) {
        request.encode_into(&mut self.payload);
        append_frame(out, &self.payload).expect("request frames stay far below MAX_FRAME");
    }

    fn auth(&mut self, out: &mut Vec<u8>) -> Desc {
        let d = self.device();
        let item = self.benign_item(d);
        self.finish(&RequestRef::Authenticate(item), out);
        desc(Kind::Auth, item.device_id, item.now, 0)
    }

    fn enroll(&mut self, out: &mut Vec<u8>) -> Desc {
        let fleet = self.fleet;
        let id = self.next_id;
        self.next_id += 1;
        let helper = &fleet.helpers[self.rng.below(fleet.helpers.len() as u64) as usize];
        self.finish(
            &RequestRef::Enroll {
                device_id: id,
                scheme_tag: helper.tag,
                helper: &helper.bytes,
                key_digest: fleet.key_digest(id),
            },
            out,
        );
        desc(Kind::Enroll, id, 0, 0)
    }

    fn attack(&mut self, out: &mut Vec<u8>) -> Desc {
        let fleet = self.fleet;
        let mut ep = match self.episode {
            Some(ep) => ep,
            None => {
                let ep = Episode {
                    id: self.next_id,
                    traj: self.episodes % fleet.trajectories.len(),
                    step: 0,
                };
                self.next_id += 1;
                self.episodes += 1;
                ep
            }
        };
        let traj = &fleet.trajectories[ep.traj];
        let d = if ep.step == 0 {
            let e = &traj.enrollment;
            self.finish(
                &RequestRef::Enroll {
                    device_id: ep.id,
                    scheme_tag: e.scheme_tag,
                    helper: &e.helper,
                    key_digest: e.key_digest,
                },
                out,
            );
            desc(Kind::Enroll, ep.id, 0, 0)
        } else if ep.step <= traj.items.len() {
            let item = &traj.items[ep.step - 1];
            self.finish(
                &RequestRef::Authenticate(AuthItemRef {
                    device_id: ep.id,
                    ..item.as_ref()
                }),
                out,
            );
            let aux = ((ep.traj as u32) << 16) | (ep.step - 1) as u32;
            desc(Kind::Attack, ep.id, item.now, aux)
        } else {
            self.finish(&RequestRef::QueryVerdict { device_id: ep.id }, out);
            desc(Kind::Query, ep.id, u64::MAX, ep.traj as u32)
        };
        ep.step += 1;
        self.episode = (ep.step <= traj.items.len() + 1).then_some(ep);
        d
    }

    /// Appends a `MetricsSnapshot` frame; `ordinal` counts scrapes so
    /// each joins its handler-side span.
    pub fn scrape_frame(&mut self, out: &mut Vec<u8>, ordinal: u64) -> Desc {
        self.finish(&RequestRef::MetricsSnapshot, out);
        desc(Kind::Scrape, u64::MAX, ordinal, 0)
    }

    /// The next `n` benign single-auth items of this stream as owned
    /// values, for the single-thread layer replays.
    pub fn benign_items(&mut self, n: usize) -> Vec<ropuf_proto::AuthItem> {
        (0..n)
            .map(|_| {
                let d = self.device();
                self.benign_item(d).to_owned()
            })
            .collect()
    }

    /// The fleet's device count plus the ids this stream enrolled.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }
}

fn desc(kind: Kind, id: u64, now: u64, aux: u32) -> Desc {
    Desc {
        kind,
        id,
        now,
        aux,
        intended: 0,
        encode0: 0,
        encode1: 0,
        write0: 0,
        write1: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{capture, provision};

    fn fleet(workload: Workload, seed: u64) -> Fleet {
        let mut fleet = provision(seed);
        if workload == Workload::AttackMix {
            fleet.trajectories = capture(seed);
        }
        fleet
    }

    /// The first `n` frames of round 0 (with a scrape every 100) and
    /// the fixed-rate schedule's first `n` due times.
    fn stream_bytes(fleet: &Fleet, workload: Workload, n: u64) -> (Vec<u8>, Vec<u64>) {
        let mut stream = Stream::new(workload, fleet, 0);
        let mut arrivals = Arrivals::new(fleet.seed, 1, workload.rate());
        let (mut bytes, mut due) = (Vec::new(), Vec::new());
        for i in 0..n {
            due.push(arrivals.peek());
            arrivals.advance();
            stream.next_frame(&mut bytes);
            if i % 100 == 0 {
                stream.scrape_frame(&mut bytes, i / 100);
            }
        }
        (bytes, due)
    }

    #[test]
    fn one_seed_gives_a_byte_identical_stream_and_schedule() {
        for workload in Workload::ALL {
            let a = stream_bytes(&fleet(workload, 7), workload, 3_000);
            let b = stream_bytes(&fleet(workload, 7), workload, 3_000);
            assert!(a == b, "{}: same seed, different stream", workload.name());
            let c = stream_bytes(&fleet(workload, 8), workload, 3_000);
            assert!(
                a.0 != c.0 && a.1 != c.1,
                "{}: the seed is ignored",
                workload.name()
            );
        }
    }

    #[test]
    fn attack_mix_replays_whole_trajectories_against_fresh_ids() {
        let fleet = fleet(Workload::AttackMix, 7);
        let mut stream = Stream::new(Workload::AttackMix, &fleet, 0);
        let mut out = Vec::new();
        let descs: Vec<Desc> = (0..20_000).map(|_| stream.next_frame(&mut out)).collect();
        let traj = &fleet.trajectories[0];
        let first_attack = descs
            .iter()
            .position(|d| d.kind == Kind::Attack)
            .expect("attack steps in 20k ops");
        let id = descs[first_attack].id;
        assert!(
            id >= FLEET as u64,
            "attacks target ids enrolled on the wire"
        );
        let steps: Vec<&Desc> = descs.iter().filter(|d| d.id == id).collect();
        assert_eq!(steps[0].kind, Kind::Enroll);
        assert_eq!(
            steps.len(),
            traj.items.len() + 2,
            "enroll, every query, one verdict query"
        );
        assert_eq!(steps.last().expect("steps").kind, Kind::Query);
        let share =
            descs.iter().filter(|d| d.kind == Kind::Auth).count() as f64 / descs.len() as f64;
        assert!((0.78..0.82).contains(&share), "benign share {share}");
    }

    #[test]
    fn poisson_schedule_holds_its_mean_rate() {
        for workload in Workload::ALL {
            let rate = workload.rate();
            let mut arrivals = Arrivals::new(3, 1, rate);
            let n = 200_000;
            let mut gaps = Vec::with_capacity(n);
            let mut last = 0;
            for _ in 0..n {
                arrivals.advance();
                gaps.push((arrivals.peek() - last) as f64);
                last = arrivals.peek();
            }
            let measured = n as f64 / (last as f64 / 1e9);
            assert!(
                (measured / rate - 1.0).abs() < 0.01,
                "{rate}/s measured {measured}/s"
            );
            // Exponential gaps: standard deviation equals the mean.
            let mean = gaps.iter().sum::<f64>() / n as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(
                (var.sqrt() / mean - 1.0).abs() < 0.02,
                "gap cv {}",
                var.sqrt() / mean
            );
        }
    }
}
