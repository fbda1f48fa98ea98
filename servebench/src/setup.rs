//! Set-up: provision the fleet, enroll it, capture the attack
//! trajectories, spawn the evented server and open the connections.

use std::io::{self, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ropuf_campaign::FleetSpec;
use ropuf_constructions::cooperative::{CooperativeConfig, CooperativeScheme, COOP_TAG};
use ropuf_constructions::group::{GroupBasedConfig, GroupBasedScheme, GROUP_TAG};
use ropuf_constructions::pairing::distilled::{
    DistilledConfig, DistilledPairingScheme, DISTILLED_TAG,
};
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme, LISA_TAG};
use ropuf_constructions::HelperDataScheme;
use ropuf_proto::{
    append_frame, AuthItem, ErrorCode, FrameReader, RequestRef, Response, PROTOCOL_VERSION,
};
use ropuf_server::{
    Client, ClientError, EventedConfig, EventedServer, LoopbackTransport, RequestHandler,
    TrafficPlan, TrafficSpec, VerifierHandler,
};
use ropuf_sim::ArrayDims;
use ropuf_verifier::{
    client_tag, shard_for, BatchEnrollment, DetectorConfig, StoreOptions, Verifier,
};

use crate::probe;
use crate::stream::{sub_seed, Rng, Workload, FLEET};
use crate::trace::TracingHandler;

/// LISA trajectories captured for `attack-mix` (replayed round-robin).
const TRAJECTORIES: usize = 2;

/// One real helper blob per construction, shared by every fleet
/// device of that scheme.
pub struct Helper {
    pub name: &'static str,
    pub tag: u8,
    pub bytes: Vec<u8>,
}

/// A fleet device's credentials: its helper slot, key digest, and the
/// precomputed nonce and tag it authenticates with.
pub struct Creds {
    pub slot: u8,
    pub key_digest: [u8; 32],
    pub nonce: [u8; 16],
    pub tag: [u8; 32],
}

/// A captured LISA key-recovery trajectory and where the in-process
/// loopback reference first answers `DeviceFlagged`.
pub struct Trajectory {
    pub enrollment: BatchEnrollment,
    pub items: Vec<AuthItem>,
    pub flag_index: usize,
}

pub struct Fleet {
    pub seed: u64,
    pub helpers: Vec<Helper>,
    pub creds: Vec<Creds>,
    pub trajectories: Vec<Trajectory>,
}

impl Fleet {
    /// The key digest of any device id, fleet or newly enrolled.
    pub fn key_digest(&self, id: u64) -> [u8; 32] {
        let mut digest = [0u8; 32];
        Rng::new(sub_seed(self.seed, 3) ^ id).fill(&mut digest);
        digest
    }

    /// The enrollment batch of the benign fleet.
    pub fn enrollments(&self) -> Vec<BatchEnrollment> {
        self.creds
            .iter()
            .enumerate()
            .map(|(id, c)| {
                let helper = &self.helpers[usize::from(c.slot)];
                BatchEnrollment {
                    device_id: id as u64,
                    scheme_tag: helper.tag,
                    helper: helper.bytes.clone(),
                    key_digest: c.key_digest,
                }
            })
            .collect()
    }
}

/// The four constructions of the fleet mix, with their array sizes.
fn schemes() -> [(&'static str, u8, ArrayDims, Box<dyn HelperDataScheme>); 4] {
    [
        (
            "lisa",
            LISA_TAG,
            ArrayDims::new(16, 8),
            Box::new(LisaScheme::new(LisaConfig::default())),
        ),
        (
            "cooperative",
            COOP_TAG,
            ArrayDims::new(16, 8),
            Box::new(CooperativeScheme::new(CooperativeConfig::default())),
        ),
        (
            "group-based",
            GROUP_TAG,
            ArrayDims::new(10, 4),
            Box::new(GroupBasedScheme::new(GroupBasedConfig::default())),
        ),
        (
            "distiller",
            DISTILLED_TAG,
            ArrayDims::new(10, 4),
            Box::new(DistilledPairingScheme::new(DistilledConfig::default())),
        ),
    ]
}

pub fn provision(seed: u64) -> Fleet {
    let helpers = schemes()
        .into_iter()
        .map(|(name, tag, dims, scheme)| {
            let spec = FleetSpec {
                dims,
                devices: 64,
                master_seed: seed,
            };
            // Some sampled arrays cannot support a scheme; take the
            // first device of the seed's fleet that can.
            let device = (0..spec.devices)
                .find_map(|id| spec.provision_device(id, scheme.as_ref()).ok())
                .unwrap_or_else(|| panic!("no {name} device provisions under seed {seed}"));
            Helper {
                name,
                tag,
                bytes: device.helper().to_vec(),
            }
        })
        .collect();
    let mut fleet = Fleet {
        seed,
        helpers,
        creds: Vec::new(),
        trajectories: Vec::new(),
    };
    let mut rng = Rng::new(sub_seed(seed, 4));
    fleet.creds = (0..FLEET as u64)
        .map(|id| {
            let key_digest = fleet.key_digest(id);
            let mut nonce = [0u8; 16];
            rng.fill(&mut nonce);
            Creds {
                slot: (id % 4) as u8,
                key_digest,
                nonce,
                tag: client_tag(&key_digest, &nonce),
            }
        })
        .collect();
    fleet
}

/// Captures real LISA trajectories with `TrafficPlan::build` and finds,
/// for each, the request index at which an in-process loopback replay
/// against a fresh verifier first answers `DeviceFlagged`.
pub fn capture(seed: u64) -> Vec<Trajectory> {
    let plan = TrafficPlan::build(&TrafficSpec {
        devices: 4 * TRAJECTORIES,
        master_seed: seed,
        rounds: 1,
        lisa: LisaConfig::default(),
        detector: DetectorConfig::default(),
    });
    plan.attackers()
        .map(|d| {
            let handler = Arc::new(VerifierHandler::new(Arc::new(Verifier::default())));
            let mut client = Client::new(LoopbackTransport::new(handler));
            let e = &d.enrollment;
            client
                .enroll(e.device_id, e.scheme_tag, e.helper.clone(), e.key_digest)
                .expect("loopback enroll of a fresh id");
            let flag_index = d
                .requests
                .iter()
                .position(|item| {
                    matches!(
                        client.authenticate_ref(item.as_ref()),
                        Err(ClientError::Server {
                            code: ErrorCode::DeviceFlagged,
                            ..
                        })
                    )
                })
                .expect("the detector flags every LISA trajectory");
            Trajectory {
                enrollment: d.enrollment.clone(),
                items: d.requests.clone(),
                flag_index,
            }
        })
        .collect()
}

/// One pipelined connection and the event loop it landed on.
pub struct Conn {
    pub stream: TcpStream,
    pub loop_id: u32,
}

/// Sends one request and waits for its answer (set-up and final
/// scrape only; the generator pipelines).
pub fn roundtrip(stream: &TcpStream, request: &RequestRef<'_>) -> io::Result<Response> {
    let mut payload = Vec::new();
    request.encode_into(&mut payload);
    let mut frame = Vec::new();
    append_frame(&mut frame, &payload).map_err(|e| io::Error::other(e.to_string()))?;
    (&*stream).write_all(&frame)?;
    FrameReader::new(stream)
        .read_response()
        .map_err(|e| io::Error::other(e.to_string()))?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
}

/// Set-up stage timings (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub provision: f64,
    pub enroll_batch: f64,
    pub attack_capture: f64,
    pub server_spawn: f64,
    /// Resident bytes the enrolled registry added, per device.
    pub registry_bytes_per_device: f64,
}

/// A running deployment: the verifier, the server in front of it and
/// the generator's connections.
pub struct Deployment {
    pub fleet: Fleet,
    pub verifier: Arc<Verifier>,
    pub tracer: Option<Arc<TracingHandler>>,
    pub server: EventedServer,
    pub conns: Vec<Conn>,
    pub loops: u32,
    /// Frames sent outside the generator (hellos, loop probes).
    pub frames: u64,
    pub times: SetupTimes,
}

impl Deployment {
    /// The connection a device's traffic uses: one on the event loop
    /// that owns the device's shard when there is one (the
    /// `LoopInfo` affinity loadgen uses), else by id.
    pub fn route(&self, id: u64) -> usize {
        if self.conns.len() == 1 {
            return 0;
        }
        let shards = self.verifier.registry().shard_count();
        let owner = (shard_for(id, shards) % self.loops as usize) as u32;
        self.conns
            .iter()
            .position(|c| c.loop_id == owner)
            .unwrap_or((id % self.conns.len() as u64) as usize)
    }

    pub fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// Builds one deployment. The store (on `attack-mix`) lives in
/// `store_dir`, which must not exist yet.
pub fn deploy(workload: Workload, seed: u64, traced: bool, store_dir: &Path) -> Deployment {
    let t0 = Instant::now();
    let mut fleet = provision(seed);
    // The registry's resident cost: the enrollment copies of the
    // helpers it keeps, plus its per-device entries.
    let rss0 = probe::status_kb("VmRSS");
    let enrollments = fleet.enrollments();
    let provision_s = t0.elapsed().as_secs_f64();

    // The program's default verifier shape (8 shards today), so a
    // change to the default reaches the benchmark unedited.
    let default = Verifier::default();
    let verifier = if workload.durable() {
        let shards = default.registry().shard_count();
        let config = default.registry().detector_config();
        Verifier::open_durable(store_dir, shards, config, StoreOptions::default())
            .expect("open a fresh durable store")
            .0
    } else {
        default
    };
    let verifier = Arc::new(verifier);
    let t1 = Instant::now();
    let results = verifier.enroll_batch(enrollments);
    let enroll_s = t1.elapsed().as_secs_f64();
    assert!(
        results.iter().all(Result::is_ok),
        "fleet ids are distinct, so enroll_batch accepts all"
    );
    let added = probe::status_kb("VmRSS").saturating_sub(rss0) * 1024;

    let t2 = Instant::now();
    if workload == Workload::AttackMix {
        fleet.trajectories = capture(seed);
    }
    let capture_s = t2.elapsed().as_secs_f64();

    let t3 = Instant::now();
    let inner = VerifierHandler::new(Arc::clone(&verifier));
    let (handler, tracer): (Arc<dyn RequestHandler>, _) = if traced {
        let tracer = Arc::new(TracingHandler::new(inner));
        (tracer.clone(), Some(tracer))
    } else {
        (Arc::new(inner), None)
    };
    let server = EventedServer::spawn("127.0.0.1:0", handler, EventedConfig::default())
        .expect("bind an ephemeral localhost port");
    let (conns, loops, frames) = connect(server.local_addr());
    let spawn_s = t3.elapsed().as_secs_f64();

    Deployment {
        fleet,
        verifier,
        tracer,
        server,
        conns,
        loops,
        frames,
        times: SetupTimes {
            total: t0.elapsed().as_secs_f64(),
            provision: provision_s,
            enroll_batch: enroll_s,
            attack_capture: capture_s,
            server_spawn: spawn_s,
            registry_bytes_per_device: added as f64 / FLEET as f64,
        },
    }
}

/// Opens one connection per event loop the server reports, never more
/// than `nproc`. Returns the connections, the loop count and the
/// frames spent on hellos and probes.
fn connect(addr: std::net::SocketAddr) -> (Vec<Conn>, u32, u64) {
    let mut conns = Vec::new();
    let mut frames = 0;
    let mut loops = 1;
    while conns.len() < (loops as usize).min(probe::nproc()).max(1) {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let hello = RequestRef::Hello {
            protocol: PROTOCOL_VERSION,
            client: "servebench",
        };
        match roundtrip(&stream, &hello).expect("hello") {
            Response::HelloOk { .. } => {}
            other => panic!("hello answered {other:?}"),
        }
        let (loop_id, total) = match roundtrip(&stream, &RequestRef::LoopInfo).expect("loop info") {
            Response::LoopInfoOk { loop_id, loops } => (loop_id, loops),
            other => panic!("LoopInfo answered {other:?}"),
        };
        frames += 2;
        loops = total.max(1);
        conns.push(Conn { stream, loop_id });
    }
    (conns, loops, frames)
}
