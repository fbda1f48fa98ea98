//! The load generator: one sender thread that sleeps until each due
//! time, one receiver thread that decodes and checks every answer.
//!
//! Open loop: arrivals follow the seeded Poisson schedule whatever the
//! server does, and latency runs from each request's *intended* send
//! time, so a stall is charged to every request it delays
//! (coordinated-omission-free). Closed loop (saturation): a fixed
//! window of frames stays in flight per connection.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use ropuf_proto::{ErrorCode, Response};
use ropuf_server::sys::epoll::{event, Epoll, Event};

use crate::probe::{self, THREAD_PREFIX};
use crate::setup::{Deployment, Fleet};
use crate::stream::{Arrivals, Desc, Kind, Stream, SCRAPE_EVERY_NS};

/// Most frames one sender wake-up coalesces into one write.
const MAX_BURST: usize = 256;

/// How long the receiver waits for a missing answer once the sender is
/// done before it counts the rest as failures.
const ANSWER_GRACE: Duration = Duration::from_secs(3);

/// Threads the generator runs: one sender, one receiver.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// The Poisson arrivals passed to [`run`].
    Open,
    /// A fixed number of frames in flight per connection.
    Closed { window: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub pace: Pace,
    pub duration: Duration,
    /// Stamp client-side spans.
    pub trace: bool,
    /// Interleave a `MetricsSnapshot` every `SCRAPE_EVERY_NS`.
    pub scrapes: bool,
}

/// One answered frame's client-side span (nanoseconds from the phase
/// epoch).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub desc: Desc,
    pub read_end: u64,
    pub decode0: u64,
    pub decode1: u64,
}

#[derive(Debug)]
pub struct PhaseResult {
    /// The instant every `ns` stamp of this phase counts from.
    pub epoch: Instant,
    /// Intended-send-to-decoded latency of every answered non-scrape
    /// frame of an open-loop phase.
    pub latencies_ns: Vec<u64>,
    /// How late the sender put each frame on the wire (open loop).
    pub lateness_ns: Vec<u64>,
    pub spans: Vec<Span>,
    pub frames_sent: u64,
    pub frames_scheduled: u64,
    /// Ops (auth items, enrolls, queries) answered and checked.
    pub ops: u64,
    /// Attempts (ops, scrapes counted once each) and the failed share.
    pub attempted: u64,
    pub failed: u64,
    /// Phase epoch to the last answer.
    pub elapsed_ns: u64,
    /// Frames sent but unanswered when the sender finished.
    pub backlog_end: u64,
}

/// Correctness checks that span phases. Each failure is counted under
/// its check's name.
#[derive(Debug, Default)]
pub struct Checker {
    pub failures: BTreeMap<&'static str, u64>,
    /// Attacked id to the trajectory step its first `DeviceFlagged` came at.
    pub first_flag: HashMap<u64, u32>,
    pub scrapes: u64,
}

impl Checker {
    pub fn fail(&mut self, check: &'static str, n: u64) {
        *self.failures.entry(check).or_default() += n;
    }

    /// Whether `answer` is right for `d`; a wrong one is counted.
    fn check(&mut self, d: &Desc, answer: &Response, fleet: &Fleet) -> bool {
        let flagged = matches!(
            answer,
            Response::Error {
                code: ErrorCode::DeviceFlagged,
                ..
            }
        );
        let (ok, check) = match (d.kind, answer) {
            (Kind::Auth, Response::Verdict(v)) => (v.is_accept(), "benign_auth_accepts"),
            (Kind::Enroll, Response::EnrollOk { device_id }) => (*device_id == d.id, "enroll_ok"),
            (Kind::Attack, _) => {
                let (traj, step) = (d.aux >> 16, d.aux & 0xFFFF);
                let reference = fleet.trajectories[traj as usize].flag_index as u32;
                if flagged && step == reference {
                    self.first_flag.insert(d.id, step);
                }
                let before = matches!(answer, Response::Verdict(v) if !v.is_flagged());
                (
                    if step < reference { before } else { flagged },
                    "attack_flag_index_matches_loopback",
                )
            }
            (Kind::Query, Response::FlagInfo { flagged }) => {
                (flagged.is_some(), "attacked_id_reports_flagged")
            }
            (Kind::Scrape, Response::MetricsBin { bytes }) => {
                self.scrapes += 1;
                (
                    ropuf_telemetry::Snapshot::decode(bytes).is_ok(),
                    "scrape_decodes",
                )
            }
            (Kind::Auth, _) if flagged => (false, "no_benign_flagged"),
            _ => (false, "answer_matches_request"),
        };
        if !ok {
            self.fail(check, 1);
        }
        ok
    }
}

/// Attempts a frame stands for in `attempted`/`failed`.
fn weight(kind: Kind) -> u64 {
    kind.ops().max(1)
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Counters the sender and receiver share.
#[derive(Default)]
struct Shared {
    sent: AtomicU64,
    answered: AtomicU64,
    sender_done: AtomicBool,
}

struct SenderOut {
    lateness_ns: Vec<u64>,
    scheduled: u64,
    sent: u64,
    attempted: u64,
    backlog_end: u64,
    write_failed: bool,
}

struct ReceiverOut {
    latencies_ns: Vec<u64>,
    spans: Vec<Span>,
    answered: u64,
    ops: u64,
    failed: u64,
    last_answer: u64,
}

/// Runs one phase against `dep` and returns what it measured. The
/// stream's state carries over to the next phase.
pub fn run(
    dep: &Deployment,
    stream: &mut Stream<'_>,
    arrivals: &mut Arrivals,
    checker: &mut Checker,
    phase: Phase,
) -> PhaseResult {
    let shared = Shared::default();
    let (tx, rx) = mpsc::channel();
    let epoch = Instant::now();
    let receiver_checker = &mut *checker;
    let (sent, received) = thread::scope(|s| {
        let shared = &shared;
        let sender = thread::Builder::new()
            .name(format!("{THREAD_PREFIX}send"))
            .spawn_scoped(s, move || {
                probe::precise_sleeps();
                send(dep, stream, arrivals, phase, epoch, tx, shared)
            })
            .expect("spawn the sender");
        let sender_thread = sender.thread().clone();
        let fleet = &dep.fleet;
        let receiver = thread::Builder::new()
            .name(format!("{THREAD_PREFIX}recv"))
            .spawn_scoped(s, move || {
                probe::precise_sleeps();
                receive(
                    dep,
                    fleet,
                    receiver_checker,
                    phase,
                    epoch,
                    rx,
                    shared,
                    sender_thread,
                )
            })
            .expect("spawn the receiver");
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let mut result = PhaseResult {
        epoch,
        latencies_ns: received.latencies_ns,
        lateness_ns: sent.lateness_ns,
        spans: received.spans,
        frames_sent: sent.sent,
        frames_scheduled: sent.scheduled,
        ops: received.ops,
        attempted: sent.attempted,
        failed: received.failed,
        elapsed_ns: received.last_answer,
        backlog_end: sent.backlog_end,
    };
    if sent.write_failed {
        checker.fail("transport", 1);
    }
    if received.answered < sent.sent {
        checker.fail("every_request_answered", sent.sent - received.answered);
        // Unanswered frames are failed attempts; their kinds are
        // unknown here, so each counts once.
        result.failed += sent.sent - received.answered;
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn send(
    dep: &Deployment,
    stream: &mut Stream<'_>,
    arrivals: &mut Arrivals,
    phase: Phase,
    epoch: Instant,
    tx: Sender<(usize, Vec<Desc>)>,
    shared: &Shared,
) -> SenderOut {
    let conns = &dep.conns;
    let end = phase.duration.as_nanos() as u64;
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(64 * 1024); conns.len()];
    let mut descs: Vec<Vec<Desc>> = vec![Vec::new(); conns.len()];
    let mut staging = Vec::with_capacity(4096);
    let mut out = SenderOut {
        lateness_ns: Vec::new(),
        scheduled: 0,
        sent: 0,
        attempted: 0,
        backlog_end: 0,
        write_failed: false,
    };
    // Scrapes start half a cadence in, then repeat on the cadence.
    let mut next_scrape = if phase.scrapes {
        SCRAPE_EVERY_NS / 2
    } else {
        u64::MAX
    };
    let mut scrape_ordinal = 0;
    let window_total = match phase.pace {
        Pace::Closed { window } => (window * conns.len()) as u64,
        Pace::Open => 0,
    };
    'send: loop {
        let now = ns_since(epoch);
        // How many frames go out on this wake-up. An open-loop phase
        // sends its whole schedule, however late; a closed loop stops
        // on time.
        let burst = match phase.pace {
            Pace::Open => {
                let due = arrivals.peek().min(next_scrape);
                if due >= end {
                    break;
                }
                if due > now {
                    thread::sleep(Duration::from_nanos(due - now));
                    continue;
                }
                MAX_BURST
            }
            Pace::Closed { .. } => {
                if now >= end {
                    break;
                }
                let in_flight = out.sent - shared.answered.load(Ordering::Acquire);
                if in_flight > window_total / 2 {
                    thread::park_timeout(Duration::from_millis(1));
                    continue;
                }
                (window_total - in_flight) as usize
            }
        };
        for _ in 0..burst {
            let (due, scrape) = match phase.pace {
                Pace::Open => {
                    let due = arrivals.peek().min(next_scrape);
                    if due > now || due >= end {
                        break;
                    }
                    (due, next_scrape <= arrivals.peek())
                }
                Pace::Closed { .. } => (now, next_scrape <= now),
            };
            let encode0 = if phase.trace { ns_since(epoch) } else { 0 };
            let single = conns.len() == 1;
            let target = if single { &mut bufs[0] } else { &mut staging };
            let mut d = if scrape {
                next_scrape += SCRAPE_EVERY_NS;
                scrape_ordinal += 1;
                stream.scrape_frame(target, scrape_ordinal - 1)
            } else {
                if let Pace::Open = phase.pace {
                    arrivals.advance();
                }
                stream.next_frame(target)
            };
            let conn = if scrape { 0 } else { dep.route(d.id) };
            if !single {
                bufs[conn].extend_from_slice(&staging);
                staging.clear();
            }
            d.intended = due;
            if phase.trace {
                d.encode0 = encode0;
                d.encode1 = ns_since(epoch);
            }
            if let Pace::Open = phase.pace {
                out.lateness_ns.push(now.saturating_sub(due));
                out.scheduled += 1;
            }
            out.attempted += weight(d.kind);
            descs[conn].push(d);
        }
        for (conn, buf) in bufs.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let write0 = ns_since(epoch);
            let written = (&conns[conn].stream).write_all(buf);
            let write1 = ns_since(epoch);
            buf.clear();
            let mut batch = std::mem::take(&mut descs[conn]);
            if phase.trace {
                for d in &mut batch {
                    d.write0 = write0;
                    d.write1 = write1;
                }
            }
            if written.is_err() {
                out.write_failed = true;
                shared.sender_done.store(true, Ordering::Release);
                return out;
            }
            out.sent += batch.len() as u64;
            shared.sent.store(out.sent, Ordering::Release);
            if tx.send((conn, batch)).is_err() {
                break 'send; // the receiver gave up; it reports why
            }
        }
    }
    out.backlog_end = out.sent - shared.answered.load(Ordering::Acquire);
    shared.sender_done.store(true, Ordering::Release);
    out
}

/// A connection's unparsed bytes and the frames still awaiting answers.
struct Inbox {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    pending: VecDeque<Desc>,
}

impl Inbox {
    fn new() -> Self {
        Self {
            buf: vec![0; 1 << 20],
            head: 0,
            tail: 0,
            pending: VecDeque::new(),
        }
    }

    /// Reads once from `stream`; `Ok(0)` is EOF.
    fn fill(&mut self, stream: &TcpStream) -> std::io::Result<usize> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        if self.tail == self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            if self.tail == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = (&*stream).read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// The next complete frame's payload range, if buffered.
    fn next_frame(&mut self) -> Option<(usize, usize)> {
        let avail = self.tail - self.head;
        if avail < 4 {
            return None;
        }
        let len_bytes: [u8; 4] = self.buf[self.head..self.head + 4]
            .try_into()
            .expect("four bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        if avail < 4 + len {
            if 4 + len > self.buf.len() {
                self.buf.resize((4 + len).next_power_of_two(), 0);
            }
            return None;
        }
        let start = self.head + 4;
        self.head = start + len;
        Some((start, start + len))
    }
}

#[allow(clippy::too_many_arguments)]
fn receive(
    dep: &Deployment,
    fleet: &Fleet,
    checker: &mut Checker,
    phase: Phase,
    epoch: Instant,
    rx: Receiver<(usize, Vec<Desc>)>,
    shared: &Shared,
    sender: Thread,
) -> ReceiverOut {
    let conns = &dep.conns;
    let mut out = ReceiverOut {
        latencies_ns: Vec::new(),
        spans: Vec::new(),
        answered: 0,
        ops: 0,
        failed: 0,
        last_answer: 0,
    };
    let mut inboxes: Vec<Inbox> = conns.iter().map(|_| Inbox::new()).collect();
    let window_total = match phase.pace {
        Pace::Closed { window } => (window * conns.len()) as u64,
        Pace::Open => 0,
    };
    // One connection: a blocking read with a short timeout. More: the
    // server crate's epoll wrapper for readiness, then one read each.
    let epoll = (conns.len() > 1).then(|| {
        let epoll = Epoll::new().expect("epoll instance");
        for (i, c) in conns.iter().enumerate() {
            epoll
                .add(&c.stream, event::IN, i as u64)
                .expect("register a connection");
        }
        epoll
    });
    for c in conns {
        c.stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .expect("read timeout");
    }
    let mut events = vec![Event::default(); conns.len()];
    let mut ready = Vec::with_capacity(conns.len());
    let mut idle_since: Option<Instant> = None;
    'outer: loop {
        if shared.sender_done.load(Ordering::Acquire)
            && out.answered == shared.sent.load(Ordering::Acquire)
        {
            break;
        }
        ready.clear();
        match &epoll {
            None => ready.push(0),
            Some(epoll) => {
                let n = epoll.wait(&mut events, 10).unwrap_or(0);
                ready.extend(events[..n].iter().map(|e| e.token() as usize));
            }
        }
        let mut progressed = false;
        for &conn in &ready {
            let inbox = &mut inboxes[conn];
            match inbox.fill(&conns[conn].stream) {
                Ok(0) => {
                    checker.fail("transport", 1);
                    break 'outer;
                }
                Ok(_) => progressed = true,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    checker.fail("transport", 1);
                    break 'outer;
                }
            }
            let read_end = ns_since(epoch);
            while let Some((start, end)) = inboxes[conn].next_frame() {
                let Some(d) = next_desc(&mut inboxes, conn, &rx) else {
                    checker.fail("answer_matches_request", 1);
                    break 'outer;
                };
                let decode0 = if phase.trace { ns_since(epoch) } else { 0 };
                let answer = Response::decode(&inboxes[conn].buf[start..end]);
                let decode1 = ns_since(epoch);
                let ok = match &answer {
                    Ok(answer) => checker.check(&d, answer, fleet),
                    Err(_) => {
                        checker.fail("answer_decodes", 1);
                        false
                    }
                };
                out.answered += 1;
                out.ops += d.kind.ops();
                if !ok {
                    out.failed += weight(d.kind);
                }
                if matches!(phase.pace, Pace::Open) && d.kind != Kind::Scrape {
                    out.latencies_ns.push(decode1.saturating_sub(d.intended));
                }
                if phase.trace {
                    out.spans.push(Span {
                        desc: d,
                        read_end,
                        decode0,
                        decode1,
                    });
                }
                out.last_answer = decode1;
            }
        }
        shared.answered.store(out.answered, Ordering::Release);
        if window_total > 0
            && shared.sent.load(Ordering::Acquire) - out.answered <= window_total / 2
        {
            sender.unpark();
        }
        if progressed {
            idle_since = None;
        } else if shared.sender_done.load(Ordering::Acquire) {
            let since = *idle_since.get_or_insert_with(Instant::now);
            if since.elapsed() > ANSWER_GRACE {
                break;
            }
        }
    }
    out
}

/// The descriptor of the next answer due on `conn`, pulling sent
/// batches off the channel until one for `conn` arrives.
fn next_desc(
    inboxes: &mut [Inbox],
    conn: usize,
    rx: &Receiver<(usize, Vec<Desc>)>,
) -> Option<Desc> {
    loop {
        if let Some(d) = inboxes[conn].pending.pop_front() {
            return Some(d);
        }
        match rx.recv_timeout(ANSWER_GRACE) {
            Ok((c, batch)) => inboxes[c].pending.extend(batch),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return None,
        }
    }
}
