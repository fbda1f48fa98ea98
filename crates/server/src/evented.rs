//! The event-driven TCP serving surface: epoll readiness loops driving
//! per-connection state machines.
//!
//! ```text
//!   event loop 0 .. N-1 (std::thread each, own epoll instance,
//!                        own SO_REUSEPORT accept queue)
//!   ┌────────────────────────────────────────────────────────────┐
//!   │ epoll_wait ──▶ listener readable?  accept until WouldBlock │
//!   │           ──▶ waker readable?      drain, re-check flags   │
//!   │           ──▶ connection event ──▶ per-connection machine: │
//!   │                                                            │
//!   │   lend the loop's read buffer (kept: a partial frame)      │
//!   │     │                                                      │
//!   │     ▼                         yes                          │
//!   │   ┌▶ frame complete in buffer? ──▶ decode → handle →       │
//!   │   │   │ no                        append to the flat       │
//!   │   │   ▼                           out-queue                │
//!   │   ├─ read() into all free room        │ next frame         │
//!   │   │   │ (a whole burst per read)      ▼                    │
//!   │   └───┼─────────────────────────────◀─┘                    │
//!   │       │ WouldBlock                                         │
//!   │       ▼                                                    │
//!   │   write() the queued run; backpressure (over the           │
//!   │   high-water mark) stops reading, and frames still         │
//!   │   buffered are served once it lifts                        │
//!   │       │                                                    │
//!   │       ▼                                                    │
//!   │   nothing buffered: the read buffer goes back              │
//!   └────────────────────────────────────────────────────────────┘
//!        │ all loops share one Arc<dyn RequestHandler>
//!        ▼
//!   shared Verifier (per-shard locks)
//! ```
//!
//! The server multiplexes **thousands of connections per loop
//! thread**: each connection is a small state machine that only runs
//! when the kernel says its socket is ready. Connections support
//! pipelining (many requests in flight back-to-back on one socket;
//! responses come back in order), per-connection buffers are bounded
//! (the 64 KiB [`SCRATCH_RETAIN`](ropuf_proto::SCRATCH_RETAIN)
//! retention rule plus a configurable write-buffer high-water mark
//! that pauses reading — backpressure instead of unbounded queueing),
//! and two timers evict hostile or dead peers: an idle timeout between
//! requests and a stricter mid-frame timeout that defeats slow-loris
//! trickles.
//!
//! # Tail-latency discipline
//!
//! Three mechanisms keep the p999 flat when thousands of connections
//! are held open:
//!
//! * **Per-loop accept queues** — with [`EventedConfig::reuseport`]
//!   (the default on IPv4) every loop binds its own `SO_REUSEPORT`
//!   listener, so the kernel shards incoming connections across loops
//!   and an accept never wakes more than one thread.
//! * **Per-readiness I/O** — syscalls are paid per readiness, not per
//!   frame. Each loop owns one 64 KiB read buffer and lends it to the
//!   connection it is servicing; the connection's [`FrameAccum`]
//!   reads a pipelined burst in one `read` and serves every frame
//!   already buffered without another. Responses are appended to one
//!   flat out-queue per connection and leave in one `write`. A
//!   connection whose pass ends with nothing buffered hands the read
//!   buffer back, so idle connections hold no read memory.
//! * **Loop-affine sharding** — clients that ask
//!   [`Request::LoopInfo`](ropuf_proto::Request::LoopInfo) per
//!   connection can steer a device's traffic to the loop its registry
//!   shard folds onto (`shard % loops`); the `server.affinity`
//!   counters measure how well they steered. Cross-loop requests are
//!   served identically — affinity is an optimization, never a
//!   correctness requirement.
//!
//! Protocol semantics are **identical** to the in-process
//! [`LoopbackTransport`](crate::LoopbackTransport), the semantic
//! oracle: both funnel decoded [`RequestRef`]s through the same shared
//! [`RequestHandler`]. On top of that, malformed frames are answered
//! with a typed [`ErrorCode::MalformedRequest`] before the connection
//! closes, and oversized responses degrade to
//! [`ErrorCode::ResponseTooLarge`]. The equivalence suite replays
//! identical traffic through the server — in every loop/reuseport
//! topology — and through loopback, and asserts bit-for-bit identical
//! response bytes.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ropuf_proto::{
    append_frame, ErrorCode, FrameAccum, FrameError, FramePoll, RequestRef, Response,
};

use ropuf_telemetry::{Counter, TraceRecord};

use crate::admission::{evented_pressure, Admission, OverloadPolicy, RequestClass};
use crate::handler::RequestHandler;
use crate::sys::epoll::{event, Epoll, Event};
use crate::sys::net;
use crate::telemetry::{elapsed_ns, request_device_hash, LaneStats, ServerTelemetry};

/// Tuning knobs of the evented server. [`EventedConfig::default`] is
/// the production shape; tests shrink the timeouts to milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventedConfig {
    /// Event-loop threads. Each owns an epoll instance; accepted
    /// connections stay on the loop that accepted them. `0` is
    /// promoted to 1.
    pub loops: usize,
    /// Give every loop its own `SO_REUSEPORT` accept queue (IPv4
    /// only): the kernel shards incoming connections across loops and
    /// an accept wakes exactly one thread. When off — or when the
    /// address is IPv6, or the reuseport bind is refused — all loops
    /// fall back to sharing one listener.
    pub reuseport: bool,
    /// A connection with no complete frame for this long — and no
    /// frame in progress — is evicted.
    pub idle_timeout: Duration,
    /// Once a frame's first byte arrives, the whole frame must arrive
    /// within this window or the connection is evicted (slow-loris
    /// defense: trickling one byte per second does not reset it).
    pub frame_timeout: Duration,
    /// Write-buffer high-water mark: while a connection has more than
    /// this many unsent response bytes, the loop stops reading from it
    /// (backpressure) until the peer drains.
    pub max_write_buffer: usize,
    /// A served request whose decode + handle + flush time meets this
    /// threshold lands in the slow-request trace ring
    /// ([`Request::TraceDump`](ropuf_proto::Request::TraceDump)).
    /// `Duration::ZERO` traces every request.
    pub slow_trace_threshold: Duration,
    /// Capacity of the slow-request trace ring (oldest records are
    /// overwritten).
    pub trace_capacity: usize,
    /// Admission budget. Pressure is a connection's pending out-buffer
    /// bytes plus the loop's remaining ready-event backlog (see
    /// [`evented_pressure`]) — the direct measures of a peer that asks
    /// faster than it reads and a loop that wakes to more work than it
    /// can finish. Sensible
    /// budgets sit below [`EventedConfig::max_write_buffer`], so cheap
    /// `Overloaded` answers go out *before* backpressure stops reading
    /// entirely. Disabled by default.
    pub overload: OverloadPolicy,
}

impl Default for EventedConfig {
    fn default() -> Self {
        Self {
            loops: 1,
            reuseport: true,
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(10),
            max_write_buffer: 1024 * 1024,
            slow_trace_threshold: Duration::from_millis(1),
            trace_capacity: 256,
            overload: OverloadPolicy::disabled(),
        }
    }
}

#[derive(Debug)]
struct Shared {
    /// Graceful stop: stop accepting, answer what's buffered, drain.
    stop: AtomicBool,
    /// Force stop: close everything now.
    force: AtomicBool,
    /// Aggregate serving counters, phase histograms, and the
    /// slow-request ring, shared by all loops.
    telemetry: Arc<ServerTelemetry>,
    /// Admission gate (policy + shed tallies), shared by all loops.
    admission: Admission,
    /// Write halves of each loop's waker pipe.
    wakers: Mutex<Vec<UnixStream>>,
}

impl Shared {
    fn new(config: &EventedConfig) -> Self {
        let telemetry = ServerTelemetry::new(config.slow_trace_threshold, config.trace_capacity);
        let admission = Admission::new(config.overload, &telemetry);
        Self {
            stop: AtomicBool::new(false),
            force: AtomicBool::new(false),
            telemetry,
            admission,
            wakers: Mutex::new(Vec::new()),
        }
    }
}

/// A running event-driven TCP server.
///
/// Dropping the handle without calling [`EventedServer::shutdown`] /
/// [`EventedServer::force_shutdown`] leaks the loop threads until
/// process exit.
#[derive(Debug)]
pub struct EventedServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// Binds one listener per loop. With `reuseport` on and an IPv4
/// address, every loop gets its **own** kernel accept queue on the
/// same address; otherwise (reuseport off, IPv6, or the reuseport
/// bind refused) one listener is bound and cloned per loop.
fn bind_listeners(
    addr: &impl ToSocketAddrs,
    loops: usize,
    reuseport: bool,
) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    if reuseport {
        let v4 = addr.to_socket_addrs()?.find_map(|a| match a {
            SocketAddr::V4(v4) => Some(v4),
            SocketAddr::V6(_) => None,
        });
        if let Some(v4) = v4 {
            if let Ok(first) = net::bind_reuseport(v4) {
                // Port 0 resolves on the first bind; the siblings join
                // the same reuseport group on the resolved port.
                let local = first.local_addr()?;
                if let SocketAddr::V4(resolved) = local {
                    let mut listeners = vec![first];
                    for _ in 1..loops {
                        listeners.push(net::bind_reuseport(resolved)?);
                    }
                    return Ok((listeners, local));
                }
            }
            // Refused (exotic kernel / container policy): take the
            // shared-listener path below — correctness is identical,
            // only accept scalability differs.
        }
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let mut listeners = Vec::with_capacity(loops);
    for _ in 1..loops {
        listeners.push(listener.try_clone()?);
    }
    listeners.push(listener);
    Ok((listeners, local))
}

impl EventedServer {
    /// Binds `addr` (port 0 = ephemeral) and starts `config.loops`
    /// event-loop threads — each owning its own `SO_REUSEPORT` accept
    /// queue when [`EventedConfig::reuseport`] applies, sharing one
    /// listener otherwise.
    ///
    /// # Errors
    ///
    /// Propagates bind / epoll-creation / waker-creation failures.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn RequestHandler>,
        config: EventedConfig,
    ) -> io::Result<Self> {
        let loops = config.loops.max(1);
        let (listeners, local_addr) = bind_listeners(&addr, loops, config.reuseport)?;
        let shared = Arc::new(Shared::new(&config));

        // A failure partway through (a pair or spawn error) must not
        // leak the loops already running, so fallible setup is
        // collected and unwound explicitly.
        let mut threads = Vec::new();
        for (loop_id, listener) in listeners.into_iter().enumerate() {
            let setup = (|| -> io::Result<(UnixStream, UnixStream)> {
                let (wake_tx, wake_rx) = UnixStream::pair()?;
                wake_rx.set_nonblocking(true)?;
                wake_tx.set_nonblocking(true)?;
                Ok((wake_tx, wake_rx))
            })();
            let (wake_tx, wake_rx) = match setup {
                Ok(parts) => parts,
                Err(e) => {
                    Self::stop_loops(&shared, &mut threads, true);
                    return Err(e);
                }
            };
            shared
                .wakers
                .lock()
                .expect("waker list poisoned")
                .push(wake_tx);
            let loop_shared = Arc::clone(&shared);
            let handler = Arc::clone(&handler);
            let spawned = std::thread::Builder::new()
                .name(format!("evented-loop-{loop_id}"))
                .spawn(move || {
                    let mut event_loop =
                        match EventLoop::new(listener, wake_rx, config, loop_id as u32) {
                            Ok(event_loop) => event_loop,
                            Err(e) => panic!("event loop {loop_id} failed to initialize: {e}"),
                        };
                    event_loop.run(handler.as_ref(), &loop_shared);
                });
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(e) => {
                    Self::stop_loops(&shared, &mut threads, true);
                    return Err(e);
                }
            }
        }

        Ok(Self {
            local_addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently established across all loops.
    pub fn open_connections(&self) -> usize {
        usize::try_from(self.shared.telemetry.open_connections()).unwrap_or(usize::MAX)
    }

    /// Connections accepted since the server started.
    pub fn accepted_total(&self) -> u64 {
        self.shared.telemetry.accepted_total()
    }

    /// Requests served (one per completed frame) since the server started.
    pub fn requests_served(&self) -> u64 {
        self.shared.telemetry.requests_served()
    }

    /// Connections evicted by the idle / mid-frame (slow-loris) timers.
    pub fn evictions(&self) -> (u64, u64) {
        self.shared.telemetry.evictions()
    }

    /// This server's telemetry: the same registry and trace ring a
    /// wire scrape reads, for in-process inspection.
    pub fn telemetry(&self) -> &Arc<ServerTelemetry> {
        &self.shared.telemetry
    }

    /// Flags the loops to stop (skipping the drain window when
    /// `force`), wakes them, and joins `threads`. Shared by both
    /// shutdown flavors and the spawn-failure unwind.
    fn stop_loops(shared: &Shared, threads: &mut Vec<JoinHandle<()>>, force: bool) {
        if force {
            shared.force.store(true, Ordering::SeqCst);
        }
        shared.stop.store(true, Ordering::SeqCst);
        for waker in shared
            .wakers
            .lock()
            .expect("waker list poisoned")
            .iter_mut()
        {
            let _ = waker.write(&[1]);
        }
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Graceful shutdown: stops accepting, flushes every buffered
    /// response, closes each connection once its write buffer drains,
    /// force-closes whatever remains after one second, and joins the
    /// loop threads.
    pub fn shutdown(mut self) {
        Self::stop_loops(&self.shared, &mut self.threads, false);
    }

    /// Immediate shutdown: every open connection is closed now,
    /// mid-exchange peers see EOF/reset.
    pub fn force_shutdown(mut self) {
        Self::stop_loops(&self.shared, &mut self.threads, true);
    }
}

/// Why a connection is being torn down (drives eviction counters).
enum Teardown {
    /// Normal close (EOF, error, drained-after-closing).
    Normal,
    /// Idle timer fired.
    Idle,
    /// Mid-frame (slow-loris) timer fired.
    SlowFrame,
}

/// A response queued in a connection's out-queue whose flush-wait
/// clock is still running: the trace record is finalized (and its
/// flush-wait phase recorded) only once the socket has accepted every
/// byte up to `end`.
#[derive(Debug)]
struct PendingFlush {
    /// Absolute out-stream offset (total bytes ever queued on this
    /// connection) at which this response ends.
    end: u64,
    /// When the response landed in the out-queue — the flush-wait
    /// clock's start.
    queued_at: Instant,
    /// The partially-filled record from
    /// [`ServerTelemetry::observe_queued`].
    record: TraceRecord,
}

/// A connection's outbound bytes: encoded response frames back to
/// back in one buffer, drained from `head` with plain `write`s.
///
/// A pipelined burst of responses is one contiguous run of bytes, so
/// it leaves in one `write` per readiness however many frames it
/// holds, and queueing a frame is an append — no per-frame allocation.
/// A partially accepted run just moves `head`; the unsent tail is
/// moved to the front only once the sent prefix outgrows it, so each
/// byte is moved at most once on average. Once drained, the buffer
/// keeps at most [`SCRATCH_RETAIN`](ropuf_proto::SCRATCH_RETAIN) of
/// capacity, the retention rule of every other reused buffer.
#[derive(Debug, Default)]
struct OutQueue {
    /// Queued frames; bytes before `head` were accepted by the socket.
    buf: Vec<u8>,
    /// Bytes of `buf` already accepted.
    head: usize,
}

impl OutQueue {
    fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Appends `payload` as one `[len u32 le][payload]` frame. Returns
    /// the framed byte count, or the [`FrameError::Oversize`] verdict
    /// with the queue unchanged.
    fn push_frame(&mut self, payload: &[u8]) -> Result<usize, FrameError> {
        let before = self.buf.len();
        append_frame(&mut self.buf, payload)?;
        Ok(self.buf.len() - before)
    }

    /// Drains through `write` until the queue empties or the sink
    /// reports `WouldBlock`. Returns the total bytes accepted.
    ///
    /// # Errors
    ///
    /// The sink's fatal error; a sink that accepts zero bytes of a
    /// non-empty queue surfaces as [`io::ErrorKind::WriteZero`] (the
    /// transport is gone).
    fn drain_with(
        &mut self,
        mut write: impl FnMut(&[u8]) -> io::Result<usize>,
    ) -> io::Result<usize> {
        let mut total = 0;
        while !self.is_empty() {
            match write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "sink accepted no bytes",
                    ))
                }
                Ok(n) => {
                    self.head += n;
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.is_empty() {
            self.buf.clear();
            self.head = 0;
            ropuf_proto::frame::bound_scratch(&mut self.buf);
        } else if self.head >= self.pending() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(total)
    }
}

/// One connection's full state: socket, incremental frame reader,
/// bounded response queue, and the timer bookkeeping.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    accum: FrameAccum,
    /// Encoded-but-unsent response frames.
    out: OutQueue,
    /// Interest bits currently registered with epoll.
    interest: u32,
    /// Last observable progress: connection accepted, a complete
    /// frame served, or response bytes accepted by the socket — the
    /// idle timer's anchor.
    last_activity: Instant,
    /// Deadline for the frame currently in flight, set when its first
    /// byte arrives. Deliberately **not** reset by later bytes: a
    /// trickle must still finish the frame inside the window.
    frame_deadline: Option<Instant>,
    /// No more requests will be read; close once `out` drains.
    closing: bool,
    /// When the connection was accepted — the accept-to-first-frame
    /// clock's start.
    accepted_at: Instant,
    /// Whether the first complete frame has been observed (the
    /// accept-to-first-frame histogram records exactly once).
    saw_first_frame: bool,
    /// Total bytes ever queued for this connection (monotonic).
    queued_total: u64,
    /// Total bytes the socket has ever accepted (monotonic).
    sent_total: u64,
    /// Responses queued but not yet fully accepted by the socket,
    /// oldest first (responses drain in order).
    pending_flush: VecDeque<PendingFlush>,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.pending()
    }

    /// Finalizes every queued trace record whose response bytes the
    /// socket has now fully accepted, crediting the elapsed out-queue
    /// residency as the flush-wait phase.
    fn settle_flushed(&mut self, telemetry: &ServerTelemetry) {
        while self
            .pending_flush
            .front()
            .is_some_and(|p| p.end <= self.sent_total)
        {
            let entry = self.pending_flush.pop_front().expect("front checked");
            telemetry.observe_drained(entry.record, elapsed_ns(entry.queued_at, Instant::now()));
        }
    }
}

/// Slab token space: listener and waker own fixed tokens, connections
/// map to `slab index + CONN_BASE`.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const CONN_BASE: u64 = 2;

/// Ready-list bounds: start small (most wake-ups carry a handful of
/// events) and double whenever the kernel fills the list, so a loop
/// holding thousands of connections reaches [`EVENTS_MAX`]-event
/// drains without every idle server paying for the allocation.
const EVENTS_MIN: usize = 256;
const EVENTS_MAX: usize = 4096;

/// Size of the read buffer a loop lends to the connection it is
/// servicing: a pipelined burst of routine frames arrives in one
/// `read`. Equal to the retention bound, so finishing a frame never
/// shrinks it.
const READ_BUF: usize = ropuf_proto::SCRATCH_RETAIN;

/// How long a graceful [`EventedServer::shutdown`] waits for open
/// connections to take their answers before force-closing them.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    waker: UnixStream,
    config: EventedConfig,
    /// Which loop thread this is — the `worker` field of the trace
    /// records this loop emits, and the answer to `LoopInfo`.
    loop_id: u32,
    /// Total loops in this server (≥ 1) — `LoopInfo`'s denominator and
    /// the affinity fold's modulus.
    loops_total: u32,
    conns: Vec<Option<Conn>>,
    free: VecDeque<usize>,
    /// Response-encode scratch shared by every connection on this loop
    /// (handling is synchronous, so one buffer suffices).
    encode_scratch: Vec<u8>,
    /// Read buffer lent to the connection being serviced and taken
    /// back when its pass ends with nothing buffered, so idle
    /// connections hold no read memory. Empty while a connection
    /// keeps it (a partial frame); the next lend allocates afresh.
    read_buf: Vec<u8>,
    /// Set once the stop flag has been observed and the listener
    /// deregistered.
    draining: bool,
    drain_deadline: Option<Instant>,
    /// This loop's saturation counters and high-water gauge, resolved
    /// once at `run` entry (registry lookups are too slow per-frame).
    lane: Option<LaneStats>,
    /// Loop-affinity counters `(local, remote)`, resolved once at
    /// `run` entry.
    affinity: Option<(Counter, Counter)>,
    /// Registry shard count behind the handler (0 = unsharded) — the
    /// affinity accounting's modulus, resolved once at `run` entry.
    shard_count: usize,
    /// Ready events still waiting behind the one being serviced in the
    /// current batch — folded into admission pressure so a loop that
    /// wakes to a wall of work sheds from the front of it, not after
    /// digging through.
    ready_backlog: u64,
    /// Largest pending out-queue any connection on this loop has
    /// reached; the gauge is only touched when this grows.
    out_highwater: usize,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        waker: UnixStream,
        config: EventedConfig,
        loop_id: u32,
    ) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(&listener, event::IN, TOKEN_LISTENER)?;
        epoll.add(&waker, event::IN, TOKEN_WAKER)?;
        Ok(Self {
            epoll,
            listener,
            waker,
            config,
            loop_id,
            loops_total: config.loops.max(1) as u32,
            conns: Vec::new(),
            free: VecDeque::new(),
            encode_scratch: Vec::new(),
            read_buf: Vec::new(),
            draining: false,
            drain_deadline: None,
            lane: None,
            affinity: None,
            shard_count: 0,
            ready_backlog: 0,
            out_highwater: 0,
        })
    }

    /// Wait-timeout granularity: fine enough to honor the configured
    /// timers (tests use tens of milliseconds), coarse enough not to
    /// spin.
    fn tick_ms(&self) -> i32 {
        let finest = self
            .config
            .idle_timeout
            .min(self.config.frame_timeout)
            .min(DRAIN_TIMEOUT);
        ((finest.as_millis() / 4).clamp(1, 50)) as i32
    }

    fn run(&mut self, handler: &dyn RequestHandler, shared: &Shared) {
        self.lane = Some(shared.telemetry.lane(self.loop_id));
        self.affinity = Some(shared.telemetry.affinity_counters());
        self.shard_count = handler.shard_count();
        let mut events = vec![Event::default(); EVENTS_MIN];
        let tick = self.tick_ms();
        loop {
            let wait_start = Instant::now();
            let n = match self.epoll.wait(&mut events, tick) {
                Ok(n) => n,
                Err(_) => break, // epoll itself failed: abandon ship
            };
            let batch_start = Instant::now();
            if n > 0 {
                shared.telemetry.ready_batch(n as u64);
            }
            for (i, ev) in events[..n].iter().enumerate() {
                match ev.token() {
                    TOKEN_LISTENER => self.accept_ready(shared),
                    TOKEN_WAKER => {
                        let mut buf = [0u8; 64];
                        while matches!(self.waker.read(&mut buf), Ok(n) if n > 0) {}
                    }
                    token => {
                        let index = (token - CONN_BASE) as usize;
                        // Events still queued behind this one feed the
                        // admission pressure for every frame serviced
                        // from it.
                        self.ready_backlog = (n - i - 1) as u64;
                        // Ready-wait is stamped when *this
                        // connection's* drain actually starts — not
                        // once per batch. The time earlier events in
                        // the batch held the loop is already on the
                        // books as their own decode/handle/flush
                        // phases; stamping the whole batch at the
                        // kernel's return double-billed it onto every
                        // later peer's ready-wait.
                        self.service(index, ev.writable(), Instant::now(), handler, shared);
                    }
                }
            }
            self.ready_backlog = 0;
            // Adaptive batch drain: a full ready list means the kernel
            // had more to report — grow the list so a loop holding
            // thousands of hot connections services them in one sweep
            // instead of re-entering epoll_wait per slice.
            if n == events.len() && events.len() < EVENTS_MAX {
                let doubled = (events.len() * 2).min(EVENTS_MAX);
                events.resize(doubled, Event::default());
            }
            self.sweep_timers(shared);
            if shared.force.load(Ordering::SeqCst) {
                self.close_all(shared);
                break;
            }
            if shared.stop.load(Ordering::SeqCst) {
                if !self.draining {
                    self.draining = true;
                    let _ = self.epoll.delete(&self.listener);
                    self.drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
                    // Everything already answered should flush; no new
                    // requests are read once `closing` is set.
                    for index in 0..self.conns.len() {
                        if let Some(conn) = self.conns[index].as_mut() {
                            conn.closing = true;
                        }
                        self.service(index, true, Instant::now(), handler, shared);
                    }
                }
                let open = self.conns.iter().flatten().count();
                let expired = self
                    .drain_deadline
                    .is_some_and(|deadline| Instant::now() >= deadline);
                if open == 0 || expired {
                    self.close_all(shared);
                    break;
                }
            }
            // Saturation accounting: wall covers the whole iteration
            // (the park included), busy only the part after the kernel
            // returned. busy/wall is the loop's utilization.
            if let Some(lane) = &self.lane {
                let end = Instant::now();
                lane.busy_ns.add(elapsed_ns(batch_start, end));
                lane.wall_ns.add(elapsed_ns(wait_start, end));
            }
        }
    }

    fn accept_ready(&mut self, shared: &Shared) {
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok(); // latency over batching
                    let index = self.free.pop_front().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let token = index as u64 + CONN_BASE;
                    let now = Instant::now();
                    let conn = Conn {
                        stream,
                        accum: FrameAccum::new(),
                        out: OutQueue::default(),
                        interest: event::IN | event::RDHUP,
                        last_activity: now,
                        frame_deadline: None,
                        closing: false,
                        accepted_at: now,
                        saw_first_frame: false,
                        queued_total: 0,
                        sent_total: 0,
                        pending_flush: VecDeque::new(),
                    };
                    if self.epoll.add(&conn.stream, conn.interest, token).is_err() {
                        self.free.push_back(index);
                        continue; // conn drops, socket closes
                    }
                    self.conns[index] = Some(conn);
                    shared.telemetry.connection_accepted();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient accept failure; retry on next event
            }
        }
    }

    /// Runs one connection's state machine as far as readiness allows:
    /// flush pending output, read/handle frames (pipelined) until the
    /// socket runs dry or backpressure pauses it, flush again, then
    /// re-register interest.
    ///
    /// `drain_start` is when this connection's turn actually began —
    /// the ready-wait anchor for every frame serviced in this pass
    /// (pipelined frames behind the first accumulate the time earlier
    /// frames held the loop: genuine queueing, attributed).
    fn service(
        &mut self,
        index: usize,
        writable: bool,
        drain_start: Instant,
        handler: &dyn RequestHandler,
        shared: &Shared,
    ) {
        let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
            return; // already closed this iteration
        };

        if writable {
            if !flush_out(conn) {
                self.close(index, Teardown::Normal, shared);
                return;
            }
            conn.settle_flushed(&shared.telemetry);
        }

        // Read into the loop's buffer unless this connection still
        // holds its own (bytes of a frame left from its last pass).
        if conn.accum.scratch_capacity() == 0 {
            let buf = std::mem::take(&mut self.read_buf);
            conn.accum.lend(if buf.capacity() == 0 {
                vec![0; READ_BUF]
            } else {
                buf
            });
        }

        // A pass repeats while frames it already read sit complete in
        // the buffer after backpressure lifts: those bytes left the
        // socket, so level-triggered epoll will never report them.
        let teardown = 'pass: loop {
            let teardown = loop {
                if conn.closing {
                    break None; // no more reads; wait for the drain
                }
                if conn.pending_out() > self.config.max_write_buffer {
                    break None; // backpressure: resume when the peer drains
                }
                match conn.accum.poll(&mut conn.stream) {
                    Ok(FramePoll::Frame) => {
                        let t0 = Instant::now();
                        conn.last_activity = t0;
                        conn.frame_deadline = None;
                        if !conn.saw_first_frame {
                            conn.saw_first_frame = true;
                            shared
                                .telemetry
                                .first_frame(elapsed_ns(conn.accepted_at, t0));
                        }
                        // Counted before decode: malformed frames and the
                        // metrics scrape itself are part of the tally, so
                        // `server.requests` equals the client-side op
                        // count exactly.
                        shared.telemetry.request_started();
                        let msg_type = conn.accum.payload().first().copied().unwrap_or(0);
                        // Admission off the type byte alone, metered by
                        // this connection's unsent response bytes plus the
                        // ready backlog still queued behind it on the
                        // loop: a shed request costs a small error frame,
                        // never a decode or a verifier call, and the
                        // connection lives on.
                        if let Some(shed) = shared.admission.check(
                            RequestClass::of(msg_type),
                            evented_pressure(conn.pending_out() as u64, self.ready_backlog),
                        ) {
                            let t2 = Instant::now();
                            let queued = queue_response(conn, &shed, &mut self.encode_scratch);
                            let t3 = Instant::now();
                            let record = shared.telemetry.observe_queued(
                                msg_type,
                                0,
                                elapsed_ns(drain_start, t0),
                                0,
                                elapsed_ns(t0, t2),
                                elapsed_ns(t2, t3),
                                self.loop_id,
                            );
                            conn.pending_flush.push_back(PendingFlush {
                                end: conn.queued_total,
                                queued_at: t3,
                                record,
                            });
                            conn.accum.finish_frame();
                            if !queued {
                                break Some(Teardown::Normal);
                            }
                            continue;
                        }
                        let decoded = RequestRef::decode(conn.accum.payload());
                        let t1 = Instant::now();
                        let keep_going = match decoded {
                            Ok(request) => {
                                let device_hash = request_device_hash(&request);
                                // Loop-affinity accounting: the device
                                // hash is the same splitmix64 the registry
                                // shards by, so `hash % shards` *is* the
                                // device's shard, and a shard is local
                                // when it folds onto this loop. Cross-loop
                                // requests are served identically — the
                                // counters measure how well topology-aware
                                // clients steered, nothing more.
                                if device_hash != 0 && self.shard_count != 0 {
                                    if let Some((local, remote)) = &self.affinity {
                                        let shard = device_hash % self.shard_count as u64;
                                        if shard % u64::from(self.loops_total)
                                            == u64::from(self.loop_id)
                                        {
                                            local.add(1);
                                        } else {
                                            remote.add(1);
                                        }
                                    }
                                }
                                let response = match request {
                                    // The handler only knows the verifier's
                                    // metrics; the serving layer folds its
                                    // own namespace into the blob.
                                    RequestRef::MetricsSnapshot => shared
                                        .telemetry
                                        .merged_metrics_response(handler.handle_ref(request)),
                                    // Traces live here, not in the
                                    // handler.
                                    RequestRef::TraceDump => shared.telemetry.trace_response(),
                                    // Topology discovery is answered by
                                    // the loop itself: the handler cannot
                                    // know which accept queue a socket
                                    // landed on.
                                    RequestRef::LoopInfo => Response::LoopInfoOk {
                                        loop_id: self.loop_id,
                                        loops: self.loops_total,
                                    },
                                    request => handler.handle_ref(request),
                                };
                                let t2 = Instant::now();
                                let queued =
                                    queue_response(conn, &response, &mut self.encode_scratch);
                                let t3 = Instant::now();
                                let record = shared.telemetry.observe_queued(
                                    msg_type,
                                    device_hash,
                                    elapsed_ns(drain_start, t0),
                                    elapsed_ns(t0, t1),
                                    elapsed_ns(t1, t2),
                                    elapsed_ns(t2, t3),
                                    self.loop_id,
                                );
                                conn.pending_flush.push_back(PendingFlush {
                                    end: conn.queued_total,
                                    queued_at: t3,
                                    record,
                                });
                                queued
                            }
                            Err(e) => {
                                // A typed answer, then the connection ends.
                                let t2 = Instant::now();
                                let answered = queue_response(
                                    conn,
                                    &Response::Error {
                                        code: ErrorCode::MalformedRequest,
                                        detail: FrameError::Decode(e).to_string(),
                                    },
                                    &mut self.encode_scratch,
                                );
                                let t3 = Instant::now();
                                let record = shared.telemetry.observe_queued(
                                    msg_type,
                                    0,
                                    elapsed_ns(drain_start, t0),
                                    elapsed_ns(t0, t1),
                                    elapsed_ns(t1, t2),
                                    elapsed_ns(t2, t3),
                                    self.loop_id,
                                );
                                conn.pending_flush.push_back(PendingFlush {
                                    end: conn.queued_total,
                                    queued_at: t3,
                                    record,
                                });
                                conn.closing = true;
                                conn.frame_deadline = None;
                                answered
                            }
                        };
                        conn.accum.finish_frame();
                        if !keep_going {
                            break Some(Teardown::Normal);
                        }
                        // Pipelining: immediately try the next frame.
                    }
                    Ok(FramePoll::Pending) => {
                        if conn.accum.mid_frame() && conn.frame_deadline.is_none() {
                            conn.frame_deadline = Some(Instant::now() + self.config.frame_timeout);
                        }
                        break None;
                    }
                    Ok(FramePoll::Eof) => {
                        // Clean EOF: answer nothing further, drain and close.
                        conn.closing = true;
                        conn.frame_deadline = None;
                        break None;
                    }
                    Err(e) if e.is_peer_fault() => {
                        // Oversized frame header: typed answer, then close.
                        queue_response(
                            conn,
                            &Response::Error {
                                code: ErrorCode::MalformedRequest,
                                detail: e.to_string(),
                            },
                            &mut self.encode_scratch,
                        );
                        conn.closing = true;
                        // No more frames will be read; the only remaining
                        // timer that should apply is the idle one.
                        conn.frame_deadline = None;
                        break None;
                    }
                    Err(_) => break Some(Teardown::Normal), // dead transport
                }
            };
            if teardown.is_some() {
                break 'pass teardown;
            }

            // Out-queue peak is measured *before* the flush below: this
            // is the residency the responses just queued actually saw.
            let pending = conn.pending_out();
            if pending > self.out_highwater {
                self.out_highwater = pending;
                if let Some(lane) = &self.lane {
                    lane.out_highwater.set(pending as u64);
                }
            }

            if !flush_out(conn) {
                break 'pass Some(Teardown::Normal);
            }
            conn.settle_flushed(&shared.telemetry);
            let paused = conn.closing || conn.pending_out() > self.config.max_write_buffer;
            if paused || !conn.accum.has_complete_frame() {
                break 'pass None;
            }
        };
        if let Some(reason) = teardown {
            self.close(index, reason, shared);
            return;
        }
        if conn.closing && conn.pending_out() == 0 {
            self.close(index, Teardown::Normal, shared);
            return;
        }
        reclaim_read_buf(&mut self.read_buf, &mut conn.accum);

        // Re-register interest: read (and watch for peer half-close)
        // unless paused, write only while output is pending. RDHUP is
        // dropped together with IN: it is level-triggered, so keeping
        // it on a draining connection whose peer already half-closed
        // would wake every epoll_wait instantly — a busy spin. A dead
        // peer still surfaces through ERR/HUP on the write side.
        let paused = conn.closing || conn.pending_out() > self.config.max_write_buffer;
        let mut interest = 0;
        if !paused {
            interest |= event::IN | event::RDHUP;
        }
        if conn.pending_out() > 0 {
            interest |= event::OUT;
        }
        if interest != conn.interest {
            conn.interest = interest;
            let token = index as u64 + CONN_BASE;
            if self.epoll.modify(&conn.stream, interest, token).is_err() {
                self.close(index, Teardown::Normal, shared);
            }
        }
    }

    fn sweep_timers(&mut self, shared: &Shared) {
        let now = Instant::now();
        for index in 0..self.conns.len() {
            let Some(conn) = self.conns[index].as_ref() else {
                continue;
            };
            // The mid-frame timer only judges a peer the server is
            // actually reading from: a backpressure-paused connection
            // is stalled by the server's own high-water mark, and a
            // closing one is past reading entirely.
            let paused = conn.closing || conn.pending_out() > self.config.max_write_buffer;
            if let Some(deadline) = conn.frame_deadline {
                if !paused && now >= deadline {
                    self.close(index, Teardown::SlowFrame, shared);
                    continue;
                }
            }
            // Idle is the unconditional backstop: no complete frame
            // and no accepted write bytes for the whole window closes
            // the connection whatever state it is in — a peer that
            // never reads its answers, a closing connection whose peer
            // refuses to drain the final answer, a paused-mid-frame
            // stall. The (stricter) mid-frame timer above fires first
            // on active connections; sane configs keep
            // `idle_timeout > frame_timeout`.
            if now.duration_since(conn.last_activity) >= self.config.idle_timeout {
                self.close(index, Teardown::Idle, shared);
            }
        }
    }

    fn close(&mut self, index: usize, reason: Teardown, shared: &Shared) {
        if let Some(mut conn) = self.conns[index].take() {
            // A connection killed mid-flush still owes its lifecycle
            // accounting: settle whatever the socket did accept, then
            // finalize the responses that never fully drained — their
            // flush-wait ends here, at teardown, so the phase
            // histograms and the total never under-count a request the
            // server answered but the wire lost. Without this, every
            // force-shutdown or eviction leaked its queued records.
            conn.settle_flushed(&shared.telemetry);
            let now = Instant::now();
            for entry in conn.pending_flush.drain(..) {
                shared
                    .telemetry
                    .observe_drained(entry.record, elapsed_ns(entry.queued_at, now));
            }
            // Counters next: a peer that observes the EOF below must
            // already see its eviction accounted for.
            shared.telemetry.connection_closed(
                matches!(reason, Teardown::Idle),
                matches!(reason, Teardown::SlowFrame),
            );
            let _ = self.epoll.delete(&conn.stream);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            reclaim_read_buf(&mut self.read_buf, &mut conn.accum);
            self.free.push_back(index);
        }
    }

    fn close_all(&mut self, shared: &Shared) {
        for index in 0..self.conns.len() {
            self.close(index, Teardown::Normal, shared);
        }
    }
}

/// Takes a connection's read buffer back as the loop's `spare` once
/// nothing is buffered in it, so an idle connection holds no read
/// memory. When the loop already has a spare, the returned buffer is
/// freed.
fn reclaim_read_buf(spare: &mut Vec<u8>, accum: &mut FrameAccum) {
    if let Some(buf) = accum.take_buffer() {
        if spare.capacity() == 0 {
            *spare = buf;
        }
    }
}

/// Encodes `response` and appends it to the connection's out-queue,
/// advancing `queued_total` by the framed byte count. An oversize
/// response degrades to a typed [`ErrorCode::ResponseTooLarge`]
/// answer, so the connection stays frame-aligned.
/// Returns `false` only when even the fallback cannot be queued.
fn queue_response(conn: &mut Conn, response: &Response, scratch: &mut Vec<u8>) -> bool {
    response.encode_into(scratch);
    let queued = match conn.out.push_frame(scratch) {
        Ok(n) => {
            conn.queued_total += n as u64;
            true
        }
        Err(FrameError::Oversize(n)) => {
            let fallback = Response::Error {
                code: ErrorCode::ResponseTooLarge,
                detail: format!(
                    "response needs {n} bytes, frame cap is {}",
                    ropuf_proto::MAX_FRAME
                ),
            };
            fallback.encode_into(scratch);
            match conn.out.push_frame(scratch) {
                Ok(n) => {
                    conn.queued_total += n as u64;
                    true
                }
                Err(_) => false,
            }
        }
        Err(_) => false,
    };
    // One giant snapshot must not pin MAX_FRAME of encode capacity on
    // the loop thread forever — same retention rule as every other
    // reused buffer.
    ropuf_proto::frame::bound_scratch(scratch);
    queued
}

/// Drains as much pending output as the socket accepts — the whole
/// queued run in one `write` unless the socket buffer fills. Returns
/// `false` when the transport died.
fn flush_out(conn: &mut Conn) -> bool {
    if conn.out.is_empty() {
        return true;
    }
    match conn.out.drain_with(|bytes| (&conn.stream).write(bytes)) {
        Ok(0) => true,
        Ok(written) => {
            conn.sent_total += written as u64;
            conn.last_activity = Instant::now();
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::VerifierHandler;
    use crate::transport::{Client, TcpTransport};
    use ropuf_proto::{FaultPlan, FaultyStream, Request, RATE_ONE};
    use ropuf_verifier::{DetectorConfig, Verifier};
    use std::net::TcpStream;

    fn spawn_default() -> EventedServer {
        let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
        let handler: Arc<dyn RequestHandler> = Arc::new(VerifierHandler::new(verifier));
        EventedServer::spawn("127.0.0.1:0", handler, EventedConfig::default()).expect("bind")
    }

    #[test]
    fn hello_roundtrips_over_the_evented_server() {
        let server = spawn_default();
        let mut client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());
        let name = client.hello("evented-unit").unwrap();
        assert!(name.starts_with("ropuf-server/"), "{name}");
        assert_eq!(server.accepted_total(), 1);
        assert_eq!(server.requests_served(), 1);
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_answers_buffered_requests() {
        let server = spawn_default();
        let addr = server.local_addr();
        let mut client = Client::new(TcpTransport::connect(addr).unwrap());
        client.hello("draining").unwrap();
        server.shutdown();
        // The connection is closed afterwards; a new exchange fails.
        assert!(client.hello("after-shutdown").is_err());
    }

    #[test]
    fn force_shutdown_closes_connections() {
        let server = spawn_default();
        let addr = server.local_addr();
        let mut client = Client::new(TcpTransport::connect(addr).unwrap());
        client.hello("doomed").unwrap();
        assert_eq!(server.open_connections(), 1);
        server.force_shutdown();
        assert!(client.hello("again").is_err());
    }

    #[test]
    fn wire_scrape_merges_server_and_verifier_metrics() {
        let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
        let handler: Arc<dyn RequestHandler> = Arc::new(VerifierHandler::new(verifier));
        let server = EventedServer::spawn(
            "127.0.0.1:0",
            handler,
            EventedConfig {
                slow_trace_threshold: Duration::ZERO,
                ..EventedConfig::default()
            },
        )
        .expect("bind");
        let mut client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());
        client.hello("scraper").unwrap();
        let snap = client.metrics().unwrap();
        // The scrape's own request is already in the tally: hello + it.
        assert_eq!(snap.counter_total("server.requests"), 2);
        // Verifier namespace rode along in the same blob.
        assert!(snap.metrics.iter().any(|m| m.name.starts_with("verifier.")));
        // Both requests landed phase samples under their own msg label.
        assert!(snap.histogram_samples("server.request.phase_ns") >= 2);
        // Threshold zero: both prior requests are in the ring (the
        // dump request itself is recorded only after it is answered).
        let trace = client.trace_dump().unwrap();
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[0].msg_type, 0x01); // hello
        assert_eq!(trace.records[1].msg_type, 0x08); // metrics scrape
                                                     // Every record's total is exactly the sum of its five phases:
                                                     // nothing a client waited on is left unattributed.
        for record in &trace.records {
            assert_eq!(
                record.total_ns,
                record.ready_ns
                    + record.decode_ns
                    + record.handle_ns
                    + record.flush_ns
                    + record.flush_wait_ns,
                "{record:?}"
            );
        }
        // The saturation instruments registered under this loop's lane.
        assert!(snap
            .find("server.loop.ready_batch", &[("backend", "evented")])
            .is_some());
        assert!(snap
            .find(
                "server.worker.busy_ns",
                &[("backend", "evented"), ("worker", "0")]
            )
            .is_some());
        assert!(snap
            .find("server.conn.first_frame_ns", &[("backend", "evented")])
            .is_some());
        server.shutdown();
    }

    #[test]
    fn huge_trace_threshold_keeps_the_ring_empty() {
        let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
        let handler: Arc<dyn RequestHandler> = Arc::new(VerifierHandler::new(verifier));
        let server = EventedServer::spawn(
            "127.0.0.1:0",
            handler,
            EventedConfig {
                slow_trace_threshold: Duration::from_secs(3600),
                ..EventedConfig::default()
            },
        )
        .expect("bind");
        let mut client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());
        client.hello("fast").unwrap();
        let trace = client.trace_dump().unwrap();
        assert!(trace.records.is_empty(), "{:?}", trace.records);
        assert_eq!(trace.dropped, 0);
        server.shutdown();
    }

    /// Drives `loops`-loop serving end to end: 6 concurrent clients
    /// all get accepted and answered whatever listener topology is in
    /// effect, and each connection learns its loop coordinates.
    fn exercise_multi_loop(reuseport: bool) {
        let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
        let handler: Arc<dyn RequestHandler> = Arc::new(VerifierHandler::new(verifier));
        let server = EventedServer::spawn(
            "127.0.0.1:0",
            handler,
            EventedConfig {
                loops: 3,
                reuseport,
                ..EventedConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for t in 0..6 {
                scope.spawn(move || {
                    let mut client = Client::new(TcpTransport::connect(addr).unwrap());
                    client.hello(&format!("loop-share-{t}")).unwrap();
                    let (loop_id, loops) = client.loop_info().unwrap();
                    assert_eq!(loops, 3);
                    assert!(loop_id < 3, "loop id {loop_id} out of range");
                });
            }
        });
        assert_eq!(server.accepted_total(), 6);
        server.shutdown();
    }

    #[test]
    fn multiple_loops_serve_with_reuseport_listeners() {
        exercise_multi_loop(true);
    }

    #[test]
    fn multiple_loops_serve_sharing_one_listener() {
        exercise_multi_loop(false);
    }

    #[test]
    fn single_threaded_handler_answers_loop_zero_of_one() {
        let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
        let handler = Arc::new(VerifierHandler::new(verifier));
        let mut client = Client::new(crate::transport::LoopbackTransport::new(handler));
        assert_eq!(client.loop_info().unwrap(), (0, 1));
    }

    /// A handler that holds the loop for a long time on every hello —
    /// the tool for proving batch peers don't inherit each other's
    /// service time as ready-wait.
    struct SleepyHello;

    impl RequestHandler for SleepyHello {
        fn handle_ref(&self, request: RequestRef<'_>) -> Response {
            match request {
                RequestRef::Hello { protocol, client } => {
                    std::thread::sleep(Duration::from_millis(200));
                    Response::HelloOk {
                        protocol,
                        server: client.to_owned(),
                    }
                }
                _ => Response::Error {
                    code: ErrorCode::MalformedRequest,
                    detail: "sleepy handler only speaks hello".into(),
                },
            }
        }
    }

    #[test]
    fn batch_peers_do_not_inherit_ready_wait() {
        let handler: Arc<dyn RequestHandler> = Arc::new(SleepyHello);
        let server = EventedServer::spawn(
            "127.0.0.1:0",
            handler,
            EventedConfig {
                slow_trace_threshold: Duration::ZERO,
                ..EventedConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        // One client's hello holds the single loop ~200 ms while three
        // more connect and send; their frames then land in one ready
        // batch and are serviced back to back, each sleeping 200 ms.
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut client = Client::new(TcpTransport::connect(addr).unwrap());
                client.hello("first").unwrap();
            });
            std::thread::sleep(Duration::from_millis(50));
            for t in 0..3 {
                scope.spawn(move || {
                    let mut client = Client::new(TcpTransport::connect(addr).unwrap());
                    client.hello(&format!("batched-{t}")).unwrap();
                });
            }
        });
        let mut probe = Client::new(TcpTransport::connect(addr).unwrap());
        let trace = probe.trace_dump().unwrap();
        let hellos: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.msg_type == 0x01)
            .collect();
        assert_eq!(hellos.len(), 4, "{:?}", trace.records);
        for record in &hellos {
            // Under the batch-level stamp this regression test guards
            // against, the last-served peer booked the ~400 ms its
            // batch-mates spent in the handler as its own ready-wait.
            // Re-stamped at drain start, ready-wait is microseconds.
            assert!(
                record.ready_ns < 100_000_000,
                "batch peer inherited ready-wait: {record:?}"
            );
            assert_eq!(
                record.total_ns,
                record.ready_ns
                    + record.decode_ns
                    + record.handle_ns
                    + record.flush_ns
                    + record.flush_wait_ns,
                "phase sum drifted: {record:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn out_queue_survives_arbitrary_write_chunking() {
        // Every write is truncated to 1–8 bytes (RATE_ONE partial-io):
        // the drain must still deliver the exact byte stream, frames
        // queued between partial writes included.
        let mut queue = OutQueue::default();
        let mut expect = Vec::new();
        let mut sink = Vec::new();
        let mut faulty = FaultyStream::new(&mut sink, FaultPlan::new(77).with_partial_io(RATE_ONE));
        let mut written = 0;
        for i in 0..32usize {
            let payload: Vec<u8> = (0..i * 7 + 1)
                .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8))
                .collect();
            queue.push_frame(&payload).unwrap();
            append_frame(&mut expect, &payload).unwrap();
            if i % 4 == 3 {
                // A socket that takes one short write, then is full.
                let mut budget = 1;
                written += queue
                    .drain_with(|bytes| {
                        if budget == 0 {
                            return Err(io::ErrorKind::WouldBlock.into());
                        }
                        budget -= 1;
                        faulty.write(bytes)
                    })
                    .unwrap();
            }
        }
        assert_eq!(written + queue.pending(), expect.len());
        written += queue.drain_with(|bytes| faulty.write(bytes)).unwrap();
        assert_eq!(written, expect.len());
        assert!(queue.is_empty());
        drop(faulty);
        assert_eq!(sink, expect, "chunked drain reordered bytes");
    }

    #[test]
    fn out_queue_recycles_only_bounded_segments() {
        let mut queue = OutQueue::default();
        queue.push_frame(&[1u8; 100]).unwrap();
        queue
            .push_frame(&vec![2u8; ropuf_proto::SCRATCH_RETAIN * 2])
            .unwrap();
        let queued = queue.pending();
        let drained = queue.drain_with(|bytes| Ok(bytes.len())).unwrap();
        assert_eq!(drained, queued);
        assert!(queue.is_empty());
        // The buffer grew past the retention bound for the big frame;
        // once drained it keeps no more than the bound.
        assert!(queue.buf.capacity() <= ropuf_proto::SCRATCH_RETAIN);
        // And a drained queue is reused as is: the next frame needs no
        // allocation.
        let capacity = queue.buf.capacity();
        queue.push_frame(&[3u8; 100]).unwrap();
        assert_eq!(queue.buf.capacity(), capacity);
    }

    #[test]
    fn out_queue_rejects_oversize_frames_untouched() {
        let mut queue = OutQueue::default();
        queue.push_frame(b"queued").unwrap();
        let before = queue.buf.clone();
        let oversize = vec![0u8; ropuf_proto::MAX_FRAME as usize + 1];
        assert!(matches!(
            queue.push_frame(&oversize),
            Err(FrameError::Oversize(_))
        ));
        assert_eq!(queue.buf, before, "nothing half-queued");
        assert_eq!(queue.pending(), before.len());
    }

    #[test]
    fn idle_connection_after_a_burst_holds_no_read_buffer() {
        // One loop driven by hand: a client pipelines a burst, the loop
        // serves it, the connection goes idle.
        let config = EventedConfig::default();
        let shared = Shared::new(&config);
        let (mut listeners, addr) = bind_listeners(&"127.0.0.1:0", 1, false).unwrap();
        let (_wake_tx, wake_rx) = UnixStream::pair().unwrap();
        wake_rx.set_nonblocking(true).unwrap();
        let mut event_loop = EventLoop::new(listeners.remove(0), wake_rx, config, 0).unwrap();
        let handler = VerifierHandler::new(Arc::new(Verifier::new(2, DetectorConfig::default())));

        let count = 16u64;
        let mut burst = Vec::new();
        let mut writer = ropuf_proto::FrameWriter::new(&mut burst);
        for id in 0..count {
            writer
                .write_request(&Request::QueryVerdict { device_id: id })
                .unwrap();
        }
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&burst).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while event_loop.conns.iter().flatten().count() == 0 {
            assert!(Instant::now() < deadline, "connection never accepted");
            event_loop.accept_ready(&shared);
        }
        while shared.telemetry.requests_served() < count {
            assert!(Instant::now() < deadline, "burst never served");
            event_loop.service(0, false, Instant::now(), &handler, &shared);
        }
        let mut reader = ropuf_proto::FrameReader::new(&client);
        for _ in 0..count {
            assert!(matches!(
                reader.read_response().unwrap(),
                Some(Response::Error {
                    code: ErrorCode::UnknownDevice,
                    ..
                })
            ));
        }

        let conn = event_loop.conns[0].as_ref().expect("still open");
        assert!(!conn.accum.mid_frame());
        assert_eq!(
            conn.accum.scratch_capacity(),
            0,
            "idle conn holds a read buffer"
        );
        assert_eq!(
            event_loop.read_buf.capacity(),
            READ_BUF,
            "the loop took its buffer back"
        );
    }
}
