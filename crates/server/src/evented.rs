//! The event-driven TCP serving surface: one epoll readiness loop
//! driving per-connection state machines.
//!
//! ```text
//!   the event loop (one std::thread, one epoll instance,
//!                   one listener with a 1,024-deep accept queue)
//!   ┌────────────────────────────────────────────────────────────┐
//!   │ epoll_wait ──▶ listener readable?  accept until WouldBlock │
//!   │           ──▶ waker readable?      drain, re-check flags   │
//!   │           ──▶ connection event ──▶ per-connection machine: │
//!   │                                                            │
//!   │   lend the loop's read buffer (kept: a partial frame)      │
//!   │     │                                                      │
//!   │     ▼                         yes                          │
//!   │   ┌▶ frame complete in buffer? ──▶ serve the run at the    │
//!   │   │   │ no                        front (an auth and the   │
//!   │   │   │                           auths behind it, or one  │
//!   │   │   ▼                           frame) → append answers  │
//!   │   ├─ read() into all free room        │ next run           │
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
//!        │ one Arc<dyn RequestHandler>
//!        ▼
//!   shared Verifier (per-shard locks)
//! ```
//!
//! The server multiplexes **thousands of connections on its one loop
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
//! These mechanisms keep the p999 flat when thousands of connections
//! are held open, and the per-frame cost low when they pipeline:
//!
//! * **A deep accept queue** — the listener queues up to
//!   [`LISTEN_BACKLOG`](crate::sys::net::LISTEN_BACKLOG) connections,
//!   not `std`'s 128, so a connect storm waits for the loop to accept
//!   it instead of for the kernel's SYN retransmit.
//! * **Per-readiness I/O** — syscalls are paid per readiness, not per
//!   frame. The loop owns one 64 KiB read buffer and lends it to the
//!   connection it is servicing; the connection's [`FrameAccum`]
//!   reads a pipelined burst in one `read` and serves every frame
//!   already buffered without another. Responses are appended to one
//!   flat out-queue per connection and leave in one `write`. A
//!   connection whose pass ends with nothing buffered hands the read
//!   buffer back, so idle connections hold no read memory. Frame
//!   telemetry is paid per write too: the write's one clock read
//!   settles every response it completed, and a frame that was already
//!   buffered starts its clock where its predecessor's stopped.
//! * **One serving step, runs of auths as one call** — the loop
//!   serves the front of a connection's buffer as a run of `n ≥ 1`
//!   frames. An admitted `Authenticate` and every complete auth
//!   buffered right behind it that decodes ([`FrameAccum::frames`])
//!   are decoded borrowed from the read buffer and served in one
//!   [`RequestHandler::handle_auths`] call, which the production
//!   handler turns into one verifier batch that overlaps the items'
//!   cache misses, or into one plain query for a lone auth. The first
//!   frame that is not a complete auth that decodes ends the run and
//!   is served on its own, as a run of one, so answers keep frame
//!   order. A run reads the clock at its boundaries only, not per
//!   frame, books its frames' phases at one site, and is bounded by
//!   what one read buffered: at saturation a 64 KiB read holds a few
//!   hundred auths, at a fixed rate a run is usually one frame.
//!
//! Protocol semantics are **identical** to the in-process
//! [`LoopbackTransport`](crate::LoopbackTransport), the semantic
//! oracle: both funnel decoded [`RequestRef`]s through the same shared
//! [`RequestHandler`]. On top of that, malformed frames are answered
//! with a typed [`ErrorCode::MalformedRequest`] before the connection
//! closes, and oversized responses degrade to
//! [`ErrorCode::ResponseTooLarge`]. The equivalence suite replays
//! identical traffic through the server and through loopback, and
//! asserts bit-for-bit identical response bytes.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ropuf_proto::{
    append_frame, AuthItemRef, ErrorCode, FrameAccum, FrameError, FramePoll, RequestRef, Response,
};

use ropuf_telemetry::TraceRecord;

use crate::admission::{evented_pressure, Admission, OverloadPolicy, RequestClass};
use crate::handler::RequestHandler;
use crate::sys::epoll::{event, Epoll, Event};
use crate::sys::net;
use crate::telemetry::{elapsed_ns, request_device_hash, LaneStats, ServerTelemetry};

/// Tuning knobs of the evented server. [`EventedConfig::default`] is
/// the production shape; tests shrink the timeouts to milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventedConfig {
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
    /// Serving counters, phase histograms, and the slow-request ring.
    telemetry: Arc<ServerTelemetry>,
    /// Admission gate (policy + shed tallies).
    admission: Admission,
    /// Write half of the loop's waker pair: a byte here wakes the loop
    /// to re-check the stop flags.
    waker: UnixStream,
}

impl Shared {
    fn new(config: &EventedConfig, waker: UnixStream) -> Self {
        let telemetry = ServerTelemetry::new(config.slow_trace_threshold, config.trace_capacity);
        let admission = Admission::new(config.overload, &telemetry);
        Self {
            stop: AtomicBool::new(false),
            force: AtomicBool::new(false),
            telemetry,
            admission,
            waker,
        }
    }
}

/// A running event-driven TCP server.
///
/// Dropping the handle without calling [`EventedServer::shutdown`] /
/// [`EventedServer::force_shutdown`] leaks the loop thread until
/// process exit.
#[derive(Debug)]
pub struct EventedServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

impl EventedServer {
    /// Binds `addr` (port 0 = ephemeral) and starts the event-loop
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates bind / epoll-creation / waker-creation / thread-spawn
    /// failures; nothing is left running after one.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn RequestHandler>,
        config: EventedConfig,
    ) -> io::Result<Self> {
        let listener = net::bind_listener(addr)?;
        let local_addr = listener.local_addr()?;
        let (waker, wake_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let mut event_loop = EventLoop::new(listener, wake_rx, config)?;
        let shared = Arc::new(Shared::new(&config, waker));
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("evented-loop".into())
            .spawn(move || event_loop.run(handler.as_ref(), &loop_shared))?;
        Ok(Self {
            local_addr,
            shared,
            thread,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently established.
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

    /// Flags the loop to stop (skipping the drain window when
    /// `force`), wakes it, and joins its thread. Shared by both
    /// shutdown flavors.
    fn stop(self, force: bool) {
        if force {
            self.shared.force.store(true, Ordering::SeqCst);
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = (&self.shared.waker).write(&[1]);
        let _ = self.thread.join();
    }

    /// Graceful shutdown: stops accepting, flushes every buffered
    /// response, closes each connection once its write buffer drains,
    /// force-closes whatever remains after one second, and joins the
    /// loop thread.
    pub fn shutdown(self) {
        self.stop(false);
    }

    /// Immediate shutdown: every open connection is closed now,
    /// mid-exchange peers see EOF/reset.
    pub fn force_shutdown(self) {
        self.stop(true);
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
/// clock is still running: the trace record is finalized (and all its
/// phases recorded) only once the socket has accepted every byte up to
/// `end`.
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

/// A connection's outbound side: the response frames queued for the
/// socket, and the trace record of each one, settled once the socket
/// has taken the response's last byte.
#[derive(Debug, Default)]
struct Outbound {
    /// Encoded-but-unsent response frames.
    queue: OutQueue,
    /// Total bytes ever queued (monotonic).
    queued_total: u64,
    /// Total bytes the socket has ever accepted (monotonic).
    sent_total: u64,
    /// Responses queued but not yet fully accepted by the socket,
    /// oldest first (responses drain in order).
    pending: VecDeque<PendingFlush>,
}

impl Outbound {
    fn pending_bytes(&self) -> usize {
        self.queue.pending()
    }

    /// Encodes `response` onto the queue. An oversize response
    /// degrades to a typed [`ErrorCode::ResponseTooLarge`] answer, so
    /// the connection stays frame-aligned. Returns `false` only when
    /// even the fallback cannot be queued.
    fn push(&mut self, response: &Response, scratch: &mut Vec<u8>) -> bool {
        response.encode_into(scratch);
        let framed = match self.queue.push_frame(scratch) {
            Err(FrameError::Oversize(n)) => {
                let fallback = Response::Error {
                    code: ErrorCode::ResponseTooLarge,
                    detail: format!(
                        "response needs {n} bytes, frame cap is {}",
                        ropuf_proto::MAX_FRAME
                    ),
                };
                fallback.encode_into(scratch);
                self.queue.push_frame(scratch)
            }
            framed => framed,
        };
        // One giant response must not pin MAX_FRAME of encode capacity
        // on the loop thread forever — same retention rule as every
        // other reused buffer.
        ropuf_proto::frame::bound_scratch(scratch);
        match framed {
            Ok(n) => {
                self.queued_total += n as u64;
                true
            }
            Err(_) => false,
        }
    }

    /// Files the trace record of the response that ends at out-stream
    /// offset `end`, its flush-wait clock starting at `queued_at`;
    /// responses are filed in queue order.
    fn track_at(&mut self, end: u64, record: TraceRecord, queued_at: Instant) {
        self.pending.push_back(PendingFlush {
            end,
            queued_at,
            record,
        });
    }

    /// Drains the queue through `write` until it empties or the sink
    /// reports `WouldBlock`. When bytes left, reads the clock once,
    /// settles every response they completed at that instant, and
    /// returns it; `None` when nothing left.
    ///
    /// # Errors
    ///
    /// The sink's fatal error (see [`OutQueue::drain_with`]).
    fn flush(
        &mut self,
        telemetry: &ServerTelemetry,
        write: impl FnMut(&[u8]) -> io::Result<usize>,
    ) -> io::Result<Option<Instant>> {
        if self.queue.is_empty() {
            return Ok(None);
        }
        let written = self.queue.drain_with(write)?;
        if written == 0 {
            return Ok(None);
        }
        self.sent_total += written as u64;
        let now = Instant::now();
        self.settle(telemetry, now, self.sent_total);
        Ok(Some(now))
    }

    /// Settles every response that ends at or before out-stream offset
    /// `upto`: their out-queue residency until `now` is the flush-wait
    /// phase, and their records go to the telemetry in one call.
    fn settle(&mut self, telemetry: &ServerTelemetry, now: Instant, upto: u64) {
        let drained = self.pending.iter().take_while(|p| p.end <= upto).count();
        if drained == 0 {
            return;
        }
        for entry in self.pending.range_mut(..drained) {
            let flush_wait_ns = elapsed_ns(entry.queued_at, now);
            entry.record.flush_wait_ns = flush_wait_ns;
            entry.record.total_ns = entry.record.total_ns.saturating_add(flush_wait_ns);
        }
        telemetry.observe_drained(self.pending.range(..drained).map(|p| &p.record));
        self.pending.drain(..drained);
    }

    /// Settles every response still pending, the ones the socket never
    /// fully took included: a connection torn down mid-flush still
    /// owes their accounting, and their flush-wait ends now.
    fn abandon(&mut self, telemetry: &ServerTelemetry) {
        self.settle(telemetry, Instant::now(), u64::MAX);
    }
}

/// One connection's full state: socket, incremental frame reader,
/// bounded response queue, and the timer bookkeeping.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    accum: FrameAccum,
    /// Encoded-but-unsent response frames and their trace records.
    out: Outbound,
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
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.pending_bytes()
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

/// The wire type byte of an `Authenticate` request.
const AUTHENTICATE: u8 = 0x03;

/// Buffers of the serving step, reused across runs: the answers of the
/// run being served and, per frame, the device hash of its trace record
/// and the out-stream offset its answer ends at.
#[derive(Debug, Default)]
struct RunScratch {
    answers: Vec<Response>,
    frames: Vec<(u64, u64)>,
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    waker: UnixStream,
    config: EventedConfig,
    conns: Vec<Option<Conn>>,
    free: VecDeque<usize>,
    /// Response-encode scratch shared by every connection
    /// (handling is synchronous, so one buffer suffices).
    encode_scratch: Vec<u8>,
    /// The serving step's buffers, shared the same way.
    run_scratch: RunScratch,
    /// Read buffer lent to the connection being serviced and taken
    /// back when its pass ends with nothing buffered, so idle
    /// connections hold no read memory. Empty while a connection
    /// keeps it (a partial frame); the next lend allocates afresh.
    read_buf: Vec<u8>,
    /// Set once the stop flag has been observed and the listener
    /// deregistered.
    draining: bool,
    drain_deadline: Option<Instant>,
    /// The loop's saturation counters and high-water gauge, resolved
    /// once at `run` entry (registry lookups are too slow per-frame).
    lane: Option<LaneStats>,
    /// Ready events still waiting behind the one being serviced in the
    /// current batch — folded into admission pressure so a loop that
    /// wakes to a wall of work sheds from the front of it, not after
    /// digging through.
    ready_backlog: u64,
    /// Largest pending out-queue any connection has
    /// reached; the gauge is only touched when this grows.
    out_highwater: usize,
}

impl EventLoop {
    fn new(listener: TcpListener, waker: UnixStream, config: EventedConfig) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(&listener, event::IN, TOKEN_LISTENER)?;
        epoll.add(&waker, event::IN, TOKEN_WAKER)?;
        Ok(Self {
            epoll,
            listener,
            waker,
            config,
            conns: Vec::new(),
            free: VecDeque::new(),
            encode_scratch: Vec::new(),
            run_scratch: RunScratch::default(),
            read_buf: Vec::new(),
            draining: false,
            drain_deadline: None,
            lane: None,
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
        self.lane = Some(shared.telemetry.lane());
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
                        out: Outbound::default(),
                        interest: event::IN | event::RDHUP,
                        last_activity: now,
                        frame_deadline: None,
                        closing: false,
                        accepted_at: now,
                        saw_first_frame: false,
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
    ///
    /// Every complete frame at the front of the buffer goes to the one
    /// serving step, [`serve_run`], which serves it as a run of `n ≥ 1`
    /// frames: an admitted auth with the complete auths behind it, or
    /// any other frame on its own.
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

        if writable && !flush_out(conn, &shared.telemetry) {
            self.close(index, Teardown::Normal, shared);
            return;
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
            // When the previous frame's response was queued (its t3):
            // the next frame's t0 when that frame was already buffered,
            // so back-to-back frames share one clock read. Cleared by a
            // `read` or a flush, after which t0 is read afresh.
            let mut last_queued: Option<Instant> = None;
            let teardown = loop {
                if conn.closing {
                    break None; // no more reads; wait for the drain
                }
                if conn.pending_out() > self.config.max_write_buffer {
                    break None; // backpressure: resume when the peer drains
                }
                if !conn.accum.has_complete_frame() {
                    last_queued = None; // this poll reads
                }
                match conn.accum.poll(&mut conn.stream) {
                    Ok(FramePoll::Frame) => {
                        let t0 = last_queued.unwrap_or_else(Instant::now);
                        conn.last_activity = t0;
                        conn.frame_deadline = None;
                        if !conn.saw_first_frame {
                            conn.saw_first_frame = true;
                            shared
                                .telemetry
                                .first_frame(elapsed_ns(conn.accepted_at, t0));
                        }
                        let (t3, queued) = serve_run(
                            conn,
                            handler,
                            shared,
                            self.ready_backlog,
                            &mut self.run_scratch,
                            &mut self.encode_scratch,
                            (drain_start, t0),
                        );
                        last_queued = Some(t3);
                        if !queued {
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
                        conn.out.push(
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
                    Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        // The peer half-closed inside a frame: that
                        // frame gets no answer, but every answer
                        // already queued drains before the close, as
                        // after a clean EOF.
                        conn.closing = true;
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

            if !flush_out(conn, &shared.telemetry) {
                break 'pass Some(Teardown::Normal);
            }
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
            // accounting: every response still queued, drained or not,
            // is settled here, its flush-wait ending at teardown, so
            // the phase histograms and the total never under-count a
            // request the server answered but the wire lost. Without
            // this, every force-shutdown or eviction leaked its queued
            // records.
            conn.out.abandon(&shared.telemetry);
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

/// The `Authenticate` request a frame payload holds, if it holds one
/// that decodes. The type byte is read first, so no other message is
/// decoded here.
fn decode_auth(payload: &[u8]) -> Option<AuthItemRef<'_>> {
    if payload.first() != Some(&AUTHENTICATE) {
        return None;
    }
    match RequestRef::decode(payload) {
        Ok(RequestRef::Authenticate(item)) => Some(item),
        _ => None,
    }
}

/// Serves the run at the front of the connection's buffer, which holds
/// at least one complete frame, and queues its `n` answers in frame
/// order. A run is an admitted `Authenticate` and every complete auth
/// buffered right behind it that decodes, served in one
/// [`RequestHandler::handle_auths`] call (`n` may be 1), or any other
/// frame on its own: a shed frame, a frame that does not decode (its
/// typed answer closes the connection) or any other request. The auths
/// behind the first share its admission: they carry the same class, and
/// nothing is queued while the run is gathered, so they meet the same
/// pressure. The run's answers count toward the pressure of every frame
/// after it.
///
/// The run's first frame started at `t0`; `drain_start` is the pass's
/// start. The clock is read at the run's boundaries only. Each of the
/// `n` frames is charged `1/n` of the run's decode, handle and flush
/// spans, and the rest of its time from `drain_start` until the answers
/// were queued is its ready-wait, so its phases sum exactly to its
/// lifetime, and a run of one is charged its own spans. Returns when
/// the answers were queued and whether every one of them was.
fn serve_run(
    conn: &mut Conn,
    handler: &dyn RequestHandler,
    shared: &Shared,
    ready_backlog: u64,
    scratch: &mut RunScratch,
    encode: &mut Vec<u8>,
    (drain_start, t0): (Instant, Instant),
) -> (Instant, bool) {
    let telemetry = &shared.telemetry;
    // Counted before decode: malformed frames and the metrics scrape
    // itself are part of the tally, so `server.requests` equals the
    // client-side op count exactly.
    telemetry.requests_started(1);
    let mut frames = conn.accum.frames();
    let payload = frames.next().unwrap_or_default();
    let msg_type = payload.first().copied().unwrap_or(0);
    scratch.frames.clear();
    // Admission off the type byte alone, metered by this connection's
    // unsent response bytes plus the ready backlog still queued behind
    // it on the loop: a shed request costs a small error frame, never a
    // decode or a verifier call, and the connection lives on.
    let shed = shared.admission.check(
        RequestClass::of(msg_type),
        evented_pressure(conn.pending_out() as u64, ready_backlog),
    );
    let (t1, t2) = if let Some(shed) = shed {
        // A shed frame decodes nothing: admission is its handle span.
        scratch.frames.push((0, 0));
        scratch.answers.push(shed);
        (t0, Instant::now())
    } else {
        match RequestRef::decode(payload) {
            Ok(RequestRef::Authenticate(first)) => {
                let mut items = Vec::new();
                let run = match frames.next().and_then(decode_auth) {
                    None => std::slice::from_ref(&first),
                    Some(second) => {
                        items.extend([first, second]);
                        items.extend(frames.map_while(decode_auth));
                        &items[..]
                    }
                };
                telemetry.requests_started(run.len() as u64 - 1);
                telemetry.auth_run(run.len() as u64);
                scratch.frames.extend(
                    run.iter()
                        .map(|&item| (request_device_hash(&RequestRef::Authenticate(item)), 0)),
                );
                let t1 = Instant::now();
                handler.handle_auths(run, &mut scratch.answers);
                (t1, Instant::now())
            }
            Ok(request) => {
                scratch.frames.push((request_device_hash(&request), 0));
                let t1 = Instant::now();
                scratch.answers.push(match request {
                    // The handler only knows the verifier's metrics; the
                    // serving layer folds its own namespace into the blob.
                    RequestRef::MetricsSnapshot => {
                        telemetry.merged_metrics_response(handler.handle_ref(request))
                    }
                    // Traces live here, not in the handler.
                    RequestRef::TraceDump => telemetry.trace_response(),
                    request => handler.handle_ref(request),
                });
                (t1, Instant::now())
            }
            Err(e) => {
                // A typed answer, then the connection ends.
                let t1 = Instant::now();
                conn.closing = true;
                scratch.frames.push((0, 0));
                scratch.answers.push(Response::Error {
                    code: ErrorCode::MalformedRequest,
                    detail: FrameError::Decode(e).to_string(),
                });
                (t1, Instant::now())
            }
        }
    };
    // One answer per frame keeps the connection frame-aligned, whatever
    // a handler outside this crate returns.
    let n = scratch.frames.len();
    scratch.answers.resize_with(n, || Response::Error {
        code: ErrorCode::Internal,
        detail: "the handler left an auth of the run unanswered".into(),
    });
    let mut queued = true;
    for (answer, (_, end)) in scratch.answers.drain(..).zip(&mut scratch.frames) {
        queued &= conn.out.push(&answer, encode);
        *end = conn.out.queued_total;
    }
    let t3 = Instant::now();
    let share = |from, to| elapsed_ns(from, to) / n as u64;
    let (decode_ns, handle_ns, flush_ns) = (share(t0, t1), share(t1, t2), share(t2, t3));
    let ready_ns = elapsed_ns(drain_start, t3)
        .saturating_sub(decode_ns)
        .saturating_sub(handle_ns)
        .saturating_sub(flush_ns);
    for &(hash, end) in &scratch.frames {
        let record =
            telemetry.observe_queued(msg_type, hash, ready_ns, decode_ns, handle_ns, flush_ns);
        conn.out.track_at(end, record, t3);
    }
    conn.accum.finish_frames(n);
    (t3, queued)
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

/// Drains as much pending output as the socket accepts — the whole
/// queued run in one `write` unless the socket buffer fills — and
/// settles the responses that left. The one clock read of the write is
/// also the idle timer's new anchor. Returns `false` when the transport
/// died.
fn flush_out(conn: &mut Conn, telemetry: &ServerTelemetry) -> bool {
    match conn
        .out
        .flush(telemetry, |bytes| (&conn.stream).write(bytes))
    {
        Ok(Some(now)) => {
            conn.last_activity = now;
            true
        }
        Ok(None) => true,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::VerifierHandler;
    use crate::transport::{Client, TcpTransport, Transport};
    use ropuf_proto::{AuthItem, FaultPlan, FaultyStream, Request, WireAuthResponse, RATE_ONE};
    use ropuf_telemetry::{MetricValue, SERIES_PHASES};
    use ropuf_verifier::{DetectorConfig, Verifier};
    use std::net::TcpStream;
    use std::sync::Mutex;

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

    #[test]
    fn single_threaded_handler_answers_loop_zero_of_one() {
        // Over loopback and over the wire alike: the server runs one
        // loop.
        let server = spawn_default();
        let verifier = Arc::new(Verifier::new(2, DetectorConfig::default()));
        let mut loopback =
            crate::transport::LoopbackTransport::new(Arc::new(VerifierHandler::new(verifier)));
        let mut wire = TcpTransport::connect(server.local_addr()).unwrap();
        for transport in [&mut loopback as &mut dyn Transport, &mut wire] {
            assert_eq!(
                transport.roundtrip(&Request::LoopInfo).unwrap(),
                Response::LoopInfoOk {
                    loop_id: 0,
                    loops: 1
                }
            );
        }
        server.shutdown();
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
        // A client pipelines a burst, the loop serves it, the
        // connection goes idle.
        let handler = VerifierHandler::new(Arc::new(Verifier::new(2, DetectorConfig::default())));
        let burst: Vec<Request> = (0..16u64)
            .map(|id| Request::QueryVerdict { device_id: id })
            .collect();
        let (event_loop, _shared, client) =
            serve_by_hand(&handler, &burst, EventedConfig::default(), |_, shared| {
                shared.telemetry.requests_served() == burst.len() as u64
            });
        let mut reader = ropuf_proto::FrameReader::new(&client);
        for _ in &burst {
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

    /// Samples per phase summed over every `msg` row of
    /// `server.request.phase_ns`, in [`SERIES_PHASES`] order, and the
    /// samples of `server.request.total_ns`.
    fn phase_samples(telemetry: &ServerTelemetry) -> ([u64; 5], u64) {
        let snap = telemetry.snapshot();
        let mut phases = [0u64; 5];
        for metric in &snap.metrics {
            let MetricValue::Histogram(h) = &metric.value else {
                continue;
            };
            if metric.name != "server.request.phase_ns" {
                continue;
            }
            let phase = metric
                .labels
                .iter()
                .find(|(key, _)| key == "phase")
                .and_then(|(_, value)| SERIES_PHASES.iter().position(|p| p == value))
                .expect("every phase row names a known phase");
            phases[phase] += h.count;
        }
        let total = match snap.find("server.request.total_ns", &[("backend", "evented")]) {
            Some(MetricValue::Histogram(h)) => h.count,
            other => panic!("total histogram: {other:?}"),
        };
        (phases, total)
    }

    /// Queues `n` responses of mixed message types on `out`, each with
    /// its trace record.
    fn queue_mixed(out: &mut Outbound, telemetry: &ServerTelemetry, n: u64) {
        let mut scratch = Vec::new();
        for i in 0..n {
            let msg_type = [0x03, 0x05, 0xEE][(i % 3) as usize];
            let response = Response::Error {
                code: ErrorCode::UnknownDevice,
                detail: format!("response {i}"),
            };
            assert!(out.push(&response, &mut scratch));
            let record = telemetry.observe_queued(msg_type, i, 1, 2, 3, 4);
            out.track_at(out.queued_total, record, Instant::now());
        }
    }

    #[test]
    fn one_byte_writes_settle_each_response_exactly_once() {
        let telemetry = ServerTelemetry::new(Duration::ZERO, 1024);
        let mut out = Outbound::default();
        let n = 12;
        queue_mixed(&mut out, &telemetry, n);
        assert_eq!(
            phase_samples(&telemetry),
            ([0; 5], 0),
            "queueing records nothing"
        );
        let mut sink = Vec::new();
        let mut faulty = FaultyStream::new(&mut sink, FaultPlan::new(5).with_partial_io(RATE_ONE));
        let mut writes = 0;
        while out.pending_bytes() > 0 {
            // One 1-byte write per flush, then the socket is full.
            let mut budget = 1;
            let flushed = out
                .flush(&telemetry, |bytes| {
                    if budget == 0 {
                        return Err(io::ErrorKind::WouldBlock.into());
                    }
                    budget -= 1;
                    faulty.write(&bytes[..1])
                })
                .expect("the sink stays up");
            assert!(flushed.is_some(), "a byte left, so the clock was read");
            writes += 1;
            // Exactly the responses whose last byte left are settled.
            let settled = n - out.pending.len() as u64;
            assert_eq!(phase_samples(&telemetry), ([settled; 5], settled));
            assert!(out.pending.iter().all(|p| p.end > out.sent_total));
        }
        drop(faulty);
        assert_eq!(writes, sink.len());
        assert_eq!(phase_samples(&telemetry), ([n; 5], n));
        let records = telemetry.trace_snapshot().records;
        assert_eq!(records.len() as u64, n);
        for record in &records {
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
        // A flush with nothing queued reads no clock and settles nothing.
        assert_eq!(out.flush(&telemetry, |_| unreachable!()).unwrap(), None);
    }

    #[test]
    fn a_teardown_mid_flush_settles_every_queued_response_once() {
        let telemetry = ServerTelemetry::new(Duration::ZERO, 1024);
        let mut out = Outbound::default();
        let n = 9;
        queue_mixed(&mut out, &telemetry, n);
        // The socket takes the first response and half the second.
        let first = out.pending[0].end as usize;
        let mut budget = first + 3;
        out.flush(&telemetry, |bytes| {
            let take = bytes.len().min(budget);
            if take == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            budget -= take;
            Ok(take)
        })
        .expect("the sink stays up");
        assert_eq!(phase_samples(&telemetry), ([1; 5], 1));
        out.abandon(&telemetry);
        assert!(out.pending.is_empty());
        assert_eq!(phase_samples(&telemetry), ([n; 5], n));
        out.abandon(&telemetry);
        assert_eq!(phase_samples(&telemetry), ([n; 5], n), "settled once only");
        assert_eq!(telemetry.trace_snapshot().records.len() as u64, n);
    }

    /// Pipelines `burst` at a fresh server and serves it by hand until
    /// `done` holds; returns the loop, its shared state and the client
    /// socket.
    fn serve_by_hand(
        handler: &dyn RequestHandler,
        burst: &[Request],
        config: EventedConfig,
        done: impl Fn(&EventLoop, &Shared) -> bool,
    ) -> (EventLoop, Shared, TcpStream) {
        serve_raw_by_hand(handler, &wire_of(burst), config, done)
    }

    /// [`serve_by_hand`] for raw wire bytes: the whole of `wire` is in
    /// the server's socket before the loop first reads it.
    fn serve_raw_by_hand(
        handler: &dyn RequestHandler,
        wire: &[u8],
        config: EventedConfig,
        done: impl Fn(&EventLoop, &Shared) -> bool,
    ) -> (EventLoop, Shared, TcpStream) {
        let listener = net::bind_listener("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (wake_tx, wake_rx) = UnixStream::pair().unwrap();
        wake_rx.set_nonblocking(true).unwrap();
        let shared = Shared::new(&config, wake_tx);
        let mut event_loop = EventLoop::new(listener, wake_rx, config).unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(wire).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while event_loop.conns.iter().flatten().count() == 0 {
            assert!(Instant::now() < deadline, "connection never accepted");
            event_loop.accept_ready(&shared);
        }
        while !done(&event_loop, &shared) {
            assert!(Instant::now() < deadline, "burst never served");
            event_loop.service(0, false, Instant::now(), handler, &shared);
        }
        (event_loop, shared, client)
    }

    #[test]
    fn every_served_frame_is_settled_once_when_force_closed_mid_flush() {
        // Queries fill the trace ring; then each trace dump answers
        // with the whole ring (~10 KB) to a client that reads nothing:
        // the socket fills, the out-queue passes its high-water mark,
        // and the loop stops reading with responses still queued.
        let handler = VerifierHandler::new(Arc::new(Verifier::new(2, DetectorConfig::default())));
        let queries: Vec<Request> = (0..300u64)
            .map(|id| Request::QueryVerdict { device_id: id })
            .collect();
        let config = EventedConfig {
            slow_trace_threshold: Duration::ZERO,
            max_write_buffer: 256 * 1024,
            ..EventedConfig::default()
        };
        let (mut event_loop, shared, mut client) =
            serve_by_hand(&handler, &queries, config, |_, shared| {
                shared.telemetry.requests_served() == queries.len() as u64
            });
        let mut dumps = Vec::new();
        let mut writer = ropuf_proto::FrameWriter::new(&mut dumps);
        for _ in 0..2000 {
            writer.write_request(&Request::TraceDump).unwrap();
        }
        client.write_all(&dumps).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while event_loop.conns[0]
            .as_ref()
            .is_none_or(|conn| conn.pending_out() <= config.max_write_buffer)
        {
            assert!(Instant::now() < deadline, "the socket never filled");
            event_loop.service(0, false, Instant::now(), &handler, &shared);
        }
        let served = shared.telemetry.requests_served();
        let queued = event_loop.conns[0]
            .as_ref()
            .map_or(0, |c| c.out.pending.len());
        assert!(queued > 0, "the close must come mid-flush");
        event_loop.close_all(&shared);
        assert_eq!(phase_samples(&shared.telemetry), ([served; 5], served));
        let ring = shared.telemetry.trace_snapshot();
        assert_eq!(ring.recorded, served);
        let records = ring.records;
        for record in &records {
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
    }

    /// Logs, in call order, every run of auths it serves as one
    /// `handle_auths` call (`Run`) and every auth or verdict query it
    /// serves through `handle_ref` (`One`); answers every request with a
    /// fixed error.
    #[derive(Default)]
    struct CallLog(Mutex<Vec<Call>>);

    #[derive(Debug, PartialEq)]
    enum Call {
        Run(Vec<u64>),
        One(u64),
    }

    impl CallLog {
        fn answer() -> Response {
            Response::Error {
                code: ErrorCode::UnknownDevice,
                detail: "call log".into(),
            }
        }
    }

    impl RequestHandler for CallLog {
        fn handle_ref(&self, request: RequestRef<'_>) -> Response {
            match request {
                RequestRef::Authenticate(AuthItemRef { device_id, .. })
                | RequestRef::QueryVerdict { device_id } => {
                    self.0.lock().unwrap().push(Call::One(device_id));
                }
                _ => {}
            }
            Self::answer()
        }

        fn handle_auths(&self, items: &[AuthItemRef<'_>], answers: &mut Vec<Response>) {
            let ids = items.iter().map(|item| item.device_id).collect();
            self.0.lock().unwrap().push(Call::Run(ids));
            answers.extend(items.iter().map(|_| Self::answer()));
        }
    }

    fn auth(device_id: u64) -> Request {
        Request::Authenticate(AuthItem {
            device_id,
            now: 0,
            nonce: b"n".to_vec(),
            response: WireAuthResponse::Failure,
            presented_helper: None,
        })
    }

    /// Frames `requests` back to back.
    fn wire_of(requests: &[Request]) -> Vec<u8> {
        let mut wire = Vec::new();
        for request in requests {
            append_frame(&mut wire, &request.encode()).unwrap();
        }
        wire
    }

    #[test]
    fn buffered_auths_are_served_as_runs_in_frame_order() {
        // A run is an auth and the complete auths buffered right behind
        // it; any other frame ends it and is served on its own, and a
        // lone auth is a run of one.
        let burst = [
            auth(11),
            auth(22),
            Request::QueryVerdict { device_id: 33 },
            auth(44),
            Request::QueryVerdict { device_id: 55 },
            auth(66),
            auth(77),
            auth(88),
        ];
        let handler = CallLog::default();
        let (mut event_loop, shared, mut client) =
            serve_by_hand(&handler, &burst, EventedConfig::default(), |_, shared| {
                shared.telemetry.requests_served() == burst.len() as u64
            });
        use Call::{One, Run};
        assert_eq!(
            std::mem::take(&mut *handler.0.lock().unwrap()),
            [
                Run(vec![11, 22]),
                One(33),
                Run(vec![44]),
                One(55),
                Run(vec![66, 77, 88]),
            ]
        );
        // A run ends where the received bytes do: the auth cut short is
        // not part of it, and is served once its last byte arrives.
        let tail = wire_of(&[auth(99), auth(100), auth(101)]);
        let cut = tail.len() - 3;
        client.write_all(&tail[..cut]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while shared.telemetry.requests_served() < burst.len() as u64 + 2 {
            assert!(
                Instant::now() < deadline,
                "the complete auths were never served"
            );
            event_loop.service(0, false, Instant::now(), &handler, &shared);
        }
        assert_eq!(
            std::mem::take(&mut *handler.0.lock().unwrap()),
            [Run(vec![99, 100])]
        );
        client.write_all(&tail[cut..]).unwrap();
        while shared.telemetry.requests_served() < burst.len() as u64 + 3 {
            assert!(
                Instant::now() < deadline,
                "the completed auth was never served"
            );
            event_loop.service(0, false, Instant::now(), &handler, &shared);
        }
        assert_eq!(*handler.0.lock().unwrap(), [Run(vec![101])]);
    }

    #[test]
    fn a_read_cut_anywhere_serves_every_frame_once_in_order() {
        // The first read ends at every byte of the burst in turn: the
        // runs it and the second read form differ per cut, but every
        // frame is served exactly once, in frame order, and every auth
        // is served in a run: only the verdict query is served alone.
        let burst = [
            auth(1),
            auth(2),
            auth(3),
            Request::QueryVerdict { device_id: 4 },
            auth(5),
            auth(6),
        ];
        let wire = wire_of(&burst);
        let ends: Vec<usize> = burst
            .iter()
            .scan(0, |end, request| {
                *end += 4 + request.encode().len();
                Some(*end)
            })
            .collect();
        for cut in 1..wire.len() {
            let handler = CallLog::default();
            let whole = ends.iter().filter(|&&end| end <= cut).count() as u64;
            let (mut event_loop, shared, mut client) = serve_raw_by_hand(
                &handler,
                &wire[..cut],
                EventedConfig::default(),
                |_, shared| shared.telemetry.requests_served() == whole,
            );
            client.write_all(&wire[cut..]).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while shared.telemetry.requests_served() < burst.len() as u64 {
                assert!(
                    Instant::now() < deadline,
                    "cut at {cut}: burst never served"
                );
                event_loop.service(0, false, Instant::now(), &handler, &shared);
            }
            let calls = std::mem::take(&mut *handler.0.lock().unwrap());
            let mut served = Vec::new();
            for call in &calls {
                match call {
                    Call::Run(ids) => served.extend(ids),
                    Call::One(id) => {
                        assert_eq!(*id, 4, "cut at {cut}: an auth left its run: {calls:?}");
                        served.push(*id);
                    }
                }
            }
            assert_eq!(served, [1, 2, 3, 4, 5, 6], "cut at {cut}: {calls:?}");
            let mut reader = ropuf_proto::FrameReader::new(&client);
            for _ in &burst {
                assert_eq!(reader.read_response().unwrap(), Some(CallLog::answer()));
            }
        }
    }

    #[test]
    fn a_run_takes_only_whole_authenticates_that_decode() {
        let item = AuthItem {
            device_id: 42,
            now: 7,
            nonce: b"nonce-0".to_vec(),
            response: WireAuthResponse::Tag([9; 32]),
            presented_helper: Some(vec![0x4C, 1, 2, 3]),
        };
        let whole = Request::Authenticate(item.clone()).encode();
        assert_eq!(decode_auth(&whole), Some(item.as_ref()));
        // An auth cut anywhere, even past the nine bytes that carry
        // its id, does not decode, and no other message is an auth.
        for cut in 0..whole.len() {
            assert_eq!(decode_auth(&whole[..cut]), None, "cut at {cut}");
        }
        let mut trailing = whole.clone();
        trailing.push(0);
        let others = [
            trailing,
            Request::QueryVerdict { device_id: 42 }.encode(),
            Request::BatchAuthenticate { items: vec![item] }.encode(),
            Request::MetricsSnapshot.encode(),
            vec![0xEE; 32],
        ];
        for payload in others {
            assert_eq!(decode_auth(&payload), None, "{payload:?}");
        }
        // In the loop, a frame that is not a whole auth ends the run in
        // front of it: a QueryVerdict is served on its own, and an auth
        // truncated inside its frame is answered as malformed and closes
        // the connection, with nothing behind it served.
        for (middle, closes) in [
            (Request::QueryVerdict { device_id: 33 }.encode(), false),
            (whole[..9].to_vec(), true),
        ] {
            let mut wire = wire_of(&[auth(1), auth(2)]);
            append_frame(&mut wire, &middle).unwrap();
            wire.extend(wire_of(&[auth(3), auth(4)]));
            let handler = CallLog::default();
            let (_loop, shared, client) = serve_raw_by_hand(
                &handler,
                &wire,
                EventedConfig::default(),
                |event_loop, shared| {
                    event_loop.conns[0].is_none() || shared.telemetry.requests_served() == 5
                },
            );
            use Call::{One, Run};
            let served = std::mem::take(&mut *handler.0.lock().unwrap());
            if closes {
                assert_eq!(served, [Run(vec![1, 2])]);
                let mut reader = ropuf_proto::FrameReader::new(&client);
                for _ in 0..2 {
                    assert_eq!(reader.read_response().unwrap(), Some(CallLog::answer()));
                }
                assert!(matches!(
                    reader.read_response().unwrap(),
                    Some(Response::Error {
                        code: ErrorCode::MalformedRequest,
                        ..
                    })
                ));
                assert_eq!(reader.read_response().unwrap(), None, "closed after it");
            } else {
                assert_eq!(served, [Run(vec![1, 2]), One(33), Run(vec![3, 4])]);
                assert_eq!(shared.telemetry.requests_served(), 5);
            }
        }
    }

    /// The `server.loop.auth_run` histogram.
    fn auth_runs(telemetry: &ServerTelemetry) -> ropuf_telemetry::HistogramSnapshot {
        match telemetry
            .snapshot()
            .find("server.loop.auth_run", &[("backend", "evented")])
        {
            Some(MetricValue::Histogram(h)) => h.clone(),
            other => panic!("auth run histogram: {other:?}"),
        }
    }

    #[test]
    fn a_run_of_k_auths_charges_each_frame_a_kth_and_sums_exactly() {
        // A lone auth is a run of one, charged its own spans.
        for k in [1u64, 7] {
            let handler = CallLog::default();
            let burst: Vec<Request> = (0..k).map(auth).collect();
            let config = EventedConfig {
                slow_trace_threshold: Duration::ZERO,
                ..EventedConfig::default()
            };
            let (_loop, shared, client) = serve_by_hand(&handler, &burst, config, |_, shared| {
                shared.telemetry.trace_snapshot().recorded == k
            });
            assert_eq!(
                *handler.0.lock().unwrap(),
                [Call::Run((0..k).collect())],
                "k = {k}"
            );
            let mut reader = ropuf_proto::FrameReader::new(&client);
            for _ in 0..k {
                assert_eq!(reader.read_response().unwrap(), Some(CallLog::answer()));
            }
            // Exactly k samples in each auth phase row and in the total.
            let snap = shared.telemetry.snapshot();
            for phase in SERIES_PHASES {
                match snap.find(
                    "server.request.phase_ns",
                    &[("backend", "evented"), ("msg", "auth"), ("phase", phase)],
                ) {
                    Some(MetricValue::Histogram(h)) => assert_eq!(h.count, k, "k = {k}: {phase}"),
                    other => panic!("k = {k}: auth {phase}: {other:?}"),
                }
            }
            assert_eq!(phase_samples(&shared.telemetry), ([k; 5], k));
            // One run of k: its frames share the run's decode, handle
            // and flush spans equally, and each sums exactly to its
            // lifetime.
            let runs = auth_runs(&shared.telemetry);
            assert_eq!((runs.count, runs.sum, runs.max), (1, u128::from(k), k));
            let records = shared.telemetry.trace_snapshot().records;
            assert_eq!(records.len() as u64, k);
            for record in &records {
                assert_eq!(record.msg_type, AUTHENTICATE);
                assert_eq!(
                    (record.decode_ns, record.handle_ns, record.flush_ns),
                    (
                        records[0].decode_ns,
                        records[0].handle_ns,
                        records[0].flush_ns
                    ),
                    "{record:?}"
                );
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
            let hashes: std::collections::HashSet<u64> =
                records.iter().map(|r| r.device_hash).collect();
            assert_eq!(hashes.len() as u64, k, "each frame keeps its own device");
        }
    }

    #[test]
    fn admission_decides_each_frame_in_order_and_a_shed_frame_ends_the_run() {
        let handler = VerifierHandler::new(Arc::new(Verifier::new(2, DetectorConfig::default())));
        let hello = Request::Hello {
            protocol: ropuf_proto::PROTOCOL_VERSION,
            client: "between runs".into(),
        };
        let reject = Response::Verdict(ropuf_proto::WireVerdict::Reject);
        // Brown-out once anything is queued: the verdict query behind
        // the first run is shed and ends it, and the auths behind it,
        // which brown-out admits, form the next run. At the hard limit
        // the auths behind the handshake are each shed, one by one.
        let cases = [
            (
                OverloadPolicy {
                    brownout_pressure: 1,
                    max_pressure: u64::MAX,
                    retry_after_ms: 50,
                },
                vec![
                    auth(1),
                    auth(2),
                    Request::QueryVerdict { device_id: 1 },
                    auth(3),
                    auth(4),
                ],
                vec![true, true, false, true, true],
                vec![2u64, 2],
            ),
            (
                OverloadPolicy {
                    brownout_pressure: u64::MAX,
                    max_pressure: 1,
                    retry_after_ms: 50,
                },
                vec![auth(1), auth(2), auth(3), hello, auth(4), auth(5)],
                vec![true, true, true, true, false, false],
                vec![3],
            ),
        ];
        for (policy, burst, admitted, runs) in cases {
            let config = EventedConfig {
                overload: policy,
                ..EventedConfig::default()
            };
            let (_loop, shared, client) = serve_by_hand(&handler, &burst, config, |_, shared| {
                shared.telemetry.requests_served() == burst.len() as u64
            });
            let mut reader = ropuf_proto::FrameReader::new(&client);
            for (request, admitted) in burst.iter().zip(&admitted) {
                let answer = reader.read_response().unwrap().expect("answered");
                match (request, admitted) {
                    (_, false) => assert!(
                        matches!(
                            answer,
                            Response::Error {
                                code: ErrorCode::Overloaded,
                                ..
                            }
                        ),
                        "{request:?}: {answer:?}"
                    ),
                    (Request::Authenticate(_), true) => assert_eq!(answer, reject),
                    (_, true) => assert!(
                        matches!(answer, Response::HelloOk { .. }),
                        "{request:?}: {answer:?}"
                    ),
                }
            }
            let shed = admitted.iter().filter(|a| !**a).count() as u64;
            assert_eq!(
                shared.telemetry.snapshot().counter_total("server.shed"),
                shed
            );
            let served = auth_runs(&shared.telemetry);
            assert_eq!(served.count, runs.len() as u64);
            assert_eq!(served.sum, u128::from(runs.iter().sum::<u64>()));
            assert_eq!(served.max, *runs.iter().max().unwrap());
        }
    }
}
