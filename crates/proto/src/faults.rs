//! Deterministic fault injection at the byte-stream layer.
//!
//! Chaos testing is only trustworthy when every run replays
//! bit-for-bit: a failure found at seed `S` must reproduce at seed `S`
//! forever. This module provides that determinism for the transport:
//! a [`FaultPlan`] is a SplitMix64-driven schedule of byte-stream
//! misbehavior, and a [`FaultyStream`] applies it to any
//! `Read`/`Write` pair — short reads and writes (re-chunking the
//! stream arbitrarily), injected delays, and connection resets. The
//! framing layer ([`crate::frame`]) is proven chunking-invariant, so
//! partial I/O alone never changes what decodes; resets and delays are
//! what exercise the retry and deadline machinery above.
//!
//! The plan draws one decision per I/O operation from its own
//! generator, so the fault sequence depends only on `(seed, rates,
//! operation index)` — never on wall-clock time or scheduling. Two
//! streams never share a plan; derive per-stream seeds with
//! [`derive_seed`].
//!
//! Injected resets are counted in a shared [`FaultStats`], so a chaos
//! test can check that its schedule really cut connections.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Rate denominator: a fault configured at rate `r` fires on a given
/// operation with probability `r / 65536` (drawn deterministically
/// from the plan's generator).
pub const RATE_ONE: u32 = 1 << 16;

/// SplitMix64 — the same generator the rest of the workspace seeds
/// with, reimplemented locally so the wire crate stays dependency-free.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a per-stream fault seed from a master seed, so one chaos
/// run's connections each replay their own deterministic schedule.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream.wrapping_add(0xC0FF_EE)))
}

/// The connection resets a [`FaultPlan`] injected. Shared (`Arc`)
/// between the streams of one chaos run and its checks.
#[derive(Debug, Default)]
pub struct FaultStats {
    resets: AtomicU64,
}

impl FaultStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injected connection resets.
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }
}

/// What the plan decided for one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    /// Pass the operation through untouched.
    None,
    /// Deliver/accept at most this many bytes.
    Partial(usize),
    /// Sleep this long, then pass through.
    Delay(Duration),
    /// Fail with `ConnectionReset`; the stream is dead afterwards.
    Reset,
}

/// A seeded, fully deterministic schedule of byte-stream faults.
///
/// A fresh plan injects nothing; enable fault families with the
/// `with_*` builders. Random-rate faults draw from the plan's own
/// SplitMix64 stream (one draw per operation); the `*_reset_at`
/// builders additionally pin a reset to an exact operation index —
/// the surgical tool equivalence tests use to kill a connection at a
/// known, replayable point.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
    partial_rate: u32,
    delay_rate: u32,
    delay: Duration,
    reset_rate: u32,
    read_reset_at: Option<u64>,
    write_reset_at: Option<u64>,
    read_ops: u64,
    write_ops: u64,
    dead: bool,
    stats: Option<Arc<FaultStats>>,
}

impl FaultPlan {
    /// A plan that injects nothing until faults are enabled.
    pub fn new(seed: u64) -> Self {
        Self {
            state: splitmix64(seed),
            partial_rate: 0,
            delay_rate: 0,
            delay: Duration::from_micros(100),
            reset_rate: 0,
            read_reset_at: None,
            write_reset_at: None,
            read_ops: 0,
            write_ops: 0,
            dead: false,
            stats: None,
        }
    }

    /// Truncates reads and writes to 1–8 bytes at `rate` / [`RATE_ONE`].
    pub fn with_partial_io(mut self, rate: u32) -> Self {
        self.partial_rate = rate.min(RATE_ONE);
        self
    }

    /// Sleeps `delay` before an operation at `rate` / [`RATE_ONE`].
    pub fn with_delays(mut self, rate: u32, delay: Duration) -> Self {
        self.delay_rate = rate.min(RATE_ONE);
        self.delay = delay;
        self
    }

    /// Resets the connection at `rate` / [`RATE_ONE`] per operation
    /// (read and write alike). After a reset every further operation
    /// fails — the stream is dead, exactly like a real torn socket.
    pub fn with_resets(mut self, rate: u32) -> Self {
        self.reset_rate = rate.min(RATE_ONE);
        self
    }

    /// Pins a reset to the `nth` read operation (0-based).
    pub fn with_read_reset_at(mut self, nth: u64) -> Self {
        self.read_reset_at = Some(nth);
        self
    }

    /// Pins a reset to the `nth` write operation (0-based).
    pub fn with_write_reset_at(mut self, nth: u64) -> Self {
        self.write_reset_at = Some(nth);
        self
    }

    /// Counts every injected reset into `stats`.
    pub fn with_stats(mut self, stats: Arc<FaultStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// `true` once this plan has injected a reset.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn draw(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    fn count_reset(&self) {
        if let Some(stats) = &self.stats {
            stats.resets.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decides the fault (if any) for the next operation. One draw per
    /// operation keeps the schedule a pure function of the seed and
    /// the operation index.
    fn decide(&mut self, is_read: bool) -> FaultAction {
        if self.dead {
            return FaultAction::Reset;
        }
        let op = if is_read {
            let op = self.read_ops;
            self.read_ops += 1;
            op
        } else {
            let op = self.write_ops;
            self.write_ops += 1;
            op
        };
        let pinned = if is_read {
            self.read_reset_at
        } else {
            self.write_reset_at
        };
        let roll = self.draw();
        if pinned == Some(op) {
            self.dead = true;
            return FaultAction::Reset;
        }
        // Three independent 16-bit lanes of one draw: reset wins over
        // delay wins over partial, so rates compose predictably.
        if (roll & 0xFFFF) < u64::from(self.reset_rate) {
            self.dead = true;
            return FaultAction::Reset;
        }
        if ((roll >> 16) & 0xFFFF) < u64::from(self.delay_rate) {
            return FaultAction::Delay(self.delay);
        }
        if ((roll >> 32) & 0xFFFF) < u64::from(self.partial_rate) {
            return FaultAction::Partial(1 + ((roll >> 48) & 0x7) as usize);
        }
        FaultAction::None
    }
}

/// The reset error every injected connection death surfaces as.
fn reset_error() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
}

/// A `Read`/`Write` wrapper that misbehaves on the [`FaultPlan`]'s
/// schedule: short reads/writes, delays, and resets. Wrap a client's
/// `TcpStream` (or any in-memory stream in tests) and drive traffic
/// through it unchanged — the plan decides where reality bends.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The wrapped stream (e.g. to set socket options).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The plan's current state (e.g. [`FaultPlan::is_dead`]).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.plan.decide(true) {
            FaultAction::Reset => {
                self.plan.count_reset();
                Err(reset_error())
            }
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            FaultAction::Partial(n) => {
                let cap = n.min(buf.len()).max(1).min(buf.len());
                self.inner.read(&mut buf[..cap])
            }
            FaultAction::None => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.plan.decide(false) {
            FaultAction::Reset => {
                self.plan.count_reset();
                Err(reset_error())
            }
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            FaultAction::Partial(n) => {
                let cap = n.min(buf.len()).max(1).min(buf.len().max(1));
                if buf.is_empty() {
                    self.inner.write(buf)
                } else {
                    self.inner.write(&buf[..cap])
                }
            }
            FaultAction::None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.plan.dead {
            return Err(reset_error());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_plan_is_transparent() {
        let data = b"hello fault layer".to_vec();
        let mut stream = FaultyStream::new(&data[..], FaultPlan::new(7));
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);

        let mut sink = Vec::new();
        let mut stream = FaultyStream::new(&mut sink, FaultPlan::new(7));
        stream.write_all(&data).unwrap();
        stream.flush().unwrap();
        assert_eq!(sink, data);
    }

    #[test]
    fn schedules_replay_bit_for_bit() {
        // Two plans from the same seed make identical decisions.
        let mk = || {
            FaultPlan::new(42)
                .with_partial_io(RATE_ONE / 2)
                .with_resets(RATE_ONE / 64)
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..512 {
            let is_read = i % 3 != 0;
            assert_eq!(a.decide(is_read), b.decide(is_read), "op {i}");
        }
        // A different seed diverges somewhere.
        let mut c = FaultPlan::new(43)
            .with_partial_io(RATE_ONE / 2)
            .with_resets(RATE_ONE / 64);
        let mut a = mk();
        let diverged = (0..512).any(|_| a.decide(true) != c.decide(true));
        assert!(diverged, "seeds 42 and 43 never diverged in 512 ops");
    }

    #[test]
    fn partial_io_still_delivers_everything() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let plan = FaultPlan::new(9).with_partial_io(RATE_ONE);
        let mut stream = FaultyStream::new(&data[..], plan);
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        assert_eq!(out, data, "short reads reorder nothing");

        let mut sink = Vec::new();
        let plan = FaultPlan::new(9).with_partial_io(RATE_ONE);
        let mut stream = FaultyStream::new(&mut sink, plan);
        stream.write_all(&data).unwrap();
        assert_eq!(sink, data, "short writes reorder nothing");
    }

    #[test]
    fn pinned_reset_kills_the_stream_at_the_exact_op() {
        let data = vec![0xAB; 64];
        let stats = Arc::new(FaultStats::new());
        let plan = FaultPlan::new(1)
            .with_read_reset_at(2)
            .with_stats(Arc::clone(&stats));
        let mut stream = FaultyStream::new(&data[..], plan);
        let mut buf = [0u8; 8];
        stream.read_exact(&mut buf).unwrap(); // op 0
        stream.read_exact(&mut buf).unwrap(); // op 1
        let err = stream.read(&mut buf).unwrap_err(); // op 2: reset
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(stream.plan().is_dead());
        // Dead means dead: every further op fails too, writes included.
        assert!(stream.read(&mut buf).is_err());
        assert_eq!(stats.resets(), 2);
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(1000, 0);
        let b = derive_seed(1000, 1);
        let again = derive_seed(1000, 0);
        assert_eq!(a, again, "derivation is a pure function");
        assert_ne!(a, b, "stream ids get distinct schedules");
    }
}
