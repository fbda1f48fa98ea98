//! Fixed-capacity slow-request trace ring.
//!
//! Percentiles say *that* a tail exists; traces say *why*. Every
//! request slower than the server's configured threshold deposits a
//! [`TraceRecord`] — message type, hashed device id, per-phase
//! nanosecond timings, worker/loop id — into a [`TraceRing`]: a
//! fixed-capacity ring that overwrites its oldest entries and never
//! blocks the serving path. The cursor is a `Relaxed` atomic
//! `fetch_add`; the claimed slot is written under a `try_lock` that, if
//! a concurrent dump holds the slot, drops the record rather than wait
//! (counted in [`TraceRing::dropped`]). Dumps are cold-path and
//! lock-free for writers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hard cap on ring capacity (also the codec's record-count cap).
pub const MAX_TRACE_RECORDS: usize = 65_536;

/// The per-request phases the serving layer records, in lifecycle
/// order: the phase fields of a [`TraceRecord`], and the label values
/// of the server's `server.request.phase_ns{phase=..}` histograms.
pub const SERIES_PHASES: [&str; 5] = ["ready-wait", "decode", "handle", "flush", "flush-wait"];

/// One slow request, as seen by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Ring-assigned sequence number (total slow requests so far).
    pub seq: u64,
    /// `ropuf-wire/v1` request type byte (e.g. `0x03` Authenticate).
    pub msg_type: u8,
    /// SplitMix64 hash of the device id (0 when the message carries
    /// none) — correlates traces per device without logging the id.
    pub device_hash: u64,
    /// Ready-wait: readiness notification (the loop starting to drain
    /// the connection) to decode start — the time the request sat
    /// decodable but unserviced.
    pub ready_ns: u64,
    /// Time spent decoding the frame payload.
    pub decode_ns: u64,
    /// Time spent in the request handler (verifier work).
    pub handle_ns: u64,
    /// Time spent encoding + flushing the response toward the socket.
    pub flush_ns: u64,
    /// Flush-wait: out-buffer residency — response queued until the
    /// socket actually drained its last byte.
    pub flush_wait_ns: u64,
    /// Whole-request latency as the server can see it (ready-wait
    /// through flush-wait).
    pub total_ns: u64,
    /// Index of the event loop that served the request.
    pub worker: u32,
}

struct RingInner {
    cursor: AtomicU64,
    dropped: AtomicU64,
    slots: Vec<Mutex<Option<TraceRecord>>>,
}

/// The fixed-capacity ring. Clones share the same slots.
#[derive(Clone)]
pub struct TraceRing {
    inner: Arc<RingInner>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceRing {
    /// A ring holding the most recent `capacity` slow requests
    /// (clamped to `1..=`[`MAX_TRACE_RECORDS`]).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, MAX_TRACE_RECORDS);
        Self {
            inner: Arc::new(RingInner {
                cursor: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            }),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Total records ever pushed (wrapped-out ones included).
    pub fn recorded(&self) -> u64 {
        self.inner.cursor.load(Ordering::Relaxed)
    }

    /// Records dropped because their slot was busy (a concurrent dump).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Deposits a record, overwriting the oldest. `record.seq` is
    /// assigned by the ring. Never blocks: if the slot is held by a
    /// dump in progress, the record is dropped and counted.
    pub fn push(&self, mut record: TraceRecord) {
        let seq = self.inner.cursor.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let slot = (seq % self.inner.slots.len() as u64) as usize;
        match self.inner.slots[slot].try_lock() {
            Ok(mut guard) => *guard = Some(record),
            Err(_) => {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The ring's current contents, oldest first.
    pub fn dump(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .inner
            .slots
            .iter()
            .filter_map(|slot| *slot.lock().unwrap_or_else(|e| e.into_inner()))
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }
}

/// A dumped ring plus its bookkeeping — the payload of a `TraceDump`
/// wire exchange (`ropuf-trace/v1`, see [`crate::codec`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Total slow requests observed (wrapped-out ones included).
    pub recorded: u64,
    /// Records lost to slot contention.
    pub dropped: u64,
    /// The surviving records, oldest first.
    pub records: Vec<TraceRecord>,
}

impl TraceSnapshot {
    /// Freezes a ring.
    pub fn from_ring(ring: &TraceRing) -> Self {
        Self {
            recorded: ring.recorded(),
            dropped: ring.dropped(),
            records: ring.dump(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(v: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            msg_type: 3,
            device_hash: v,
            ready_ns: v * 4,
            decode_ns: v,
            handle_ns: v * 2,
            flush_ns: v * 3,
            flush_wait_ns: v * 5,
            total_ns: v * 15,
            worker: 1,
        }
    }

    #[test]
    fn wraparound_keeps_the_newest() {
        let ring = TraceRing::new(4);
        for v in 0..10u64 {
            ring.push(record(v));
        }
        let dump = ring.dump();
        assert_eq!(ring.recorded(), 10);
        assert_eq!(dump.len(), 4);
        let seqs: Vec<u64> = dump.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "oldest wrapped out, order preserved");
        assert_eq!(dump[0].device_hash, 6);
    }

    #[test]
    fn under_capacity_dump_is_complete_and_ordered() {
        let ring = TraceRing::new(16);
        for v in 0..5u64 {
            ring.push(record(v));
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 5);
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn capacity_is_clamped() {
        assert_eq!(TraceRing::new(0).capacity(), 1);
        assert_eq!(TraceRing::new(usize::MAX).capacity(), MAX_TRACE_RECORDS);
    }

    #[test]
    fn concurrent_pushes_account_for_every_record() {
        let ring = TraceRing::new(64);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ring = ring.clone();
                scope.spawn(move || {
                    for v in 0..1_000u64 {
                        ring.push(record(v));
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), 8_000);
        // Concurrent writers hitting the same slot may drop records
        // (never block) — but every slot has been written many times,
        // so the dump is full and strictly ordered.
        let dump = ring.dump();
        assert_eq!(dump.len(), 64);
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
