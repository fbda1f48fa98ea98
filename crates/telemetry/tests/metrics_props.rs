//! Property tests for `ropuf-metrics/v1`, `ropuf-trace/v1` and the
//! striped metric primitives.
//!
//! Mirrors the `ropuf-wire/v1` `wire_props` families:
//!
//! 1. **Roundtrip** — `decode(encode(s)) == s` for arbitrary snapshots
//!    (counters, gauges, labeled histograms) and trace dumps, and the
//!    re-encode is byte-identical (the codec is canonical).
//! 2. **Hostility** — byte soup, point mutations and every strict
//!    prefix of a valid blob produce typed errors, never panics, never
//!    over-reads.
//! 3. **Exactness** — striped counters/gauges are exact under
//!    multi-thread hammering; a striped histogram's merge equals a
//!    single-stream histogram bucket for bucket; the trace ring keeps
//!    exactly the newest `capacity` records across wraparound.

use proptest::collection::vec;
use proptest::prelude::*;

use ropuf_numeric::Histogram;
use ropuf_telemetry::{
    Counter, Gauge, HistogramSnapshot, MetricSample, MetricValue, Snapshot, TimerHistogram,
    TraceRecord, TraceRing, TraceSnapshot,
};

/// Deterministically expands compact seeds into a snapshot (the
/// vendored proptest has no composite strategies). Histogram parts are
/// exported from a real recorded histogram, so they always satisfy the
/// reconstruction invariants the decoder re-validates.
fn snapshot_from(seeds: &[u64]) -> Snapshot {
    let mut metrics = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let name = format!("m{i}.{}", seed % 7);
        let labels = match seed % 3 {
            0 => vec![],
            1 => vec![("k".to_string(), format!("v{}", seed % 11))],
            _ => vec![
                ("a".to_string(), String::new()),
                ("b".to_string(), format!("{seed:x}")),
            ],
        };
        let value = match seed % 4 {
            0 => MetricValue::Counter(seed.rotate_left(13)),
            1 => MetricValue::Gauge(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            _ => {
                let mut h = Histogram::new();
                let mut x = seed | 1;
                for _ in 0..(seed % 40) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    h.record(x >> (x % 50));
                }
                MetricValue::Histogram(HistogramSnapshot::from_histogram(&h))
            }
        };
        metrics.push(MetricSample {
            name,
            labels,
            value,
        });
    }
    Snapshot { metrics }
}

fn trace_from(seeds: &[u64], capacity: usize) -> TraceSnapshot {
    let ring = TraceRing::new(capacity);
    for &seed in seeds {
        ring.push(TraceRecord {
            seq: 0,
            msg_type: (seed % 256) as u8,
            device_hash: seed.rotate_left(7),
            ready_ns: seed % 2_000,
            decode_ns: seed % 1_000,
            handle_ns: seed % 50_000,
            flush_ns: seed % 300,
            flush_wait_ns: seed % 9_000,
            total_ns: seed % 62_300,
            worker: (seed % 8) as u32,
        });
    }
    TraceSnapshot::from_ring(&ring)
}

proptest! {
    #[test]
    fn metrics_snapshot_roundtrips(seeds in vec(any::<u64>(), 0..24)) {
        let snap = snapshot_from(&seeds);
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Ok(&snap));
        // Canonical: the re-encode is byte-identical.
        prop_assert_eq!(decoded.expect("just checked").encode(), bytes);
    }

    #[test]
    fn trace_snapshot_roundtrips(
        seeds in vec(any::<u64>(), 0..80),
        capacity in 1usize..32,
    ) {
        let snap = trace_from(&seeds, capacity);
        prop_assert_eq!(snap.records.len(), seeds.len().min(capacity));
        prop_assert_eq!(snap.recorded, seeds.len() as u64);
        let bytes = snap.encode();
        prop_assert_eq!(TraceSnapshot::decode(&bytes), Ok(snap));
    }

    #[test]
    fn byte_soup_never_panics(bytes in vec(any::<u8>(), 0..400)) {
        // Any outcome but a panic is acceptable; random soup virtually
        // never carries a valid CRC trailer.
        let _ = Snapshot::decode(&bytes);
        let _ = TraceSnapshot::decode(&bytes);
    }

    #[test]
    fn strict_prefixes_always_fail(seeds in vec(any::<u64>(), 1..12)) {
        let bytes = snapshot_from(&seeds).encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "strict prefix of len {} decoded",
                cut
            );
        }
    }

    #[test]
    fn point_mutations_never_panic(
        seeds in vec(any::<u64>(), 0..12),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = snapshot_from(&seeds).encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        // The CRC trailer makes any single-byte mutation a typed error.
        prop_assert!(Snapshot::decode(&bytes).is_err());
    }

    #[test]
    fn striped_counter_is_exact(
        per_thread in vec(1u64..5_000, 1..8),
        bump in 1u64..9,
    ) {
        let counter = Counter::new();
        let gauge = Gauge::new();
        std::thread::scope(|scope| {
            for &n in &per_thread {
                let counter = counter.clone();
                let gauge = gauge.clone();
                scope.spawn(move || {
                    for _ in 0..n {
                        counter.add(bump);
                        gauge.add(bump);
                        gauge.sub(bump - 1);
                    }
                });
            }
        });
        let total: u64 = per_thread.iter().sum();
        prop_assert_eq!(counter.get(), total * bump);
        prop_assert_eq!(gauge.get(), total);
    }

    #[test]
    fn striped_histogram_merge_equals_single_stream(
        samples in vec(any::<u64>(), 0..400),
        threads in 1usize..6,
    ) {
        let striped = TimerHistogram::new();
        std::thread::scope(|scope| {
            for chunk in samples.chunks(samples.len().max(1).div_ceil(threads)) {
                let striped = striped.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        striped.record(v);
                    }
                });
            }
        });
        let mut reference = Histogram::new();
        for &v in &samples {
            reference.record(v);
        }
        // Bucket-exact equality: sparse exports match, hence every
        // quantile matches too.
        let merged = striped.merged();
        prop_assert_eq!(merged.count(), reference.count());
        prop_assert_eq!(merged.sum(), reference.sum());
        prop_assert_eq!(merged.sparse_counts(), reference.sparse_counts());
        if reference.count() > 0 {
            prop_assert_eq!(merged.min(), reference.min());
            prop_assert_eq!(merged.max(), reference.max());
            for q in [50.0, 90.0, 99.0, 99.9] {
                prop_assert_eq!(merged.percentile(q), reference.percentile(q));
            }
        }
    }

    #[test]
    fn trace_ring_keeps_the_newest_across_wraparound(
        pushes in 0u64..300,
        capacity in 1usize..24,
    ) {
        let seeds: Vec<u64> = (0..pushes).collect();
        let snap = trace_from(&seeds, capacity);
        prop_assert_eq!(snap.recorded, pushes);
        // Single-threaded pushes never drop.
        prop_assert_eq!(snap.dropped, 0);
        let kept = pushes.min(capacity as u64);
        prop_assert_eq!(snap.records.len() as u64, kept);
        let expected: Vec<u64> = (pushes - kept..pushes).collect();
        let seqs: Vec<u64> = snap.records.iter().map(|r| r.seq).collect();
        // Exactly the newest records survive, oldest first.
        prop_assert_eq!(seqs, expected);
    }
}
