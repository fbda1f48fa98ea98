//! Log-bucketed latency histogram.
//!
//! The serving layer (`ropuf_server`'s per-phase request telemetry)
//! needs tail percentiles — p99/p999 — over millions of latency
//! samples without keeping them all. [`Histogram`] is an
//! HDR-style fixed-layout histogram: values are binned into
//! power-of-two major buckets split into `2^SUB_BITS` linear
//! sub-buckets, which bounds the relative quantization error at
//! `2^-SUB_BITS` (≈3% here) across the whole `u64` range while the
//! memory footprint stays a few KiB, constant.
//!
//! Two properties matter for the multi-threaded harnesses:
//!
//! * **Mergeable** — every recording thread keeps its own histogram
//!   (no shared-state contention on the hot path) and the results are
//!   [`Histogram::merge`]d afterwards; merging is exact, equivalent to
//!   having recorded everything into one histogram.
//! * **Deterministic layout** — the bucket layout is a pure function of
//!   the value, so merged summaries don't depend on recording order.

use std::fmt;

/// Linear sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` equal slices, bounding relative error at `2^-SUB_BITS`.
const SUB_BITS: u32 = 5;
/// Sub-buckets per major (power-of-two) bucket.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total bucket count: values below `SUB_COUNT` are exact, plus one
/// sub-bucketed band per remaining bit of `u64` range. Public so codecs
/// that carry histograms on the wire (`ropuf-metrics/v1`) can cap a
/// declared bucket index before allocating.
pub const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Index of the bucket `value` falls into.
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        // Small values are recorded exactly.
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS here
    let band = (msb - SUB_BITS + 1) as usize;
    let offset = ((value >> (msb - SUB_BITS)) as usize) & (SUB_COUNT - 1);
    band * SUB_COUNT + offset
}

/// Smallest value mapping to bucket `index` (a conservative lower
/// bound of every sample in the bucket).
fn bucket_low(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let band = (index / SUB_COUNT) as u32;
    let offset = (index % SUB_COUNT) as u64;
    let msb = band + SUB_BITS - 1;
    (1u64 << msb) + (offset << (msb - SUB_BITS))
}

/// A mergeable log-bucketed histogram of `u64` samples (typically
/// latencies in nanoseconds), with ≈3% worst-case relative
/// quantization error and O(1) memory.
///
/// # Example
///
/// ```
/// use ropuf_numeric::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(0.50);
/// assert!((470..=530).contains(&p50), "p50 ~ 500, got {p50}");
/// assert_eq!(h.max(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Exact: the result is identical to
    /// having recorded both sample streams into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (exact, tracked outside
    /// the buckets; 0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (`0.0 ..= 1.0`): a lower bound of the
    /// smallest recorded value `v` such that at least `q * count`
    /// samples are `<= v`, clamped into `[min, max]`. Returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Exact sum of the recorded samples (tracked outside the buckets).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The non-empty buckets as `(index, count)` pairs, indices strictly
    /// ascending — the compact form a snapshot codec serializes. Most
    /// latency distributions occupy a few dozen of the [`BUCKETS`]
    /// slots, so the sparse form is far smaller than the dense array.
    pub fn sparse_counts(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Rebuilds a histogram from the parts [`Histogram::sparse_counts`]
    /// and the scalar accessors export, validating every invariant so a
    /// decoded wire snapshot can never construct a histogram whose
    /// percentile math goes wrong: bucket indices must be strictly
    /// ascending and in range, the bucket counts must sum to `count`
    /// without overflow, and the `[min, max]` envelope must be
    /// consistent with the occupied buckets.
    pub fn from_sparse(
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
        buckets: &[(u32, u64)],
    ) -> Result<Self, SparseHistogramError> {
        if count == 0 {
            if sum != 0 || min != 0 || max != 0 || !buckets.is_empty() {
                return Err(SparseHistogramError::EmptyButPopulated);
            }
            return Ok(Self::new());
        }
        if min > max {
            return Err(SparseHistogramError::MinAboveMax { min, max });
        }
        let mut h = Self {
            counts: vec![0; BUCKETS],
            count,
            sum,
            min,
            max,
        };
        let mut total = 0u64;
        let mut prev: Option<u32> = None;
        for &(index, c) in buckets {
            if index as usize >= BUCKETS {
                return Err(SparseHistogramError::IndexOutOfRange(index));
            }
            if prev.is_some_and(|p| index <= p) {
                return Err(SparseHistogramError::IndexNotAscending(index));
            }
            if c == 0 {
                return Err(SparseHistogramError::ZeroBucket(index));
            }
            prev = Some(index);
            total = total
                .checked_add(c)
                .ok_or(SparseHistogramError::CountOverflow)?;
            h.counts[index as usize] = c;
        }
        if total != count {
            return Err(SparseHistogramError::CountMismatch {
                declared: count,
                summed: total,
            });
        }
        // The declared sum must be achievable by samples lying inside
        // the occupied buckets (`count <= u64::MAX` keeps both bounds
        // inside u128, no overflow possible).
        let (mut lo, mut hi) = (0u128, 0u128);
        for &(index, c) in buckets {
            let low = bucket_low(index as usize);
            let high = if (index as usize) + 1 < BUCKETS {
                bucket_low(index as usize + 1) - 1
            } else {
                u64::MAX
            };
            lo += low as u128 * c as u128;
            hi += high as u128 * c as u128;
        }
        if sum < lo || sum > hi {
            return Err(SparseHistogramError::SumOutOfRange { declared: sum });
        }
        // The envelope must agree with the occupied buckets: min lives
        // in the first occupied bucket, max in the last.
        let first = buckets.first().expect("count > 0 implies buckets").0 as usize;
        let last = prev.expect("count > 0 implies buckets") as usize;
        if bucket_index(min) != first || bucket_index(max) != last {
            return Err(SparseHistogramError::EnvelopeMismatch { min, max });
        }
        Ok(h)
    }

    /// The standard serving-latency summary of this histogram.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

/// Why [`Histogram::from_sparse`] rejected a set of exported parts.
/// Every inconsistency a hostile or corrupted snapshot could carry maps
/// to one of these — reconstruction never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseHistogramError {
    /// `count == 0` but a sum, envelope, or bucket list was supplied.
    EmptyButPopulated,
    /// `min > max` with samples present.
    MinAboveMax {
        /// Declared minimum.
        min: u64,
        /// Declared maximum.
        max: u64,
    },
    /// A bucket index at or beyond [`BUCKETS`].
    IndexOutOfRange(u32),
    /// Bucket indices not strictly ascending.
    IndexNotAscending(u32),
    /// An explicit zero-count bucket (canonical sparse form omits them).
    ZeroBucket(u32),
    /// Bucket counts overflow `u64` when summed.
    CountOverflow,
    /// Bucket counts don't sum to the declared total.
    CountMismatch {
        /// The declared total sample count.
        declared: u64,
        /// What the buckets actually sum to.
        summed: u64,
    },
    /// The declared sum can't be produced by samples in the occupied
    /// buckets.
    SumOutOfRange {
        /// The declared sample sum.
        declared: u128,
    },
    /// `min`/`max` don't fall into the first/last occupied bucket.
    EnvelopeMismatch {
        /// Declared minimum.
        min: u64,
        /// Declared maximum.
        max: u64,
    },
}

impl fmt::Display for SparseHistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseHistogramError::EmptyButPopulated => {
                write!(f, "count is 0 but sum/min/max/buckets are populated")
            }
            SparseHistogramError::MinAboveMax { min, max } => {
                write!(f, "min {min} exceeds max {max}")
            }
            SparseHistogramError::IndexOutOfRange(i) => {
                write!(f, "bucket index {i} out of range (max {})", BUCKETS - 1)
            }
            SparseHistogramError::IndexNotAscending(i) => {
                write!(f, "bucket index {i} not strictly ascending")
            }
            SparseHistogramError::ZeroBucket(i) => {
                write!(f, "bucket {i} declared with zero count")
            }
            SparseHistogramError::CountOverflow => write!(f, "bucket counts overflow u64"),
            SparseHistogramError::CountMismatch { declared, summed } => {
                write!(f, "declared count {declared} but buckets sum to {summed}")
            }
            SparseHistogramError::SumOutOfRange { declared } => {
                write!(
                    f,
                    "declared sum {declared} impossible for the occupied buckets"
                )
            }
            SparseHistogramError::EnvelopeMismatch { min, max } => {
                write!(
                    f,
                    "[{min}, {max}] envelope disagrees with the occupied buckets"
                )
            }
        }
    }
}

impl std::error::Error for SparseHistogramError {}

/// Snapshot of the percentiles a serving report prints; produced by
/// [`Histogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Total recorded samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl fmt::Display for HistogramSummary {
    /// Renders the summary as nanosecond latencies scaled to µs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = |v: u64| v as f64 / 1e3;
        write!(
            f,
            "n={} min={:.1}us p50={:.1}us p90={:.1}us p99={:.1}us p999={:.1}us max={:.1}us",
            self.count,
            us(self.min),
            us(self.p50),
            us(self.p90),
            us(self.p99),
            us(self.p999),
            us(self.max)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_COUNT as u64 {
            h.record(v);
            assert_eq!(bucket_low(bucket_index(v)), v);
        }
        assert_eq!(h.count(), SUB_COUNT as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_COUNT as u64 - 1);
    }

    #[test]
    fn bucket_low_is_a_lower_bound_with_bounded_relative_error() {
        // Probe values across the full u64 range, including bucket
        // boundaries and their neighbors.
        let mut probes: Vec<u64> = vec![0, 1, 2, 31, 32, 33, 1000, 123_456_789];
        for shift in 5..63 {
            let v = 1u64 << shift;
            probes.extend_from_slice(&[v - 1, v, v + 1, v + (v >> 1)]);
        }
        probes.push(u64::MAX);
        for &v in &probes {
            let low = bucket_low(bucket_index(v));
            assert!(low <= v, "bucket_low({v}) = {low} must not exceed v");
            // Relative quantization error bounded by 2^-SUB_BITS.
            let err = (v - low) as f64;
            assert!(
                err <= v as f64 / SUB_COUNT as f64 + 1.0,
                "value {v}: error {err} too large"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let i = bucket_index(v);
            assert!(i >= prev, "index must not decrease at {v}");
            prev = i;
            v = v * 3 / 2 + 1;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        for (q, expected) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = h.percentile(q) as f64;
            let tolerance = expected / SUB_COUNT as f64 + 1.0;
            assert!(
                (got - expected).abs() <= tolerance,
                "q={q}: got {got}, want ~{expected}"
            );
        }
        assert!((s.mean - 5_000.5).abs() < 1e-6, "mean is exact");
    }

    #[test]
    fn merge_equals_single_recording() {
        let mut all = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut x = 7u64;
        for i in 0..3_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = x >> (x % 50);
            all.record(v);
            parts[(i % 3) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all);
        assert_eq!(merged.summary(), all.summary());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..5 {
            a.record(777);
        }
        b.record_n(777, 5);
        b.record_n(123, 0); // no-op
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_roundtrip_is_exact() {
        let mut h = Histogram::new();
        let mut x = 3u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> (x % 48));
        }
        let rebuilt =
            Histogram::from_sparse(h.count(), h.sum(), h.min(), h.max(), &h.sparse_counts())
                .expect("genuine parts reconstruct");
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.summary(), h.summary());
    }

    #[test]
    fn sparse_roundtrip_empty() {
        let h = Histogram::new();
        let rebuilt =
            Histogram::from_sparse(h.count(), h.sum(), h.min(), h.max(), &h.sparse_counts())
                .unwrap();
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn from_sparse_rejects_forged_parts() {
        let mut h = Histogram::new();
        h.record_n(1_000, 10);
        h.record(50);
        let parts = h.sparse_counts();
        let (count, sum, min, max) = (h.count(), h.sum(), h.min(), h.max());
        // Each corruption draws its own typed error.
        assert!(matches!(
            Histogram::from_sparse(count + 1, sum, min, max, &parts),
            Err(SparseHistogramError::CountMismatch { .. })
        ));
        assert!(matches!(
            Histogram::from_sparse(count, sum, max, max, &parts),
            Err(SparseHistogramError::EnvelopeMismatch { .. })
        ));
        assert!(matches!(
            Histogram::from_sparse(count, sum, max, min, &parts),
            Err(SparseHistogramError::MinAboveMax { .. })
        ));
        assert!(matches!(
            Histogram::from_sparse(count, u128::MAX, min, max, &parts),
            Err(SparseHistogramError::SumOutOfRange { .. })
        ));
        let mut bad_index = parts.clone();
        bad_index[0].0 = BUCKETS as u32;
        assert!(matches!(
            Histogram::from_sparse(count, sum, min, max, &bad_index),
            Err(SparseHistogramError::IndexOutOfRange(_))
        ));
        let mut unsorted = parts.clone();
        unsorted.swap(0, 1);
        assert!(matches!(
            Histogram::from_sparse(count, sum, min, max, &unsorted),
            Err(SparseHistogramError::IndexNotAscending(_))
        ));
        assert!(matches!(
            Histogram::from_sparse(0, 0, 0, 0, &parts),
            Err(SparseHistogramError::EmptyButPopulated)
        ));
    }

    #[test]
    fn summary_display_mentions_percentiles() {
        let mut h = Histogram::new();
        h.record_n(1_000, 100);
        let text = h.summary().to_string();
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("n=100"), "{text}");
    }
}
