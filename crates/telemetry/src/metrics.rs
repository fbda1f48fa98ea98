//! Striped hot-path metric primitives.
//!
//! The serving stack increments counters millions of times per second
//! from many threads. A single shared `AtomicU64` — let alone one
//! bumped with `SeqCst`, as the old ad-hoc server `Stats` did — makes
//! every increment a cross-core cache-line ping. The primitives here
//! stripe each metric across [`STRIPES`] cache-line-padded cells; a
//! thread picks its cell once (a thread-local round-robin assignment)
//! and then increments with `Relaxed` ordering, so the steady-state
//! cost is an uncontended local add. Reads aggregate every cell, which
//! is exact for counters and (by wrapping arithmetic) for gauges: the
//! sum of all increments minus all decrements is recovered regardless
//! of which cell each landed in.
//!
//! Latency histograms stripe a [`Histogram`] per cell behind a `Mutex`;
//! with one writer per stripe in the common case the lock is
//! uncontended, and a snapshot merges the stripes — exact, by the
//! histogram's merge property. A stripe's ~15 KiB of buckets is
//! allocated on its first record, so stripes no thread writes cost
//! nothing to hold or to merge.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ropuf_numeric::Histogram;

/// Cells per striped metric. A power of two comfortably above the
/// loop/worker counts the servers run with, so distinct hot threads
/// land on distinct cache lines.
pub const STRIPES: usize = 16;

/// Histogram stripes: recording takes a per-stripe lock, so fewer,
/// heavier stripes (a [`Histogram`] is ~15 KiB) still leave the common
/// case uncontended.
const HIST_STRIPES: usize = 8;

/// One cache line per cell: the padding is the whole point — two
/// threads incrementing neighboring cells must not share a line.
#[repr(align(64))]
#[derive(Default)]
struct Cell(AtomicU64);

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's cell index, assigned round-robin at first use.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

fn stripe_index() -> usize {
    STRIPE.with(|s| *s)
}

fn new_cells() -> Arc<[Cell]> {
    (0..STRIPES).map(|_| Cell::default()).collect()
}

/// A monotonically increasing event count. Cloning shares the cells:
/// clones are handles onto the same metric.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<[Cell]>,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// A zeroed counter (standalone; [`Registry`](crate::Registry)
    /// hands out registered ones).
    pub fn new() -> Self {
        Self { cells: new_cells() }
    }

    /// Adds one. `Relaxed`, striped: nanoseconds on the hot path.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The exact total across all cells.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A value that moves both ways (open connections, registry entries).
/// Decrements add the two's-complement negation, so the wrapping sum
/// over all cells is exact even when an increment and its matching
/// decrement land in different cells.
#[derive(Clone)]
pub struct Gauge {
    cells: Arc<[Cell]>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self { cells: new_cells() }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cells[stripe_index()]
            .0
            .fetch_add(n.wrapping_neg(), Ordering::Relaxed);
    }

    /// The exact current value (increments minus decrements), assuming
    /// the gauge never goes logically negative.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Moves the gauge to `value` by applying the wrapping difference —
    /// for sampled gauges (shard sizes, recovery reports) refreshed
    /// from an authoritative source at snapshot time. Racy against
    /// concurrent `inc`/`dec` only in the way any sample is.
    pub fn set(&self, value: u64) {
        let diff = value.wrapping_sub(self.get());
        if diff != 0 {
            self.add(diff);
        }
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// A striped, mergeable latency histogram (nanosecond samples).
#[derive(Clone)]
pub struct TimerHistogram {
    /// `None` until the stripe's first record.
    stripes: Arc<[Mutex<Option<Histogram>>]>,
}

impl Default for TimerHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn unpoison(stripe: &Mutex<Option<Histogram>>) -> MutexGuard<'_, Option<Histogram>> {
    // A histogram is valid after any interrupted record; poisoning
    // carries no information here.
    stripe.lock().unwrap_or_else(|e| e.into_inner())
}

impl TimerHistogram {
    /// An empty histogram; no stripe is allocated yet.
    pub fn new() -> Self {
        Self {
            stripes: (0..HIST_STRIPES).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Records one sample. Never drops: tries the thread's own stripe,
    /// then any free stripe, and only blocks (briefly, on a
    /// record-duration critical section) if every stripe is busy.
    pub fn record(&self, value: u64) {
        self.with_stripe(|h| h.record(value));
    }

    /// Records every sample of `values` under one stripe lock — the
    /// batch form of [`TimerHistogram::record`]. Records (and
    /// allocates) nothing when `values` is empty.
    pub fn record_all(&self, values: impl IntoIterator<Item = u64>) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_some() {
            self.with_stripe(|h| values.for_each(|v| h.record(v)));
        }
    }

    /// Runs `f` on a locked stripe: the thread's own, else any free
    /// one, else the own one once it frees up.
    fn with_stripe(&self, f: impl FnOnce(&mut Histogram)) {
        let own = stripe_index() % HIST_STRIPES;
        let locked = (0..HIST_STRIPES)
            .find_map(|offset| self.stripes[(own + offset) % HIST_STRIPES].try_lock().ok());
        let mut guard = locked.unwrap_or_else(|| unpoison(&self.stripes[own]));
        f(guard.get_or_insert_with(Histogram::new));
    }

    /// Records a [`Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merges every written stripe into one exact [`Histogram`] —
    /// identical to having recorded all samples into a single
    /// histogram.
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for stripe in self.stripes.iter() {
            if let Some(h) = &*unpoison(stripe) {
                out.merge(h);
            }
        }
        out
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| unpoison(s).as_ref().map_or(0, Histogram::count))
            .sum()
    }
}

impl fmt::Debug for TimerHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimerHistogram")
            .field(&self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_is_exact_across_threads() {
        let counter = Counter::new();
        thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
    }

    #[test]
    fn gauge_survives_cross_cell_inc_dec() {
        let gauge = Gauge::new();
        thread::scope(|scope| {
            // Half the threads only increment, half only decrement:
            // matched pairs always land in different cells.
            for i in 0..8 {
                let gauge = gauge.clone();
                scope.spawn(move || {
                    for _ in 0..5_000 {
                        if i % 2 == 0 {
                            gauge.inc();
                        } else {
                            gauge.dec();
                        }
                    }
                });
            }
        });
        assert_eq!(gauge.get(), 0);
        gauge.add(7);
        assert_eq!(gauge.get(), 7);
    }

    #[test]
    fn histogram_stripes_allocate_on_first_record() {
        let hist = TimerHistogram::new();
        let written =
            |h: &TimerHistogram| h.stripes.iter().filter(|s| unpoison(s).is_some()).count();
        assert_eq!(written(&hist), 0);
        assert_eq!(hist.merged().count(), 0);
        hist.record(5);
        hist.record(7);
        assert_eq!(written(&hist), 1, "one thread writes one stripe");
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.merged().count(), 2);
    }

    #[test]
    fn record_all_equals_one_record_per_sample() {
        let one_by_one = TimerHistogram::new();
        let batched = TimerHistogram::new();
        let samples = [0u64, 1, 7, 1_000, 1_000, 123_456_789, u64::MAX];
        for &v in &samples {
            one_by_one.record(v);
        }
        batched.record_all(samples);
        assert_eq!(batched.merged(), one_by_one.merged());
        let empty = TimerHistogram::new();
        empty.record_all(std::iter::empty());
        assert!(
            empty.stripes.iter().all(|s| unpoison(s).is_none()),
            "an empty batch allocates no stripe"
        );
    }

    #[test]
    fn histogram_records_never_drop() {
        let hist = TimerHistogram::new();
        thread::scope(|scope| {
            for t in 0..8u64 {
                let hist = hist.clone();
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        hist.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(hist.count(), 16_000);
        assert_eq!(hist.merged().count(), 16_000);
    }
}
