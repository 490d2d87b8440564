//! Lock-free log-linear latency histograms.
//!
//! The bucket layout is HdrHistogram-style log-linear: values below
//! `SUB_BUCKETS` (16) get exact unit buckets; above that, each
//! power-of-2 octave is split into `SUB_BUCKETS` linear sub-buckets, so
//! relative error is bounded by `1/SUB_BUCKETS` (≈6%) at every
//! magnitude while the whole `u64` range fits in under a thousand
//! buckets.
//!
//! Recording is wait-free: one relaxed `fetch_add` on a striped bucket
//! counter. Each stripe is a whole bucket array, indexed by the
//! process-wide thread→stripe assignment of [`crate::cell`], so
//! concurrent recorders do not bounce one counter line between cores.
//! Snapshots sum the stripes.
//!
//! ## Memory-ordering recipe
//!
//! Every counter update and read uses `Ordering::Relaxed`. That is
//! sufficient because the histogram carries no cross-field invariant a
//! stronger ordering would protect: each bucket is an independent
//! monotone counter, and a snapshot is explicitly a *statistical*
//! observation — it may interleave with in-flight recordings and the
//! per-bucket sums may momentarily disagree with a concurrently
//! bumped total. Exactness is still guaranteed at synchronization
//! points the *caller* establishes: joining the recording threads (or
//! any other happens-before edge) makes every prior `fetch_add`
//! visible, so a quiesced snapshot reconciles to the exact count (the
//! concurrency test in this module asserts precisely that).

use crate::cell::{stripe, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (and the width of the exact range).
const SUB_BUCKETS: usize = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Octaves above the exact range: values with a top bit in
/// `SUB_BITS..=63` land in octaves `1..=60`.
const OCTAVES: usize = 64 - SUB_BITS as usize;
/// Total bucket count covering the whole `u64` range.
pub(crate) const NUM_BUCKETS: usize = (OCTAVES + 1) * SUB_BUCKETS;

/// Bucket index of a recorded value.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (top - SUB_BITS + 1) as usize;
    let sub = (v >> (top - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    octave * SUB_BUCKETS + sub
}

/// Lowest value mapping to bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let octave = i / SUB_BUCKETS;
    let sub = i % SUB_BUCKETS;
    ((SUB_BUCKETS + sub) as u64) << (octave - 1)
}

/// Highest value mapping to bucket `i` (the reported representative:
/// "at most this much", the conservative side for a latency bound).
fn bucket_high(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let octave = i / SUB_BUCKETS;
    let width = 1u64 << (octave - 1);
    bucket_low(i).saturating_add(width - 1)
}

/// One stripe: a padded, independently summed bucket array.
struct Stripe {
    buckets: Vec<AtomicU64>,
    /// Running sum of recorded values (for the mean).
    sum: AtomicU64,
    /// Pad the stripe tail so adjacent stripes' hot heads do not share
    /// a line. (The `Vec` contents are separate allocations already;
    /// this guards the `sum` words.)
    _pad: [u64; 6],
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            _pad: [0; 6],
        }
    }
}

/// A lock-free log-linear histogram of `u64` samples (nanoseconds, by
/// convention on the authorize path).
///
/// ```
/// use nexus_obs::Histogram;
///
/// let h = Histogram::new();
/// for v in [10, 10, 1000, 100_000] {
///     h.record(v);
/// }
/// let s = h.snapshot();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.quantile(0.5), 10); // exact below 16
/// ```
pub struct Histogram {
    stripes: Vec<Stripe>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
        }
    }

    /// Record one sample. Wait-free: one relaxed `fetch_add` on this
    /// thread's stripe (plus one for the running sum).
    pub fn record(&self, value: u64) {
        let mine = &self.stripes[stripe()];
        mine.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        mine.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Sum the stripes into an owned, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        for stripe in &self.stripes {
            for (acc, b) in buckets.iter_mut().zip(&stripe.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(stripe.sum.load(Ordering::Relaxed));
        }
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }

    /// Reset every bucket to zero. Not atomic with respect to
    /// concurrent recorders: samples recorded while the reset sweeps
    /// may survive or vanish — callers quiesce first when exactness
    /// matters (benchmark A/B phases do).
    pub fn reset(&self) {
        for stripe in &self.stripes {
            for b in &stripe.buckets {
                b.store(0, Ordering::Relaxed);
            }
            stripe.sum.store(0, Ordering::Relaxed);
        }
    }
}

/// An owned point-in-time summation of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (log-linear layout; see module docs).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values (wrapping; for the mean).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (merge identity).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The value at quantile `q` in `[0, 1]`: the representative
    /// (upper bound) of the bucket holding the `ceil(q·count)`-th
    /// sample. Exact for values below 16; within one sub-bucket
    /// (≈6% relative error) above. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i);
            }
        }
        bucket_high(NUM_BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Largest recorded value's bucket representative (upper bound),
    /// 0 when empty.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_high)
            .unwrap_or(0)
    }

    /// Arithmetic mean of the recorded values, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_monotone_and_exhaustive() {
        // Every bucket's [low, high] range maps back to that bucket,
        // and consecutive buckets tile the line without gaps.
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = (bucket_low(i), bucket_high(i));
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_of(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_of(hi), i, "high edge of bucket {i}");
            if i + 1 < NUM_BUCKETS && hi < u64::MAX {
                assert_eq!(bucket_of(hi + 1), i + 1, "seam after bucket {i}");
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_below_sixteen_and_bounded_error_above() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..16u64 {
            assert_eq!(s.buckets[v as usize], 1);
        }
        // Above the exact range the representative overestimates by
        // at most one sub-bucket width (1/16 relative).
        let h = Histogram::new();
        h.record(1_000_000);
        let q = h.snapshot().quantile(1.0);
        assert!(q >= 1_000_000);
        assert!((q as f64) < 1_000_000.0 * (1.0 + 1.0 / 16.0) + 1.0);
    }

    #[test]
    fn concurrent_recording_reconciles_to_exact_count() {
        let h = Arc::new(Histogram::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Spread across magnitudes.
                        h.record((i % 20) * (t as u64 + 1) * 97 + 1);
                    }
                })
            })
            .collect();
        for hnd in handles {
            hnd.join().unwrap();
        }
        // Joins established happens-before: the quiesced snapshot is
        // exact despite every fetch_add being Relaxed.
        let s = h.snapshot();
        assert_eq!(s.count, THREADS as u64 * PER_THREAD);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 5, 300, 7_000] {
            a.record(v);
        }
        for v in [2u64, 5, 300, 1_000_000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let reference = Histogram::new();
        for v in [1u64, 5, 300, 7_000, 2, 5, 300, 1_000_000] {
            reference.record(v);
        }
        assert_eq!(merged, reference.snapshot());
        assert_eq!(merged.count, 8);
    }

    #[test]
    fn quantiles_land_on_recorded_magnitudes() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..9 {
            h.record(1_000);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.p50(), 10);
        assert_eq!(s.p90(), 10);
        assert!(s.p99() >= 1_000 && (s.p99() as f64) < 1_000.0 * 1.07);
        assert!(s.p999() >= 100_000);
        assert!(s.max() >= 100_000);
        assert_eq!(s.quantile(0.0), 10); // rank clamps to the 1st sample
        assert_eq!(HistogramSnapshot::empty().p99(), 0);
    }
}
