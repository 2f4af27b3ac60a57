//! Lock-free metric primitives: monotonic counters, last/max gauges, and
//! fixed-bucket base-2 histograms.
//!
//! Everything here is `&self`-updatable over atomics so instrumented hot
//! loops (the branch-and-bound node loop) can share one `Arc` handle
//! across threads without locking. Reads are snapshots
//! with `Relaxed` ordering — metrics are diagnostics, not synchronization.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge tracking both the last value written and the running maximum
/// (high-water mark).
#[derive(Debug, Default)]
pub struct Gauge {
    last: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Records `v` as the current value, updating the high-water mark.
    pub fn set(&self, v: i64) {
        self.last.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Shifts the current value by `delta` (e.g. ±1 around an in-flight
    /// section) and returns the new value; the high-water mark tracks
    /// the result. Unlike [`Gauge::set`], concurrent `add`s never lose
    /// updates.
    pub fn add(&self, delta: i64) -> i64 {
        let v = self.last.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(v, Ordering::Relaxed);
        v
    }

    /// Last value written.
    pub fn get(&self) -> i64 {
        self.last.load(Ordering::Relaxed)
    }

    /// Largest value ever written.
    pub fn high_water(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// Number of buckets in every [`Histogram`].
pub const BUCKETS: usize = 64;

/// A fixed-size base-2 histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`, with the final bucket absorbing everything from
/// `2^62` up. The unit is caller-defined (nanoseconds for latency
/// histograms, plain counts for e.g. simplex iterations per LP solve).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index a value lands in.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i` — `2^i − 1`, the same bound the
/// OpenMetrics exposition prints as `le`. Bucket 0 holds only the value
/// `0`; the final bucket absorbs everything, so its bound saturates.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Folds every sample of `other` into `self`.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_lower_bound`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample, `u64::MAX` when empty.
    pub min: u64,
    /// Largest sample, `0` when empty.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate value at quantile `q` in `[0, 1]`, resolved to the
    /// lower bound of the bucket containing that rank. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Clamp to observed extremes so q=0/q=1 are exact-ish.
                return Some(bucket_lower_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Like [`HistogramSnapshot::quantile`], but resolved to the
    /// *upper* bound of the bucket containing the rank (`2^i − 1`, the
    /// `le` bound the exposition prints). Threshold rules must use this
    /// resolution: a sample of `2^i − 1` lands in a bucket whose lower
    /// bound is `2^(i-1)`, so resolving downward can understate the
    /// quantile by up to 2× and let a breach hide inside the bucket.
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Clamp to observed extremes so q=0/q=1 are exact-ish.
                return Some(bucket_upper_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The samples recorded since `prev` was taken of the same
    /// histogram: bucket-wise difference of two cumulative snapshots.
    /// `min`/`max` cannot be recovered from cumulative extremes, so they
    /// are synthesized from the delta's own bucket bounds (which is what
    /// the quantile clamp needs). Snapshots taken out of order (a
    /// restarted histogram) saturate to an empty delta.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(prev.buckets[i]));
        let first = buckets.iter().position(|&n| n > 0);
        let last = buckets.iter().rposition(|&n| n > 0);
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
            min: first.map_or(u64::MAX, bucket_lower_bound),
            max: last.map_or(0, bucket_upper_bound),
        }
    }

    /// Folds another snapshot's samples into `self` (the snapshot-level
    /// counterpart of [`Histogram::merge`]).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_last_and_high_water() {
        let g = Gauge::new();
        g.set(5);
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 9);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for i in 1..BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(2 * lo - 1), i);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1009);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), Some(201.8));
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn quantiles_on_empty_and_single() {
        assert_eq!(Histogram::new().snapshot().quantile(0.5), None);
        let h = Histogram::new();
        h.record(42);
        assert_eq!(h.snapshot().quantile(0.5), Some(42));
        assert_eq!(h.snapshot().quantile(1.0), Some(42));
    }

    #[test]
    fn quantile_upper_resolves_to_the_bucket_le_bound() {
        let h = Histogram::new();
        // Both land in bucket 10 ([512, 1024)): lower bound 512, le 1023.
        h.record(600);
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), Some(600), "lower-bound resolution clamps to min");
        assert_eq!(s.quantile_upper(0.99), Some(1000), "upper bound clamps to max");
        // With a wider spread the clamp no longer hides the bounds.
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), Some(512));
        assert_eq!(s.quantile_upper(0.99), Some(1000));
        assert_eq!(Histogram::new().snapshot().quantile_upper(0.5), None);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
    }

    #[test]
    fn delta_since_recovers_the_window() {
        let h = Histogram::new();
        h.record(5);
        h.record(100);
        let before = h.snapshot();
        h.record(7);
        h.record(3000);
        let delta = h.snapshot().delta_since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 3007);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
        // Synthesized extremes are bucket bounds around the delta.
        assert_eq!(delta.min, bucket_lower_bound(bucket_index(7)));
        assert_eq!(delta.max, bucket_upper_bound(bucket_index(3000)));
        // Quantiles work on the delta alone.
        assert_eq!(delta.quantile_upper(0.99), Some(bucket_upper_bound(bucket_index(3000))));
        // Identical snapshots produce an empty delta.
        let none = h.snapshot().delta_since(&h.snapshot());
        assert_eq!(none.count, 0);
        assert_eq!(none.quantile(0.5), None);
    }

    #[test]
    fn snapshot_merge_matches_histogram_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 9, 300] {
            a.record(v);
        }
        for v in [0u64, 77] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        a.merge(&b);
        assert_eq!(merged, a.snapshot());
    }

    #[test]
    fn merge_sums_everything() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [10u64, 0] {
            b.record(v);
        }
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 16);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 10);
    }
}
