//! Latency histograms: a `Copy` snapshot type plus a lock-free concurrent
//! recorder.
//!
//! Both use the same fixed power-of-two nanosecond bucketing: bucket `b`
//! counts latencies in `[2^(b-1), 2^b)` nanoseconds (bucket 0 holds
//! sub-nanosecond measurements; the top bucket is open-ended). Percentile
//! queries resolve to the containing bucket's upper bound — at most a 2×
//! overestimate, which is plenty for latency monitoring while keeping
//! recording to a couple of integer instructions.
//!
//! The same buckets double as a *count-valued* histogram via
//! [`AtomicHistogram::record_n`] / [`LatencyHistogram::quantile_n`]: a
//! measurement of `n` (a batch size, a queue depth) lands in the bucket of
//! `n` nanoseconds, and quantiles come back as the largest count the
//! containing bucket holds (`2^b − 1`): exact for 0 and 1, and at most a
//! 2× overestimate beyond. By convention such instruments are named with a `.size`
//! suffix so exporters render them as raw counts, not milliseconds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets (covers 1 ns … ~2.1 s; beyond is clamped
/// into the open-ended top bucket).
pub const NUM_BUCKETS: usize = 32;

#[inline]
fn bucket_of_n(n: u64) -> usize {
    (64 - n.leading_zeros() as usize).min(NUM_BUCKETS - 1)
}

#[inline]
fn bucket_of(secs: f64) -> usize {
    bucket_of_n((secs.max(0.0) * 1e9) as u64)
}

/// The bucket index a latency of `secs` lands in — the public form of the
/// internal bucketing, so exporters can attach per-bucket annotations
/// (OpenMetrics exemplars) to the same bucket a measurement was counted
/// in.
#[inline]
pub fn bucket_of_secs(secs: f64) -> usize {
    bucket_of(secs)
}

/// Upper bound (seconds) of bucket `bucket` — `2^bucket` nanoseconds.
/// Exporters use this to emit explicit bucket boundaries (the OpenMetrics
/// `le` label); for count-valued histograms the bound is the raw count
/// `2^bucket`.
#[inline]
pub fn bucket_upper_secs(bucket: usize) -> f64 {
    (1u64 << bucket) as f64 * 1e-9
}

/// Fixed-bucket latency histogram with power-of-two nanosecond buckets.
///
/// This is the *snapshot* form: `Copy`, cheap to pass around, mutated only
/// through `&mut self`. For concurrent recording use [`AtomicHistogram`]
/// and take [`AtomicHistogram::snapshot`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    /// Sum of all measurements, in nanoseconds (raw units for
    /// count-valued histograms) — feeds the OpenMetrics `_sum` series.
    sum_ns: u64,
}

impl LatencyHistogram {
    /// Records one latency measurement.
    pub fn record(&mut self, secs: f64) {
        self.buckets[bucket_of(secs)] += 1;
        self.count += 1;
        self.sum_ns += (secs.max(0.0) * 1e9) as u64;
    }

    /// Records one count-valued measurement (batch size, queue depth).
    pub fn record_n(&mut self, n: u64) {
        self.buckets[bucket_of_n(n)] += 1;
        self.count += 1;
        self.sum_ns += n;
    }

    /// Number of recorded measurements.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all latency measurements, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_ns as f64 * 1e-9
    }

    /// Sum of all count-valued measurements (see [`Self::record_n`]).
    pub fn sum_n(&self) -> u64 {
        self.sum_ns
    }

    /// Raw per-bucket counts; bucket `b`'s upper bound is
    /// [`bucket_upper_secs`]`(b)`.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// The latency (seconds) at quantile `q` in `[0, 1]`, resolved to the
    /// containing bucket's upper bound.
    ///
    /// Returns `None` when the histogram is empty — an empty distribution
    /// has no percentiles, and reporting `0.0` would read as a false
    /// "zero latency" on a dashboard.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_bucket(q).map(bucket_upper_secs)
    }

    /// The count at quantile `q` for a histogram fed through
    /// [`Self::record_n`], resolved to the largest count the containing
    /// bucket holds: bucket `b` holds `[2^(b-1), 2^b)`, so this is
    /// `2^b − 1` — exact for 0 and 1, ≤ 2× overestimate beyond. `None`
    /// when empty.
    pub fn quantile_n(&self, q: f64) -> Option<u64> {
        self.quantile_bucket(q).map(|b| (1u64 << b) - 1)
    }

    /// The index of the bucket holding quantile `q`; `None` when empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(b);
            }
        }
        Some(NUM_BUCKETS - 1)
    }

    /// Builds a snapshot directly from raw bucket counts and a sum.
    pub(crate) fn from_buckets(buckets: [u64; NUM_BUCKETS], sum_ns: u64) -> Self {
        let count = buckets.iter().sum();
        LatencyHistogram {
            buckets,
            count,
            sum_ns,
        }
    }
}

/// A concurrently recordable histogram: one relaxed atomic increment per
/// measurement, no locks.
///
/// [`AtomicHistogram::snapshot`] derives the total count by summing the
/// buckets, so a snapshot is always internally consistent (its count equals
/// the sum of its buckets), and because every bucket is monotone,
/// successive snapshots observe monotonically non-decreasing counts.
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_ns: AtomicU64,
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency measurement (relaxed; safe from any thread).
    pub fn record(&self, secs: f64) {
        self.buckets[bucket_of(secs)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add((secs.max(0.0) * 1e9) as u64, Ordering::Relaxed);
    }

    /// Records one count-valued measurement (relaxed; safe from any
    /// thread). See [`LatencyHistogram::quantile_n`] for reading it back.
    pub fn record_n(&self, n: u64) {
        self.buckets[bucket_of_n(n)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a consistent point-in-time copy.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        LatencyHistogram::from_buckets(buckets, self.sum_ns.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.99), None);
        let a = AtomicHistogram::new();
        assert_eq!(a.snapshot().quantile(0.99), None);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::default();
        for i in 1..=100u64 {
            h.record(i as f64 * 1e-6);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 > 0.0);
        assert!(p50 <= p95 && p95 <= p99);
        // Upper-bound resolution: p99 of ~100 µs samples is ≤ the 256 µs bucket.
        assert!(p99 <= 3e-4, "p99 {p99}");
    }

    #[test]
    fn atomic_snapshot_matches_serial_recording() {
        let a = AtomicHistogram::new();
        let mut h = LatencyHistogram::default();
        for i in 0..50u64 {
            let secs = (i + 1) as f64 * 3e-7;
            a.record(secs);
            h.record(secs);
        }
        let snap = a.snapshot();
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap.quantile(0.5), h.quantile(0.5));
        assert_eq!(snap.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let a = std::sync::Arc::new(AtomicHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let a = std::sync::Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    a.record((t * 1000 + i) as f64 * 1e-9);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.snapshot().count(), 4000);
    }

    #[test]
    fn count_valued_quantiles_read_the_largest_count_of_the_bucket() {
        // Bucket `b` holds [2^(b-1), 2^b): 0 and 1 read back exactly, 3
        // tops the [2, 4) bucket, and 4 and 32 read back as the top of
        // theirs.
        for (n, want) in [(0u64, 0u64), (1, 1), (3, 3), (4, 7), (32, 63)] {
            let a = AtomicHistogram::new();
            for _ in 0..10 {
                a.record_n(n);
            }
            let snap = a.snapshot();
            assert_eq!(snap.count(), 10);
            assert_eq!(snap.quantile_n(0.5), Some(want), "n={n}");
        }
        let mut h = LatencyHistogram::default();
        for n in [1u64, 1, 1, 4] {
            h.record_n(n);
        }
        assert_eq!(h.quantile_n(0.5), Some(1), "the median flush of 1 row");
        assert_eq!(h.quantile_n(1.0), Some(7));
        assert_eq!(LatencyHistogram::default().quantile_n(0.5), None);
    }

    #[test]
    fn record_n_and_record_share_buckets() {
        let mut by_secs = LatencyHistogram::default();
        let mut by_n = LatencyHistogram::default();
        for n in [0u64, 1, 7, 100, 4096] {
            by_secs.record(n as f64 * 1e-9);
            by_n.record_n(n);
        }
        assert_eq!(by_secs.quantile(0.5), by_n.quantile(0.5));
        assert_eq!(by_secs.quantile(0.99), by_n.quantile(0.99));
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let mut h = LatencyHistogram::default();
        h.record(-1.0); // clamped to 0
        h.record(0.0);
        h.record(1e6); // clamped into the top bucket
        assert_eq!(h.count(), 3);
        assert!(h.quantile(1.0).unwrap() >= 1.0);
    }
}
