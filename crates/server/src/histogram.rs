//! A streaming latency histogram with geometric (power-of-two) buckets.
//!
//! The server records one sample per executed request; quantiles are read
//! live by the `stats` method without ever storing individual samples, so
//! memory stays constant no matter how long the daemon runs. Bucket `b`
//! covers `[2^(b-1), 2^b)` microseconds (bucket 0 is exactly 0), which
//! bounds the relative error of any reported quantile at 2× — coarse, but
//! honest for a metric whose point is "did p99 blow up", and exactly what
//! a fixed 64-slot table can promise.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Quantile summary of everything recorded so far.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median latency (µs, bucket upper bound).
    pub p50_us: u64,
    /// 90th percentile (µs).
    pub p90_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// Largest single sample (µs, exact).
    pub max_us: u64,
}

/// Thread-safe streaming histogram of request latencies in microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// buckets[b] counts samples in [2^(b-1), 2^b) µs; buckets[0] counts 0.
    buckets: [u64; 64],
    count: u64,
    max_us: u64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            buckets: [0; 64],
            count: 0,
            max_us: 0,
        }
    }
}

/// The bucket index for a sample: 0 for 0µs, otherwise one past the
/// position of the highest set bit — clamped to the last slot, so a
/// sample at or beyond 2^63 µs lands in bucket 63 instead of indexing
/// past the table (and panicking with the stats mutex held).
fn bucket_of(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(63)
}

/// The largest value a bucket covers, reported as the quantile estimate.
/// The last bucket absorbs everything from 2^62 µs up, so its bound is
/// the full range.
fn bucket_upper(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        63 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The counts behind the lock, recovered if a thread panicked while
    /// holding it. That is sound because every critical section only adds
    /// to or reads counters, none of which panics (`bucket_of` clamps
    /// every sample into the table), so an unwind could at worst leave
    /// one sample counted in its bucket but not yet in `count` or `max_us`.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one sample.
    pub fn record_us(&self, us: u64) {
        let mut inner = self.lock();
        inner.buckets[bucket_of(us)] += 1;
        inner.count += 1;
        inner.max_us = inner.max_us.max(us);
    }

    /// One consistent snapshot of count, max, and the p50/p90/p99
    /// estimates. All zeros before the first sample.
    pub fn snapshot(&self) -> LatencySnapshot {
        let inner = self.lock();
        LatencySnapshot {
            count: inner.count,
            p50_us: inner.quantile(0.50),
            p90_us: inner.quantile(0.90),
            p99_us: inner.quantile(0.99),
            max_us: inner.max_us,
        }
    }
}

impl Inner {
    /// The upper bound of the bucket holding the q-quantile sample
    /// (nearest-rank), capped at the observed maximum so an almost-empty
    /// top bucket cannot report a latency nobody saw.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(bucket).min(self.max_us);
            }
        }
        self.max_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot(), LatencySnapshot::default());
    }

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63, "clamped to the last slot");
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
        // Every value lands in a bucket whose range contains it.
        for us in [0u64, 1, 7, 100, 1_000_000, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(us);
            assert!(b < 64, "{us} must stay in the 64-slot table");
            assert!(us <= bucket_upper(b), "{us} above bucket {b} upper");
        }
    }

    #[test]
    fn huge_samples_clamp_to_the_last_bucket_instead_of_panicking() {
        // Regression: 2^63 µs and above used to index buckets[64] and
        // panic while holding the stats mutex, poisoning it for every
        // later stats request.
        let h = LatencyHistogram::new();
        h.record_us(u64::MAX);
        h.record_us(1u64 << 63);
        h.record_us(3);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max_us, u64::MAX);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us);
        assert!(s.p99_us <= s.max_us);
    }

    #[test]
    fn quantiles_are_monotone_and_within_2x() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max_us, 1000);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us);
        assert!(s.p99_us <= s.max_us);
        // True p50 is 500; the bucket estimate may be up to 2x high.
        assert!((500..=1023).contains(&s.p50_us), "p50 = {}", s.p50_us);
        assert!((990..=1000).contains(&s.p99_us), "p99 = {}", s.p99_us);
    }

    #[test]
    fn single_sample_reports_itself_everywhere() {
        let h = LatencyHistogram::new();
        h.record_us(37);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max_us, 37);
        // One sample: every quantile is that sample's bucket, capped at max.
        assert_eq!(s.p50_us, 37);
        assert_eq!(s.p99_us, 37);
    }

    proptest::proptest! {
        /// Any sample stream — including extremes like 0, 1, and
        /// u64::MAX — keeps the quantile ladder monotone, within range,
        /// and the count exact.
        #[test]
        fn quantile_invariants_hold_for_random_streams(
            samples in proptest::collection::vec(
                (0u8..5, proptest::any::<u64>()).prop_map(|(kind, v)| match kind {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX,
                    3 => v,
                    _ => v % 10_000_000,
                }),
                1..200,
            ),
        ) {
            let h = LatencyHistogram::new();
            for &us in &samples {
                h.record_us(us);
            }
            let s = h.snapshot();
            proptest::prop_assert_eq!(s.count, samples.len() as u64);
            proptest::prop_assert_eq!(
                s.max_us,
                samples.iter().copied().max().unwrap_or(0)
            );
            proptest::prop_assert!(s.p50_us <= s.p90_us);
            proptest::prop_assert!(s.p90_us <= s.p99_us);
            proptest::prop_assert!(s.p99_us <= s.max_us);
            // Each quantile estimate is at least the true nearest-rank
            // value (bucket upper bounds only ever round up).
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = |q: f64| {
                let r = (q * sorted.len() as f64).ceil() as usize;
                sorted[r.clamp(1, sorted.len()) - 1]
            };
            proptest::prop_assert!(s.p50_us >= rank(0.50));
            proptest::prop_assert!(s.p99_us >= rank(0.99));
        }
    }

    #[test]
    fn a_poisoned_histogram_is_recovered() {
        let h = LatencyHistogram::new();
        h.record_us(5);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = h.inner.lock().unwrap();
                    panic!("a panic while the histogram is held");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(h.inner.is_poisoned());
        h.record_us(100);
        h.record_us(7);
        let s = h.snapshot();
        assert_eq!((s.count, s.max_us), (3, 100));
        assert_eq!((s.p50_us, s.p99_us), (7, 100));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for us in 0..250u64 {
                        h.record_us(us);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 1000);
    }
}
