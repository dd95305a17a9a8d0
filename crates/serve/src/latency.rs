//! The server's latency record: a fixed-size, log-bucketed histogram.
//!
//! Bucket `i` counts samples in `[RATIO^i, RATIO^(i+1))` nanoseconds,
//! with `RATIO = 1.02`, and a quantile reports the geometric midpoint
//! `RATIO^(i + 1/2)` of the bucket that holds its nearest-rank sample.
//! The reported value is therefore within a factor `√1.02` of the exact
//! nearest-rank sample: **a relative error of at most 1%** (0.995%) for
//! samples from 1 ns to `RATIO^BUCKETS` ns, about 2.2 hours. Longer
//! samples share the top bucket. Quantiles are monotone in `q` and
//! clamped to the maximum. `count`, `mean` and `max` are exact: they
//! come from the bucket counts, an integer nanosecond sum and a
//! `fetch_max`, not from bucket midpoints.
//!
//! Every update is a relaxed atomic on a statistic that publishes no
//! other data, so no lock exists to poison, a snapshot never blocks the
//! completion stage, and the footprint stays `(BUCKETS + 2) × 8` bytes
//! (about 12 KiB) whatever the traffic. A snapshot taken while jobs
//! complete may see one sample in the sum but not yet in its bucket;
//! once the server is quiescent every figure is exact.

use hstencil_testkit::load::LatencyStats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Ratio between consecutive bucket bounds.
const RATIO: f64 = 1.02;
/// Bucket count: `RATIO^BUCKETS` ns ≈ 8.0e12 ns ≈ 2.2 h.
const BUCKETS: usize = 1500;

/// Submit→completion latencies of successful jobs (module docs).
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyHistogram {
    pub(crate) fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Adds one sample.
    pub(crate) fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket(ns)].fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// The distribution so far, in seconds; all zero when empty.
    pub(crate) fn stats(&self) -> LatencyStats {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return LatencyStats::from_samples(&[]);
        }
        let max = self.max_ns.load(Relaxed) as f64 * 1e-9;
        // Nearest rank, as `LatencyStats::from_samples` defines it.
        let quantile = |q: f64| {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return (RATIO.powf(i as f64 + 0.5) * 1e-9).min(max);
                }
            }
            max
        };
        LatencyStats {
            count: count as usize,
            mean: self.sum_ns.load(Relaxed) as f64 * 1e-9 / count as f64,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            max,
        }
    }
}

/// The bucket holding `ns`: `floor(log_RATIO ns)`, with 0 and 1 ns in
/// bucket 0 and everything past the range in the top bucket.
fn bucket(ns: u64) -> usize {
    if ns <= 1 {
        return 0;
    }
    (((ns as f64).ln() / RATIO.ln()) as usize).min(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstencil_testkit::rng::{Rng, Xoshiro256};

    /// The documented error bound, `√1.02 − 1`, plus float slack.
    const REL_ERR: f64 = 0.01;

    fn histogram_of(ns: &[u64]) -> LatencyHistogram {
        let h = LatencyHistogram::new();
        for &v in ns {
            h.record(Duration::from_nanos(v));
        }
        h
    }

    fn exact(ns: &[u64]) -> LatencyStats {
        let secs: Vec<f64> = ns.iter().map(|&v| v as f64 * 1e-9).collect();
        LatencyStats::from_samples(&secs)
    }

    #[test]
    fn quantiles_stay_within_the_stated_error_of_the_exact_ones() {
        // Log-uniform from 1 µs to 1 s, so every decade is populated.
        for seed in [1u64, 2, 3, 0x5EED_0001] {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let ns: Vec<u64> = (0..20_000)
                .map(|_| 10f64.powf(rng.gen_range(3.0..9.0)) as u64)
                .collect();
            let (got, want) = (histogram_of(&ns).stats(), exact(&ns));
            for (name, g, w) in [
                ("p50", got.p50, want.p50),
                ("p90", got.p90, want.p90),
                ("p99", got.p99, want.p99),
            ] {
                assert!(
                    (g - w).abs() <= REL_ERR * w,
                    "seed {seed} {name}: histogram {g:e} s against exact {w:e} s"
                );
            }
            assert!(got.p50 <= got.p90 && got.p90 <= got.p99 && got.p99 <= got.max);
        }
    }

    #[test]
    fn count_mean_and_max_are_exact_and_bound_the_quantiles() {
        let ns = [1_500u64, 20_000, 20_001, 7_000_000, 123_456_789];
        let (got, want) = (histogram_of(&ns).stats(), exact(&ns));
        assert_eq!(got.count, ns.len());
        assert_eq!(got.max, want.max);
        let sum_ns: u64 = ns.iter().sum();
        assert_eq!(got.mean, sum_ns as f64 * 1e-9 / ns.len() as f64);
        assert!((got.mean - want.mean).abs() <= 1e-12 * want.mean);
        // One sample just above its bucket's lower bound, so below the
        // bucket midpoint: the clamp to max makes every quantile exact.
        let ns = RATIO.powi(349).ceil() as u64;
        assert_eq!(bucket(ns), 349);
        let one = histogram_of(&[ns]).stats();
        let sample = ns as f64 * 1e-9;
        assert_eq!((one.count, one.max), (1, sample));
        assert_eq!((one.p50, one.p90, one.p99), (sample, sample, sample));
        let none = LatencyHistogram::new().stats();
        assert_eq!(
            (none.count, none.mean, none.p99, none.max),
            (0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn storage_is_fixed_and_count_stays_exact_past_two_million_samples() {
        // Every counter is inline, none on the heap: nothing can grow.
        assert_eq!(std::mem::size_of::<LatencyHistogram>(), (BUCKETS + 2) * 8);
        let h = LatencyHistogram::new();
        let n = 1u64 << 21;
        for k in 0..n {
            h.record(Duration::from_nanos(50_000 + k % 1000));
        }
        let stats = h.stats();
        assert_eq!(stats.count as u64, n, "no sample may be dropped");
        assert_eq!(stats.max, 50_999.0 * 1e-9);
        let sum_ns = 50_000 * n + (n / 1000) * 499_500 + (0..n % 1000).sum::<u64>();
        assert_eq!(stats.mean, sum_ns as f64 * 1e-9 / n as f64);
    }

    #[test]
    fn out_of_range_samples_land_in_the_end_buckets() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        let h = histogram_of(&[0, u64::MAX]);
        let stats = h.stats();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.max, u64::MAX as f64 * 1e-9);
        assert!(stats.p99 <= stats.max);
    }
}
