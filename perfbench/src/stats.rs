//! Latency samples and the order statistics the report is built from.
//!
//! Every sample is kept (one `u64` of nanoseconds per call), so the
//! percentiles are exact: the resolution is the clock's, far below the
//! 1% the end-to-end gates need.

use std::time::Duration;

/// Exact latency samples of one operation type, in arrival order.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

/// Order statistics of a [`Samples`] set, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median over all samples.
    pub p50_us: f64,
    /// 99th percentile over all samples.
    pub p99_us: f64,
    /// The highest percentile of the 9s ladder with at least ten samples
    /// beyond it (see [`tail_quantile`]).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail_us: f64,
    /// Largest sample.
    pub max_us: f64,
}

impl Samples {
    /// Records one call's duration.
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }

    /// Value at quantile `q` in nanoseconds (nearest rank); 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile_sorted(&self.sorted(), q)
    }

    /// Median in nanoseconds.
    pub fn median_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// Quantile `q` in microseconds, as the median over consecutive
    /// chunks of the samples: as many chunks as hold `min_per_chunk`
    /// samples each, at most `max_chunks`, at least one. A burst of
    /// interference from outside the process then moves one chunk, not
    /// the reported value.
    pub fn chunked_quantile_us(&self, q: f64, min_per_chunk: usize, max_chunks: usize) -> f64 {
        let k = (self.len() / min_per_chunk.max(1)).clamp(1, max_chunks.max(1));
        let per_chunk: Vec<f64> = (0..k)
            .map(|c| {
                let mut chunk = self.ns[c * self.len() / k..(c + 1) * self.len() / k].to_vec();
                chunk.sort_unstable();
                quantile_sorted(&chunk, q) as f64 / 1e3
            })
            .collect();
        median(&per_chunk)
    }

    /// The order statistics of the whole set.
    pub fn summary(&self) -> Summary {
        let sorted = self.sorted();
        let us = |q: f64| quantile_sorted(&sorted, q) as f64 / 1e3;
        let tail_q = tail_quantile(self.len()).unwrap_or(0.5);
        Summary {
            n: self.len(),
            p50_us: us(0.5),
            p99_us: us(0.99),
            tail_q,
            tail_us: us(tail_q),
            max_us: us(1.0),
        }
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q · n` samples at or below it. 0 for an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder 0.5, 0.9, 0.99, 0.999, … that
/// still has at least ten of `n` samples beyond it, so a tail
/// value is never read off fewer than ten samples. `None` below 20
/// samples (not even the median has ten beyond it).
pub fn tail_quantile(n: usize) -> Option<f64> {
    const LADDER: [f64; 7] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999];
    // `1 - q` is rounded, so compare with a hair of slack.
    LADDER
        .into_iter()
        .take_while(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-6)
        .last()
}

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(99_999), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        // Whatever n is, at least ten samples lie beyond the chosen rung.
        for n in [20, 57, 130, 4_321, 65_000, 1_234_567] {
            let q = tail_quantile(n).unwrap();
            assert!(n as f64 * (1.0 - q) >= 10.0 - 1e-9, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        let mut s = Samples::default();
        for ns in [5_000u64, 1_000, 3_000] {
            s.push(Duration::from_nanos(ns));
        }
        assert_eq!(s.median_ns(), 3_000);
        let sum = s.summary();
        assert_eq!((sum.n, sum.max_us), (3, 5.0));
    }

    #[test]
    fn chunked_quantile_ignores_one_noisy_chunk() {
        let mut s = Samples::default();
        // Three chunks of 100; the middle one is ten times slower.
        for chunk in 0..3u64 {
            let scale = if chunk == 1 { 10 } else { 1 };
            for i in 1..=100u64 {
                s.push(Duration::from_nanos(i * 1_000 * scale));
            }
        }
        assert_eq!(s.chunked_quantile_us(0.99, 100, 5), 99.0);
        // Too few samples for two chunks: one chunk, the plain quantile.
        assert_eq!(
            s.chunked_quantile_us(0.5, 200, 5),
            s.quantile_ns(0.5) as f64 / 1e3
        );
        assert_eq!(
            s.chunked_quantile_us(0.5, 1_000, 5),
            s.quantile_ns(0.5) as f64 / 1e3
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
