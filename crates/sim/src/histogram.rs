//! Latency distributions.
//!
//! The playback simulator records every delivered packet's one-way
//! latency into a log-spaced histogram, cheap enough to keep per run
//! and precise enough for the percentiles a timeliness evaluation
//! reports (P50/P99/P99.9 and full CDFs).

use dg_topology::Micros;
use serde::{Deserialize, Serialize};

/// Number of log-spaced buckets: 128 buckets over [100 µs, ~1.6 s) at
/// ~7.3% relative width each.
const BUCKETS: usize = 128;
/// Lower edge of the first bucket.
const FLOOR_US: f64 = 100.0;
/// Per-bucket growth factor; 128 buckets * ln(1.073) spans ~8000x.
const GROWTH: f64 = 1.073;

/// A log-spaced latency histogram with undeliverable-packet tracking.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    /// Latencies below the first bucket.
    underflow: u64,
    /// Latencies beyond the last bucket.
    overflow: u64,
    /// Packets that never arrived (counted for loss-aware percentiles).
    lost: u64,
    total_recorded: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            underflow: 0,
            overflow: 0,
            lost: 0,
            total_recorded: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_of(latency: Micros) -> Option<usize> {
        let us = latency.as_micros() as f64;
        if us < FLOOR_US {
            return None;
        }
        let idx = ((us / FLOOR_US).ln() / GROWTH.ln()) as usize;
        (idx < BUCKETS).then_some(idx)
    }

    /// Upper edge of bucket `i` in microseconds.
    fn bucket_edge(i: usize) -> Micros {
        Micros::from_micros((FLOOR_US * GROWTH.powi(i as i32 + 1)).round() as u64)
    }

    /// Records one delivered packet's latency.
    pub fn record(&mut self, latency: Micros) {
        self.record_n(latency, 1);
    }

    /// Records `n` delivered packets that all took `latency` — one
    /// bucket lookup (a logarithm) for the lot.
    pub fn record_n(&mut self, latency: Micros, n: u64) {
        self.total_recorded += n;
        match Self::bucket_of(latency) {
            Some(i) => self.counts[i] += n,
            None if latency.as_micros() < FLOOR_US as u64 => self.underflow += n,
            None => self.overflow += n,
        }
    }

    /// Records a packet that was never delivered.
    pub fn record_lost(&mut self) {
        self.record_lost_n(1);
    }

    /// Records `n` packets that were never delivered.
    pub fn record_lost_n(&mut self, n: u64) {
        self.lost += n;
    }

    /// Delivered packets recorded.
    pub fn delivered(&self) -> u64 {
        self.total_recorded
    }

    /// Lost packets recorded.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Latency at or below which fraction `q` (of *all* packets,
    /// delivered and lost) falls; `None` when that quantile sits in the
    /// lost tail (the packet never arrived) or nothing was recorded.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q <= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<Micros> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        let total = self.total_recorded + self.lost;
        if total == 0 {
            return None;
        }
        let rank = (q * total as f64).ceil() as u64;
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(Micros::from_micros(FLOOR_US as u64));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return Some(Self::bucket_edge(i));
            }
        }
        seen += self.overflow;
        if rank <= seen {
            return Some(Self::bucket_edge(BUCKETS - 1));
        }
        None // the quantile falls among lost packets
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.lost += other.lost;
        self.total_recorded += other.total_recorded;
    }

    /// The CDF as `(latency upper edge, cumulative fraction of all
    /// packets)` pairs over non-empty buckets.
    pub fn cdf(&self) -> Vec<(Micros, f64)> {
        let total = (self.total_recorded + self.lost) as f64;
        if total == 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut cum = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((Self::bucket_edge(i), cum as f64 / total));
            }
        }
        if self.overflow > 0 {
            cum += self.overflow;
            out.push((Self::bucket_edge(BUCKETS - 1), cum as f64 / total));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn quantiles_bracket_recorded_values() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1_000 {
            h.record(Micros::from_millis(30));
        }
        let p50 = h.quantile(0.5).unwrap();
        // Log buckets: the answer is within one bucket (~7.3%) of 30 ms.
        assert!(p50 >= Micros::from_millis(28) && p50 <= Micros::from_millis(33), "p50 {p50}");
        assert_eq!(h.quantile(1.0).unwrap(), p50);
    }

    #[test]
    fn lost_packets_push_high_quantiles_to_none() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Micros::from_millis(10));
        }
        for _ in 0..10 {
            h.record_lost();
        }
        assert!(h.quantile(0.9).is_some());
        assert_eq!(h.quantile(0.95), None, "the tail is lost packets");
        assert_eq!(h.delivered(), 90);
        assert_eq!(h.lost(), 10);
    }

    #[test]
    fn distribution_orders_quantiles() {
        let mut h = LatencyHistogram::new();
        for ms in [5u64, 10, 20, 40, 80, 160] {
            for _ in 0..100 {
                h.record(Micros::from_millis(ms));
            }
        }
        let p10 = h.quantile(0.1).unwrap();
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p10 < p50 && p50 < p99, "{p10} {p50} {p99}");
        assert!(p99 >= Micros::from_millis(150));
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        // CDF is monotone.
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn extremes_land_in_under_and_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(Micros::from_micros(10)); // below floor
        h.record(Micros::from_secs(100)); // above ceiling
        assert_eq!(h.delivered(), 2);
        assert!(h.quantile(0.5).is_some());
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn a_batch_is_that_many_single_records() {
        let (mut one_by_one, mut batched) = (LatencyHistogram::new(), LatencyHistogram::new());
        for latency in [Micros::from_micros(10), Micros::from_millis(30), Micros::from_secs(100)] {
            for _ in 0..7 {
                one_by_one.record(latency);
                one_by_one.record_lost();
            }
            batched.record_n(latency, 7);
            batched.record_lost_n(7);
        }
        batched.record_n(Micros::from_millis(30), 0);
        assert_eq!(one_by_one, batched);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Micros::from_millis(10));
        b.record(Micros::from_millis(10));
        b.record_lost();
        a.merge(&b);
        assert_eq!(a.delivered(), 2);
        assert_eq!(a.lost(), 1);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn zero_quantile_panics() {
        LatencyHistogram::new().quantile(0.0);
    }
}
