//! Order statistics used by every workload.

/// Value at quantile `q` (0..=1) of an ascending-sorted slice, by the
/// nearest-rank rule: the smallest sample with at least `q·n` samples
/// at or below it. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` and returns the nearest-rank quantile.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// The median: the middle sample, or the mean of the two middle
/// samples of an even-sized set. Zero for an empty set, so a metric
/// whose layer never ran reads 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The better quartile of one metric's value per trial: the 25th
/// percentile of a time, the 75th of a rate or a fraction. Zero for an
/// empty set.
///
/// On the shared host this runs on, a disturbance — the hypervisor
/// pausing a core, another tenant's burst — only ever makes a trial
/// worse, and at times it reaches more than half of a run's trials, so
/// the median moves with the host. The better quartile moves only when
/// three quarters of the trials are disturbed, and a change to the
/// program moves every trial and with them every quartile.
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    // Ranked from the better end either way, so that a time and the
    // rate made from it pick the same trial.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let mut ranked: Vec<f64> = values.iter().map(|v| sign * v).collect();
    quantile(&mut ranked, 0.25).map_or(0.0, |v| sign * v)
}

/// SplitMix64: the harness's only random source, so every input is a
/// pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        // One sample is every quantile.
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn quantile_sorts_first() {
        let mut v = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&mut v, 0.5), Some(5.0));
        assert_eq!(quantile(&mut v, 0.9), Some(9.0));
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn better_quartile_ignores_disturbed_trials() {
        // Three of eight trials hit by the host read far worse; the
        // better quartile of a time does not move, nor that of a rate.
        let clean = [100.0, 101.0, 100.2, 99.0, 100.5, 100.1, 99.5, 100.3];
        let mut hit = clean;
        (hit[1], hit[4], hit[7]) = (1000.0, 350.0, 180.0);
        assert_eq!(better_quartile(&clean, Better::Lower), 99.5);
        assert_eq!(better_quartile(&hit, Better::Lower), 99.5);
        let rates: Vec<f64> = hit.iter().map(|t| 1e6 / t).collect();
        assert_eq!(better_quartile(&rates, Better::Higher), 1e6 / 99.5);
        // A change to the program moves every trial, and the quartile.
        let slower: Vec<f64> = hit.iter().map(|t| t * 1.1).collect();
        assert_eq!(better_quartile(&slower, Better::Lower), 99.5 * 1.1);
        // Five trials: the second best, either way.
        assert_eq!(better_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0], Better::Lower), 2.0);
        assert_eq!(better_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0], Better::Higher), 4.0);
        assert_eq!(better_quartile(&[7.0], Better::Higher), 7.0);
        assert_eq!(better_quartile(&[], Better::Lower), 0.0);
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64(2017);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64(2017);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64(1);
        assert!((0..100).all(|_| r.below(7) < 7));
    }
}
