//! Small order statistics over raw samples.

use std::time::Duration;

/// Nanoseconds of `d`, saturating.
pub fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// The exact `q`-quantile of `xs`, interpolated linearly between the two
/// order statistics around rank `q · (len − 1)`; 0 when empty.
pub fn quantile(xs: &[u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (rank - lo as f64)
}

/// Samples strictly above the `q`-quantile of `n` samples: what a
/// percentile rests on. The benchmark requires at least ten beyond
/// every p99.
pub fn beyond(n: usize, q: f64) -> usize {
    n - (q * n as f64).ceil() as usize
}

/// Sum of `xs` in seconds, for nanosecond samples.
pub fn total_s(xs: &[u64]) -> f64 {
    xs.iter().map(|&v| v as f64).sum::<f64>() / 1e9
}

/// The cost of each work unit of a run: its fastest time over the
/// passes that repeated it. On a shared host, other tenants only ever
/// add time to a unit, so a unit's minimum is its cost with the host's
/// noise taken out; the spread across units is the workload's own.
#[derive(Default)]
pub struct BestOf(Vec<u64>);

impl BestOf {
    pub fn record(&mut self, unit: usize, d: Duration) {
        if unit >= self.0.len() {
            self.0.resize(unit + 1, u64::MAX);
        }
        self.0[unit] = self.0[unit].min(ns(d));
    }

    pub fn total_s(&self) -> f64 {
        total_s(&self.0)
    }

    /// Each unit's best time in ns, in unit order.
    pub fn into_values(self) -> Vec<u64> {
        self.0
    }
}

/// One FNV-1a step over a 64-bit word, for output checksums.
pub fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
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
    fn quantiles_interpolate_between_order_statistics() {
        let xs: Vec<u64> = (1..=10_000u64).rev().map(|v| v * 10).collect();
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 100_000.0);
        assert_eq!(quantile(&xs, 0.5), 50_005.0);
        assert!((quantile(&xs, 0.99) - 99_000.1).abs() < 1e-6);
        assert_eq!(beyond(xs.len(), 0.99), 100);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
