//! The benchmark's own arithmetic: quantiles, a bounded latency sample,
//! and per-run tallies.

use crate::rng::Rng;

/// Linear-interpolated quantile of a sorted slice with Python's
/// `statistics.quantiles(method="exclusive")` convention: position
/// `q * (n + 1)`, clamped to the ends.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let pos = q * (n + 1) as f64;
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize; // 1-based rank below pos
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// returns them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.75))
}

/// Fewest samples for which a p99 has ten samples beyond it.
pub const P99_MIN_SAMPLES: u64 = 1000;

/// A timing distribution: median and p99 with the sample count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples observed (the sample kept for quantiles may be smaller).
    pub count: u64,
    pub median: f64,
    /// `None` below [`P99_MIN_SAMPLES`] samples.
    pub p99: Option<f64>,
}

/// A uniform sample of at most `cap` values (reservoir sampling), so a
/// run's memory does not grow with its speed: the buffer is allocated and
/// touched up front.
pub struct Reservoir {
    values: Vec<u32>,
    len: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap > 0);
        Reservoir {
            values: vec![u32::MAX; cap],
            len: 0,
            seen: 0,
            rng: Rng::new(seed),
        }
    }

    /// Records one sample (saturating at `u32::MAX`).
    pub fn push(&mut self, value: u64) {
        let v = value.min(u64::from(u32::MAX)) as u32;
        self.seen += 1;
        if self.len < self.values.len() {
            self.values[self.len] = v;
            self.len += 1;
        } else {
            let j = self.rng.below(self.seen);
            if (j as usize) < self.values.len() {
                self.values[j as usize] = v;
            }
        }
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Median and p99 (nearest rank) over the kept values of several
    /// reservoirs (one per thread), standing for all samples they saw.
    /// Threads run the same op mix, so their kept samples are pooled
    /// as they are.
    pub fn pooled(parts: &[&Reservoir]) -> Option<Summary> {
        let count: u64 = parts.iter().map(|r| r.seen).sum();
        let mut v: Vec<f64> = parts
            .iter()
            .flat_map(|r| r.values[..r.len].iter().map(|&x| f64::from(x)))
            .collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        Some(summarize_sorted(&v, count))
    }
}

/// Median and nearest-rank p99 of a sorted sample that stands for
/// `count` observations.
pub fn summarize_sorted(sorted: &[f64], count: u64) -> Summary {
    let n = sorted.len();
    let median = median_sorted(sorted);
    let p99 = (count >= P99_MIN_SAMPLES && n as u64 >= P99_MIN_SAMPLES).then(|| {
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    });
    Summary { count, median, p99 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        let v = sorted_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        // statistics.quantiles([1..=7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&v), (2.0, 6.0));
        assert_eq!(quantile_sorted(&v, 0.5), 4.0);
        // Positions beyond the ends clamp.
        assert_eq!(quartiles(&[5.0, 9.0]), (5.0, 9.0));
    }

    fn sorted_f64(v: &[f64]) -> Vec<f64> {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = summarize_sorted(&v, 999);
        assert_eq!(s.count, 999);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.p99, None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize_sorted(&v, 1000);
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(s.median, 500.5);
    }

    #[test]
    fn reservoir_keeps_everything_below_capacity() {
        let mut r = Reservoir::new(4096, 1);
        for x in 1..=2000u64 {
            r.push(x);
        }
        let s = Reservoir::pooled(&[&r]).unwrap();
        assert_eq!(s.count, 2000);
        assert_eq!(s.median, 1000.5);
        assert_eq!(s.p99, Some(1980.0));
    }

    #[test]
    fn reservoir_samples_uniformly_above_capacity() {
        let mut r = Reservoir::new(2000, 7);
        for x in 0..200_000u64 {
            r.push(x);
        }
        let s = Reservoir::pooled(&[&r]).unwrap();
        assert_eq!(s.count, 200_000);
        assert!(
            (s.median - 100_000.0).abs() < 8_000.0,
            "median {}",
            s.median
        );
        let p99 = s.p99.unwrap();
        assert!((p99 - 198_000.0).abs() < 2_000.0, "p99 {p99}");
    }

    #[test]
    fn pooled_reservoirs_count_every_sample() {
        let mut a = Reservoir::new(100, 1);
        let mut b = Reservoir::new(100, 2);
        (0..50).for_each(|x| a.push(x));
        (50..100).for_each(|x| b.push(x));
        let s = Reservoir::pooled(&[&a, &b]).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.median, 49.5);
    }
}
