//! Statistics toolkit: online moments and percentile summaries.
//!
//! The paper reports averages and 99th percentiles (GPCNeT, Table 5) and
//! distributions (mpiGraph, Fig. 6); this module provides the accumulation
//! machinery those experiments share.

/// Numerically stable online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Incorporate one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction, Chan's
    /// parallel variance formula).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact percentile of a sample set. `q` in `[0, 100]`.
///
/// Uses the nearest-rank method on a copy of the data, selected in O(n)
/// rather than sorted.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&q), "percentile {q} out of range");
    nearest_rank(&mut samples.to_vec(), q)
}

/// The nearest-rank `q`-th percentile of `v`, which it reorders. Under
/// `total_cmp` equal elements are bit-equal, so the value is exactly the
/// one a full sort would put at that rank; a stray NaN (caller bug) ranks
/// at the high end deterministically.
fn nearest_rank(v: &mut [f64], q: f64) -> f64 {
    let k = if q <= 0.0 {
        0
    } else {
        let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
        rank.saturating_sub(1).min(v.len() - 1)
    };
    *v.select_nth_unstable_by(k, |a, b| a.total_cmp(b)).1
}

/// A complete five-number-plus summary of a sample set.
#[derive(Debug, Clone)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set. Panics if empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of empty sample set");
        let mut stats = OnlineStats::new();
        for &x in samples {
            stats.push(x);
        }
        let mut v = samples.to_vec();
        Summary {
            count: samples.len(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: stats.min(),
            p50: nearest_rank(&mut v, 50.0),
            p99: nearest_rank(&mut v, 99.0),
            max: stats.max(),
        }
    }
}

/// Geometric mean of a set of strictly positive values (used by HACC's FOM,
/// which is the geometric mean of gravity-only and hydro runs).
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean of non-positive value {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Harmonic mean of strictly positive values (used by ExaSMR's combined FOM,
/// "a harmonic average of the Monte Carlo and CFD work rates").
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let recip_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "harmonic mean of non-positive value {v}");
            1.0 / v
        })
        .sum();
    values.len() as f64 / recip_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..300] {
            a.push(x);
        }
        for &x in &data[300..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), before);

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), before);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42.0], 1.0), 42.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    /// The sort-based nearest rank the selection must reproduce.
    fn sorted_rank(samples: &[f64], q: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        if q <= 0.0 {
            return v[0];
        }
        let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.saturating_sub(1).min(v.len() - 1)]
    }

    #[test]
    fn selected_percentiles_match_a_full_sort_bitwise() {
        check::cases(64, |g| {
            // Few distinct values, so duplicates are common; ±0.0 and a NaN
            // exercise the total order.
            let mut v: Vec<f64> = g.vec(1..200, |g| match g.range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                _ => g.range(0..9u32) as f64 * 0.5 - 2.0,
            });
            // Summary takes finite observations only.
            let s = Summary::of(&v);
            assert_eq!(s.p50.to_bits(), sorted_rank(&v, 50.0).to_bits());
            assert_eq!(s.p99.to_bits(), sorted_rank(&v, 99.0).to_bits());
            if g.bool() {
                let at = g.range(0..v.len());
                v[at] = f64::NAN;
            }
            for q in [0.0, 1.0, 50.0, 99.0, 100.0] {
                let want = sorted_rank(&v, q).to_bits();
                assert_eq!(percentile(&v, q).to_bits(), want, "q = {q}");
            }
        });
    }

    #[test]
    fn summary_fields_consistent() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 999.0);
        assert!(s.p50 <= s.p99);
        assert!((s.mean - 499.5).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_of_two() {
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_of_two() {
        // harmonic mean of 54 and 99.6 -> the ExaSMR combined FOM ~70.
        let h = harmonic_mean(&[54.0, 99.6]);
        assert!((h - 70.02).abs() < 0.1, "got {h}");
    }
}
