//! Linear histograms.
//!
//! Fig. 6 of the paper is a histogram of per-NIC receive bandwidth over all
//! mpiGraph transfer pairs; [`Histogram`] provides the linear-binned
//! accumulation and rendering for it.

/// A fixed-range, linear-binned histogram over `f64` observations.
///
/// Observations outside `[lo, hi)` are counted in saturating under/overflow
/// bins so no data is silently dropped.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `nbins` equal-width bins.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(lo < hi, "invalid histogram range [{lo}, {hi})");
        assert!(nbins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Record many observations.
    pub fn record_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(bin_center, count)` pairs.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + w * (i as f64 + 0.5), c))
    }

    /// The center of the most populated bin (the distribution's mode).
    pub fn mode(&self) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "Histogram::new asserts nbins > 0, so bins() is never empty"
        )]
        let (center, _) = self
            .bins()
            .max_by_key(|&(_, c)| c)
            .expect("histogram has at least one bin");
        center
    }

    /// Fraction of in-range observations within `[a, b)`.
    pub fn mass_in(&self, a: f64, b: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut m = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            let center = self.lo + w * (i as f64 + 0.5);
            if center >= a && center < b {
                m += c;
            }
        }
        m as f64 / self.count as f64
    }

    /// Render an ASCII bar chart, the format used by the `repro` binary for
    /// Fig. 6. `width` is the max bar length in characters.
    pub fn render(&self, width: usize, label: &str) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{label}  (n={}, underflow={}, overflow={})\n",
            self.count, self.underflow, self.overflow
        ));
        for (i, &c) in self.bins.iter().enumerate() {
            let lo = self.lo + w * i as f64;
            let hi = lo + w;
            let bar_len = ((c as f64 / max as f64) * width as f64).round() as usize;
            out.push_str(&format!(
                "  [{lo:7.2}, {hi:7.2})  {:>9}  {}\n",
                c,
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5); // bin 0
        h.record(9.99); // bin 9
        h.record(5.0); // bin 5
        let counts: Vec<u64> = h.bins().map(|(_, c)| c).collect();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[5], 1);
        assert_eq!(counts[9], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn out_of_range_is_counted_not_dropped() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn boundary_values() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0); // inclusive lower edge -> bin 0
        h.record(10.0); // exclusive upper edge -> overflow
        let counts: Vec<u64> = h.bins().map(|(_, c)| c).collect();
        assert_eq!(counts[0], 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn mode_finds_peak() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..5 {
            h.record(7.3);
        }
        h.record(1.0);
        assert!((h.mode() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn mass_in_fractions() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!((h.mass_in(0.0, 5.0) - 0.5).abs() < 1e-9);
        assert!((h.mass_in(0.0, 10.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_bars() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for _ in 0..8 {
            h.record(1.5);
        }
        h.record(3.5);
        let s = h.render(10, "test");
        assert!(s.contains("test"));
        assert!(s.contains("##########")); // the full-height bar
    }
}
