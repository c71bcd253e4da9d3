//! Histograms (relative frequency), matching the left panels of the paper's
//! Figure 8.

/// A fixed-width-bin histogram over `[lo, hi)`.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Build a histogram spanning the sample's own range.
    pub fn from_samples(xs: &[f64], bins: usize) -> Self {
        assert!(!xs.is_empty());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Widen slightly so the maximum lands in the last bin.
        let span = (hi - lo).max(1e-12);
        let mut h = Histogram::new(lo, hi + span * 1e-9, bins);
        for &x in xs {
            h.record(x);
        }
        h
    }

    /// Record one observation.
    ///
    /// Branchless: the under/over/in-range outcomes become 0/1 masks and the
    /// bin index is computed unconditionally (Rust's saturating `as usize`
    /// cast maps negative/NaN to 0 and +huge to `usize::MAX`, so the
    /// clamped index is always a valid slot; the mask zeroes the increment
    /// for out-of-range observations). `lo < hi` is an invariant, so the
    /// under and over masks are mutually exclusive.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        let under = (x < self.lo) as u64;
        let over = (x >= self.hi) as u64;
        let in_range = 1 - under - over;
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((x - self.lo) / width) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.underflow += under;
        self.overflow += over;
        self.counts[idx] += in_range;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Raw count of bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Relative frequency of bin `i` (fraction of all recorded points).
    pub fn rel_freq(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Density estimate at bin `i` (relative frequency / bin width),
    /// comparable to a pdf.
    pub fn density(&self, i: usize) -> f64 {
        self.rel_freq(i) / self.bin_width()
    }

    /// Total observations recorded (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9] {
            h.record(x);
        }
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-0.1);
        h.record(1.0); // at hi => overflow (range is half-open)
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn rel_freqs_sum_to_one_when_in_range() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let h = Histogram::from_samples(&xs, 20);
        let sum: f64 = (0..h.bins()).map(|i| h.rel_freq(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn density_approximates_uniform_pdf() {
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64 / 1000.0).collect(); // ~U[0,10)
        let h = Histogram::from_samples(&xs, 10);
        for i in 0..h.bins() {
            assert!((h.density(i) - 0.1).abs() < 0.01, "bin {i}: {}", h.density(i));
        }
    }

    #[test]
    fn from_samples_includes_max() {
        let h = Histogram::from_samples(&[1.0, 2.0, 3.0], 3);
        assert_eq!(h.total(), 3);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.underflow(), 0);
    }
}
