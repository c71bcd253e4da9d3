//! Descriptive statistics: the summary block reported in the paper's Table 1
//! (mean, standard deviation, min, max) plus quantiles.

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample.
    ///
    /// # Panics
    /// Panics on an empty sample or one holding a NaN.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "Summary::of on empty sample");
        let n = xs.len();
        let (mut min, mut max) = (xs[0], xs[0]);
        for &x in xs {
            assert!(!x.is_nan(), "NaN in sample");
            // The first of equal minima and the last of equal maxima, as a
            // stable sort leaves them (equal values differ only in ±0).
            if x < min {
                min = x;
            }
            if x >= max {
                max = x;
            }
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (std/mean); 0 when mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Streaming moment accumulator (Welford's algorithm).
///
/// Single-pass, O(1) state, and branch-free in the update: no comparisons
/// beyond `f64::min`/`f64::max` (which lower to `minsd`/`maxsd`), so it can
/// sit on a hot path without polluting the branch predictor. Numerically
/// stable where the naive sum-of-squares accumulator cancels catastrophically.
///
/// Yields the same mean/std-dev/min/max as [`Summary::of`] up to rounding
/// (the update order differs, so the last ulp may too); use it where the
/// sample is too large, or arrives too incrementally, to buffer.
#[derive(Clone, Copy, Debug)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Moments {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        let d2 = x - self.mean;
        self.m2 += d * d2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Default for Moments {
    fn default() -> Moments {
        Moments::new()
    }
}

/// Linear-interpolated quantile of an **already sorted** sample,
/// `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Quantile of an unsorted sample (sorts a copy).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    quantile_sorted(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&xs);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    #[should_panic(expected = "NaN in sample")]
    fn summary_of_rejects_nan() {
        Summary::of(&[1.0, f64::NAN, 2.0]);
    }

    #[test]
    fn single_observation() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cv_of_exponential_like_data_near_one() {
        let s = Summary {
            n: 10,
            mean: 100.0,
            std_dev: 100.0,
            min: 0.0,
            max: 500.0,
        };
        assert!((s.cv() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    fn moments_match_two_pass_summary() {
        // LCG-derived sample: deterministic, spread over a few decades.
        let mut s = 0x2545f4914f6cdd1du64;
        let xs: Vec<f64> = (0..4096)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 * 1e3 - 250.0
            })
            .collect();
        let two_pass = Summary::of(&xs);
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.n(), 4096);
        assert!((m.mean() - two_pass.mean).abs() < 1e-9 * two_pass.mean.abs().max(1.0));
        assert!((m.std_dev() - two_pass.std_dev).abs() < 1e-9 * two_pass.std_dev);
        assert_eq!(m.min(), two_pass.min);
        assert_eq!(m.max(), two_pass.max);
    }

    #[test]
    fn moments_empty_state() {
        let m = Moments::new();
        assert_eq!(m.n(), 0);
        assert!(m.mean().is_nan());
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min(), f64::INFINITY);
        assert_eq!(m.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn moments_single_observation() {
        let mut m = Moments::new();
        m.push(3.5);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.std_dev(), 0.0);
        assert_eq!(m.min(), 3.5);
        assert_eq!(m.max(), 3.5);
    }
}
