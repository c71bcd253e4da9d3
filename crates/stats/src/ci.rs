//! Confidence intervals for sample means (Student's t), used to report the
//! paper's "mean values ... derived within 90% confidence intervals from a
//! sample of fifty values" (Section 4.1).

use crate::special::t_quantile;

/// A two-sided confidence interval around a mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanCi {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level in (0, 1), e.g. 0.90.
    pub confidence: f64,
}

impl MeanCi {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `x` lies in the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

/// t-based confidence interval for the mean of `xs`.
///
/// With a single observation the half-width is reported as 0 (no variance
/// estimate is possible); callers should check `xs.len()`.
pub fn mean_ci(xs: &[f64], confidence: f64) -> MeanCi {
    assert!(!xs.is_empty(), "mean_ci on empty sample");
    assert!(confidence > 0.0 && confidence < 1.0);
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return MeanCi {
            mean,
            half_width: 0.0,
            confidence,
        };
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let t = t_quantile(0.5 + confidence / 2.0, (n - 1) as f64);
    MeanCi {
        mean,
        half_width: t * (var / n as f64).sqrt(),
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_textbook_interval() {
        // Jain example-style: n=32 is common; use a simple case with n=8.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let ci = mean_ci(&xs, 0.90);
        assert!((ci.mean - 5.0).abs() < 1e-12);
        // s = sqrt(32/7) = 2.138; hw = t(0.95,7) * s/sqrt(8) = 1.895*0.7559=1.432
        assert!((ci.half_width - 1.432).abs() < 5e-3, "hw={}", ci.half_width);
        assert!(ci.contains(5.0));
        assert!(!ci.contains(10.0));
    }

    #[test]
    fn higher_confidence_widens_interval() {
        let xs: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let c90 = mean_ci(&xs, 0.90);
        let c99 = mean_ci(&xs, 0.99);
        assert!(c99.half_width > c90.half_width);
        assert_eq!(c90.mean, c99.mean);
    }

    #[test]
    fn single_observation_has_zero_width() {
        let ci = mean_ci(&[5.0], 0.90);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 5.0);
    }
}
