//! Random variables used by the ROCC workload model.
//!
//! [`Rv`] is a small `Copy` enum rather than a trait object so that models
//! can store one per process with zero indirection on the sampling hot path.
//!
//! A note on the paper's lognormal parameterization: Table 2 writes
//! `lognormal(a, b)` with `a` the mean and `b` matching the *standard
//! deviation* column of Table 1 (e.g. `lognormal(2213, 3034)` for the
//! application CPU bursts whose Table 1 row is mean 2213, st.dev 3034).
//! [`Rv::lognormal_mean_std`] therefore takes real-space mean and standard
//! deviation and converts to the underlying normal's `(mu, sigma)`.

use crate::rng::Rng;
use crate::special::{gamma, norm_cdf, norm_quantile};

/// Uniform draw in `[0, 1)` from any [`Rng`].
#[inline]
pub fn unit_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.next_f64()
}

/// Uniform draw in `(0, 1)` (never exactly zero).
#[inline]
pub fn unit_f64_open<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.next_f64_open()
}

/// Number of ziggurat layers (7-bit index).
const ZIG_N: usize = 128;
/// Rightmost layer edge for the 128-layer normal ziggurat.
const ZIG_R: f64 = 3.442619855899;
/// Area of each layer (rectangle + base strip including the tail).
const ZIG_V: f64 = 9.91256303526217e-3;

/// Ziggurat layer tables: `x[i]` are the layer edges (decreasing, with
/// `x[0] = V/f(R) > R` so the base layer's rectangle-vs-tail split falls out
/// of the ordinary accept test) and `f[i] = exp(-x[i]²/2)`.
struct ZigTables {
    x: [f64; ZIG_N + 1],
    f: [f64; ZIG_N + 1],
}

static ZIG: std::sync::LazyLock<ZigTables> = std::sync::LazyLock::new(|| {
    let pdf = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0f64; ZIG_N + 1];
    x[0] = ZIG_V / pdf(ZIG_R);
    x[1] = ZIG_R;
    for i in 2..ZIG_N {
        x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
    }
    x[ZIG_N] = 0.0;
    let mut f = [0.0f64; ZIG_N + 1];
    for i in 0..=ZIG_N {
        f[i] = pdf(x[i]);
    }
    ZigTables { x, f }
});

/// Standard normal draw (Marsaglia–Tsang ziggurat, 128 layers).
///
/// Exact — the accept/reject construction samples the true density, it is
/// not an approximation — and ~4× cheaper than the Box–Muller form it
/// replaced: the common case is one `next_u64`, one multiply, and one
/// compare, with no transcendentals. One 64-bit draw supplies the layer
/// index (7 bits), the sign (1 bit), and a 53-bit uniform. The number of
/// raw draws per sample is variable (rejection), which is safe here: replay
/// cursors in the model count *samples*, and snapshots persist raw
/// generator state, so neither depends on a fixed draws-per-sample ratio.
#[inline]
pub fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t: &ZigTables = &ZIG;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0x7f) as usize;
        let sign = if bits & 0x80 == 0 { 1.0 } else { -1.0 };
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let x = u * t.x[i];
        if x < t.x[i + 1] {
            // Fast path: strictly inside the next layer's rectangle.
            return sign * x;
        }
        if i == 0 {
            // Base layer miss: sample the tail beyond R (Marsaglia 1964).
            loop {
                let x = -rng.next_f64_open().ln() / ZIG_R;
                let y = -rng.next_f64_open().ln();
                if y + y > x * x {
                    return sign * (ZIG_R + x);
                }
            }
        }
        // Wedge: accept proportionally to the density between the layers.
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * unit_f64(rng) < (-0.5 * x * x).exp() {
            return sign * x;
        }
    }
}

/// A continuous random variable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rv {
    /// Exponential with the given mean (the paper's `exponential(m)`).
    Exp {
        /// Mean (and standard deviation).
        mean: f64,
    },
    /// Lognormal with underlying normal parameters `mu`, `sigma`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Weibull with shape `k` and scale `lambda`.
    Weibull {
        /// Shape parameter `k`.
        shape: f64,
        /// Scale parameter `lambda`.
        scale: f64,
    },
    /// A degenerate (deterministic) value.
    Det {
        /// The constant value.
        value: f64,
    },
}

impl Rv {
    /// Exponential random variable with the given mean.
    pub fn exp(mean: f64) -> Rv {
        assert!(mean > 0.0, "exponential mean must be positive");
        Rv::Exp { mean }
    }

    /// Lognormal specified by real-space mean and standard deviation
    /// (the paper's `lognormal(a, b)` convention — see module docs).
    pub fn lognormal_mean_std(mean: f64, std: f64) -> Rv {
        assert!(mean > 0.0 && std >= 0.0);
        if std == 0.0 {
            return Rv::Det { value: mean };
        }
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Rv::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Lognormal from the underlying normal's parameters.
    pub fn lognormal_mu_sigma(mu: f64, sigma: f64) -> Rv {
        assert!(sigma > 0.0);
        Rv::LogNormal { mu, sigma }
    }

    /// Weibull with shape `k` and scale `lambda`.
    pub fn weibull(shape: f64, scale: f64) -> Rv {
        assert!(shape > 0.0 && scale > 0.0);
        Rv::Weibull { shape, scale }
    }

    /// Draw one sample.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Rv::Exp { mean } => -mean * unit_f64_open(rng).ln(),
            Rv::LogNormal { mu, sigma } => (mu + sigma * std_normal(rng)).exp(),
            Rv::Weibull { shape, scale } => {
                scale * (-unit_f64_open(rng).ln()).powf(1.0 / shape)
            }
            Rv::Det { value } => value,
        }
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        match *self {
            Rv::Exp { mean } => {
                if x < 0.0 {
                    0.0
                } else {
                    (-x / mean).exp() / mean
                }
            }
            Rv::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else {
                    let z = (x.ln() - mu) / sigma;
                    (-0.5 * z * z).exp()
                        / (x * sigma * (2.0 * std::f64::consts::PI).sqrt())
                }
            }
            Rv::Weibull { shape, scale } => {
                if x < 0.0 {
                    0.0
                } else {
                    let t = x / scale;
                    (shape / scale) * t.powf(shape - 1.0) * (-t.powf(shape)).exp()
                }
            }
            Rv::Det { .. } => 0.0,
        }
    }

    /// Cumulative distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        match *self {
            Rv::Exp { mean } => {
                if x < 0.0 {
                    0.0
                } else {
                    1.0 - (-x / mean).exp()
                }
            }
            Rv::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else {
                    norm_cdf((x.ln() - mu) / sigma)
                }
            }
            Rv::Weibull { shape, scale } => {
                if x < 0.0 {
                    0.0
                } else {
                    1.0 - (-(x / scale).powf(shape)).exp()
                }
            }
            Rv::Det { value } => {
                if x >= value {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Quantile function (inverse CDF) for `p` in `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        match *self {
            Rv::Exp { mean } => -mean * (1.0 - p).ln(),
            Rv::LogNormal { mu, sigma } => (mu + sigma * norm_quantile(p)).exp(),
            Rv::Weibull { shape, scale } => scale * (-(1.0 - p).ln()).powf(1.0 / shape),
            Rv::Det { value } => value,
        }
    }

    /// Theoretical mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Rv::Exp { mean } => mean,
            Rv::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
            Rv::Weibull { shape, scale } => scale * gamma(1.0 + 1.0 / shape),
            Rv::Det { value } => value,
        }
    }

    /// Theoretical variance.
    pub fn variance(&self) -> f64 {
        match *self {
            Rv::Exp { mean } => mean * mean,
            Rv::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                ((s2).exp() - 1.0) * (2.0 * mu + s2).exp()
            }
            Rv::Weibull { shape, scale } => {
                let g1 = gamma(1.0 + 1.0 / shape);
                let g2 = gamma(1.0 + 2.0 / shape);
                scale * scale * (g2 - g1 * g1)
            }
            Rv::Det { .. } => 0.0,
        }
    }

    /// Theoretical standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Human-readable family name.
    pub fn family(&self) -> &'static str {
        match self {
            Rv::Exp { .. } => "exponential",
            Rv::LogNormal { .. } => "lognormal",
            Rv::Weibull { .. } => "weibull",
            Rv::Det { .. } => "deterministic",
        }
    }

    /// Paper-style description, e.g. `exponential(267)` or
    /// `lognormal(2213, 3034)` (mean, std).
    pub fn describe(&self) -> String {
        match *self {
            Rv::Exp { mean } => format!("exponential({mean:.0})"),
            Rv::LogNormal { .. } => {
                format!("lognormal({:.0}, {:.0})", self.mean(), self.std_dev())
            }
            Rv::Weibull { shape, scale } => format!("weibull(k={shape:.2}, l={scale:.0})"),
            Rv::Det { value } => format!("deterministic({value:.0})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::SplitMix64 as TestRng;

    fn sample_mean_std(rv: Rv, n: usize) -> (f64, f64) {
        let mut rng = TestRng(12345);
        let xs: Vec<f64> = (0..n).map(|_| rv.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        (m, v.sqrt())
    }

    #[test]
    fn exponential_moments_match() {
        let rv = Rv::exp(267.0);
        assert_eq!(rv.mean(), 267.0);
        let (m, s) = sample_mean_std(rv, 200_000);
        assert!((m - 267.0).abs() / 267.0 < 0.02, "mean {m}");
        assert!((s - 267.0).abs() / 267.0 < 0.03, "std {s}");
    }

    #[test]
    fn lognormal_paper_parameterization() {
        // The application CPU burst from Table 2: lognormal(2213, 3034).
        let rv = Rv::lognormal_mean_std(2213.0, 3034.0);
        assert!((rv.mean() - 2213.0).abs() < 1e-6);
        assert!((rv.std_dev() - 3034.0).abs() < 1e-6);
        let (m, s) = sample_mean_std(rv, 400_000);
        assert!((m - 2213.0).abs() / 2213.0 < 0.03, "mean {m}");
        assert!((s - 3034.0).abs() / 3034.0 < 0.10, "std {s}");
    }

    #[test]
    fn weibull_mean_matches_gamma_formula() {
        let rv = Rv::weibull(2.0, 100.0);
        // E[X] = lambda * Gamma(1.5) = 100 * 0.8862...
        assert!((rv.mean() - 88.622_692_5).abs() < 1e-3);
        let (m, _) = sample_mean_std(rv, 200_000);
        assert!((m - rv.mean()).abs() / rv.mean() < 0.02);
    }

    #[test]
    fn cdf_quantile_inverse() {
        for rv in [
            Rv::exp(100.0),
            Rv::lognormal_mean_std(2213.0, 3034.0),
            Rv::weibull(1.7, 50.0),
        ] {
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let x = rv.quantile(p);
                assert!((rv.cdf(x) - p).abs() < 1e-6, "{rv:?} p={p}");
            }
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Crude trapezoid over a wide range.
        for rv in [Rv::exp(10.0), Rv::lognormal_mean_std(10.0, 5.0), Rv::weibull(2.0, 10.0)] {
            let hi = rv.quantile(0.9999);
            let n = 20_000;
            let dx = hi / n as f64;
            let total: f64 = (0..n)
                .map(|i| rv.pdf((i as f64 + 0.5) * dx) * dx)
                .sum();
            assert!((total - 1.0).abs() < 5e-3, "{rv:?} total={total}");
        }
    }

    #[test]
    fn deterministic_is_degenerate() {
        let rv = Rv::Det { value: 42.0 };
        let mut rng = TestRng(1);
        assert_eq!(rv.sample(&mut rng), 42.0);
        assert_eq!(rv.mean(), 42.0);
        assert_eq!(rv.variance(), 0.0);
        assert_eq!(rv.cdf(41.9), 0.0);
        assert_eq!(rv.cdf(42.0), 1.0);
    }

    #[test]
    fn samples_are_non_negative() {
        let mut rng = TestRng(7);
        for rv in [Rv::exp(1.0), Rv::lognormal_mean_std(5.0, 2.0), Rv::weibull(0.8, 3.0)] {
            for _ in 0..10_000 {
                assert!(rv.sample(&mut rng) >= 0.0);
            }
        }
    }

    #[test]
    fn describe_matches_paper_style() {
        assert_eq!(Rv::exp(267.0).describe(), "exponential(267)");
        assert_eq!(
            Rv::lognormal_mean_std(2213.0, 3034.0).describe(),
            "lognormal(2213, 3034)"
        );
    }

    #[test]
    fn zero_std_lognormal_degenerates() {
        let rv = Rv::lognormal_mean_std(100.0, 0.0);
        assert_eq!(rv, Rv::Det { value: 100.0 });
    }
}
