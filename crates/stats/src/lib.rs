#![warn(missing_docs)]
//! # paradyn-stats — statistics substrate for the Paradyn IS study
//!
//! Everything statistical the paper's methodology needs:
//!
//! * [`dist`] — the random variables of the ROCC workload model
//!   (exponential, lognormal in the paper's `(mean, std)` convention,
//!   Weibull, deterministic) with sampling, pdf/cdf/quantile and
//!   exact moments.
//! * [`fit`] — maximum-likelihood fitting and Kolmogorov–Smirnov selection
//!   (the paper's Table 2 procedure).
//! * [`desc`] — descriptive summaries (Table 1).
//! * [`hist`] / [`qq`] — histogram + Q-Q data (Figure 8).
//! * [`factorial`] — 2^k·r factorial designs and allocation of variation
//!   (Figures 16/20/25, Tables 7–8; the paper calls this "PCA").
//! * [`ci`] — Student-t confidence intervals for replicated simulations.
//! * [`special`] — the underlying special functions.
//! * [`rng`] — the workspace's own [`Rng`] trait (the build is hermetic;
//!   no `rand`) plus the [`SplitMix64`] test generator.
//! * [`check`] — an in-tree property-based testing harness (seeded
//!   generators, shrinking, failing-seed reporting; no `proptest`).

pub mod check;
pub mod ci;
pub mod desc;
pub mod dist;
pub mod factorial;
pub mod fit;
pub mod hist;
pub mod qq;
pub mod rng;
pub mod special;

pub use check::{check, Gen, PropResult};
pub use ci::{mean_ci, MeanCi};
pub use desc::{quantile, quantile_sorted, Moments, Summary};
pub use dist::Rv;
pub use factorial::{Design2kr, Term, Variation};
pub use fit::{best_fit, fit_exponential, fit_lognormal, fit_weibull, ks_statistic, Fit};
pub use hist::Histogram;
pub use qq::{qq_correlation, qq_points, qq_series, QqPoint};
pub use rng::{Rng, SplitMix64};
