//! Operational laws (Denning & Buzen; Jain ch. 33) used by the paper's
//! "back-of-the-envelope" Section 3 analysis: the utilization law and the
//! open-server residence-time formula under flow balance.
//!
//! Conventions: rates are per second, demands in seconds, utilizations
//! dimensionless in `[0, ∞)` (a value ≥ 1 means the flow-balance assumption
//! is violated — the paper acknowledges this can happen; residence times
//! are then reported as infinite).

/// Utilization law: `U = X · D` (throughput times service demand).
#[inline]
pub fn utilization(throughput_per_s: f64, demand_s: f64) -> f64 {
    throughput_per_s * demand_s
}

/// Residence time at an open single-queue server under flow balance:
/// `R = D / (1 − U)`. Returns `+∞` when the server is saturated (`U ≥ 1`),
/// which is how the paper's formulas degenerate outside their validity
/// region.
#[inline]
pub fn open_residence(demand_s: f64, utilization: f64) -> f64 {
    if utilization >= 1.0 {
        f64::INFINITY
    } else {
        demand_s / (1.0 - utilization)
    }
}

/// Clamp a computed utilization into `[0, 1]` for *reporting* (plots show
/// percentages); analysis code should test the raw value for saturation
/// first.
#[inline]
pub fn clamp_util(u: f64) -> f64 {
    u.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_law() {
        // 25 requests/s, 267us each -> 0.67% busy.
        let u = utilization(25.0, 267e-6);
        assert!((u - 0.006675).abs() < 1e-9);
    }

    #[test]
    fn residence_grows_toward_saturation() {
        let d = 1e-3;
        assert!((open_residence(d, 0.0) - d).abs() < 1e-15);
        assert!((open_residence(d, 0.5) - 2.0 * d).abs() < 1e-15);
        assert!(open_residence(d, 0.999) > 0.9);
        assert!(open_residence(d, 1.0).is_infinite());
        assert!(open_residence(d, 1.7).is_infinite());
    }

    #[test]
    fn clamp_for_reporting() {
        assert_eq!(clamp_util(-0.1), 0.0);
        assert_eq!(clamp_util(0.42), 0.42);
        assert_eq!(clamp_util(2.5), 1.0);
    }
}
