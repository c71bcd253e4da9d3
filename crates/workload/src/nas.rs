//! Application workload profiles.
//!
//! The paper drives its simulations with the NAS Parallel Benchmark
//! `pvmbt` (block-tridiagonal solver; the measured Table 1/2 profile), plus
//! two synthetic extremes used in the factorial designs: a
//! compute-intensive application (network occupancy arbitrarily set to
//! 200 µs) and a communication-intensive one (2000 µs) — Section 4.2.1.

use paradyn_stats::Rv;

/// An application's resource-demand profile for the ROCC model.
#[derive(Clone, Copy, Debug)]
pub struct AppProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// CPU burst length (µs).
    pub cpu_req: Rv,
    /// Network occupancy length (µs).
    pub net_req: Rv,
    /// Mean computation between synchronization barriers (µs);
    /// `None` = no barriers.
    pub barrier_period_us: Option<f64>,
}

/// The measured `pvmbt` profile (Table 2): CPU lognormal(2213, 3034),
/// network exponential(223).
pub fn pvmbt() -> AppProfile {
    AppProfile {
        name: "pvmbt",
        cpu_req: Rv::lognormal_mean_std(2213.0, 3034.0),
        net_req: Rv::exp(223.0),
        barrier_period_us: None,
    }
}

/// Compute-intensive synthetic application of the factorial designs:
/// network occupancy fixed at 200 µs (Section 4.2.1).
pub fn compute_intensive() -> AppProfile {
    AppProfile {
        name: "compute-intensive",
        cpu_req: Rv::lognormal_mean_std(2213.0, 3034.0),
        net_req: Rv::exp(200.0),
        barrier_period_us: None,
    }
}

/// Communication-intensive synthetic application: network occupancy
/// 2000 µs (Section 4.2.1).
pub fn comm_intensive() -> AppProfile {
    AppProfile {
        name: "communication-intensive",
        cpu_req: Rv::lognormal_mean_std(2213.0, 3034.0),
        net_req: Rv::exp(2000.0),
        barrier_period_us: None,
    }
}

impl AppProfile {
    /// Same profile with synchronization barriers every `period_us` of
    /// computation (Figure 28's factor).
    pub fn with_barriers(mut self, period_us: f64) -> AppProfile {
        assert!(period_us > 0.0);
        self.barrier_period_us = Some(period_us);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pvmbt_matches_table2() {
        let p = pvmbt();
        assert!((p.cpu_req.mean() - 2213.0).abs() < 1e-6);
        assert!((p.net_req.mean() - 223.0).abs() < 1e-9);
        assert!(p.barrier_period_us.is_none());
    }

    #[test]
    fn intensity_profiles_match_section_421() {
        assert!((compute_intensive().net_req.mean() - 200.0).abs() < 1e-9);
        assert!((comm_intensive().net_req.mean() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn barriers_attach() {
        let p = pvmbt().with_barriers(1000.0);
        assert_eq!(p.barrier_period_us, Some(1000.0));
        assert_eq!(p.name, "pvmbt");
    }
}
