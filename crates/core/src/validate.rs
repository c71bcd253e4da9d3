//! The Table 3 validation scenario: simulate the same case that was traced
//! on the SP-2 (pvmbt under Paradyn, CF policy, 40 ms sampling, ~100 s) and
//! compare application and daemon CPU times against the paper's
//! measurements.

use crate::config::{Arch, SimConfig};
use crate::experiment::run;
use crate::metrics::SimMetrics;
use paradyn_workload::pvmbt;

/// The paper's Table 3 reference values (seconds of CPU time over the run).
#[derive(Clone, Copy, Debug)]
pub struct Table3Reference {
    /// Measured application CPU time on the SP-2.
    pub measured_app_cpu_s: f64,
    /// Measured Paradyn daemon CPU time.
    pub measured_pd_cpu_s: f64,
    /// The paper's own simulation results.
    pub paper_sim_app_cpu_s: f64,
    /// The paper's own simulated daemon CPU time.
    pub paper_sim_pd_cpu_s: f64,
}

/// Table 3 of the paper.
pub const TABLE3: Table3Reference = Table3Reference {
    measured_app_cpu_s: 85.71,
    measured_pd_cpu_s: 0.74,
    paper_sim_app_cpu_s: 87.96,
    paper_sim_pd_cpu_s: 0.59,
};

/// The validation configuration: one SP-2 node running pvmbt with a local
/// daemon, CF policy, 40 ms sampling, 100 s.
pub fn validation_config() -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 1,
        apps_per_node: 1,
        duration_s: 100.0,
        sampling_period_us: 40_000.0,
        batch: 1,
        app: pvmbt(),
        ..Default::default()
    }
}

/// Result of the validation run.
#[derive(Clone, Debug)]
pub struct ValidationResult {
    /// Our simulated metrics.
    pub metrics: SimMetrics,
    /// Our simulated application CPU time (s).
    pub app_cpu_s: f64,
    /// Our simulated daemon CPU time (s).
    pub pd_cpu_s: f64,
    /// Reference values.
    pub reference: Table3Reference,
}

impl ValidationResult {
    /// Relative error of the application CPU time against the measurement.
    pub fn app_rel_err(&self) -> f64 {
        (self.app_cpu_s - self.reference.measured_app_cpu_s).abs()
            / self.reference.measured_app_cpu_s
    }

    /// Relative error of the daemon CPU time against the measurement.
    pub fn pd_rel_err(&self) -> f64 {
        (self.pd_cpu_s - self.reference.measured_pd_cpu_s).abs()
            / self.reference.measured_pd_cpu_s
    }
}

/// Run the Table 3 validation.
pub fn validate() -> ValidationResult {
    let cfg = validation_config();
    let metrics = run(&cfg);
    ValidationResult {
        app_cpu_s: metrics.cpu_time_s(paradyn_workload::ProcessClass::Application),
        pd_cpu_s: metrics.cpu_time_s(paradyn_workload::ProcessClass::ParadynDaemon),
        metrics,
        reference: TABLE3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_tracks_table3() {
        let v = validate();
        // The paper's own simulation was within ~3% on application CPU and
        // ~20% on daemon CPU; we accept a similar band (10% / 40%).
        assert!(
            v.app_rel_err() < 0.10,
            "app CPU {} vs measured {}",
            v.app_cpu_s,
            v.reference.measured_app_cpu_s
        );
        assert!(
            v.pd_rel_err() < 0.40,
            "pd CPU {} vs measured {}",
            v.pd_cpu_s,
            v.reference.measured_pd_cpu_s
        );
    }

    #[test]
    fn validation_config_is_single_traced_node() {
        let c = validation_config();
        assert_eq!(c.nodes, 1);
        assert_eq!(c.apps_per_node, 1);
        assert_eq!(c.batch, 1);
        assert_eq!(c.duration_s, 100.0);
    }
}
