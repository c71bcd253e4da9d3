//! Shared inputs for the operational-analysis calculations.

use paradyn_workload::RoccParams;

/// Service demands (seconds) extracted from a [`RoccParams`], the `D_...`
/// quantities of the paper's equations.
#[derive(Clone, Copy, Debug)]
pub struct Demands {
    /// `D_Pd,CPU`: daemon CPU demand per forward operation (s).
    pub pd_cpu_s: f64,
    /// `D_Pd,Network`: network occupancy per forward (s).
    pub pd_net_s: f64,
    /// `D_Pdm,CPU`: merge CPU demand per en-route message (s).
    pub pdm_cpu_s: f64,
    /// `D_Paradyn,CPU`: main-process CPU demand per received message (s).
    pub main_cpu_s: f64,
    /// Application CPU burst mean (s).
    pub app_cpu_s: f64,
}

impl Demands {
    /// Extract demands for a given batch size.
    ///
    /// With `batch_marginals = false` this reproduces the paper's analytic
    /// model exactly (one `D` per batch regardless of size); with `true` the
    /// per-extra-sample marginals are included — the ablation showing why
    /// the simulated batch-size curve levels off (Figure 19) while the
    /// analytic one keeps falling (Figure 10).
    pub fn from_params(p: &RoccParams, batch: usize, batch_marginals: bool) -> Demands {
        let us = 1e-6;
        let (pd_cpu, pd_net, main_cpu) = if batch_marginals {
            (
                p.pd_cpu_batch_mean_us(batch),
                p.pd_net_batch_mean_us(batch),
                p.main_cpu_batch_mean_us(batch),
            )
        } else {
            (
                p.pd.cpu_req.mean(),
                p.pd.net_req.mean(),
                p.main_cpu_per_msg.mean(),
            )
        };
        Demands {
            pd_cpu_s: pd_cpu * us,
            pd_net_s: pd_net * us,
            pdm_cpu_s: p.pdm_cpu.mean() * us,
            main_cpu_s: main_cpu * us,
            app_cpu_s: p.app.cpu_req.mean() * us,
        }
    }
}

/// The experiment knobs of Section 3: "(1) sampling period; (2) number of
/// application processes per node; (3) number of system nodes; and
/// (4) batch size" (plus daemon count for the SMP case).
#[derive(Clone, Copy, Debug)]
pub struct Knobs {
    /// Sampling period (seconds); Table 2 typical: 0.040.
    pub sampling_period_s: f64,
    /// Batch size (1 = the CF policy).
    pub batch: usize,
    /// Application processes per node.
    pub apps_per_node: usize,
    /// Number of nodes (SMP: number of CPUs).
    pub nodes: usize,
    /// Number of Paradyn daemons (SMP case; 1 elsewhere).
    pub pds: usize,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            sampling_period_s: 0.040,
            batch: 1,
            apps_per_node: 1,
            nodes: 8,
            pds: 1,
        }
    }
}

impl Knobs {
    /// Equation (1): per-node arrival rate of Paradyn daemon forward
    /// operations, `λ = apps / (period · batch)` (per second).
    pub fn lambda_now(&self) -> f64 {
        self.apps_per_node as f64 / (self.sampling_period_s * self.batch as f64)
    }

    /// The SMP variant of equation (1), which the paper additionally scales
    /// by the daemon count.
    pub fn lambda_smp(&self) -> f64 {
        self.lambda_now() * self.pds as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_matches_equation_one() {
        let k = Knobs {
            sampling_period_s: 0.040,
            batch: 1,
            apps_per_node: 1,
            ..Default::default()
        };
        assert!((k.lambda_now() - 25.0).abs() < 1e-9);
        let k2 = Knobs {
            batch: 128,
            apps_per_node: 4,
            ..k
        };
        assert!((k2.lambda_now() - 4.0 / (0.040 * 128.0)).abs() < 1e-9);
    }

    #[test]
    fn smp_lambda_scales_with_daemons() {
        let k = Knobs {
            pds: 4,
            ..Default::default()
        };
        assert!((k.lambda_smp() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn demands_paper_mode_ignores_batch() {
        let p = RoccParams::default();
        let d1 = Demands::from_params(&p, 1, false);
        let d128 = Demands::from_params(&p, 128, false);
        assert_eq!(d1.pd_cpu_s, d128.pd_cpu_s);
        assert!((d1.pd_cpu_s - 267e-6).abs() < 1e-12);
    }

    #[test]
    fn demands_marginal_mode_grows_with_batch() {
        let p = RoccParams::default();
        let d1 = Demands::from_params(&p, 1, true);
        let d32 = Demands::from_params(&p, 32, true);
        assert!(d32.pd_cpu_s > d1.pd_cpu_s);
        assert!((d32.pd_cpu_s - (267.0 + 31.0 * 60.0) * 1e-6).abs() < 1e-12);
    }
}
