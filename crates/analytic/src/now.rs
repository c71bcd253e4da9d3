//! Operational analysis of the NOW case — equations (1)–(6) of the paper
//! (Section 3.1). The daemon workload is treated as an open (transaction)
//! class under flow balance; the application CPU share is obtained
//! indirectly as `1 − µ_Pd,CPU` (equation 6), which the paper notes is an
//! over-estimate because it ignores network waiting.

use crate::inputs::{Demands, Knobs};
use crate::laws::{clamp_util, open_residence, utilization};

/// The four metrics of the paper's NOW plots (Figures 9–10).
#[derive(Clone, Copy, Debug)]
pub struct NowMetrics {
    /// Per-node daemon forward-operation arrival rate λ (per s), eq. (1).
    pub lambda: f64,
    /// `µ_Pd,CPU` per node, eq. (2) — fraction.
    pub pd_cpu_util: f64,
    /// `µ_Pd,Network` across the shared network, eq. (3) — fraction.
    pub pd_net_util: f64,
    /// `µ_Paradyn,CPU` of the main process host, eq. (5) — fraction.
    pub main_cpu_util: f64,
    /// `µ_Application,CPU` per node, eq. (6) — fraction.
    pub app_cpu_util: f64,
    /// Monitoring latency per sample R(λ), eq. (4) — seconds
    /// (`+∞` when a resource saturates).
    pub latency_s: f64,
}

/// Evaluate equations (1)–(6).
pub fn now_metrics(k: &Knobs, d: &Demands) -> NowMetrics {
    let lambda = k.lambda_now();
    let n = k.nodes as f64;
    // (2) per-node daemon CPU utilization.
    let pd_cpu = utilization(lambda, d.pd_cpu_s);
    // Forced flow: all n nodes forward into the shared network.
    let pd_net = utilization(n * lambda, d.pd_net_s);
    // (5) main process CPU sees the aggregate arrival stream.
    let main_cpu = utilization(n * lambda, d.main_cpu_s);
    // (4) monitoring latency: residence in daemon CPU then network.
    let latency = open_residence(d.pd_cpu_s, pd_cpu) + open_residence(d.pd_net_s, pd_net);
    NowMetrics {
        lambda,
        pd_cpu_util: clamp_util(pd_cpu),
        pd_net_util: clamp_util(pd_net),
        main_cpu_util: clamp_util(main_cpu),
        app_cpu_util: clamp_util(1.0 - pd_cpu),
        latency_s: latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_workload::RoccParams;

    fn demands() -> Demands {
        Demands::from_params(&RoccParams::default(), 1, false)
    }

    #[test]
    fn typical_point_matches_hand_calculation() {
        // 40ms sampling, CF, 1 app/node, 8 nodes.
        let k = Knobs::default();
        let m = now_metrics(&k, &demands());
        assert!((m.lambda - 25.0).abs() < 1e-9);
        // µ_Pd,CPU = 25 * 267e-6 = 0.6675%.
        assert!((m.pd_cpu_util - 0.006675).abs() < 1e-9);
        // µ_Pd,Net = 8 * 25 * 71e-6 = 1.42%.
        assert!((m.pd_net_util - 0.0142).abs() < 1e-9);
        // Latency ~ 267us/(1-0.0067) + 71us/(1-0.0142) ≈ 3.4e-4 s —
        // the value on Figure 9's latency axis.
        assert!((m.latency_s - 3.4e-4).abs() < 0.2e-4, "{}", m.latency_s);
        assert!((m.app_cpu_util - (1.0 - 0.006675)).abs() < 1e-9);
    }

    #[test]
    fn bf_reduces_daemon_utilization_by_batch_factor() {
        // Paper analytic model: λ scales as 1/batch, so µ_Pd does too.
        let cf = now_metrics(&Knobs::default(), &demands());
        let bf = now_metrics(
            &Knobs {
                batch: 128,
                ..Default::default()
            },
            &demands(),
        );
        assert!((cf.pd_cpu_util / bf.pd_cpu_util - 128.0).abs() < 1e-6);
    }

    #[test]
    fn latency_explodes_at_small_periods() {
        // Figure 9b: latency rises steeply as the period shrinks.
        let d = demands();
        let slow = now_metrics(
            &Knobs {
                sampling_period_s: 0.064,
                ..Default::default()
            },
            &d,
        );
        let fast = now_metrics(
            &Knobs {
                sampling_period_s: 0.001,
                ..Default::default()
            },
            &d,
        );
        assert!(fast.latency_s > slow.latency_s);
        // At 1ms with 8 nodes the shared network runs at 8*1000*71e-6 = 57%.
        assert!(fast.pd_net_util > 0.5);
    }

    #[test]
    fn node_sweep_grows_network_and_main_util_only() {
        let d = demands();
        let at = |nodes| now_metrics(&Knobs { nodes, ..Default::default() }, &d);
        let (few, many) = (at(2), at(32));
        // Pd CPU per node independent of n.
        assert!((few.pd_cpu_util - many.pd_cpu_util).abs() < 1e-12);
        // Network and main-process utilizations grow with n.
        assert!(many.pd_net_util > few.pd_net_util);
        assert!(many.main_cpu_util > few.main_cpu_util);
    }

    #[test]
    fn batch_sweep_knee_with_marginals() {
        // With marginal batch costs, the gain saturates: going 1->8 helps a
        // lot; 64->128 helps little (the Figure 19 knee).
        let p = RoccParams::default();
        let base = Knobs {
            sampling_period_s: 0.001,
            ..Default::default()
        };
        let u: Vec<f64> = [1, 8, 64, 128]
            .iter()
            .map(|&batch| {
                let k = Knobs { batch, ..base };
                now_metrics(&k, &Demands::from_params(&p, batch, true)).pd_cpu_util
            })
            .collect();
        let gain_1_8 = u[0] / u[1];
        let gain_64_128 = u[2] / u[3];
        assert!(gain_1_8 > 2.0, "gain_1_8={gain_1_8}");
        assert!(gain_64_128 < 1.3, "gain_64_128={gain_64_128}");
    }

    #[test]
    fn saturated_network_reports_infinite_latency() {
        let d = demands();
        let k = Knobs {
            sampling_period_s: 0.0001,
            nodes: 64,
            ..Default::default()
        };
        let m = now_metrics(&k, &d);
        assert!(m.latency_s.is_infinite());
        assert_eq!(m.pd_net_util, 1.0); // clamped for reporting
    }
}
