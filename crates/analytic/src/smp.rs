//! Operational analysis of the SMP case — equations (7)–(12)
//! (Section 3.2). The CPUs are pooled: every process's CPU demand is
//! divided by the number of CPUs `n`; daemons and the main process share
//! the pool, and all message passing crosses a shared bus.
//!
//! Note the paper's SMP arrival rate additionally multiplies by the daemon
//! count (its equation below eq. 6): `λ = apps · pds / (period · batch)`.
//! We implement the published formula; its effect is that adding daemons
//! raises modelled IS load, which the simulation (Figures 22–24) probes
//! more faithfully.

use crate::inputs::{Demands, Knobs};
use crate::laws::{clamp_util, open_residence, utilization};

/// Metrics of the paper's SMP plots (Figures 12–13).
#[derive(Clone, Copy, Debug)]
pub struct SmpMetrics {
    /// Aggregate daemon forward-operation arrival rate λ (per s).
    pub lambda: f64,
    /// `µ_Pd,CPU`, eq. (7) — per-daemon share of the CPU pool.
    pub pd_cpu_util: f64,
    /// `µ_Paradyn,CPU`, eq. (8).
    pub main_cpu_util: f64,
    /// `µ_IS,CPU`, eq. (9) — pooled IS utilization.
    pub is_cpu_util: f64,
    /// `µ_Application,CPU`, eq. (10).
    pub app_cpu_util: f64,
    /// Bus utilization by daemon forwards, eq. (11).
    pub bus_util: f64,
    /// Monitoring latency per sample, eq. (12) — seconds.
    pub latency_s: f64,
}

/// Evaluate equations (7)–(12). `k.nodes` is the CPU count `n`;
/// `k.apps_per_node` is interpreted as the total application-process count
/// (the paper sets apps = nodes in Section 4.3, but varies them separately
/// in Figure 24).
pub fn smp_metrics(k: &Knobs, d: &Demands) -> SmpMetrics {
    let n = k.nodes as f64;
    let pds = k.pds as f64;
    let lambda = k.lambda_smp();
    // (7) daemon CPU utilization over the pooled CPUs.
    let pd_cpu = utilization(lambda, d.pd_cpu_s / n);
    // (8) main process CPU utilization.
    let main_cpu = utilization(lambda, d.main_cpu_s / n);
    // (9) pooled IS utilization.
    let is_cpu = (pds * pd_cpu + main_cpu) / (pds + 1.0);
    // (11) bus utilization.
    let bus = utilization(lambda, d.pd_net_s);
    // (12) latency through CPU pool then bus.
    let latency = open_residence(d.pd_cpu_s / n, pd_cpu) + open_residence(d.pd_net_s, bus);
    SmpMetrics {
        lambda,
        pd_cpu_util: clamp_util(pd_cpu),
        main_cpu_util: clamp_util(main_cpu),
        is_cpu_util: clamp_util(is_cpu),
        app_cpu_util: clamp_util(1.0 - is_cpu),
        bus_util: clamp_util(bus),
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

    fn base() -> Knobs {
        Knobs {
            nodes: 16,
            apps_per_node: 32,
            ..Default::default()
        }
    }

    #[test]
    fn hand_calculation_at_typical_point() {
        // n=16 CPUs, 32 apps, 1 Pd, 40ms, CF.
        let m = smp_metrics(&base(), &demands());
        // λ = 32/0.04 = 800/s.
        assert!((m.lambda - 800.0).abs() < 1e-9);
        // µ_Pd = 800 * 267e-6/16 = 1.335%.
        assert!((m.pd_cpu_util - 0.01335).abs() < 1e-9);
        // Bus = 800 * 71e-6 = 5.68%.
        assert!((m.bus_util - 0.0568).abs() < 1e-9);
        assert!(m.app_cpu_util > 0.95);
    }

    #[test]
    fn more_cpus_dilute_is_utilization() {
        let d = demands();
        let few = smp_metrics(&Knobs { nodes: 2, ..base() }, &d);
        let many = smp_metrics(&Knobs { nodes: 32, ..base() }, &d);
        assert!(few.pd_cpu_util > many.pd_cpu_util);
        assert!(few.is_cpu_util > many.is_cpu_util);
    }

    #[test]
    fn paper_smp_lambda_scales_with_daemons() {
        let d = demands();
        let one = smp_metrics(&base(), &d);
        let four = smp_metrics(&Knobs { pds: 4, ..base() }, &d);
        assert!((four.lambda / one.lambda - 4.0).abs() < 1e-9);
        assert!(four.bus_util > one.bus_util);
    }

    #[test]
    fn bf_lowers_is_utilization_and_latency() {
        let d = demands();
        let cf = smp_metrics(&base(), &d);
        let bf = smp_metrics(&Knobs { batch: 128, ..base() }, &d);
        assert!(bf.is_cpu_util < cf.is_cpu_util);
        assert!(bf.latency_s <= cf.latency_s);
        assert!(bf.app_cpu_util > cf.app_cpu_util);
    }

    #[test]
    fn small_periods_saturate_bus_first() {
        // Figure 12a: under CF, 1ms sampling with 32 apps gives
        // λ = 32 000/s; bus util = 32 000 * 71e-6 > 1 (saturated).
        let d = demands();
        let m = smp_metrics(
            &Knobs {
                sampling_period_s: 0.001,
                ..base()
            },
            &d,
        );
        assert_eq!(m.bus_util, 1.0);
        assert!(m.latency_s.is_infinite());
    }

    #[test]
    fn sweep_shapes() {
        let d = demands();
        let is_util = |k: Knobs| smp_metrics(&k, &d).is_cpu_util;
        for pds in 1..=4 {
            // IS utilization decreases with longer sampling period…
            let at_period = |ms: f64| is_util(Knobs { sampling_period_s: ms * 1e-3, pds, ..base() });
            assert!(at_period(1.0) >= at_period(64.0), "pds={pds}");
            // …and grows with the application count.
            let at_apps = |apps_per_node| is_util(Knobs { apps_per_node, pds, ..base() });
            assert!(at_apps(6) >= at_apps(1), "pds={pds}");
        }
    }
}
