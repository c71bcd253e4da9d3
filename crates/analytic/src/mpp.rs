//! Operational analysis of the MPP case — Section 3.3.
//!
//! Direct forwarding reuses the NOW equations (1)–(6) on a dedicated
//! network. Binary-tree forwarding adds merge work at non-leaf daemons:
//! with `n` nodes (a power of two), `n/2` leaves see no en-route traffic,
//! `n/2 − 1` interior nodes merge two children's streams, and one node
//! merges a single child's (equations 13–16).
//!
//! Equation (15) as printed contains `λ·D_Pd,CPU` inside the interior-node
//! term; dimensional analysis (it is a *network* utilization) shows it must
//! be `λ·D_Pd,Network`, and we implement the corrected form.

use crate::inputs::{Demands, Knobs};
use crate::laws::{clamp_util, open_residence, utilization};
use crate::now::{now_metrics, NowMetrics};

/// Forwarding configuration of the MPP study (Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forwarding {
    /// Every daemon sends straight to the main process.
    Direct,
    /// Daemons forward along a binary tree, merging en route.
    BinaryTree,
}

/// Metrics of the paper's MPP plots (Figures 14–15).
#[derive(Clone, Copy, Debug)]
pub struct MppMetrics {
    /// Per-node daemon forward arrival rate λ (per s).
    pub lambda: f64,
    /// Average per-node daemon CPU utilization (eq. 2 or 13).
    pub pd_cpu_util: f64,
    /// Average per-node network utilization (eq. 3 or corrected 15).
    pub pd_net_util: f64,
    /// Main-process CPU utilization (eq. 5 or 14).
    pub main_cpu_util: f64,
    /// Application CPU utilization per node (eq. 6).
    pub app_cpu_util: f64,
    /// Monitoring latency per sample (eq. 4 or 16) — seconds.
    pub latency_s: f64,
}

impl From<NowMetrics> for MppMetrics {
    fn from(m: NowMetrics) -> Self {
        MppMetrics {
            lambda: m.lambda,
            pd_cpu_util: m.pd_cpu_util,
            pd_net_util: m.pd_net_util,
            main_cpu_util: m.main_cpu_util,
            app_cpu_util: m.app_cpu_util,
            latency_s: m.latency_s,
        }
    }
}

/// Evaluate the MPP model for the chosen forwarding configuration.
///
/// For `Direct`, the network term uses per-node (contention-free, dedicated
/// links) rather than shared-medium utilization: each node's link carries
/// only its own `λ` (the paper's "contention-free network" assumption in
/// Section 4.4).
pub fn mpp_metrics(k: &Knobs, d: &Demands, fwd: Forwarding) -> MppMetrics {
    match fwd {
        Forwarding::Direct => {
            let mut m: MppMetrics = now_metrics(k, d).into();
            // Dedicated per-node links: utilization of a node's own link.
            let lambda = k.lambda_now();
            let link = utilization(lambda, d.pd_net_s);
            m.pd_net_util = clamp_util(link);
            m.latency_s =
                open_residence(d.pd_cpu_s, m.pd_cpu_util) + open_residence(d.pd_net_s, link);
            m
        }
        Forwarding::BinaryTree => tree_metrics(k, d),
    }
}

fn tree_metrics(k: &Knobs, d: &Demands) -> MppMetrics {
    let n = k.nodes as f64;
    assert!(k.nodes >= 2, "tree forwarding needs at least 2 nodes");
    let lambda = k.lambda_now();
    let leaves = n / 2.0;
    let interior2 = (n / 2.0 - 1.0).max(0.0); // nodes with two children
    // (13) average per-node daemon CPU utilization.
    let pd_cpu = (leaves * lambda * d.pd_cpu_s
        + interior2 * (lambda * d.pd_cpu_s + 2.0 * lambda * d.pdm_cpu_s)
        + lambda * d.pdm_cpu_s)
        / n
        + 0.0;
    // (15, corrected) average per-node network utilization: interior nodes
    // forward their own plus both children's merged streams.
    let pd_net = (leaves * lambda * d.pd_net_s
        + interior2 * (lambda * d.pd_net_s + 2.0 * lambda * d.pd_net_s)
        + lambda * d.pd_net_s)
        / n;
    // (14) the root's parent — the main process — receives two streams.
    let main_cpu = utilization(2.0 * lambda, d.main_cpu_s);
    // (16) latency includes the merge work on the daemon CPU.
    let latency = open_residence(d.pd_cpu_s + d.pdm_cpu_s, pd_cpu)
        + open_residence(d.pd_net_s, pd_net);
    MppMetrics {
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
        Demands::from_params(&RoccParams::default(), 32, false)
    }

    fn base() -> Knobs {
        Knobs {
            nodes: 256,
            batch: 32,
            ..Default::default()
        }
    }

    #[test]
    fn direct_equals_now_daemon_cpu() {
        let d = demands();
        let m = mpp_metrics(&base(), &d, Forwarding::Direct);
        // λ = 1/(0.04*32) = 0.78125/s; µ = λ*267e-6.
        assert!((m.lambda - 0.78125).abs() < 1e-9);
        assert!((m.pd_cpu_util - 0.78125 * 267e-6).abs() < 1e-12);
    }

    #[test]
    fn tree_adds_merge_overhead_to_daemon_cpu() {
        // Figure 27's key shape: tree forwarding has *higher* per-node Pd
        // CPU (merge work) than direct.
        let d = demands();
        let direct = mpp_metrics(&base(), &d, Forwarding::Direct);
        let tree = mpp_metrics(&base(), &d, Forwarding::BinaryTree);
        assert!(tree.pd_cpu_util > direct.pd_cpu_util);
        // And correspondingly lower app CPU.
        assert!(tree.app_cpu_util < direct.app_cpu_util);
    }

    #[test]
    fn tree_main_process_sees_two_streams() {
        let d = demands();
        let direct = mpp_metrics(&base(), &d, Forwarding::Direct);
        let tree = mpp_metrics(&base(), &d, Forwarding::BinaryTree);
        // Direct: 256 streams; tree: 2 streams — main CPU far lower.
        assert!(tree.main_cpu_util < direct.main_cpu_util);
        let expect = 2.0 * direct.lambda * d.main_cpu_s;
        assert!((tree.main_cpu_util - expect).abs() < 1e-12);
    }

    #[test]
    fn eq13_limit_cases() {
        // With n=2: one leaf (λm=0) and one single-child node (λm=λ);
        // average = [λ·Dpd + λ·Dpdm]/2... the formula gives
        // (1·λDpd + 0·(...) + λDpdm)/2.
        let d = demands();
        let k = Knobs {
            nodes: 2,
            batch: 32,
            ..Default::default()
        };
        let m = mpp_metrics(&k, &d, Forwarding::BinaryTree);
        let lambda = k.lambda_now();
        let expect = (lambda * d.pd_cpu_s + lambda * d.pdm_cpu_s) / 2.0;
        assert!((m.pd_cpu_util - expect).abs() < 1e-12);
    }

    #[test]
    fn period_sweep_monotone_in_overhead() {
        let d = demands();
        for fwd in [Forwarding::Direct, Forwarding::BinaryTree] {
            let u: Vec<f64> = [1.0, 4.0, 16.0, 64.0]
                .iter()
                .map(|ms| {
                    let k = Knobs { sampling_period_s: ms * 1e-3, ..base() };
                    mpp_metrics(&k, &d, fwd).pd_cpu_util
                })
                .collect();
            // Longer period -> lower overhead, both configurations.
            assert!(u.windows(2).all(|w| w[1] <= w[0]), "{fwd:?}: {u:?}");
        }
    }

    #[test]
    fn node_sweep_direct_daemon_flat_tree_grows() {
        let d = demands();
        let at = |nodes, fwd| mpp_metrics(&Knobs { nodes, ..base() }, &d, fwd).pd_cpu_util;
        let (direct_2, direct_256) = (at(2, Forwarding::Direct), at(256, Forwarding::Direct));
        assert!((direct_2 - direct_256).abs() < 1e-12);
        // Tree per-node overhead rises toward the 2-children asymptote.
        assert!(at(256, Forwarding::BinaryTree) > at(2, Forwarding::BinaryTree));
    }
}
