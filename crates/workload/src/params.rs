//! The ROCC model parameter set — the paper's Table 2.
//!
//! All time quantities are in **microseconds**, matching the paper; the
//! simulator converts to its integer clock at the edges.

use paradyn_stats::Rv;

/// Marginal Pd CPU cost per sample beyond the first in a batch (µs).
/// Calibrated so a batch of 32 costs roughly a third of 32 CF forwards,
/// matching the >60% overhead reduction measured in Section 5.
pub const PD_CPU_PER_EXTRA_SAMPLE_US: f64 = 60.0;

/// Marginal network occupancy per extra sample in a batch (µs).
pub const PD_NET_PER_EXTRA_SAMPLE_US: f64 = 4.0;

/// Marginal main-process CPU per extra sample in a received batch (µs).
pub const MAIN_CPU_PER_EXTRA_SAMPLE_US: f64 = 50.0;

/// CPU scheduling quantum (µs); Table 2: 10 000.
pub const QUANTUM_US: f64 = 10_000.0;

/// How much faster the SMP shared bus moves a message than the NOW
/// Ethernet (all bus occupancies are divided by this). An SP-2-era SMP
/// memory bus comfortably outruns 10 Mb/s Ethernet; 4x keeps the paper's
/// Figure 22 bus-bottleneck onset near 32 CPUs.
pub const SMP_BUS_SPEEDUP: f64 = 4.0;

/// Minimum wire time of one forwarding hop on a contention-free
/// interconnect (µs): the drawn occupancy is clamped up to this floor, so
/// a cross-node forward never arrives sooner than this after it is sent.
/// 5 µs is far below the exp(71) mean hop occupancy, so the clamp rarely
/// binds — but it does bind, so it is part of every MPP result.
pub const MIN_FORWARD_US: f64 = 5.0;

/// Occupancy-request lengths of one process class.
#[derive(Clone, Copy, Debug)]
pub struct ProcessParams {
    /// Length of a CPU occupancy request (µs).
    pub cpu_req: Rv,
    /// Length of a network occupancy request (µs).
    pub net_req: Rv,
}

/// The distributions and pipe capacity of the ROCC model for the Paradyn
/// IS (Table 2 of the paper). Its fixed constants, among them the
/// batch-cost marginals discussed with Figure 19 ("more CPU time is also
/// needed to forward a larger batch"), are the module's `const`s.
#[derive(Clone, Debug)]
pub struct RoccParams {
    /// Application process: CPU bursts lognormal(2213, 3034),
    /// network exponential(223).
    pub app: ProcessParams,
    /// Paradyn daemon per-forward costs: CPU exponential(267),
    /// network exponential(71). Under BF these are charged once per batch.
    pub pd: ProcessParams,
    /// CPU cost of merging one en-route child message at a non-leaf tree
    /// node (the `D_Pdm,CPU` of eq. 13).
    // lint:allow(dead-field): simbench's draw_ns probe samples every distribution here
    pub pdm_cpu: Rv,
    /// PVM daemon request lengths: CPU lognormal(294, 206), net exp(58).
    pub pvmd: ProcessParams,
    /// PVM daemon request inter-arrival: exponential(6485).
    pub pvmd_interarrival: Rv,
    /// Other user/system processes: CPU lognormal(367, 819), net exp(92).
    pub other: ProcessParams,
    /// Other-process CPU request inter-arrival: exponential(31485).
    pub other_cpu_interarrival: Rv,
    /// Other-process network request inter-arrival: exponential(5598903).
    pub other_net_interarrival: Rv,
    /// Main Paradyn process CPU burst profile as *measured* — Table 1 row
    /// "Main Paradyn process": lognormal(3208, 3287). These bursts include
    /// all main-process threads (Performance Consultant, UI, Data Manager),
    /// so they parameterize the trace generator, not the per-message cost.
    pub main_cpu: Rv,
    /// Main Paradyn process network occupancy per message — Table 1:
    /// mean 214, st.dev 451.
    pub main_net: Rv,
    /// Main-process CPU cost of *receiving one forwarded message*
    /// (`D_Paradyn,CPU` in the operational analysis). Calibrated so host
    /// utilization tracks the paper's Figures 9/18 (~0.5–30% over the node
    /// sweeps rather than saturating).
    // lint:allow(dead-field): simbench's draw_ns probe samples every distribution here
    pub main_cpu_per_msg: Rv,
    /// Capacity of the per-application-process Unix pipe, in samples.
    /// When full, the generating application process blocks (Section
    /// 4.3.3). Default 170 ~ a classic 4 KiB pipe of 24-byte sample
    /// records.
    pub pipe_capacity: usize,
}

impl Default for RoccParams {
    fn default() -> Self {
        RoccParams {
            app: ProcessParams {
                cpu_req: Rv::lognormal_mean_std(2213.0, 3034.0),
                net_req: Rv::exp(223.0),
            },
            pd: ProcessParams {
                cpu_req: Rv::exp(267.0),
                net_req: Rv::exp(71.0),
            },
            pdm_cpu: Rv::exp(100.0),
            pvmd: ProcessParams {
                cpu_req: Rv::lognormal_mean_std(294.0, 206.0),
                net_req: Rv::exp(58.0),
            },
            pvmd_interarrival: Rv::exp(6_485.0),
            other: ProcessParams {
                cpu_req: Rv::lognormal_mean_std(367.0, 819.0),
                net_req: Rv::exp(92.0),
            },
            other_cpu_interarrival: Rv::exp(31_485.0),
            other_net_interarrival: Rv::exp(5_598_903.0),
            main_cpu: Rv::lognormal_mean_std(3_208.0, 3_287.0),
            main_net: Rv::lognormal_mean_std(214.0, 451.0),
            main_cpu_per_msg: Rv::exp(350.0),
            pipe_capacity: 170,
        }
    }
}

impl RoccParams {
    /// Expected Pd CPU demand of forwarding a batch of `k` samples (µs).
    pub fn pd_cpu_batch_mean_us(&self, k: usize) -> f64 {
        assert!(k >= 1);
        self.pd.cpu_req.mean() + PD_CPU_PER_EXTRA_SAMPLE_US * (k as f64 - 1.0)
    }

    /// Expected network occupancy of forwarding a batch of `k` samples (µs).
    pub fn pd_net_batch_mean_us(&self, k: usize) -> f64 {
        assert!(k >= 1);
        self.pd.net_req.mean() + PD_NET_PER_EXTRA_SAMPLE_US * (k as f64 - 1.0)
    }

    /// Expected main-process CPU demand of receiving a batch of `k`
    /// samples (µs).
    pub fn main_cpu_batch_mean_us(&self, k: usize) -> f64 {
        assert!(k >= 1);
        self.main_cpu_per_msg.mean() + MAIN_CPU_PER_EXTRA_SAMPLE_US * (k as f64 - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let p = RoccParams::default();
        assert!((p.app.cpu_req.mean() - 2213.0).abs() < 1e-6);
        assert!((p.app.cpu_req.std_dev() - 3034.0).abs() < 1e-6);
        assert!((p.app.net_req.mean() - 223.0).abs() < 1e-9);
        assert!((p.pd.cpu_req.mean() - 267.0).abs() < 1e-9);
        assert!((p.pd.net_req.mean() - 71.0).abs() < 1e-9);
        assert!((p.pvmd.cpu_req.mean() - 294.0).abs() < 1e-6);
        assert!((p.pvmd_interarrival.mean() - 6485.0).abs() < 1e-9);
        assert!((p.other_net_interarrival.mean() - 5_598_903.0).abs() < 1e-6);
    }

    #[test]
    fn batch_costs_scale_linearly() {
        let p = RoccParams::default();
        assert!((p.pd_cpu_batch_mean_us(1) - 267.0).abs() < 1e-9);
        let b32 = p.pd_cpu_batch_mean_us(32);
        assert!((b32 - (267.0 + 31.0 * 60.0)).abs() < 1e-9);
        // A batch of 32 must be much cheaper than 32 CF forwards — the
        // mechanism behind the paper's >60% overhead reduction.
        assert!(b32 < 0.5 * 32.0 * 267.0);
    }

    #[test]
    fn batching_gain_is_in_measured_band() {
        // Section 5 measured ~60-70% daemon CPU reduction under BF.
        let p = RoccParams::default();
        let per_sample_bf = p.pd_cpu_batch_mean_us(32) / 32.0;
        let reduction = 1.0 - per_sample_bf / p.pd_cpu_batch_mean_us(1);
        assert!(
            (0.55..0.90).contains(&reduction),
            "BF per-sample reduction {reduction}"
        );
    }
}
