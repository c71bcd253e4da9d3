//! Synthetic AIX-style trace generation — the substitute for the paper's
//! IBM SP-2 tracing of the NAS `pvmbt` benchmark.
//!
//! Records are drawn from ground-truth distributions (the paper's Table 2)
//! and laid out on a timeline per process class:
//!
//! * the application process alternates CPU and network bursts (the closed
//!   two-state model of Figure 7);
//! * the Paradyn daemon's requests arrive with the sampling inter-arrival,
//!   each producing a CPU record followed by a network record;
//! * the PVM daemon and "other" processes are open Poisson sources;
//! * the main Paradyn process (on the host node) receives one message per
//!   daemon forward.
//!
//! Because the characterization pipeline consumes only occupancy lengths
//! and inter-arrival times, re-fitting these traces recovers the published
//! parameters — which is exactly what the round-trip tests assert.

use crate::params::RoccParams;
use crate::trace::{ProcessClass, Resource, Trace, TraceRecord};
use paradyn_stats::Rng;

/// Configuration of a synthetic tracing run (one traced node with one
/// application process, as in the paper's Figure 29 setup; the host node's
/// main-Paradyn-process records are included).
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Trace duration in microseconds.
    pub duration_us: f64,
    /// Mean sampling inter-arrival per application process (µs);
    /// Table 2 typical: 40 000.
    pub sampling_period_us: f64,
    /// Ground-truth parameters.
    pub params: RoccParams,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            duration_us: 100.0e6,
            sampling_period_us: 40_000.0,
            params: RoccParams::default(),
        }
    }
}

/// Generate a synthetic trace.
pub fn synthesize<R: Rng>(cfg: &SynthConfig, rng: &mut R) -> Trace {
    let p = &cfg.params;
    let mut trace = Trace::new();

    // The application process: closed alternation of CPU and network
    // bursts.
    let mut t = 0.0;
    while t < cfg.duration_us {
        let cpu = p.app.cpu_req.sample(rng);
        trace.push(TraceRecord {
            t_us: t,
            pid: 0,
            class: ProcessClass::Application,
            resource: Resource::Cpu,
            occupancy_us: cpu,
        });
        t += cpu;
        if t >= cfg.duration_us {
            break;
        }
        let net = p.app.net_req.sample(rng);
        trace.push(TraceRecord {
            t_us: t,
            pid: 0,
            class: ProcessClass::Application,
            resource: Resource::Network,
            occupancy_us: net,
        });
        t += net;
    }

    // Paradyn daemon: one collect-and-forward cycle per sample.
    let mut t = exp_draw(rng, cfg.sampling_period_us);
    while t < cfg.duration_us {
        let cpu = p.pd.cpu_req.sample(rng);
        trace.push(TraceRecord {
            t_us: t,
            pid: 0,
            class: ProcessClass::ParadynDaemon,
            resource: Resource::Cpu,
            occupancy_us: cpu,
        });
        let net = p.pd.net_req.sample(rng);
        trace.push(TraceRecord {
            t_us: t + cpu,
            pid: 0,
            class: ProcessClass::ParadynDaemon,
            resource: Resource::Network,
            occupancy_us: net,
        });
        // A received sample costs the main process CPU on the host node.
        trace.push(TraceRecord {
            t_us: t + cpu + net,
            pid: 0,
            class: ProcessClass::MainParadyn,
            resource: Resource::Cpu,
            occupancy_us: p.main_cpu.sample(rng),
        });
        trace.push(TraceRecord {
            t_us: t + cpu + net,
            pid: 0,
            class: ProcessClass::MainParadyn,
            resource: Resource::Network,
            occupancy_us: p.main_net.sample(rng),
        });
        t += exp_draw(rng, cfg.sampling_period_us);
    }

    // PVM daemon: Poisson arrivals; each arrival occupies CPU then network.
    let mut t = exp_draw(rng, p.pvmd_interarrival.mean());
    while t < cfg.duration_us {
        let cpu = p.pvmd.cpu_req.sample(rng);
        trace.push(TraceRecord {
            t_us: t,
            pid: 0,
            class: ProcessClass::PvmDaemon,
            resource: Resource::Cpu,
            occupancy_us: cpu,
        });
        trace.push(TraceRecord {
            t_us: t + cpu,
            pid: 0,
            class: ProcessClass::PvmDaemon,
            resource: Resource::Network,
            occupancy_us: p.pvmd.net_req.sample(rng),
        });
        t += p.pvmd_interarrival.sample(rng);
    }

    // Other user/system processes: independent open CPU and network sources.
    let mut t = exp_draw(rng, p.other_cpu_interarrival.mean());
    while t < cfg.duration_us {
        trace.push(TraceRecord {
            t_us: t,
            pid: 0,
            class: ProcessClass::Other,
            resource: Resource::Cpu,
            occupancy_us: p.other.cpu_req.sample(rng),
        });
        t += p.other_cpu_interarrival.sample(rng);
    }
    let mut t = exp_draw(rng, p.other_net_interarrival.mean());
    while t < cfg.duration_us {
        trace.push(TraceRecord {
            t_us: t,
            pid: 0,
            class: ProcessClass::Other,
            resource: Resource::Network,
            occupancy_us: p.other.net_req.sample(rng),
        });
        t += p.other_net_interarrival.sample(rng);
    }

    trace.sort();
    trace
}

fn exp_draw<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    paradyn_stats::Rv::exp(mean).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_stats::{Summary, SplitMix64};

    fn small_trace(seed: u64) -> Trace {
        let cfg = SynthConfig {
            duration_us: 20.0e6,
            ..Default::default()
        };
        synthesize(&cfg, &mut SplitMix64(seed))
    }

    #[test]
    fn records_sorted_and_within_duration() {
        let t = small_trace(1);
        assert!(!t.is_empty());
        let mut last = 0.0;
        for r in t.records() {
            assert!(r.t_us >= last);
            assert!(r.t_us < 20.0e6);
            assert!(r.occupancy_us >= 0.0);
            last = r.t_us;
        }
    }

    #[test]
    fn all_classes_present() {
        let t = small_trace(2);
        for class in ProcessClass::ALL {
            let any = t.records().iter().any(|r| r.class == class);
            assert!(any, "missing class {class:?}");
        }
    }

    #[test]
    fn app_cpu_stats_match_ground_truth() {
        let t = small_trace(3);
        let cpu = t.occupancies(ProcessClass::Application, Resource::Cpu);
        let s = Summary::of(&cpu);
        assert!((s.mean - 2213.0).abs() / 2213.0 < 0.10, "mean {}", s.mean);
        assert!((s.std_dev - 3034.0).abs() / 3034.0 < 0.25, "std {}", s.std_dev);
    }

    #[test]
    fn pd_arrival_rate_tracks_sampling_period() {
        let t = small_trace(4);
        let n = t.occupancies(ProcessClass::ParadynDaemon, Resource::Cpu).len();
        // 20s at 40ms sampling -> ~500 samples.
        assert!((400..620).contains(&n), "n={n}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_trace(7);
        let b = small_trace(7);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records()[10], b.records()[10]);
    }
}
