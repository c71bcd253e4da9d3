//! Trace-replay workload: drive the simulated application processes with
//! the *actual* burst sequence from a trace instead of fitted
//! distributions.
//!
//! The paper's methodology fits theoretical distributions to the traced
//! occupancy lengths (Section 2.3.2) — practical, but it discards burst
//! ordering and autocorrelation. Replay is the fidelity end of that
//! spectrum: the characterization pipeline's input trace can be played
//! back verbatim, which makes "distribution fit vs. raw trace" a testable
//! ablation of the paper's workload-modelling choice.

use crate::trace::{ProcessClass, Resource, Trace};

/// A replayable schedule of application bursts (µs), cycled when the
/// simulation outlives the trace.
#[derive(Clone, Debug)]
pub struct ReplaySchedule {
    cpu_us: Vec<f64>,
    net_us: Vec<f64>,
}

impl ReplaySchedule {
    /// Build from explicit burst lists.
    ///
    /// # Panics
    /// Panics if either list is empty or contains a non-finite/negative
    /// burst.
    pub fn new(cpu_us: Vec<f64>, net_us: Vec<f64>) -> Self {
        assert!(
            !cpu_us.is_empty() && !net_us.is_empty(),
            "replay schedule needs at least one burst of each kind"
        );
        for &b in cpu_us.iter().chain(&net_us) {
            assert!(b.is_finite() && b >= 0.0, "invalid burst {b}");
        }
        ReplaySchedule { cpu_us, net_us }
    }

    /// Extract the application process's burst sequences from a trace.
    ///
    /// # Panics
    /// Panics if the trace has no application occupancy records.
    // lint:allow(dead-pub): tests/replay_ablation.rs replays a synthesized trace
    pub fn from_trace(trace: &Trace) -> Self {
        ReplaySchedule::new(
            trace.occupancies(ProcessClass::Application, Resource::Cpu),
            trace.occupancies(ProcessClass::Application, Resource::Network),
        )
    }

    /// CPU burst at (cycled) position `i`.
    #[inline]
    pub fn cpu_at(&self, i: u64) -> f64 {
        self.cpu_us[(i % self.cpu_us.len() as u64) as usize]
    }

    /// Network burst at (cycled) position `i`.
    #[inline]
    pub fn net_at(&self, i: u64) -> f64 {
        self.net_us[(i % self.net_us.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthConfig};
    use paradyn_stats::SplitMix64;

    #[test]
    fn cycles_past_the_end() {
        let r = ReplaySchedule::new(vec![10.0, 20.0, 30.0], vec![1.0]);
        assert_eq!(r.cpu_at(0), 10.0);
        assert_eq!(r.cpu_at(2), 30.0);
        assert_eq!(r.cpu_at(3), 10.0);
        assert_eq!(r.cpu_at(301), 20.0);
        assert_eq!(r.net_at(99), 1.0);
    }

    #[test]
    fn from_trace_matches_table2_means() {
        let t = synthesize(
            &SynthConfig {
                duration_us: 20.0e6,
                ..Default::default()
            },
            &mut SplitMix64(3),
        );
        let r = ReplaySchedule::from_trace(&t);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let (cpu, net) = (mean(&r.cpu_us), mean(&r.net_us));
        assert!(r.cpu_us.len() > 1_000);
        assert!((cpu - 2213.0).abs() / 2213.0 < 0.15, "{cpu}");
        assert!((net - 223.0).abs() / 223.0 < 0.15, "{net}");
    }

    #[test]
    #[should_panic(expected = "at least one burst")]
    fn empty_schedule_rejected() {
        ReplaySchedule::new(vec![], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid burst")]
    fn nan_burst_rejected() {
        ReplaySchedule::new(vec![f64::NAN], vec![1.0]);
    }
}
