//! Shared helpers for the simulation-based experiments: replicated sweeps
//! and 2^k·r factorial designs over [`SimConfig`]s.
//!
//! Every replication's seed is a pure function of `(scale.seed,
//! replication index)`, so the sweeps fan out over
//! [`paradyn_core::run_many`]'s scoped threads while staying bit-identical
//! to a serial execution.

use crate::scale::Scale;
use paradyn_core::{default_threads, replication_seed, run_many, SimConfig, SimMetrics};
use paradyn_stats::Design2kr;

/// The `scale.reps` seed-derived configurations for one base configuration.
fn replica_cfgs(cfg: &SimConfig, scale: &Scale) -> Vec<SimConfig> {
    (0..scale.reps)
        .map(|r| {
            let mut c = cfg.clone();
            c.seed = replication_seed(scale.seed, r);
            c
        })
        .collect()
}

/// Run one configuration `scale.reps` times with derived seeds and return
/// the per-replication metrics (in replication order; runs in parallel).
pub fn replicate(cfg: &SimConfig, scale: &Scale) -> Vec<SimMetrics> {
    run_many(&replica_cfgs(cfg, scale), default_threads())
}

/// Mean of a metric across replications (non-finite values dropped).
pub fn mean_of(runs: &[SimMetrics], f: impl Fn(&SimMetrics) -> f64) -> f64 {
    let vals: Vec<f64> = runs.iter().map(&f).filter(|v| v.is_finite()).collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Outcome of a 2^k·r factorial simulation experiment: one design per
/// response metric, plus the per-configuration mean responses for the
/// paper-style results table.
pub struct FactorialRun {
    /// Design over the overhead response (daemon/IS CPU time per node, s).
    pub overhead: Design2kr,
    /// Design over the latency response (ms per received sample).
    pub latency: Design2kr,
    /// `(config bits, mean overhead, mean latency)` per configuration.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Run a full 2^k factorial over `cfg_of(bits)` configurations.
///
/// `overhead_of` picks the overhead response (the paper uses Pd CPU time
/// per node for NOW/MPP and IS CPU time per node for SMP); latency is the
/// forwarding latency in milliseconds.
pub fn run_factorial(
    factor_names: Vec<&str>,
    cfg_of: impl Fn(usize) -> SimConfig,
    overhead_of: impl Fn(&SimMetrics) -> f64,
    scale: &Scale,
) -> FactorialRun {
    let k = factor_names.len();
    let mut overhead = Design2kr::new(factor_names.clone());
    let mut latency = Design2kr::new(factor_names);
    let mut rows = vec![];
    // Fan the whole (configuration × replication) grid out at once so the
    // sweep keeps every core busy even when `reps` is small.
    let all_cfgs: Vec<SimConfig> = (0..(1usize << k))
        .flat_map(|bits| replica_cfgs(&cfg_of(bits), scale))
        .collect();
    let all_runs = run_many(&all_cfgs, default_threads());
    for (bits, runs) in all_runs.chunks(scale.reps).enumerate() {
        let ov: Vec<f64> = runs.iter().map(&overhead_of).collect();
        let lat: Vec<f64> = runs
            .iter()
            .map(|m| {
                let l = m.fwd_latency_mean_s * 1e3;
                if l.is_finite() {
                    l
                } else {
                    0.0
                }
            })
            .collect();
        rows.push((
            bits,
            ov.iter().sum::<f64>() / ov.len() as f64,
            lat.iter().sum::<f64>() / lat.len() as f64,
        ));
        overhead.set_responses(bits, ov);
        latency.set_responses(bits, lat);
    }
    FactorialRun {
        overhead,
        latency,
        rows,
    }
}

/// Print an allocation-of-variation block (the paper's Figures 16/20/25
/// bars) for a response.
pub fn print_variation(title: &str, design: &Design2kr) {
    let v = design.analyze();
    println!("{title}:");
    for term in v.terms.iter().take(6) {
        if term.pct >= 1.0 {
            println!("  {:<24} {:>6.1}%", design.describe_term(term.mask), term.pct);
        }
    }
    let rest: f64 = v.terms.iter().filter(|t| t.pct < 1.0).map(|t| t.pct).sum();
    println!("  {:<24} {:>6.1}%", "rest", rest + v.sse_pct);
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_core::Arch;

    fn tiny() -> Scale {
        Scale {
            reps: 2,
            sim_s: 1.0,
            sim_big_s: 1.0,
            testbed: std::time::Duration::from_millis(100),
            trace_us: 1e6,
            seed: 1,
        }
    }

    #[test]
    fn replicate_uses_distinct_seeds() {
        let cfg = SimConfig {
            arch: Arch::Now { contention_free: true },
            nodes: 1,
            duration_s: 1.0,
            ..Default::default()
        };
        let runs = replicate(&cfg, &tiny());
        assert_eq!(runs.len(), 2);
        assert_ne!(runs[0].received_samples, runs[1].received_samples);
    }

    #[test]
    fn factorial_runs_all_configs() {
        let scale = tiny();
        let fr = run_factorial(
            vec!["nodes", "period"],
            |bits| SimConfig {
                arch: Arch::Now { contention_free: true },
                nodes: if bits & 1 != 0 { 2 } else { 1 },
                sampling_period_us: if bits & 2 != 0 { 40_000.0 } else { 10_000.0 },
                duration_s: scale.sim_s,
                ..Default::default()
            },
            |m| m.pd_cpu_per_node_s,
            &scale,
        );
        assert_eq!(fr.rows.len(), 4);
        let v = fr.overhead.analyze();
        // Sampling period must explain a dominant share of overhead
        // variation even at tiny scale.
        assert!(v.pct_of("B").unwrap() > 20.0, "{:?}", v.terms);
    }
}
