//! Shared helpers for the simulation-based experiments: replicated grids
//! and 2^k·r factorial designs over [`SimConfig`]s.
//!
//! Every replication's seed is a pure function of `(scale.seed,
//! replication index)`. A figure submits all of its configurations ×
//! replications to [`run_grid`] in one call, so [`paradyn_core::run_many`]'s
//! pool balances the whole figure over the CPUs (longest runs first) with
//! one barrier at its end, while the results stay bit-identical to a
//! serial execution.

use crate::scale::Scale;
use paradyn_core::{default_threads, replication_seed, run_many, SimConfig, SimMetrics};
use paradyn_des::fnv1a;
use paradyn_stats::Design2kr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs, executed events and the run digest simulated since the last
/// [`take_sim_totals`].
static RUNS: AtomicU64 = AtomicU64::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static DIGEST: AtomicU64 = AtomicU64::new(0);

/// Add `runs` to the totals that [`take_sim_totals`] reads, folding an
/// FNV-1a hash of each run's full-precision `{:?}` form into the digest in
/// input order. `repro` runs its artifacts one after another, so each
/// artifact's digest is a pure function of its simulated bits.
pub fn count(runs: &[SimMetrics]) {
    RUNS.fetch_add(runs.len() as u64, Ordering::Relaxed);
    EVENTS.fetch_add(runs.iter().map(|m| m.events).sum(), Ordering::Relaxed);
    let digest = runs.iter().fold(DIGEST.load(Ordering::Relaxed), |d, m| {
        let run = fnv1a(format!("{m:?}").as_bytes());
        fnv1a(&[d.to_le_bytes(), run.to_le_bytes()].concat())
    });
    DIGEST.store(digest, Ordering::Relaxed);
}

/// `(runs, executed events, digest)` simulated since the last call, which
/// starts the next count from zero.
pub fn take_sim_totals() -> (u64, u64, u64) {
    (
        RUNS.swap(0, Ordering::Relaxed),
        EVENTS.swap(0, Ordering::Relaxed),
        DIGEST.swap(0, Ordering::Relaxed),
    )
}

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

/// Run every configuration `scale.reps` times with derived seeds, all in
/// one parallel call, and return each configuration's replications (in
/// replication order), in input order.
pub fn run_grid(cfgs: &[SimConfig], scale: &Scale) -> Vec<Vec<SimMetrics>> {
    let all: Vec<SimConfig> = cfgs.iter().flat_map(|c| replica_cfgs(c, scale)).collect();
    let runs = run_many(&all, default_threads());
    count(&runs);
    let mut runs = runs.into_iter();
    cfgs.iter()
        .map(|_| runs.by_ref().take(scale.reps).collect())
        .collect()
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
    let cfgs: Vec<SimConfig> = (0..(1usize << k)).map(cfg_of).collect();
    for (bits, runs) in run_grid(&cfgs, scale).iter().enumerate() {
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
    fn grid_replicates_each_config_with_distinct_seeds() {
        let cfg = SimConfig {
            arch: Arch::Now { contention_free: true },
            nodes: 1,
            duration_s: 1.0,
            ..Default::default()
        };
        let two = SimConfig { nodes: 2, ..cfg.clone() };
        let grid = run_grid(&[cfg, two], &tiny());
        assert_eq!(grid.len(), 2);
        for runs in &grid {
            assert_eq!(runs.len(), 2);
            assert_ne!(runs[0].received_samples, runs[1].received_samples);
        }
        assert_ne!(grid[0][0].received_samples, grid[1][0].received_samples);
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
