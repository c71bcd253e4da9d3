//! Experiment execution: single runs and replicated runs with confidence
//! intervals (the paper derives means "within 90% confidence intervals from
//! a sample of fifty values", Section 4.1).
//!
//! Replications are embarrassingly parallel: each draws its seed from its
//! own [`paradyn_des::Streams`] stream (one stream id per replication
//! index), so a replication's randomness is a pure function of
//! `(master seed, index)` and never of execution order. [`run_many`] and
//! [`run_forked`] share one work pool: items are claimed longest-first by
//! [`predicted_events`] from an atomic counter, the calling thread works
//! alongside `threads - 1` scoped threads, and each result is stored at
//! its input index. Which thread runs what changes from run to run; the
//! results are **bit-identical** to the serial path at any thread count,
//! which `tests/` asserts.

use crate::config::{Arch, SimConfig};
use crate::metrics::SimMetrics;
use crate::model::snapshot::warm_snapshot;
use crate::model::{build, RoccModel};
use paradyn_des::{CalendarKind, Sim, SimTime, SnapError, Streams};
use paradyn_stats::{mean_ci, MeanCi};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Run one simulation to its configured horizon.
///
/// # Panics
/// Panics on an invalid configuration.
pub fn run(cfg: &SimConfig) -> SimMetrics {
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut sim = build(cfg);
    sim.run_until(horizon);
    let events = sim.executed_events();
    sim.model.metrics(horizon - SimTime::ZERO, events)
}

/// Metrics of a replicated experiment: per-replication values plus the
/// derived confidence intervals for the headline quantities.
#[derive(Clone, Debug)]
pub struct Replicated {
    /// Per-replication metrics, in seed order.
    pub runs: Vec<SimMetrics>,
    /// CI for the daemon CPU time per node (s).
    pub pd_cpu_per_node_s: MeanCi,
    /// CI for the daemon CPU utilization per node.
    pub pd_cpu_util_per_node: MeanCi,
    /// CI for the main-process CPU utilization.
    pub main_cpu_util: MeanCi,
    /// CI for the IS CPU utilization per node.
    pub is_cpu_util_per_node: MeanCi,
    /// CI for the application CPU utilization per node.
    pub app_cpu_util_per_node: MeanCi,
    /// CI for mean monitoring latency (s); replications with no received
    /// samples are excluded.
    pub latency_s: MeanCi,
    /// CI for received-sample throughput (per s).
    pub throughput_per_s: MeanCi,
    /// CI for samples lost to faults/lossy pipes per replication.
    pub samples_lost: MeanCi,
    /// CI for total daemon downtime per replication (s).
    pub daemon_downtime_s: MeanCi,
}

/// Seed of replication `rep` under master seed `master`: the first output
/// of the replication's own derived stream. A replication's randomness is
/// a pure function of `(master, rep)`, independent of which thread runs it.
pub fn replication_seed(master: u64, rep: usize) -> u64 {
    Streams::new(master).stream(rep as u64).next_u64()
}

/// Worker-thread count: `PARADYN_THREADS` if set, else the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    std::env::var("PARADYN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Events a run of `cfg` is expected to execute: the offered event rates
/// of its sources times the simulated duration (the operational laws'
/// arrival rates, before any queueing). The sources are the sampling
/// timers (apps / period), the forwards (samples / batch), each
/// application's compute/communicate loop (two events per mean cycle) and
/// the three background sources per node. Only the order it puts runs in
/// matters: the pool starts the longest runs first.
pub fn predicted_events(cfg: &SimConfig) -> f64 {
    let apps = cfg.total_apps() as f64;
    let cycle_us = cfg.app.cpu_req.mean() + cfg.app.net_req.mean();
    let mut per_us = 2.0 * apps / cycle_us;
    if cfg.instrumented {
        let samples = apps / cfg.sampling_period_us;
        per_us += samples + samples / cfg.batch as f64;
    }
    if cfg.background {
        let p = &cfg.params;
        // An SMP runs one set of background sources, like one node.
        let nodes = match cfg.arch {
            Arch::Smp => 1.0,
            _ => cfg.nodes as f64,
        };
        per_us += nodes
            * (1.0 / p.pvmd_interarrival.mean()
                + 1.0 / p.other_cpu_interarrival.mean()
                + 1.0 / p.other_net_interarrival.mean());
    }
    per_us * cfg.duration_s * 1e6
}

/// Run `work(i)` for every `i < costs.len()` on `threads` workers, the
/// calling thread among them, and return the results in index order.
/// Workers claim indices from one atomic counter in descending `costs`
/// order (ties in index order), so the longest items start first and no
/// worker idles while another holds a queue of work; each result is
/// stored at its own index, so the output never depends on which worker
/// ran what.
fn pool<R: Send + Sync>(costs: &[f64], threads: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
    let slots: Vec<OnceLock<R>> = costs.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&i) = order.get(k) else { break };
        let _ = slots[i].set(work(i));
    };
    std::thread::scope(|s| {
        for _ in 1..threads.clamp(1, costs.len().max(1)) {
            s.spawn(worker);
        }
        worker();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index is claimed once"))
        .collect()
}

/// Run many independent configurations on `threads` workers (the caller
/// and `threads - 1` scoped threads), longest predicted run first,
/// returning metrics in input order. Each run's outcome depends only on
/// its own configuration, so the output is bit-identical to running the
/// slice serially, at any thread count.
pub fn run_many(cfgs: &[SimConfig], threads: usize) -> Vec<SimMetrics> {
    let costs: Vec<f64> = cfgs.iter().map(predicted_events).collect();
    pool(&costs, threads, |i| run(&cfgs[i]))
}

/// Run `reps` forked replications of `cfg`: warm one simulation to
/// `warmup_s`, snapshot it, then restore the snapshot once per replication
/// and perturb each copy's random streams with
/// [`replication_seed`]`(cfg.seed, rep)` before continuing to the horizon.
///
/// The warmup transient is simulated **once** instead of once per
/// replication; each fork's metrics are bit-identical to
/// [`run_perturbed_from_zero`] with the same warmup and replication index,
/// at any `threads` value (asserted by `tests/snapshot_equivalence.rs`).
///
/// # Panics
/// Panics on an invalid configuration.
// lint:allow(dead-pub): simbench checks its forked workload with it; snapshot_equivalence
pub fn run_forked(
    cfg: &SimConfig,
    warmup_s: f64,
    reps: usize,
    threads: usize,
) -> Result<Vec<SimMetrics>, SnapError> {
    let kind = CalendarKind::Wheel;
    let snap = warm_snapshot(cfg, SimTime::from_secs_f64(warmup_s), kind)?;
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let work = |rep: usize| -> Result<SimMetrics, SnapError> {
        let mut sim = Sim::restore(RoccModel::new(cfg.clone()), kind, &snap)?;
        sim.model.perturb_streams(replication_seed(cfg.seed, rep));
        sim.run_until(horizon);
        let events = sim.executed_events();
        Ok(sim.model.metrics(horizon - SimTime::ZERO, events))
    };
    // Every fork runs the same configuration: equal costs, claimed in
    // replication order.
    pool(&vec![0.0; reps], threads, work).into_iter().collect()
}

/// Reference oracle for [`run_forked`]: build `cfg` from zero, run to the
/// warmup point, apply the same stream perturbation as replication `rep` of
/// the forked path, and continue to the horizon — no snapshot involved.
///
/// # Panics
/// Panics on an invalid configuration.
// lint:allow(dead-pub): the from-zero oracle of tests/snapshot_equivalence.rs
pub fn run_perturbed_from_zero(cfg: &SimConfig, warmup_s: f64, rep: usize) -> SimMetrics {
    let mut sim = build(cfg);
    sim.run_until(SimTime::from_secs_f64(warmup_s));
    sim.model.perturb_streams(replication_seed(cfg.seed, rep));
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    sim.run_until(horizon);
    let events = sim.executed_events();
    sim.model.metrics(horizon - SimTime::ZERO, events)
}

/// Run `reps` replications with distinct seeds derived from `cfg.seed`,
/// reporting means at the given confidence (the paper uses 0.90).
/// Replications run in parallel on [`default_threads`] threads; use
/// [`run_replicated_threads`] to pin the thread count.
pub fn run_replicated(cfg: &SimConfig, reps: usize, confidence: f64) -> Replicated {
    run_replicated_threads(cfg, reps, confidence, default_threads())
}

/// [`run_replicated`] with an explicit thread count (`1` = serial path).
/// The metrics are bit-identical for every `threads` value.
pub fn run_replicated_threads(
    cfg: &SimConfig,
    reps: usize,
    confidence: f64,
    threads: usize,
) -> Replicated {
    assert!(reps >= 1);
    let cfgs: Vec<SimConfig> = (0..reps)
        .map(|r| {
            let mut c = cfg.clone();
            c.seed = replication_seed(cfg.seed, r);
            c
        })
        .collect();
    let runs = run_many(&cfgs, threads);
    let col = |f: &dyn Fn(&SimMetrics) -> f64| -> Vec<f64> {
        runs.iter().map(f).filter(|v| v.is_finite()).collect()
    };
    let ci = |xs: Vec<f64>| {
        if xs.is_empty() {
            MeanCi {
                mean: f64::NAN,
                half_width: f64::NAN,
            }
        } else {
            mean_ci(&xs, confidence)
        }
    };
    Replicated {
        pd_cpu_per_node_s: ci(col(&|m| m.pd_cpu_per_node_s)),
        pd_cpu_util_per_node: ci(col(&|m| m.pd_cpu_util_per_node)),
        main_cpu_util: ci(col(&|m| m.main_cpu_util)),
        is_cpu_util_per_node: ci(col(&|m| m.is_cpu_util_per_node)),
        app_cpu_util_per_node: ci(col(&|m| m.app_cpu_util_per_node)),
        latency_s: ci(col(&|m| m.latency_mean_s)),
        throughput_per_s: ci(col(&|m| m.throughput_per_s)),
        samples_lost: ci(col(&|m| m.samples_lost as f64)),
        daemon_downtime_s: ci(col(&|m| m.daemon_downtime_s)),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Arch, SimConfig};

    fn quick_cfg() -> SimConfig {
        SimConfig {
            arch: Arch::Now {
                contention_free: true,
            },
            nodes: 2,
            duration_s: 5.0,
            ..Default::default()
        }
    }

    #[test]
    fn single_run_produces_activity() {
        let m = run(&quick_cfg());
        assert!(m.events > 1000, "events={}", m.events);
        assert!(m.generated_samples > 0);
        assert!(m.received_samples > 0);
        assert!(m.received_samples <= m.generated_samples);
        assert!(m.pd_cpu_util_per_node > 0.0);
        assert!(m.app_cpu_util_per_node > 0.5);
        assert!(m.latency_mean_s > 0.0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(&quick_cfg());
        let b = run(&quick_cfg());
        assert_eq!(a.events, b.events);
        assert_eq!(a.received_samples, b.received_samples);
        assert_eq!(a.latency_mean_s, b.latency_mean_s);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&quick_cfg());
        let b = run(&SimConfig {
            seed: 999,
            ..quick_cfg()
        });
        assert_ne!(a.received_samples, b.received_samples);
    }

    #[test]
    fn replication_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|r| replication_seed(42, r)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        assert_eq!(replication_seed(42, 7), seeds[7]);
    }

    #[test]
    fn replication_gives_tighter_answer_than_one_run() {
        let r = run_replicated(&quick_cfg(), 5, 0.90);
        assert_eq!(r.runs.len(), 5);
        assert!(r.pd_cpu_util_per_node.mean > 0.0);
        assert!(r.pd_cpu_util_per_node.half_width >= 0.0);
        // The CI half width should be small relative to the mean for this
        // well-behaved metric.
        let ci = r.app_cpu_util_per_node;
        assert!(ci.half_width < 0.2 * ci.mean.abs(), "{ci:?}");
    }
}
