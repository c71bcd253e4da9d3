//! Simulation configuration: architecture, scheduling policy, forwarding
//! configuration, the experiment factors of Section 4.1, and the
//! fault-injection plan for graceful-degradation studies.

use crate::model::types::MAX_BATCH;
use crate::pipe::OverflowPolicy;
use paradyn_workload::{AppProfile, ReplaySchedule, RoccParams};
use std::sync::Arc;

/// How instrumentation data travels from daemons to the main process on an
/// MPP system (Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forwarding {
    /// Every daemon sends directly to the main Paradyn process.
    Direct,
    /// Daemons forward along a binary tree; non-leaf daemons receive,
    /// merge, and relay their children's messages.
    BinaryTree,
}

/// The three system architectures of the study (Section 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// Network of workstations: one CPU per node. `contention_free = false`
    /// routes all network occupancy through a shared Ethernet (FCFS);
    /// `true` uses a pure-delay network (the assumption of Figures 18–19).
    Now {
        /// Whether the interconnect is modelled contention-free.
        contention_free: bool,
    },
    /// Shared-memory multiprocessor: `nodes` CPUs pooled behind one ready
    /// queue; all message passing crosses a shared bus (FCFS).
    Smp,
    /// Massively parallel processor: one CPU per node, dedicated
    /// contention-free interconnect, selectable forwarding configuration.
    Mpp {
        /// Direct or binary-tree data forwarding.
        forwarding: Forwarding,
    },
}

/// Daemon crash-and-restart fault injection: each daemon fails after an
/// exponentially distributed uptime and comes back after a fixed recovery
/// delay. A crash loses the daemon's buffered (not-yet-collected) samples
/// and any batch whose collection cycle is in flight — which is exactly
/// why BF, holding larger in-daemon batches, loses more samples per crash
/// than CF.
#[derive(Clone, Copy, Debug)]
pub struct DaemonCrashFaults {
    /// Mean time between failures per daemon (µs).
    pub mtbf_us: f64,
    /// Recovery delay after a crash (µs).
    pub recovery_us: f64,
}

impl Default for DaemonCrashFaults {
    fn default() -> Self {
        DaemonCrashFaults {
            mtbf_us: 2_000_000.0,
            recovery_us: 100_000.0,
        }
    }
}

/// Transient forwarding-link failures: each forward attempt fails with
/// `fail_prob` and is retried with exponential backoff
/// (`backoff_base_us · 2^(attempt-1)`) up to `max_retries` times, after
/// which the whole batch is dropped and counted as lost.
#[derive(Clone, Copy, Debug)]
pub struct LinkFaults {
    /// Probability that one forward attempt fails.
    pub fail_prob: f64,
    /// Retries allowed per hop before the batch is dropped.
    pub max_retries: u32,
    /// Backoff before the first retry (µs); doubles per attempt.
    pub backoff_base_us: f64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            fail_prob: 0.05,
            max_retries: 3,
            backoff_base_us: 5_000.0,
        }
    }
}

/// Slow-consumer stalls: the main process's host CPU is periodically
/// occupied by an injected burst of non-Paradyn work (mean inter-stall
/// time `interval_us`, burst length `stall_us`), delaying message
/// consumption and backing the forwarding path up.
#[derive(Clone, Copy, Debug)]
pub struct ConsumerStallFaults {
    /// Mean time between stalls (µs, exponential).
    pub interval_us: f64,
    /// CPU burst injected per stall (µs).
    pub stall_us: f64,
}

impl Default for ConsumerStallFaults {
    fn default() -> Self {
        ConsumerStallFaults {
            interval_us: 500_000.0,
            stall_us: 50_000.0,
        }
    }
}

/// Closed-loop graceful degradation (Section 6: the IS "adapt\[s\] its
/// behavior in order to regulate overheads"). Two coupled mechanisms:
///
/// * **Source throttling** — each application process runs a multiplicative
///   decrease / additive recovery controller on its sampling period. When
///   its pipe occupancy crosses `pipe_hi × capacity` (rising edge) the
///   effective sampling period is multiplied by `md_factor` (bounded by
///   `max_slowdown`); once occupancy has stayed below `pipe_lo × capacity`
///   for `hysteresis_us`, a recovery tick every `recover_period_us`
///   (jittered on a dedicated RNG stream) subtracts `recover_step` from the
///   slowdown until it returns to 1.
/// * **Daemon shedding with backpressure propagation** — each daemon sheds
///   buffered samples from sheddable priority tiers while its fifo length
///   is at or above `daemon_hi` (until it falls back to `daemon_lo`), and
///   on a tree topology propagates the pressure edge to its children so
///   upstream daemons shed *before* downstream pipes overflow.
///
/// Samples carry a priority tier derived from their metric (app) index:
/// `tier = app_index % tiers`, tier 0 highest. Tiers `< keep_tiers` are
/// protected and never shed.
///
/// All controller decisions happen at event boundaries on dedicated RNG
/// streams, so a run with `degradation: None` is bitwise-identical to the
/// pre-degradation model.
#[derive(Clone, Copy, Debug)]
pub struct DegradationConfig {
    /// Number of priority tiers (1..=4); sample tier = app index % tiers.
    pub tiers: usize,
    /// Protected top tiers that are never shed (1..=tiers).
    pub keep_tiers: usize,
    /// Pipe-occupancy high watermark as a fraction of capacity; crossing it
    /// applies multiplicative decrease to the writer's sampling rate.
    pub pipe_hi: f64,
    /// Pipe-occupancy low watermark (fraction of capacity); the pressure
    /// condition clears once occupancy falls below it.
    pub pipe_lo: f64,
    /// Daemon fifo-length high watermark; at or above it the daemon sheds
    /// sheddable tiers and signals pressure down the tree.
    pub daemon_hi: usize,
    /// Daemon fifo-length low watermark; shedding stops below it.
    pub daemon_lo: usize,
    /// Sampling-period multiplier applied on each pressure rising edge.
    pub md_factor: f64,
    /// Upper bound on the accumulated sampling-period multiplier.
    pub max_slowdown: f64,
    /// Additive decrement of the multiplier per recovery tick.
    pub recover_step: f64,
    /// Mean interval between recovery ticks (µs, jittered).
    pub recover_period_us: f64,
    /// How long the pressure condition must stay clear before recovery
    /// ticks start reducing the slowdown (µs).
    pub hysteresis_us: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            tiers: 2,
            keep_tiers: 1,
            pipe_hi: 0.75,
            pipe_lo: 0.25,
            daemon_hi: 64,
            daemon_lo: 16,
            md_factor: 2.0,
            max_slowdown: 8.0,
            recover_step: 0.25,
            recover_period_us: 50_000.0,
            hysteresis_us: 100_000.0,
        }
    }
}

/// A step overload ramp: at `at_s` simulated seconds the offered sampling
/// load of every application process is multiplied by `factor` (the
/// sampling period is divided by it). `factor == 1` is inert. Drives the
/// degradation bench artifact and the chaos scenarios.
#[derive(Clone, Copy, Debug)]
pub struct OverloadRamp {
    /// When the ramp fires (simulated seconds).
    pub at_s: f64,
    /// Offered-load multiplier from `at_s` onward (>= 1).
    pub factor: f64,
}

impl Default for OverloadRamp {
    fn default() -> Self {
        OverloadRamp {
            at_s: 1.0,
            factor: 2.0,
        }
    }
}

/// The complete fault-injection plan of a run. The default plan injects
/// nothing and uses the paper's blocking pipes, so existing configurations
/// behave bit-identically to the fault-free model.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// What a full pipe does with an incoming sample.
    pub overflow: OverflowPolicy,
    /// Daemon crash+restart injection (`None` = daemons never crash).
    pub daemon_crash: Option<DaemonCrashFaults>,
    /// Forwarding-link failure injection (`None` = links never fail).
    pub link: Option<LinkFaults>,
    /// Slow-consumer stall injection (`None` = no stalls).
    pub stall: Option<ConsumerStallFaults>,
}

impl FaultPlan {
    /// Whether the plan injects any fault or lossy policy at all.
    // lint:allow(dead-pub): tests/snapshot_equivalence.rs asserts its fault plan is live
    pub fn is_active(&self) -> bool {
        self.overflow != OverflowPolicy::Block
            || self.daemon_crash.is_some()
            || self.link.is_some()
            || self.stall.is_some()
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// System architecture.
    pub arch: Arch,
    /// Number of nodes (NOW/MPP) or CPUs (SMP).
    pub nodes: usize,
    /// Application processes per node (NOW/MPP) or in total (SMP).
    pub apps_per_node: usize,
    /// Number of Paradyn daemons (SMP only; NOW/MPP have one per node).
    pub pds: usize,
    /// Sampling period in microseconds: the mean of each application
    /// process's exponential inter-sample time (Poisson sampling, the
    /// paper's Table 2 approximation).
    pub sampling_period_us: f64,
    /// Batch size for data forwarding: 1 is the collect-and-forward (CF)
    /// policy, >1 is batch-and-forward (BF).
    pub batch: usize,
    /// Maximum age (µs) a buffered sample may wait before the daemon
    /// force-flushes a partial batch — bounds BF's batch-accumulation
    /// latency. `None` = pure count-based batching (the paper's BF).
    // lint:allow(dead-field): tests/flush_timeout.rs and simbench's mpp_degraded_forked workload
    pub batch_timeout_us: Option<f64>,
    /// The application's resource-demand profile (and optional barriers).
    pub app: AppProfile,
    /// Replay the application bursts from a traced schedule instead of
    /// sampling `app`'s distributions (each process starts at a staggered
    /// offset). The fidelity end of the workload-modelling spectrum — see
    /// [`ReplaySchedule`].
    // lint:allow(dead-field): tests/replay_ablation.rs, the §2.3.2 fit-vs-replay ablation
    pub replay: Option<Arc<ReplaySchedule>>,
    /// ROCC workload parameters.
    pub params: RoccParams,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Master random seed.
    pub seed: u64,
    /// `false` runs the uninstrumented baseline (no sampling, daemons, or
    /// main process) for the "Uninstrumented" reference curves.
    pub instrumented: bool,
    /// Include the PVM daemon and other-process background load.
    // lint:allow(dead-field): tests/simulation_vs_analytic.rs matches the background-free analytic model
    pub background: bool,
    /// Fault-injection plan (default: no faults, blocking pipes).
    pub faults: FaultPlan,
    /// Graceful-degradation controller (`None` = off: no watermarks, no
    /// throttling, no shedding — bitwise-identical to the base model).
    pub degradation: Option<DegradationConfig>,
    /// Step overload ramp (`None` = constant offered load).
    pub overload: Option<OverloadRamp>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            arch: Arch::Now {
                contention_free: false,
            },
            nodes: 8,
            apps_per_node: 1,
            pds: 1,
            sampling_period_us: 40_000.0,
            batch: 1,
            batch_timeout_us: None,
            app: paradyn_workload::pvmbt(),
            replay: None,
            params: RoccParams::default(),
            duration_s: 50.0,
            seed: 0x5EED_CAFE,
            instrumented: true,
            background: true,
            faults: FaultPlan::default(),
            degradation: None,
            overload: None,
        }
    }
}

impl SimConfig {
    /// Total application processes in the system.
    pub fn total_apps(&self) -> usize {
        match self.arch {
            Arch::Smp => self.apps_per_node,
            _ => self.apps_per_node * self.nodes,
        }
    }

    /// Number of daemons in the system.
    pub fn total_pds(&self) -> usize {
        match self.arch {
            Arch::Smp => self.pds,
            _ => self.nodes,
        }
    }

    /// Validate invariants; returns a human-readable complaint if invalid.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("need at least one node".into());
        }
        if self.apps_per_node == 0 {
            return Err("need at least one application process".into());
        }
        if self.batch == 0 {
            return Err("batch size must be >= 1".into());
        }
        if self.batch > MAX_BATCH {
            return Err("batch size unreasonably large (> 4096)".into());
        }
        if self.sampling_period_us <= 0.0 {
            return Err("sampling period must be positive".into());
        }
        if self.duration_s <= 0.0 {
            return Err("duration must be positive".into());
        }
        if self.pds == 0 {
            return Err("need at least one daemon".into());
        }
        if let Arch::Smp = self.arch {
            if self.pds > self.apps_per_node {
                return Err("more daemons than application processes".into());
            }
        } else if self.pds != 1 {
            return Err("NOW/MPP run exactly one daemon per node".into());
        }
        if matches!(self.arch, Arch::Mpp { forwarding: Forwarding::BinaryTree }) && self.nodes < 2
        {
            return Err("tree forwarding needs at least two nodes".into());
        }
        if self.params.pipe_capacity < self.batch && self.batch_timeout_us.is_none() {
            return Err(format!(
                "pipe capacity {} smaller than batch size {} would deadlock BF \
                 (set batch_timeout_us to allow partial flushes)",
                self.params.pipe_capacity, self.batch
            ));
        }
        if let Some(t) = self.batch_timeout_us {
            if t <= 0.0 {
                return Err("batch timeout must be positive".into());
            }
        }
        if let Some(c) = &self.faults.daemon_crash {
            if c.mtbf_us <= 0.0 {
                return Err("daemon-crash MTBF must be positive".into());
            }
            if c.recovery_us <= 0.0 {
                return Err("daemon-crash recovery delay must be positive".into());
            }
        }
        if let Some(l) = &self.faults.link {
            if !(0.0..=1.0).contains(&l.fail_prob) {
                return Err("link failure probability must be in [0, 1]".into());
            }
            if l.max_retries > 64 {
                return Err("link max retries unreasonably large (> 64)".into());
            }
            if l.backoff_base_us <= 0.0 {
                return Err("link retry backoff must be positive".into());
            }
        }
        if let Some(s) = &self.faults.stall {
            if s.interval_us <= 0.0 || s.stall_us <= 0.0 {
                return Err("consumer-stall interval and duration must be positive".into());
            }
        }
        if let Some(d) = &self.degradation {
            if d.tiers == 0 || d.tiers > crate::metrics::MAX_TIERS {
                return Err(format!(
                    "degradation tiers must be in 1..={}",
                    crate::metrics::MAX_TIERS
                ));
            }
            if d.keep_tiers == 0 || d.keep_tiers > d.tiers {
                return Err("degradation keep_tiers must satisfy 1 <= keep <= tiers".into());
            }
            if !(d.pipe_lo > 0.0 && d.pipe_lo < d.pipe_hi && d.pipe_hi <= 1.0) {
                return Err("degradation pipe watermarks must satisfy 0 < lo < hi <= 1".into());
            }
            if d.daemon_lo >= d.daemon_hi {
                return Err("degradation daemon watermarks must satisfy lo < hi".into());
            }
            if d.md_factor <= 1.0 {
                return Err("degradation md_factor must be > 1".into());
            }
            if d.max_slowdown < d.md_factor {
                return Err("degradation max_slowdown must be >= md_factor".into());
            }
            if d.recover_step <= 0.0 {
                return Err("degradation recover_step must be positive".into());
            }
            if d.recover_period_us <= 0.0 || d.hysteresis_us < 0.0 {
                return Err(
                    "degradation recover period must be positive and hysteresis non-negative"
                        .into(),
                );
            }
        }
        if self.total_pds() > (1 << 20) {
            return Err("daemon count exceeds 2^20".into());
        }
        if let Some(o) = &self.overload {
            if o.at_s < 0.0 {
                return Err("overload ramp time must be non-negative".into());
            }
            if o.factor < 1.0 {
                return Err("overload factor must be >= 1".into());
            }
            if o.factor > 64.0 {
                return Err("overload factor unreasonably large (> 64)".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_typical_case() {
        let c = SimConfig::default();
        c.validate().unwrap();
        assert_eq!(c.batch, 1);
        assert_eq!(c.total_apps(), 8);
        assert_eq!(c.total_pds(), 8);
    }

    #[test]
    fn smp_counts() {
        let c = SimConfig {
            arch: Arch::Smp,
            nodes: 16,
            apps_per_node: 32,
            pds: 4,
            ..Default::default()
        };
        c.validate().unwrap();
        assert_eq!(c.total_apps(), 32);
        assert_eq!(c.total_pds(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = SimConfig::default();
        for (msg, cfg) in [
            ("nodes", SimConfig { nodes: 0, ..base.clone() }),
            ("batch", SimConfig { batch: 0, ..base.clone() }),
            (
                "period",
                SimConfig {
                    sampling_period_us: 0.0,
                    ..base.clone()
                },
            ),
            (
                "pds on NOW",
                SimConfig {
                    pds: 2,
                    ..base.clone()
                },
            ),
            (
                "tree with 1 node",
                SimConfig {
                    arch: Arch::Mpp {
                        forwarding: Forwarding::BinaryTree,
                    },
                    nodes: 1,
                    ..base.clone()
                },
            ),
            (
                "pipe < batch",
                SimConfig {
                    batch: 4096,
                    ..base.clone()
                },
            ),
            (
                "negative flush timeout",
                SimConfig {
                    batch_timeout_us: Some(-1.0),
                    ..base.clone()
                },
            ),
        ] {
            assert!(cfg.validate().is_err(), "expected rejection: {msg}");
        }
    }

    #[test]
    fn bf_is_not_cf() {
        let c = SimConfig {
            batch: 32,
            ..Default::default()
        };
        assert_ne!(c.batch, 1);
        c.validate().unwrap();
    }

    #[test]
    fn default_fault_plan_is_inert_and_valid() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert_eq!(plan.overflow, OverflowPolicy::Block);
        let full = SimConfig {
            faults: FaultPlan {
                overflow: OverflowPolicy::DropOldest,
                daemon_crash: Some(DaemonCrashFaults::default()),
                link: Some(LinkFaults::default()),
                stall: Some(ConsumerStallFaults::default()),
            },
            ..Default::default()
        };
        assert!(full.faults.is_active());
        full.validate().unwrap();
    }

    #[test]
    fn invalid_fault_plans_are_rejected() {
        let base = SimConfig::default();
        for (msg, faults) in [
            (
                "zero mtbf",
                FaultPlan {
                    daemon_crash: Some(DaemonCrashFaults {
                        mtbf_us: 0.0,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            ),
            (
                "negative recovery",
                FaultPlan {
                    daemon_crash: Some(DaemonCrashFaults {
                        recovery_us: -1.0,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            ),
            (
                "fail_prob > 1",
                FaultPlan {
                    link: Some(LinkFaults {
                        fail_prob: 1.5,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            ),
            (
                "huge retries",
                FaultPlan {
                    link: Some(LinkFaults {
                        max_retries: 1000,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            ),
            (
                "zero stall",
                FaultPlan {
                    stall: Some(ConsumerStallFaults {
                        stall_us: 0.0,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            ),
        ] {
            let cfg = SimConfig {
                faults,
                ..base.clone()
            };
            assert!(cfg.validate().is_err(), "expected rejection: {msg}");
        }
    }

    #[test]
    fn default_degradation_and_overload_are_valid() {
        let cfg = SimConfig {
            degradation: Some(DegradationConfig::default()),
            overload: Some(OverloadRamp::default()),
            ..Default::default()
        };
        cfg.validate().unwrap();
        // And the off state is the SimConfig default.
        assert!(SimConfig::default().degradation.is_none());
        assert!(SimConfig::default().overload.is_none());
    }

    #[test]
    fn invalid_degradation_configs_are_rejected() {
        let base = SimConfig::default();
        let d = DegradationConfig::default;
        for (msg, deg) in [
            ("zero tiers", DegradationConfig { tiers: 0, ..d() }),
            ("too many tiers", DegradationConfig { tiers: 9, ..d() }),
            (
                "keep > tiers",
                DegradationConfig {
                    tiers: 2,
                    keep_tiers: 3,
                    ..d()
                },
            ),
            ("zero keep", DegradationConfig { keep_tiers: 0, ..d() }),
            (
                "lo >= hi pipe",
                DegradationConfig {
                    pipe_lo: 0.8,
                    pipe_hi: 0.8,
                    ..d()
                },
            ),
            (
                "hi > 1 pipe",
                DegradationConfig { pipe_hi: 1.5, ..d() },
            ),
            (
                "lo >= hi daemon",
                DegradationConfig {
                    daemon_lo: 64,
                    daemon_hi: 64,
                    ..d()
                },
            ),
            ("md <= 1", DegradationConfig { md_factor: 1.0, ..d() }),
            (
                "max < md",
                DegradationConfig {
                    max_slowdown: 1.5,
                    md_factor: 2.0,
                    ..d()
                },
            ),
            (
                "zero recover step",
                DegradationConfig {
                    recover_step: 0.0,
                    ..d()
                },
            ),
            (
                "zero recover period",
                DegradationConfig {
                    recover_period_us: 0.0,
                    ..d()
                },
            ),
        ] {
            let cfg = SimConfig {
                degradation: Some(deg),
                ..base.clone()
            };
            assert!(cfg.validate().is_err(), "expected rejection: {msg}");
        }
        for (msg, ramp) in [
            (
                "negative ramp time",
                OverloadRamp {
                    at_s: -1.0,
                    factor: 2.0,
                },
            ),
            (
                "factor < 1",
                OverloadRamp {
                    at_s: 1.0,
                    factor: 0.5,
                },
            ),
            (
                "huge factor",
                OverloadRamp {
                    at_s: 1.0,
                    factor: 100.0,
                },
            ),
        ] {
            let cfg = SimConfig {
                overload: Some(ramp),
                ..base.clone()
            };
            assert!(cfg.validate().is_err(), "expected rejection: {msg}");
        }
    }
}
