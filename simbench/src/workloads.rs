//! The three benchmark workloads and their input generator.
//!
//! Every workload is a closed batch: a fixed amount of simulation that the
//! benchmark runs again and again for the measured time. The workload seed
//! is the only input; [`Workload::plan`] turns it into the configurations
//! the simulator receives, and is a pure function of it.

use paradyn_core::{
    replication_seed, Arch, ConsumerStallFaults, DaemonCrashFaults, DegradationConfig, FaultPlan,
    Forwarding, LinkFaults, OverflowPolicy, OverloadRamp, SimConfig,
};
use paradyn_des::SimTime;
use paradyn_workload::{comm_intensive, compute_intensive, RoccParams};

/// Replications per cell of the NOW 2^4 design.
const NOW_REPS: usize = 2;
/// Simulated seconds of each NOW factorial run.
const NOW_SIM_S: f64 = 4.0;

/// Nodes of the large binary-tree MPP.
const TREE_NODES: usize = 1023;
/// Simulated seconds of the large-tree run.
const TREE_SIM_S: f64 = 4.0;

/// Nodes of the degraded binary-tree MPP.
const DEG_NODES: usize = 255;
/// Simulated warm-up shared by every fork (s).
const DEG_WARMUP_S: f64 = 0.5;
/// Simulated horizon of every fork, warm-up included (s).
const DEG_SIM_S: f64 = 1.5;
/// Forked replicas per batch.
const DEG_FORKS: usize = 8;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 4 NOW 2^4·r design, every run from zero on the
    /// replication driver.
    NowFactorial,
    /// One serial run of a 1023-node binary-tree BF(32) MPP.
    MppTree1023,
    /// A 255-node tree under faults, shedding and an overload ramp,
    /// warmed once and forked.
    MppDegradedForked,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::NowFactorial,
        Workload::MppTree1023,
        Workload::MppDegradedForked,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. The large tree
    /// is left out: a single memory-heavy serial run, it swings about twice
    /// as much as the others with the host's speed (see `README.md`), too
    /// much to hold to a bound. It still runs by name, for its ledger.
    #[cfg_attr(not(test), allow(dead_code))]
    pub const BENCHMARKED: [Workload; 2] = [Workload::NowFactorial, Workload::MppDegradedForked];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NowFactorial => "now_factorial",
            Workload::MppTree1023 => "mpp_tree_1023",
            Workload::MppDegradedForked => "mpp_degraded_forked",
        }
    }

    /// Look a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the workload's inputs from `seed`.
    pub fn plan(self, seed: u64) -> Plan {
        match self {
            Workload::NowFactorial => Plan {
                cfgs: (0..16 * NOW_REPS)
                    .map(|i| now_cell(i / NOW_REPS, replication_seed(seed, i)))
                    .collect(),
                fork: None,
            },
            Workload::MppTree1023 => Plan {
                cfgs: vec![SimConfig {
                    arch: Arch::Mpp {
                        forwarding: Forwarding::BinaryTree,
                    },
                    nodes: TREE_NODES,
                    batch: 32,
                    duration_s: TREE_SIM_S,
                    seed: replication_seed(seed, 0),
                    ..Default::default()
                }],
                fork: None,
            },
            Workload::MppDegradedForked => {
                let cfg = degraded(replication_seed(seed, 0));
                let salts = (0..DEG_FORKS)
                    .map(|r| replication_seed(cfg.seed, r))
                    .collect();
                Plan {
                    cfgs: vec![cfg],
                    fork: Some(ForkPlan {
                        warmup_s: DEG_WARMUP_S,
                        salts,
                    }),
                }
            }
        }
    }
}

/// The configurations one batch of a workload simulates.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Configurations run from zero; a forked workload has exactly one,
    /// the configuration its replicas are forked from.
    pub cfgs: Vec<SimConfig>,
    /// Present for a forked workload.
    pub fork: Option<ForkPlan>,
}

/// How a forked workload replicates its one configuration.
#[derive(Clone, Debug)]
pub struct ForkPlan {
    /// Simulated warm-up to the shared snapshot (s).
    pub warmup_s: f64,
    /// One stream perturbation per replica, as `run_forked` derives them.
    pub salts: Vec<u64>,
}

impl ForkPlan {
    /// The warm-up point as simulated time.
    pub fn warmup(&self) -> SimTime {
        SimTime::from_secs_f64(self.warmup_s)
    }
}

impl Plan {
    /// Runs one batch simulates.
    pub fn runs(&self) -> usize {
        self.fork
            .as_ref()
            .map_or(self.cfgs.len(), |f| f.salts.len())
    }
}

/// Cell `bits` of the NOW 2^4 design (Table 4): nodes {5, 50} × sampling
/// period {2, 32 ms} × batch {1, 128} × application {compute, comm}, on
/// shared Ethernet.
fn now_cell(bits: usize, seed: u64) -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: false,
        },
        nodes: if bits & 1 != 0 { 50 } else { 5 },
        sampling_period_us: if bits & 2 != 0 { 32_000.0 } else { 2_000.0 },
        batch: if bits & 4 != 0 { 128 } else { 1 },
        app: if bits & 8 != 0 {
            comm_intensive()
        } else {
            compute_intensive()
        },
        duration_s: NOW_SIM_S,
        seed,
        ..Default::default()
    }
}

/// The degraded tree: small `DropOldest` pipes, partial-batch flushes,
/// daemon crashes, link failures with retries, consumer stalls, the
/// degradation controller, and a 4x overload ramp after the warm-up.
fn degraded(seed: u64) -> SimConfig {
    SimConfig {
        arch: Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        },
        nodes: DEG_NODES,
        apps_per_node: 3,
        batch: 8,
        batch_timeout_us: Some(5_000.0),
        sampling_period_us: 1_000.0,
        duration_s: DEG_SIM_S,
        seed,
        params: RoccParams {
            pipe_capacity: 8,
            ..Default::default()
        },
        faults: FaultPlan {
            overflow: OverflowPolicy::DropOldest,
            daemon_crash: Some(DaemonCrashFaults {
                mtbf_us: 400_000.0,
                recovery_us: 20_000.0,
            }),
            link: Some(LinkFaults {
                fail_prob: 0.05,
                max_retries: 3,
                backoff_base_us: 2_000.0,
            }),
            stall: Some(ConsumerStallFaults {
                interval_us: 50_000.0,
                stall_us: 10_000.0,
            }),
        },
        degradation: Some(DegradationConfig {
            tiers: 4,
            keep_tiers: 2,
            pipe_hi: 0.5,
            pipe_lo: 0.2,
            daemon_hi: 8,
            daemon_lo: 2,
            recover_period_us: 5_000.0,
            hysteresis_us: 10_000.0,
            ..Default::default()
        }),
        overload: Some(OverloadRamp {
            at_s: DEG_WARMUP_S + 0.25 * (DEG_SIM_S - DEG_WARMUP_S),
            factor: 4.0,
        }),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(p: &Plan) -> String {
        format!("{p:?}")
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(fingerprint(&w.plan(7)), fingerprint(&w.plan(7)), "{w:?}");
            assert_ne!(fingerprint(&w.plan(7)), fingerprint(&w.plan(8)), "{w:?}");
        }
    }

    #[test]
    fn every_generated_config_is_valid() {
        for w in Workload::ALL {
            let plan = w.plan(1);
            assert!(plan.runs() >= 1);
            for cfg in &plan.cfgs {
                cfg.validate().unwrap_or_else(|e| panic!("{w:?}: {e}"));
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
