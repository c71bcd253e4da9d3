//! End-of-run metrics, matching the paper's global- and local-level metric
//! set (Section 2.1): direct IS overhead (daemon/main CPU time and
//! utilization), monitoring latency, data-forwarding throughput, and
//! application CPU utilization.

use crate::config::Arch;
use crate::model::types::class_idx;
use crate::model::RoccModel;
use paradyn_des::{SimDur, SimTime};
use paradyn_workload::ProcessClass;

/// Seconds in an exact nanosecond total, rounded once.
fn secs(ns: u128) -> f64 {
    ns as f64 / 1e9
}

/// Maximum number of priority tiers the degradation controller supports
/// (fixed so per-tier counters are plain arrays with a stable snapshot
/// layout).
pub const MAX_TIERS: usize = 4;

/// Aggregated results of one simulation run.
#[derive(Clone, Debug)]
pub struct SimMetrics {
    /// Simulated duration (s).
    pub duration_s: f64,
    /// Node count (SMP: CPU count).
    pub nodes: usize,
    /// Total CPU time by process class (s), summed over all CPUs
    /// (indexable via [`SimMetrics::cpu_time_s`]).
    cpu_time_by_class_s: [f64; 5],
    /// Paradyn daemon CPU time per node (s) — the paper's "direct
    /// overhead" (includes tree-merge work).
    pub pd_cpu_per_node_s: f64,
    /// Paradyn daemon CPU utilization per node (fraction).
    pub pd_cpu_util_per_node: f64,
    /// Main Paradyn process CPU utilization (fraction of its host CPU;
    /// SMP: of the pool).
    pub main_cpu_util: f64,
    /// IS (daemons + main) CPU utilization per node (fraction) — the
    /// paper's SMP metric.
    pub is_cpu_util_per_node: f64,
    /// Application CPU utilization per node (fraction).
    pub app_cpu_util_per_node: f64,
    /// Mean monitoring latency per received sample (s), generation to
    /// receipt, *including* batch-accumulation time; `NaN` when nothing was
    /// received.
    pub latency_mean_s: f64,
    /// Mean forwarding latency per received message (s), batch-ready to
    /// receipt — the paper's effective NOW/SMP latency metric.
    pub fwd_latency_mean_s: f64,
    /// Samples received by the main process.
    pub received_samples: u64,
    /// Messages received by the main process.
    pub received_msgs: u64,
    /// Samples deposited into pipes.
    pub generated_samples: u64,
    /// Received samples per second (the throughput metric).
    pub throughput_per_s: f64,
    /// Network utilization (shared medium: busy fraction; contention-free:
    /// mean per-node link occupancy).
    // lint:allow(dead-field): tests/determinism.rs compares it across thread counts
    pub net_util: f64,
    /// Deposits that blocked on a full pipe.
    pub blocked_deposits: u64,
    /// Barrier release operations.
    pub barrier_ops: u64,
    /// Batches forwarded by daemons.
    pub forwarded_batches: u64,
    /// Samples forwarded by daemons.
    pub forwarded_samples: u64,
    /// Sample-emission attempts, including ones lost before entering a
    /// pipe. Conservation: `emitted == received + lost + in-flight`.
    pub emitted_samples: u64,
    /// Samples lost to all causes combined.
    pub samples_lost: u64,
    /// Samples dropped by a lossy pipe overflow policy.
    pub lost_overflow: u64,
    /// Sample emissions lost because the writer was blocked in an earlier
    /// write.
    pub lost_while_blocked: u64,
    /// Samples lost to daemon crashes (pipe backlog + in-flight batches).
    pub lost_daemon_crash: u64,
    /// Samples lost to exhausted forwarding-link retries.
    pub lost_link: u64,
    /// Samples deliberately shed by the degradation controller (buffered
    /// low-priority samples discarded under backpressure). Not part of
    /// `samples_lost`: conservation is
    /// `emitted == received + lost + shed + in-flight`.
    pub shed_samples: u64,
    /// Shed samples broken down by priority tier (tier 0 highest; unused
    /// tiers stay zero).
    pub shed_by_tier: [u64; MAX_TIERS],
    /// Pressure rising edges seen by application throttle controllers
    /// (multiplicative-decrease applications).
    pub throttle_events: u64,
    /// Backpressure edges propagated down the forwarding tree.
    pub backpressure_events: u64,
    /// Samples still in flight at the horizon (parked, buffered, or in an
    /// unconsumed batch).
    pub samples_in_flight: u64,
    /// Deposits rejected because the writer was already blocked (always 0
    /// unless the model regresses; see `Deposit::AlreadyBlocked`).
    pub rejected_deposits: u64,
    /// Total time application writers spent blocked on full pipes (s),
    /// including blocks still open at the horizon.
    pub writer_block_time_s: f64,
    /// Injected daemon crashes.
    pub daemon_crashes: u64,
    /// Total daemon downtime (s), including outages still open at the
    /// horizon.
    pub daemon_downtime_s: f64,
    /// Forward retries caused by injected link failures.
    pub forward_retries: u64,
    /// CPU time injected by consumer-stall faults (s).
    // lint:allow(dead-field): tests/fault_injection.rs checks stalls inject CPU time
    pub consumer_stall_time_s: f64,
    /// Events executed by the simulator.
    pub events: u64,
}

impl SimMetrics {
    /// Total CPU time of one class across all CPUs (s).
    pub fn cpu_time_s(&self, class: ProcessClass) -> f64 {
        self.cpu_time_by_class_s[class_idx(class)]
    }

    /// Build from a finished model.
    pub(crate) fn from_model(m: &RoccModel, horizon: SimDur, events: u64) -> SimMetrics {
        let dur = horizon.as_secs_f64();
        let acc = &m.acc;
        let nodes = m.cfg.nodes;
        let n = nodes as f64;
        let cpu = acc.cpu_busy_ns.map(|ns| secs(ns.into()));
        let pd = cpu[class_idx(ProcessClass::ParadynDaemon)];
        let main = cpu[class_idx(ProcessClass::MainParadyn)];
        let app = cpu[class_idx(ProcessClass::Application)];
        let (main_util, pd_divisor) = match m.cfg.arch {
            // SMP: everything shares the pool of `nodes` CPUs (eq. 7–8).
            Arch::Smp => (main / (n * dur), n),
            // NOW/MPP: the main process lives on node 0's CPU; the daemon
            // overhead is averaged per node.
            _ => (main / dur, n),
        };
        let net_total = secs(acc.net_busy_ns.iter().map(|&ns| u128::from(ns)).sum());
        let net_util = if m.shared_net.is_some() {
            net_total / dur
        } else {
            net_total / (n * dur)
        };
        let received = acc.received_samples;
        // Runs start at time zero, so the horizon is also the end instant.
        // Writer blocks and daemon outages still open there count up to it.
        let end = SimTime::ZERO + horizon;
        let open_block_ns: u64 = m
            .apps
            .iter()
            .filter_map(|a| a.blocked_since)
            .map(|since| (end - since).as_nanos())
            .sum();
        let open_down_ns: u64 = m
            .daemons
            .iter()
            .filter_map(|d| d.down_since)
            .map(|since| (end - since).as_nanos())
            .sum();
        let lost_overflow = m.total_overflow_lost();
        let samples_lost =
            lost_overflow + acc.lost_blocked + acc.lost_crash + acc.lost_link;
        SimMetrics {
            duration_s: dur,
            nodes,
            cpu_time_by_class_s: cpu,
            pd_cpu_per_node_s: pd / pd_divisor,
            pd_cpu_util_per_node: pd / (pd_divisor * dur),
            main_cpu_util: main_util,
            is_cpu_util_per_node: (pd + main) / (n * dur),
            app_cpu_util_per_node: app / (n * dur),
            latency_mean_s: if received > 0 {
                secs(acc.latency_sum_ns) / received as f64
            } else {
                f64::NAN
            },
            fwd_latency_mean_s: if acc.received_msgs > 0 {
                secs(acc.fwd_latency_sum_ns) / acc.received_msgs as f64
            } else {
                f64::NAN
            },
            received_samples: received,
            received_msgs: acc.received_msgs,
            generated_samples: acc.generated_samples,
            throughput_per_s: if dur > 0.0 {
                received as f64 / dur
            } else {
                0.0
            },
            net_util,
            blocked_deposits: m.total_blocked_deposits(),
            barrier_ops: acc.barrier_ops,
            forwarded_batches: acc.forwarded_batches,
            forwarded_samples: acc.forwarded_samples,
            emitted_samples: acc.emitted_samples,
            samples_lost,
            lost_overflow,
            lost_while_blocked: acc.lost_blocked,
            lost_daemon_crash: acc.lost_crash,
            lost_link: acc.lost_link,
            shed_samples: acc.shed_by_tier.iter().sum(),
            shed_by_tier: acc.shed_by_tier,
            throttle_events: acc.throttle_events,
            backpressure_events: acc.backpressure_events,
            samples_in_flight: m.samples_unbatched() + acc.in_batches,
            rejected_deposits: m.total_rejected_deposits(),
            writer_block_time_s: secs((acc.writer_block_ns + open_block_ns).into()),
            daemon_crashes: acc.crashes,
            daemon_downtime_s: secs((acc.downtime_ns + open_down_ns).into()),
            forward_retries: acc.retries,
            consumer_stall_time_s: secs(acc.stall_injected_ns.into()),
            events,
        }
    }
}
