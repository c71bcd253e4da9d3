//! Contracts of the fault-injection and graceful-degradation layer: fault
//! schedules are deterministic and thread-count invariant, sample
//! conservation holds under every overflow policy with every fault class
//! active, and the model reproduces the expected robustness asymmetries
//! (BF loses more per crash than CF, blocking pipes trade loss for
//! writer-block time).

use paradyn_core::{
    run, run_replicated_threads, Arch, ConsumerStallFaults, DaemonCrashFaults, FaultPlan,
    Forwarding, LinkFaults, OverflowPolicy, SimConfig, SimMetrics,
};

fn all_faults(overflow: OverflowPolicy) -> FaultPlan {
    FaultPlan {
        overflow,
        daemon_crash: Some(DaemonCrashFaults {
            mtbf_us: 800_000.0,
            recovery_us: 200_000.0,
        }),
        link: Some(LinkFaults {
            fail_prob: 0.10,
            max_retries: 3,
            backoff_base_us: 5_000.0,
        }),
        stall: Some(ConsumerStallFaults {
            interval_us: 300_000.0,
            stall_us: 20_000.0,
        }),
    }
}

fn faulty_cfg(batch: usize, overflow: OverflowPolicy) -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        batch,
        duration_s: 5.0,
        faults: all_faults(overflow),
        ..Default::default()
    }
}

fn assert_bitwise_equal(a: &SimMetrics, b: &SimMetrics) {
    assert_eq!(a.events, b.events);
    assert_eq!(a.emitted_samples, b.emitted_samples);
    assert_eq!(a.received_samples, b.received_samples);
    assert_eq!(a.samples_lost, b.samples_lost);
    assert_eq!(a.lost_overflow, b.lost_overflow);
    assert_eq!(a.lost_daemon_crash, b.lost_daemon_crash);
    assert_eq!(a.lost_link, b.lost_link);
    assert_eq!(a.daemon_crashes, b.daemon_crashes);
    assert_eq!(a.forward_retries, b.forward_retries);
    assert_eq!(a.daemon_downtime_s.to_bits(), b.daemon_downtime_s.to_bits());
    assert_eq!(
        a.writer_block_time_s.to_bits(),
        b.writer_block_time_s.to_bits()
    );
    assert_eq!(a.latency_mean_s.to_bits(), b.latency_mean_s.to_bits());
    assert_eq!(
        a.consumer_stall_time_s.to_bits(),
        b.consumer_stall_time_s.to_bits()
    );
}

/// The replicated fault sweep is bit-identical at 1, 2, and 8 worker
/// threads — the fault event streams are a pure function of the seed.
#[test]
fn fault_sweep_is_thread_count_invariant() {
    let cfg = faulty_cfg(16, OverflowPolicy::Block);
    let serial = run_replicated_threads(&cfg, 6, 0.90, 1);
    for threads in [2, 8] {
        let parallel = run_replicated_threads(&cfg, 6, 0.90, threads);
        for (a, b) in serial.runs.iter().zip(&parallel.runs) {
            assert_bitwise_equal(a, b);
        }
        assert_eq!(
            serial.samples_lost.mean.to_bits(),
            parallel.samples_lost.mean.to_bits()
        );
        assert_eq!(
            serial.daemon_downtime_s.mean.to_bits(),
            parallel.daemon_downtime_s.mean.to_bits()
        );
    }
}

/// Sample conservation under every overflow policy with every fault class
/// active: every emission is received, lost (to a counted cause), or still
/// in flight at the horizon.
#[test]
fn conservation_holds_under_all_faults_and_policies() {
    for overflow in [
        OverflowPolicy::Block,
        OverflowPolicy::DropNewest,
        OverflowPolicy::DropOldest,
    ] {
        for batch in [1usize, 32] {
            let m = run(&faulty_cfg(batch, overflow));
            assert!(m.daemon_crashes > 0, "{overflow:?}: no crashes injected");
            assert_eq!(
                m.emitted_samples,
                m.received_samples + m.samples_lost + m.samples_in_flight,
                "{overflow:?} batch={batch}: emitted={} received={} lost={} in_flight={}",
                m.emitted_samples,
                m.received_samples,
                m.samples_lost,
                m.samples_in_flight
            );
            assert_eq!(
                m.samples_lost,
                m.lost_overflow + m.lost_while_blocked + m.lost_daemon_crash + m.lost_link
            );
            assert_eq!(m.rejected_deposits, 0);
        }
    }
}

/// Conservation also holds on the MPP merge tree, where link faults apply
/// per hop.
#[test]
fn conservation_holds_on_mpp_tree_under_faults() {
    let m = run(&SimConfig {
        arch: Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        },
        nodes: 8,
        batch: 8,
        duration_s: 5.0,
        faults: all_faults(OverflowPolicy::Block),
        ..Default::default()
    });
    assert!(m.daemon_crashes > 0);
    assert_eq!(
        m.emitted_samples,
        m.received_samples + m.samples_lost + m.samples_in_flight
    );
}

/// BF loses more samples per crash than CF under an identical crash
/// schedule (common random numbers): the in-daemon batch dies with the
/// daemon.
#[test]
fn bf_loses_more_per_crash_than_cf() {
    let plan = FaultPlan {
        daemon_crash: Some(DaemonCrashFaults::default()),
        ..FaultPlan::default()
    };
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        duration_s: 10.0,
        faults: plan,
        ..Default::default()
    };
    let cf = run(&base);
    let bf = run(&SimConfig {
        batch: 32,
        ..base.clone()
    });
    // Common random numbers: the crash schedule is drawn from its own
    // stream, so both policies see the same crashes.
    assert_eq!(cf.daemon_crashes, bf.daemon_crashes);
    assert!(cf.daemon_crashes > 0);
    let per_crash = |m: &SimMetrics| m.lost_daemon_crash as f64 / m.daemon_crashes as f64;
    assert!(
        per_crash(&bf) > per_crash(&cf),
        "bf={} cf={}",
        per_crash(&bf),
        per_crash(&cf)
    );
}

/// Injecting faults never perturbs the existing stochastic elements: a
/// fault-free plan produces bitwise the same run as the pre-fault model.
#[test]
fn inert_fault_plan_changes_nothing() {
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: false,
        },
        nodes: 4,
        duration_s: 4.0,
        ..Default::default()
    };
    let a = run(&base);
    let b = run(&SimConfig {
        faults: FaultPlan::default(),
        ..base.clone()
    });
    assert_bitwise_equal(&a, &b);
    assert_eq!(a.daemon_crashes, 0);
    assert_eq!(a.samples_lost, 0);
    assert_eq!(a.consumer_stall_time_s, 0.0);
}

/// A lossy pipe never blocks the writer; a blocking pipe under long
/// outages accumulates writer-block time instead of overflow loss.
#[test]
fn overflow_policy_trades_blocking_for_loss() {
    // Long outages relative to the pipe: recovery generates more samples
    // than the pipe holds.
    let crash = DaemonCrashFaults {
        mtbf_us: 2_000_000.0,
        recovery_us: 1_500_000.0,
    };
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 2,
        sampling_period_us: 5_000.0,
        duration_s: 10.0,
        ..Default::default()
    };
    let block = run(&SimConfig {
        faults: FaultPlan {
            overflow: OverflowPolicy::Block,
            daemon_crash: Some(crash),
            ..FaultPlan::default()
        },
        ..base.clone()
    });
    let lossy = run(&SimConfig {
        faults: FaultPlan {
            overflow: OverflowPolicy::DropNewest,
            daemon_crash: Some(crash),
            ..FaultPlan::default()
        },
        ..base.clone()
    });
    assert!(
        block.writer_block_time_s > 0.0,
        "blocking pipe never blocked (block_time=0)"
    );
    assert_eq!(block.lost_overflow, 0);
    assert_eq!(lossy.writer_block_time_s, 0.0);
    assert_eq!(lossy.blocked_deposits, 0);
    assert!(lossy.lost_overflow > 0, "lossy pipe never dropped");
}

/// Certain link failure with bounded retries drops every batch: nothing is
/// delivered, everything emitted is lost or in flight, and retries were
/// actually attempted.
#[test]
fn certain_link_failure_loses_everything() {
    let m = run(&SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 2,
        duration_s: 4.0,
        faults: FaultPlan {
            link: Some(LinkFaults {
                fail_prob: 1.0,
                max_retries: 2,
                backoff_base_us: 1_000.0,
            }),
            ..FaultPlan::default()
        },
        ..Default::default()
    });
    assert_eq!(m.received_samples, 0);
    assert!(m.lost_link > 0);
    assert!(m.forward_retries > 0);
    assert_eq!(
        m.emitted_samples,
        m.samples_lost + m.samples_in_flight
    );
}

/// Crash/downtime/recovery metrics are populated and mutually consistent.
#[test]
fn downtime_and_recovery_metrics_are_consistent() {
    let m = run(&faulty_cfg(8, OverflowPolicy::Block));
    assert!(m.daemon_crashes > 0);
    assert!(m.daemon_downtime_s > 0.0);
    assert!(m.forward_retries > 0);
    assert!(m.consumer_stall_time_s > 0.0);
    // Downtime cannot exceed (crashes × recovery delay) + one open outage.
    assert!(m.daemon_downtime_s <= 0.2 * (m.daemon_crashes + 4) as f64);
}
