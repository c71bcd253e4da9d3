//! Contracts of the closed-loop graceful-degradation subsystem: inert
//! configurations are bitwise invisible, the extended conservation
//! invariant `emitted == received + lost + shed + in-flight` holds under
//! every fault plan and overflow policy at every thread count on both
//! calendar backends, only sheddable tiers are ever shed, and backpressure
//! actually propagates down the MPP forwarding tree.

use paradyn_core::{
    build_with_calendar, run, run_replicated_threads, Arch, ConsumerStallFaults,
    DaemonCrashFaults, DegradationConfig, FaultPlan, Forwarding, LinkFaults, OverflowPolicy,
    OverloadRamp, SimConfig, SimMetrics,
};
use paradyn_des::{CalendarKind, SimTime};

/// A degradation config with watermarks low enough to engage under the
/// overloaded configurations below.
fn tight_degradation() -> DegradationConfig {
    DegradationConfig {
        tiers: 4,
        keep_tiers: 2,
        pipe_hi: 0.5,
        pipe_lo: 0.25,
        daemon_hi: 6,
        daemon_lo: 2,
        recover_step: 0.5,
        recover_period_us: 20_000.0,
        hysteresis_us: 50_000.0,
    }
}

/// Small pipes, fast sampling, several apps per daemon, and a 4× offered
/// load ramp at 1 s: saturates the collection path so the watermarks fire.
fn overloaded_cfg(batch: usize, overflow: OverflowPolicy) -> SimConfig {
    let mut params = paradyn_workload::RoccParams::default();
    params.pipe_capacity = 8;
    SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        apps_per_node: 4,
        sampling_period_us: 4_000.0,
        batch,
        duration_s: 5.0,
        params,
        faults: FaultPlan {
            overflow,
            ..FaultPlan::default()
        },
        degradation: Some(tight_degradation()),
        overload: Some(OverloadRamp {
            at_s: 1.0,
            factor: 4.0,
        }),
        ..Default::default()
    }
}

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

fn assert_conservation(m: &SimMetrics, ctx: &str) {
    assert_eq!(
        m.emitted_samples,
        m.received_samples + m.samples_lost + m.shed_samples + m.samples_in_flight,
        "{ctx}: emitted={} received={} lost={} shed={} in_flight={}",
        m.emitted_samples,
        m.received_samples,
        m.samples_lost,
        m.shed_samples,
        m.samples_in_flight
    );
    assert_eq!(
        m.shed_samples,
        m.shed_by_tier.iter().sum::<u64>(),
        "{ctx}: tier breakdown"
    );
    assert_eq!(m.rejected_deposits, 0, "{ctx}");
}

fn assert_bitwise_equal(a: &SimMetrics, b: &SimMetrics, ctx: &str) {
    assert_eq!(a.events, b.events, "{ctx}: events");
    assert_eq!(a.emitted_samples, b.emitted_samples, "{ctx}: emitted");
    assert_eq!(a.received_samples, b.received_samples, "{ctx}: received");
    assert_eq!(a.generated_samples, b.generated_samples, "{ctx}: generated");
    assert_eq!(a.samples_lost, b.samples_lost, "{ctx}: lost");
    assert_eq!(a.shed_samples, b.shed_samples, "{ctx}: shed");
    assert_eq!(a.throttle_events, b.throttle_events, "{ctx}: throttle");
    assert_eq!(
        a.backpressure_events, b.backpressure_events,
        "{ctx}: backpressure"
    );
    assert_eq!(
        a.latency_mean_s.to_bits(),
        b.latency_mean_s.to_bits(),
        "{ctx}: latency"
    );
    assert_eq!(
        a.pd_cpu_per_node_s.to_bits(),
        b.pd_cpu_per_node_s.to_bits(),
        "{ctx}: pd cpu"
    );
    assert_eq!(
        a.writer_block_time_s.to_bits(),
        b.writer_block_time_s.to_bits(),
        "{ctx}: block time"
    );
}

/// The degradation machinery actually engages under overload: samples are
/// shed, throttles fire, and only sheddable tiers are ever shed.
#[test]
fn degradation_engages_and_protects_top_tiers() {
    let m = run(&overloaded_cfg(1, OverflowPolicy::Block));
    assert!(m.shed_samples > 0, "no shedding under overload: {m:?}");
    assert!(m.throttle_events > 0, "no throttling under overload");
    let deg = tight_degradation();
    for tier in 0..deg.keep_tiers {
        assert_eq!(
            m.shed_by_tier[tier], 0,
            "protected tier {tier} was shed: {:?}",
            m.shed_by_tier
        );
    }
    assert!(
        (deg.keep_tiers..deg.tiers).any(|t| m.shed_by_tier[t] > 0),
        "sheddable tiers untouched: {:?}",
        m.shed_by_tier
    );
    assert_conservation(&m, "engaged overload run");
}

/// The extended conservation invariant holds with degradation active under
/// every fault class and overflow policy, for CF and BF.
#[test]
fn conservation_with_shed_under_all_faults_and_policies() {
    for overflow in [
        OverflowPolicy::Block,
        OverflowPolicy::DropNewest,
        OverflowPolicy::DropOldest,
    ] {
        for batch in [1usize, 8] {
            let cfg = SimConfig {
                faults: all_faults(overflow),
                ..overloaded_cfg(batch, overflow)
            };
            let m = run(&cfg);
            assert!(m.daemon_crashes > 0, "{overflow:?}: no crashes injected");
            assert_conservation(&m, &format!("{overflow:?} batch={batch}"));
        }
    }
}

/// Conservation and backpressure propagation on the MPP binary tree:
/// pressure edges reach the subtree and shed counters stay conserved.
#[test]
fn backpressure_propagates_on_mpp_tree() {
    let mut cfg = SimConfig {
        arch: Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        },
        nodes: 8,
        batch: 8,
        ..overloaded_cfg(8, OverflowPolicy::Block)
    };
    cfg.faults = all_faults(OverflowPolicy::Block);
    let m = run(&cfg);
    assert_conservation(&m, "mpp tree");
    assert!(
        m.backpressure_events > 0,
        "no pressure edges propagated on the tree"
    );
    assert!(m.shed_samples > 0, "tree daemons never shed");
}

/// Degraded runs are bit-identical across 1, 2, and 8 worker threads.
#[test]
fn degraded_runs_are_thread_count_invariant() {
    let cfg = SimConfig {
        faults: all_faults(OverflowPolicy::DropOldest),
        ..overloaded_cfg(8, OverflowPolicy::DropOldest)
    };
    let serial = run_replicated_threads(&cfg, 5, 0.90, 1);
    for threads in [2usize, 8] {
        let parallel = run_replicated_threads(&cfg, 5, 0.90, threads);
        for (r, (a, b)) in serial.runs.iter().zip(&parallel.runs).enumerate() {
            assert_bitwise_equal(a, b, &format!("rep {r} threads {threads}"));
            assert_conservation(a, &format!("rep {r}"));
        }
    }
}

/// Degraded runs are bit-identical on both calendar backends.
#[test]
fn degraded_runs_match_across_calendar_backends() {
    let cfg = SimConfig {
        faults: all_faults(OverflowPolicy::Block),
        ..overloaded_cfg(1, OverflowPolicy::Block)
    };
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let [wheel, reference] = [CalendarKind::Wheel, CalendarKind::Heap].map(|kind| {
        let mut sim = build_with_calendar(&cfg, kind);
        sim.run_until(horizon);
        let events = sim.executed_events();
        sim.model.metrics(horizon - SimTime::ZERO, events)
    });
    assert_bitwise_equal(&wheel, &reference, "wheel vs reference");
    assert_conservation(&wheel, "wheel");
}

/// An inert overload ramp (factor 1) and an absent degradation config are
/// both bitwise invisible; a degradation config whose watermarks never
/// trip draws nothing and changes nothing either.
#[test]
fn inert_degradation_changes_nothing() {
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: false,
        },
        nodes: 4,
        duration_s: 4.0,
        ..Default::default()
    };
    let plain = run(&base);
    // Ramp with factor 1 schedules no event and divides by nothing.
    let ramp1 = run(&SimConfig {
        overload: Some(OverloadRamp {
            at_s: 1.0,
            factor: 1.0,
        }),
        ..base.clone()
    });
    assert_bitwise_equal(&plain, &ramp1, "factor-1 ramp");
    // Watermarks far above anything a default run reaches (the default
    // 170-slot pipe never fills here): the controller holds no events, no
    // draws, and no state changes.
    let lax = run(&SimConfig {
        degradation: Some(DegradationConfig {
            pipe_hi: 1.0,
            pipe_lo: 0.9,
            daemon_hi: 1_000_000,
            daemon_lo: 10,
            ..DegradationConfig::default()
        }),
        ..base.clone()
    });
    assert_eq!(lax.throttle_events, 0);
    assert_eq!(lax.shed_samples, 0);
    assert_eq!(lax.backpressure_events, 0);
    assert_bitwise_equal(&plain, &lax, "untripped watermarks");
}

/// Throttling recovers: after the ramp is survived with degradation, the
/// system keeps delivering samples (goodput does not collapse to zero) and
/// protected-tier delivery continues.
#[test]
fn degraded_system_keeps_delivering() {
    let m = run(&overloaded_cfg(8, OverflowPolicy::Block));
    assert!(m.received_samples > 0);
    // Shedding must not exceed what was actually emitted by sheddable
    // tiers; with half the tiers sheddable it is strictly less than all
    // emissions.
    assert!(m.shed_samples < m.emitted_samples);
    assert_conservation(&m, "goodput run");
}
