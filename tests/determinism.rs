//! Reproducibility contracts: identical seeds give bit-identical results
//! on every architecture, and the common-random-numbers discipline keeps
//! configuration changes from perturbing unrelated stochastic elements.

use paradyn_core::{
    build_with_calendar, run, run_replicated_threads, shardable, Arch, DegradationConfig,
    Forwarding, OverloadRamp, SimConfig, SimMetrics,
};
use paradyn_des::{rewind_bisect, CalendarKind, SimTime};

fn all_arch_configs() -> Vec<SimConfig> {
    vec![
        SimConfig {
            arch: Arch::Now {
                contention_free: false,
            },
            nodes: 4,
            duration_s: 3.0,
            ..Default::default()
        },
        SimConfig {
            arch: Arch::Now {
                contention_free: true,
            },
            nodes: 4,
            duration_s: 3.0,
            ..Default::default()
        },
        SimConfig {
            arch: Arch::Smp,
            nodes: 8,
            apps_per_node: 16,
            pds: 2,
            batch: 8,
            duration_s: 3.0,
            ..Default::default()
        },
        SimConfig {
            arch: Arch::Mpp {
                forwarding: Forwarding::BinaryTree,
            },
            nodes: 16,
            batch: 16,
            duration_s: 3.0,
            ..Default::default()
        },
    ]
}

/// Bitwise equality over the full metric set (NaN-safe: two NaNs with the
/// same bit pattern compare equal, which is exactly what "bit-identical"
/// means here).
fn assert_metrics_bit_identical(a: &SimMetrics, b: &SimMetrics, ctx: &str) {
    assert_eq!(a.events, b.events, "{ctx}: events");
    assert_eq!(a.received_samples, b.received_samples, "{ctx}: received");
    assert_eq!(a.received_msgs, b.received_msgs, "{ctx}: msgs");
    assert_eq!(a.generated_samples, b.generated_samples, "{ctx}: generated");
    assert_eq!(a.forwarded_batches, b.forwarded_batches, "{ctx}: batches");
    assert_eq!(a.forwarded_samples, b.forwarded_samples, "{ctx}: fwd samples");
    assert_eq!(a.blocked_deposits, b.blocked_deposits, "{ctx}: blocked");
    assert_eq!(a.barrier_ops, b.barrier_ops, "{ctx}: barriers");
    for (name, fa, fb) in [
        ("pd_cpu_per_node_s", a.pd_cpu_per_node_s, b.pd_cpu_per_node_s),
        ("pd_cpu_util", a.pd_cpu_util_per_node, b.pd_cpu_util_per_node),
        ("main_cpu_util", a.main_cpu_util, b.main_cpu_util),
        ("is_cpu_util", a.is_cpu_util_per_node, b.is_cpu_util_per_node),
        ("app_cpu_util", a.app_cpu_util_per_node, b.app_cpu_util_per_node),
        ("latency_mean_s", a.latency_mean_s, b.latency_mean_s),
        ("fwd_latency_mean_s", a.fwd_latency_mean_s, b.fwd_latency_mean_s),
        ("throughput_per_s", a.throughput_per_s, b.throughput_per_s),
        ("net_util", a.net_util, b.net_util),
        ("mean_daemon_batch", a.mean_daemon_batch, b.mean_daemon_batch),
    ] {
        assert_eq!(fa.to_bits(), fb.to_bits(), "{ctx}: {name} {fa} vs {fb}");
    }
}

#[test]
fn parallel_replication_is_bit_identical_to_serial() {
    // The tentpole contract: run_replicated over scoped threads must give
    // exactly the serial answer at every thread count.
    for cfg in [
        SimConfig {
            arch: Arch::Now {
                contention_free: true,
            },
            nodes: 2,
            duration_s: 2.0,
            ..Default::default()
        },
        SimConfig {
            arch: Arch::Mpp {
                forwarding: Forwarding::BinaryTree,
            },
            nodes: 8,
            batch: 16,
            duration_s: 2.0,
            ..Default::default()
        },
    ] {
        let reps = 6;
        let serial = run_replicated_threads(&cfg, reps, 0.90, 1);
        for threads in [2usize, 8] {
            let parallel = run_replicated_threads(&cfg, reps, 0.90, threads);
            assert_eq!(serial.runs.len(), parallel.runs.len());
            for (r, (a, b)) in serial.runs.iter().zip(&parallel.runs).enumerate() {
                assert_metrics_bit_identical(
                    a,
                    b,
                    &format!("{:?} rep {r} threads {threads}", cfg.arch),
                );
            }
            for (name, a, b) in [
                ("pd_cpu_per_node_s", &serial.pd_cpu_per_node_s, &parallel.pd_cpu_per_node_s),
                ("latency_s", &serial.latency_s, &parallel.latency_s),
                ("throughput_per_s", &serial.throughput_per_s, &parallel.throughput_per_s),
            ] {
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{name} mean");
                assert_eq!(
                    a.half_width.to_bits(),
                    b.half_width.to_bits(),
                    "{name} half width"
                );
            }
        }
    }
}

/// Same-time ties fire in `(time, seq)` order, so the sequence numbering
/// is part of every trace: `build_with_calendar` must number events per
/// node on exactly the `shardable` configurations and with one global
/// counter everywhere else, on both calendar backends.
#[test]
fn cell_numbering_is_on_exactly_for_shardable_configs() {
    let mut cfgs = all_arch_configs();
    let tree = cfgs[3].clone();
    cfgs.push(SimConfig {
        arch: Arch::Mpp {
            forwarding: Forwarding::Direct,
        },
        nodes: 9,
        ..tree.clone()
    });
    cfgs.push(SimConfig {
        degradation: Some(DegradationConfig::default()),
        ..tree.clone()
    });
    cfgs.push(SimConfig {
        overload: Some(OverloadRamp::default()),
        ..tree.clone()
    });
    let mut barrier = tree;
    barrier.app.barrier_period_us = Some(1_000_000.0);
    cfgs.push(barrier);
    let shardable_count = cfgs.iter().filter(|c| shardable(c)).count();
    assert_eq!(shardable_count, 3, "fixture covers both sides of `shardable`");
    for cfg in &cfgs {
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sim = build_with_calendar(cfg, kind);
            let want = if shardable(cfg) { cfg.nodes as u32 } else { 1 };
            assert_eq!(sim.ctx().cells(), want, "{:?} on {kind:?}", cfg.arch);
        }
    }
}

/// On a determinism failure, rerun the offending configuration through
/// `rewind_bisect` and render the first divergent `(time, event)` pair —
/// turning a bare "metrics differ" assertion into an actionable report.
fn divergence_report(cfg: &SimConfig) -> String {
    let kind = CalendarKind::Wheel;
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    match rewind_bisect(
        || build_with_calendar(cfg, kind),
        || build_with_calendar(cfg, kind),
        horizon,
    ) {
        Ok(None) => {
            "rewind_bisect: re-runs are state-identical (divergence not reproducible?)".to_string()
        }
        Ok(Some(d)) => format!("rewind_bisect: {d}"),
        Err(e) => format!("rewind_bisect failed: {e}"),
    }
}

#[test]
fn identical_seeds_are_bit_identical() {
    for cfg in all_arch_configs() {
        let a = run(&cfg);
        let b = run(&cfg);
        let same = a.events == b.events
            && a.received_samples == b.received_samples
            && a.generated_samples == b.generated_samples
            && (a.latency_mean_s.to_bits() == b.latency_mean_s.to_bits())
            && a.pd_cpu_per_node_s.to_bits() == b.pd_cpu_per_node_s.to_bits();
        assert!(
            same,
            "{:?}: identical seeds produced different metrics:\n  a={a:?}\n  b={b:?}\n  {}",
            cfg.arch,
            divergence_report(&cfg)
        );
    }
}

#[test]
fn different_seeds_change_outcomes() {
    for cfg in all_arch_configs() {
        let a = run(&cfg);
        let b = run(&SimConfig {
            seed: cfg.seed ^ 0xDEAD_BEEF,
            ..cfg.clone()
        });
        assert_ne!(
            (a.events, a.received_samples),
            (b.events, b.received_samples),
            "{:?} insensitive to seed",
            cfg.arch
        );
    }
}

#[test]
fn policy_change_reuses_application_randomness() {
    // Common random numbers: switching CF -> BF must not change the
    // application's own compute workload draw (same streams), so total
    // generated samples stay within a tight band even though forwarding
    // behaviour differs.
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        duration_s: 5.0,
        ..Default::default()
    };
    let cf = run(&base);
    let bf = run(&SimConfig {
        batch: 32,
        ..base
    });
    let rel = (cf.generated_samples as f64 - bf.generated_samples as f64).abs()
        / cf.generated_samples as f64;
    assert!(rel < 0.02, "CRN violated: generated drift {rel}");
    assert_eq!(
        cf.barrier_ops, bf.barrier_ops,
        "application-side behaviour must be unchanged"
    );
}

/// Thread-count invariance with the degradation controller actively
/// throttling and shedding: the controller's RNG streams and event
/// scheduling must be as replication-safe as the base model's.
#[test]
fn throttled_runs_are_thread_count_invariant() {
    let mut params = paradyn_workload::RoccParams::default();
    params.pipe_capacity = 8;
    let cfg = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        apps_per_node: 4,
        sampling_period_us: 4_000.0,
        duration_s: 2.0,
        params,
        degradation: Some(DegradationConfig {
            pipe_hi: 0.5,
            pipe_lo: 0.25,
            daemon_hi: 6,
            daemon_lo: 2,
            tiers: 4,
            keep_tiers: 2,
            ..Default::default()
        }),
        overload: Some(OverloadRamp {
            at_s: 0.5,
            factor: 4.0,
        }),
        ..Default::default()
    };
    let probe = run(&cfg);
    assert!(
        probe.throttle_events > 0 && probe.shed_samples > 0,
        "controller never engaged: {probe:?}"
    );
    let serial = run_replicated_threads(&cfg, 6, 0.90, 1);
    for threads in [2usize, 8] {
        let parallel = run_replicated_threads(&cfg, 6, 0.90, threads);
        for (r, (a, b)) in serial.runs.iter().zip(&parallel.runs).enumerate() {
            assert_metrics_bit_identical(a, b, &format!("degraded rep {r} threads {threads}"));
            assert_eq!(a.shed_samples, b.shed_samples, "rep {r}: shed");
            assert_eq!(a.throttle_events, b.throttle_events, "rep {r}: throttle");
        }
    }
}

#[test]
fn metrics_are_internally_consistent() {
    for cfg in all_arch_configs() {
        let m = run(&cfg);
        // Conservation: received <= forwarded <= generated.
        assert!(m.received_samples <= m.forwarded_samples);
        assert!(m.forwarded_samples <= m.generated_samples);
        // Utilizations are physical.
        for u in [
            m.pd_cpu_util_per_node,
            m.main_cpu_util,
            m.app_cpu_util_per_node,
            m.is_cpu_util_per_node,
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "{u} out of range ({:?})", cfg.arch);
        }
        // Throughput consistent with counters.
        let tput = m.received_samples as f64 / m.duration_s;
        assert!((tput - m.throughput_per_s).abs() < 1e-9);
    }
}
