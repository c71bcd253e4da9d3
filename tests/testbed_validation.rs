//! Measurement-based validation on the real threaded mini-IS — the
//! Section 5 experiments as tests. Skipped gracefully when the platform
//! lacks fine-grained per-thread CPU accounting.

use paradyn_stats::Design2kr;
use paradyn_testbed::{run, CpuTimeSource, KernelKind, Policy, TestbedConfig};
use std::time::Duration;

fn fine_accounting() -> bool {
    paradyn_testbed::self_check().0 == CpuTimeSource::SchedStat
}

fn cfg(policy: Policy, kernel: KernelKind) -> TestbedConfig {
    TestbedConfig {
        policy,
        kernel,
        sampling_period: Duration::from_millis(2),
        duration: Duration::from_secs(2),
        nodes: 2,
        ..Default::default()
    }
}

#[test]
fn no_samples_are_lost_and_ordering_is_preserved() {
    let m = run(&cfg(Policy::Cf, KernelKind::Bt)).expect("run");
    assert_eq!(m.samples_generated, m.samples_received);
    let m = run(&cfg(Policy::Bf { batch: 16 }, KernelKind::Bt)).expect("run");
    assert_eq!(m.samples_generated, m.samples_received);
}

#[test]
fn bf_reduces_measured_daemon_and_main_cpu() {
    if !fine_accounting() {
        eprintln!("skipping: no schedstat on this kernel");
        return;
    }
    let cf = run(&cfg(Policy::Cf, KernelKind::Bt)).expect("run");
    let bf = run(&cfg(Policy::Bf { batch: 32 }, KernelKind::Bt)).expect("run");
    // The paper's Section 5 band is >60%/~80%; allow measurement noise on
    // short CI runs but demand a decisive reduction.
    let pd_red = 1.0 - bf.pd_cpu.as_secs_f64() / cf.pd_cpu.as_secs_f64();
    let main_red = 1.0 - bf.main_cpu.as_secs_f64() / cf.main_cpu.as_secs_f64();
    assert!(pd_red > 0.35, "daemon reduction only {:.0}%", pd_red * 100.0);
    assert!(main_red > 0.35, "main reduction only {:.0}%", main_red * 100.0);
}

#[test]
fn reduction_is_application_independent() {
    // Table 8's finding: the policy, not the program, explains the
    // normalized-overhead variation.
    if !fine_accounting() {
        eprintln!("skipping: no schedstat on this kernel");
        return;
    }
    let mut d = Design2kr::new(vec!["policy", "application"]);
    for (bits, policy, kernel) in [
        (0b00, Policy::Cf, KernelKind::Bt),
        (0b01, Policy::Bf { batch: 32 }, KernelKind::Bt),
        (0b10, Policy::Cf, KernelKind::Is),
        (0b11, Policy::Bf { batch: 32 }, KernelKind::Is),
    ] {
        let m = run(&cfg(policy, kernel)).expect("run");
        d.set_responses(bits, vec![m.pd_normalized()]);
    }
    let v = d.analyze();
    let policy_pct = v.pct_of("A").expect("term");
    let app_pct = v.pct_of("B").expect("term");
    assert!(
        policy_pct > app_pct,
        "policy {policy_pct}% should dominate application {app_pct}%"
    );
    assert!(policy_pct > 50.0, "policy explains only {policy_pct}%");
}

#[test]
fn forward_op_counts_match_policy_arithmetic() {
    let cf = run(&cfg(Policy::Cf, KernelKind::Is)).expect("run");
    assert_eq!(cf.forward_ops, cf.samples_generated);
    let bf = run(&cfg(Policy::Bf { batch: 8 }, KernelKind::Is)).expect("run");
    // Each of the two daemons batches its own stream: per-daemon
    // ceil(g_i/8), so systemwide ops lie in [ceil(total/8), ceil(total/8)+nodes].
    let floor = bf.samples_generated.div_ceil(8);
    assert!(
        (floor..=floor + 2).contains(&bf.forward_ops),
        "ops {} outside [{floor}, {}] for {} samples",
        bf.forward_ops,
        floor + 2,
        bf.samples_generated
    );
    // Batched arrivals reach the collector in few reads. (Not compared
    // against CF: under heavy machine load the CF collector can also batch
    // reads while descheduled, so only BF's own bound is load-independent.)
    assert!(
        bf.collector_reads <= bf.samples_received / 2 + 2,
        "reads {} for {} samples",
        bf.collector_reads,
        bf.samples_received
    );
}

#[test]
fn latency_includes_batch_accumulation() {
    let cf = run(&cfg(Policy::Cf, KernelKind::Bt)).expect("run");
    let bf = run(&cfg(Policy::Bf { batch: 32 }, KernelKind::Bt)).expect("run");
    // With a 2 ms sampling period, a 32-batch takes ~64 ms to fill; the
    // mean sample waits (32 − 1)/2 · 2 ms = 31 ms before it is forwarded.
    // Load only adds to that wait, so the floor holds on a busy host. CF
    // latency is sub-millisecond on an idle host but is not bounded here:
    // with three CF/BF pairs running at once on two CPUs it read 8–18 ms
    // (BF 31–33 ms).
    assert!(bf.latency_mean > Duration::from_millis(20), "{:?}", bf.latency_mean);
    assert!(
        bf.latency_mean > cf.latency_mean,
        "BF {:?} vs CF {:?}",
        bf.latency_mean,
        cf.latency_mean
    );
}

#[test]
fn both_kernels_make_progress_under_instrumentation() {
    for kernel in [KernelKind::Bt, KernelKind::Is] {
        let m = run(&cfg(Policy::Cf, kernel)).expect("run");
        assert!(m.kernel_steps > 10, "{kernel:?} steps {}", m.kernel_steps);
        assert!(m.app_cpu > Duration::from_millis(200));
    }
}
