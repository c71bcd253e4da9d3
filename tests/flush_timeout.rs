//! Tests for the batch flush timeout (`SimConfig::batch_timeout_us`): a
//! daemon force-flushes a partial batch once its oldest sample is that old.

use paradyn_core::{run, Arch, SimConfig};

fn base(duration_s: f64) -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        duration_s,
        ..Default::default()
    }
}

#[test]
fn flush_timeout_bounds_bf_latency() {
    // Pure BF(32) at 40 ms sampling takes ~1.3 s to fill a batch; a 100 ms
    // flush timeout must cap the full (accumulation-inclusive) latency.
    let pure = run(&SimConfig {
        batch: 32,
        ..base(20.0)
    });
    let bounded = run(&SimConfig {
        batch: 32,
        batch_timeout_us: Some(100_000.0),
        ..base(20.0)
    });
    assert!(
        pure.latency_mean_s > 0.3,
        "pure BF latency {}",
        pure.latency_mean_s
    );
    assert!(
        bounded.latency_mean_s < 0.15,
        "bounded latency {}",
        bounded.latency_mean_s
    );
    // The timeout costs some batching efficiency but must still beat CF.
    let cf = run(&base(20.0));
    assert!(bounded.pd_cpu_per_node_s < cf.pd_cpu_per_node_s);
    // No samples are lost by partial flushes.
    assert!(bounded.received_samples as f64 > 0.95 * bounded.generated_samples as f64);
}

#[test]
fn flush_timeout_with_cf_is_inert() {
    // CF forwards each sample immediately; a timeout changes nothing.
    let plain = run(&base(10.0));
    let with_timeout = run(&SimConfig {
        batch_timeout_us: Some(50_000.0),
        ..base(10.0)
    });
    assert_eq!(plain.forwarded_batches, with_timeout.forwarded_batches);
    assert_eq!(plain.received_samples, with_timeout.received_samples);
}
