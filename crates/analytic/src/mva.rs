//! Exact Mean Value Analysis for closed product-form queueing networks.
//!
//! Section 3 of the paper discusses (and rejects) using MVA for the
//! application workload's CPU utilization, because MVA cannot capture the
//! Pd/application CPU contention coupling. We implement exact single-class
//! MVA anyway: it backs the integration test that reproduces that argument
//! (MVA utilization is insensitive to the IS knobs).

/// A queueing center in the closed network.
#[derive(Clone, Copy, Debug)]
pub enum Center {
    /// A single-server FCFS/PS queue with the given service demand (s).
    Queueing(f64),
    /// A pure delay (infinite-server) center with the given demand (s).
    Delay(f64),
}

/// Exact MVA for `n` statistically identical customers over `centers`:
/// the per-center utilizations at population `n` (`X · D`; for a delay
/// center this is the mean number in service).
///
/// # Panics
/// Panics if `n == 0` or `centers` is empty or any demand is negative.
pub fn mva(centers: &[Center], n: usize) -> Vec<f64> {
    assert!(n > 0, "population must be positive");
    assert!(!centers.is_empty(), "need at least one center");
    for c in centers {
        let d = match c {
            Center::Queueing(d) | Center::Delay(d) => *d,
        };
        assert!(d >= 0.0, "negative demand");
    }
    let k = centers.len();
    let mut q = vec![0.0_f64; k];
    let mut r = vec![0.0_f64; k];
    let mut x = 0.0;
    for pop in 1..=n {
        for (i, c) in centers.iter().enumerate() {
            r[i] = match c {
                Center::Queueing(d) => d * (1.0 + q[i]),
                Center::Delay(d) => *d,
            };
        }
        let total_r: f64 = r.iter().sum();
        x = pop as f64 / total_r;
        for i in 0..k {
            q[i] = x * r[i];
        }
    }
    centers
        .iter()
        .map(|c| match c {
            Center::Queueing(d) | Center::Delay(d) => x * d,
        })
        .collect()
}

/// The application-workload closed model of the paper: one CPU center and
/// one network center per node, `n_app` customers. Returns CPU utilization.
// lint:allow(dead-pub): tests/simulation_vs_analytic.rs checks the simulator against it
pub fn app_cpu_utilization_mva(cpu_demand_s: f64, net_demand_s: f64, n_app: usize) -> f64 {
    mva(
        &[
            Center::Queueing(cpu_demand_s),
            Center::Queueing(net_demand_s),
        ],
        n_app,
    )[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_customer_single_queue() {
        // X = 1/0.1 = 10 jobs/s, so U = X·D = 1.
        let u = mva(&[Center::Queueing(0.1)], 1);
        assert!((u[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interactive_system_textbook_case() {
        // Classic: think time 18s (delay), two queueing centers 0.05s and
        // 0.03s visits folded into demands. Bottleneck bound: X <= 1/0.05.
        let centers = [
            Center::Delay(18.0),
            Center::Queueing(0.05),
            Center::Queueing(0.03),
        ];
        let x = mva(&centers, 100)[1] / 0.05;
        assert!(x <= 1.0 / 0.05 + 1e-9);
        // Below saturation (N* = (18+0.08)/0.05 ≈ 361) the asymptote is
        // X ≈ N/(Z+R): with 100 users X ≈ 5.5.
        assert!((x - 100.0 / 18.08).abs() < 0.1, "x={x}");
        // Push past N*: the bottleneck saturates.
        assert!(mva(&centers, 800)[1] > 0.95);
    }

    #[test]
    fn throughput_monotone_in_population() {
        // X = U/D at the 0.02 s bottleneck.
        let centers = [Center::Queueing(0.01), Center::Queueing(0.02)];
        let x: Vec<f64> = (1..=20).map(|n| mva(&centers, n)[1] / 0.02).collect();
        for w in x.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        // Asymptote 1/0.02 = 50.
        assert!(x[19] <= 50.0 + 1e-9);
    }

    #[test]
    fn balanced_two_center_exact_value() {
        // For two identical queueing centers with demand D and n=2 the
        // exact MVA gives X = 2/(3D)... iteration: n=1: R=2D, X=1/(2D),
        // q=1/2 each; n=2: R_i = D(1.5), total 3D, X=2/(3D).
        let d = 0.1;
        let u = mva(&[Center::Queueing(d), Center::Queueing(d)], 2);
        assert!((u[0] / d - 2.0 / (3.0 * d)).abs() < 1e-12);
    }

    #[test]
    fn paper_argument_mva_insensitive_to_is_knobs() {
        // The paper's reason for dropping MVA: application CPU utilization
        // from MVA does not vary with sampling period or batch size (those
        // aren't in the closed model at all).
        let u = app_cpu_utilization_mva(2213e-6, 223e-6, 1);
        // One customer alternating: U_cpu = D_cpu/(D_cpu+D_net).
        assert!((u - 2213.0 / 2436.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn zero_population_panics() {
        mva(&[Center::Queueing(0.1)], 0);
    }
}
