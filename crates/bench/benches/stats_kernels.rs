//! Statistics-substrate benchmarks: sampling, fitting, K-S, and
//! factorial analysis throughput.

use paradyn_bench::timing::Group;
use paradyn_stats::{
    best_fit, fit_lognormal, fit_weibull, ks_statistic, Design2kr, Rv, SplitMix64,
};

fn draws(rv: Rv, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64(42);
    (0..n).map(|_| rv.sample(&mut rng)).collect()
}

fn main() {
    let mut g = Group::new("stats");

    g.throughput(1_000_000);
    let rv = Rv::lognormal_mean_std(2213.0, 3034.0);
    let mut rng = SplitMix64(1);
    g.bench_function("sample_lognormal_1m", || {
        let mut acc = 0.0;
        for _ in 0..1_000_000 {
            acc += rv.sample(&mut rng);
        }
        acc
    });

    let xs = draws(Rv::lognormal_mean_std(2213.0, 3034.0), 10_000);
    g.throughput(xs.len() as u64);
    g.bench_function("fit_lognormal_10k", || fit_lognormal(&xs));
    g.bench_function("fit_weibull_10k", || fit_weibull(&xs));
    let fitted = fit_lognormal(&xs);
    g.bench_function("ks_statistic_10k", || ks_statistic(&xs, &fitted));
    g.bench_function("best_fit_10k", || best_fit(&xs));

    g.bench_with_setup(
        "factorial_2k4_r50",
        || {
            let mut d = Design2kr::new(vec!["a", "b", "c", "d"]);
            for cfg in 0..16usize {
                d.set_responses(cfg, (0..50).map(|r| (cfg * 7 + r) as f64).collect());
            }
            d
        },
        |d| d.analyze().sst,
    );
}
