//! The graceful-degradation artifact: CF vs BF goodput under a 2× offered-
//! load ramp with the closed-loop overload controller active. The paper
//! stops at fault-free capacity measurements; this artifact quantifies what
//! the watermark/throttle/shed protocol buys when the offered load doubles
//! mid-run: batching daemons retain at least the contention-free goodput
//! while the controller sheds only the low-priority tiers.

use crate::fmt::{fnum, heading, TextTable};
use crate::scale::Scale;
use crate::simhelp::{mean_of, run_grid};
use paradyn_core::{Arch, DegradationConfig, OverloadRamp, SimConfig, SimMetrics};

/// The controller used throughout: 4 priority tiers with the top 2
/// protected, and watermarks tight enough to engage once the ramp fires.
fn controller() -> DegradationConfig {
    DegradationConfig {
        tiers: 4,
        keep_tiers: 2,
        pipe_hi: 0.5,
        pipe_lo: 0.25,
        // Batch-granularity-friendly daemon watermarks: a single BF(8)
        // batch arrival must not trip the high watermark on its own.
        daemon_hi: 24,
        daemon_lo: 8,
        md_factor: 2.0,
        max_slowdown: 8.0,
        recover_step: 0.5,
        recover_period_us: 20_000.0,
        hysteresis_us: 50_000.0,
    }
}

/// Small pipes, fast sampling, and a 2× offered-load ramp a quarter of the
/// way into the run: the collection path saturates after the ramp.
fn cfg(batch: usize, degradation: Option<DegradationConfig>, scale: &Scale) -> SimConfig {
    let mut params = paradyn_workload::RoccParams::default();
    // One pipe size for both policies so the fill-fraction watermarks see
    // the same capacity; 32 slots keep a BF(8) deposit at 25% fill.
    params.pipe_capacity = 32;
    SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        apps_per_node: 4,
        sampling_period_us: 4_000.0,
        batch,
        duration_s: scale.sim_s,
        seed: scale.seed,
        params,
        degradation,
        overload: Some(OverloadRamp {
            at_s: scale.sim_s * 0.25,
            factor: 2.0,
        }),
        ..Default::default()
    }
}

/// Goodput: delivered samples per simulated second.
fn goodput(runs: &[SimMetrics], sim_s: f64) -> f64 {
    mean_of(runs, |m| m.received_samples as f64) / sim_s
}

/// Run the CF-vs-BF degradation comparison and print the goodput table.
pub fn run_degradation(scale: &Scale) {
    heading("Degradation: CF vs BF(8) goodput under a 2x offered-load ramp");
    let policies: [(&str, usize); 2] = [("CF", 1), ("BF(8)", 8)];
    let mut t = TextTable::new(vec![
        "policy",
        "controller",
        "goodput (samp/s)",
        "delivered %",
        "shed",
        "shed t0",
        "shed t1",
        "shed t2",
        "shed t3",
        "throttles",
        "lost",
    ]);
    let mut with_ctrl = [f64::NAN; 2];
    let controllers = [("off", None), ("on", Some(controller()))];
    let cfgs: Vec<SimConfig> = policies
        .iter()
        .flat_map(|&(_, batch)| controllers.map(|(_, deg)| cfg(batch, deg, scale)))
        .collect();
    let grid = run_grid(&cfgs, scale);
    for (i, (&(label, _), pair)) in policies.iter().zip(grid.chunks(2)).enumerate() {
        for ((cname, _), runs) in controllers.iter().zip(pair) {
            let recv = mean_of(runs, |m| m.received_samples as f64);
            let emitted = mean_of(runs, |m| m.emitted_samples as f64);
            if *cname == "on" {
                with_ctrl[i] = goodput(runs, scale.sim_s);
            }
            t.row(vec![
                label.to_string(),
                cname.to_string(),
                fnum(goodput(runs, scale.sim_s), 0),
                fnum(100.0 * recv / emitted.max(1.0), 2),
                fnum(mean_of(runs, |m| m.shed_samples as f64), 0),
                fnum(mean_of(runs, |m| m.shed_by_tier[0] as f64), 0),
                fnum(mean_of(runs, |m| m.shed_by_tier[1] as f64), 0),
                fnum(mean_of(runs, |m| m.shed_by_tier[2] as f64), 0),
                fnum(mean_of(runs, |m| m.shed_by_tier[3] as f64), 0),
                fnum(mean_of(runs, |m| m.throttle_events as f64), 0),
                fnum(mean_of(runs, |m| m.samples_lost as f64), 0),
            ]);
        }
    }
    t.print();
    println!(
        "controller on: BF(8) goodput {} vs CF {} samp/s — batching amortizes the",
        fnum(with_ctrl[1], 0),
        fnum(with_ctrl[0], 0),
    );
    println!("per-read daemon cost, so degraded BF retains >= CF goodput under the ramp");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance property of the artifact: under the 2x ramp with the
    /// controller on, BF retains at least CF's goodput and only the
    /// low-priority (sheddable) tiers are ever shed.
    #[test]
    fn bf_retains_cf_goodput_and_sheds_only_low_tiers() {
        let scale = Scale::quick();
        let grid = run_grid(
            &[
                cfg(1, Some(controller()), &scale),
                cfg(8, Some(controller()), &scale),
            ],
            &scale,
        );
        let (cf, bf) = (&grid[0], &grid[1]);
        assert!(
            goodput(bf, scale.sim_s) >= goodput(cf, scale.sim_s),
            "bf={} cf={}",
            goodput(bf, scale.sim_s),
            goodput(cf, scale.sim_s)
        );
        let deg = controller();
        for runs in [cf, bf] {
            for m in runs.iter() {
                assert!(m.shed_samples > 0, "ramp never engaged the controller");
                for tier in 0..deg.keep_tiers {
                    assert_eq!(
                        m.shed_by_tier[tier], 0,
                        "protected tier {tier} shed: {:?}",
                        m.shed_by_tier
                    );
                }
                assert_eq!(
                    m.emitted_samples,
                    m.received_samples + m.samples_lost + m.shed_samples + m.samples_in_flight,
                    "conservation"
                );
            }
        }
    }
}
