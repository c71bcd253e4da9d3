//! The fault-injection sweep: CF vs BF under daemon-crash and lossy-link
//! faults, across every pipe overflow policy. This artifact goes beyond
//! the paper's fault-free measurements and quantifies the robustness cost
//! of batching: a BF daemon holds a larger in-memory batch, so each crash
//! loses more samples than under CF.

use crate::fmt::{fnum, heading, TextTable};
use crate::scale::Scale;
use crate::simhelp::{mean_of, run_grid};
use paradyn_core::{
    Arch, DaemonCrashFaults, FaultPlan, LinkFaults, OverflowPolicy, SimConfig, SimMetrics,
};

/// The fault plan used throughout the sweep: ~1 crash per simulated two
/// seconds per daemon with a 100 ms recovery, plus a 5% per-forward link
/// failure with 3 bounded retries.
fn fault_plan(overflow: OverflowPolicy) -> FaultPlan {
    FaultPlan {
        overflow,
        daemon_crash: Some(DaemonCrashFaults {
            mtbf_us: 2_000_000.0,
            recovery_us: 100_000.0,
        }),
        link: Some(LinkFaults {
            fail_prob: 0.05,
            max_retries: 3,
            backoff_base_us: 5_000.0,
        }),
        stall: None,
    }
}

fn cfg(batch: usize, faults: FaultPlan, scale: &Scale) -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 4,
        batch,
        duration_s: scale.sim_s,
        seed: scale.seed,
        faults,
        ..Default::default()
    }
}

fn delivery_pct(runs: &[SimMetrics]) -> f64 {
    let recv = mean_of(runs, |m| m.received_samples as f64);
    let emitted = mean_of(runs, |m| m.emitted_samples as f64);
    if emitted > 0.0 {
        100.0 * recv / emitted
    } else {
        f64::NAN
    }
}

/// Run the fault sweep and print the robustness comparison table.
pub fn run_faults(scale: &Scale) {
    heading("Fault sweep: CF vs BF(32) under daemon-crash + lossy-link faults");
    let policies: [(&str, usize); 2] = [("CF", 1), ("BF(32)", 32)];
    let overflows = [
        ("block", OverflowPolicy::Block),
        ("drop-new", OverflowPolicy::DropNewest),
        ("drop-old", OverflowPolicy::DropOldest),
    ];
    let mut t = TextTable::new(vec![
        "policy",
        "overflow",
        "faults",
        "delivered %",
        "lost/crash",
        "lost link",
        "crashes",
        "downtime (s)",
        "retries",
        "writer block (s)",
    ]);
    let mut crash_loss_per_crash = [f64::NAN; 2];
    // Per policy: the fault-free baseline, then one run per overflow
    // policy with faults on.
    let mut cfgs = vec![];
    for &(_, batch) in &policies {
        cfgs.push(cfg(batch, FaultPlan::default(), scale));
        for &(_, ov) in &overflows {
            cfgs.push(cfg(batch, fault_plan(ov), scale));
        }
    }
    let grid = run_grid(&cfgs, scale);
    for (i, (&(label, _), block)) in policies
        .iter()
        .zip(grid.chunks(1 + overflows.len()))
        .enumerate()
    {
        let base = &block[0];
        t.row(vec![
            label.to_string(),
            "block".into(),
            "off".into(),
            fnum(delivery_pct(base), 2),
            "-".into(),
            "-".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            fnum(mean_of(base, |m| m.writer_block_time_s), 3),
        ]);
        for (&(oname, ov), runs) in overflows.iter().zip(&block[1..]) {
            let crashes = mean_of(runs, |m| m.daemon_crashes as f64);
            let lost_crash = mean_of(runs, |m| m.lost_daemon_crash as f64);
            if ov == OverflowPolicy::Block {
                crash_loss_per_crash[i] = if crashes > 0.0 {
                    lost_crash / crashes
                } else {
                    f64::NAN
                };
            }
            t.row(vec![
                label.to_string(),
                oname.to_string(),
                "on".into(),
                fnum(delivery_pct(runs), 2),
                fnum(
                    if crashes > 0.0 {
                        lost_crash / crashes
                    } else {
                        f64::NAN
                    },
                    1,
                ),
                fnum(mean_of(runs, |m| m.lost_link as f64), 1),
                fnum(crashes, 1),
                fnum(mean_of(runs, |m| m.daemon_downtime_s), 2),
                fnum(mean_of(runs, |m| m.forward_retries as f64), 1),
                fnum(mean_of(runs, |m| m.writer_block_time_s), 3),
            ]);
        }
    }
    t.print();
    println!(
        "crash-loss asymmetry: CF loses {} samples/crash, BF(32) loses {} — larger in-daemon",
        fnum(crash_loss_per_crash[0], 1),
        fnum(crash_loss_per_crash[1], 1),
    );
    println!("batches mean more samples die with the daemon (robustness cost of batching)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sweep_sees_crash_loss_asymmetry() {
        let scale = Scale {
            reps: 2,
            sim_s: 6.0,
            ..Scale::quick()
        };
        let plan = fault_plan(OverflowPolicy::Block);
        let grid = run_grid(&[cfg(1, plan, &scale), cfg(32, plan, &scale)], &scale);
        let (cf, bf) = (&grid[0], &grid[1]);
        let per_crash = |runs: &[SimMetrics]| {
            mean_of(runs, |m| m.lost_daemon_crash as f64)
                / mean_of(runs, |m| m.daemon_crashes as f64).max(1.0)
        };
        assert!(mean_of(cf, |m| m.daemon_crashes as f64) > 0.0);
        assert!(
            per_crash(bf) > per_crash(cf),
            "bf={} cf={}",
            per_crash(bf),
            per_crash(cf)
        );
    }
}
