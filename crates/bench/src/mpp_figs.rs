//! The MPP simulation experiments: Table 6 / Figure 25 (factorial) and
//! Figures 26–28 (forwarding configuration and barrier studies).

use crate::fmt::{fnum, heading, ms, pct, TextTable};
use crate::scale::Scale;
use crate::simhelp::{mean_of, print_variation, run_factorial, run_grid, FactorialRun};
use paradyn_core::{Arch, Forwarding, SimConfig};
use paradyn_workload::pvmbt;

/// Factor levels of the MPP 2^4 design (Table 6): A = nodes {2, 256},
/// B = period {5, 50 ms}, C = batch {1, 128}, D = network configuration
/// {direct, tree}. (The printed Table 6 header order is garbled in the
/// paper; node counts of 2 and 256 are the physically sensible reading for
/// an MPP — see DESIGN.md.)
fn mpp_factorial_cfg(bits: usize, scale: &Scale) -> SimConfig {
    SimConfig {
        arch: Arch::Mpp {
            forwarding: if bits & 8 != 0 {
                Forwarding::BinaryTree
            } else {
                Forwarding::Direct
            },
        },
        nodes: if bits & 1 != 0 { 256 } else { 2 },
        sampling_period_us: if bits & 2 != 0 { 50_000.0 } else { 5_000.0 },
        batch: if bits & 4 != 0 { 128 } else { 1 },
        duration_s: scale.sim_big_s,
        seed: scale.seed,
        ..Default::default()
    }
}

/// Run the MPP factorial (shared by Table 6 and Figure 25).
pub fn mpp_factorial(scale: &Scale) -> FactorialRun {
    run_factorial(
        vec![
            "number of nodes",
            "sampling period",
            "forwarding policy",
            "network configuration",
        ],
        |bits| mpp_factorial_cfg(bits, scale),
        |m| m.pd_cpu_per_node_s,
        scale,
    )
}

/// Reproduce Table 6 from the MPP factorial.
pub fn run_table6(fr: &FactorialRun) {
    heading("Table 6: 2^k r factorial simulation results — MPP");
    let mut t = TextTable::new(vec![
        "nodes",
        "period ms",
        "batch",
        "config",
        "Pd CPU/node (s)",
        "latency/sample (ms)",
    ]);
    for &(bits, ov, lat) in &fr.rows {
        t.row(vec![
            if bits & 1 != 0 { "256" } else { "2" }.to_string(),
            if bits & 2 != 0 { "50" } else { "5" }.to_string(),
            if bits & 4 != 0 { "128" } else { "1" }.to_string(),
            if bits & 8 != 0 { "tree" } else { "direct" }.to_string(),
            fnum(ov, 4),
            fnum(lat, 3),
        ]);
    }
    t.print();
}

/// Reproduce Figure 25 from the MPP factorial: allocation of variation.
pub fn run_fig25(fr: &FactorialRun) {
    heading("Figure 25: allocation of variation — MPP");
    print_variation("variation explained for Pd CPU time", &fr.overhead);
    print_variation("variation explained for monitoring latency", &fr.latency);
    println!("paper: Pd CPU time led by B (period, 21%) and C (policy, 19%);");
    println!("       latency led by C (47%) then A (nodes)");
}

fn mpp_base(scale: &Scale, forwarding: Forwarding) -> SimConfig {
    SimConfig {
        arch: Arch::Mpp { forwarding },
        nodes: 256,
        batch: 32,
        duration_s: scale.sim_big_s,
        seed: scale.seed,
        ..Default::default()
    }
}

/// Reproduce Figure 26: metrics vs sampling period at 256 nodes — CF vs
/// BF under direct forwarding, plus BF under tree forwarding.
pub fn run_fig26(scale: &Scale) {
    heading("Figure 26: MPP metrics vs sampling period (256 nodes)");
    let mut t = TextTable::new(vec![
        "period ms",
        "Pd CPU %/node CF-direct",
        "Pd CPU %/node BF-direct",
        "Pd CPU %/node BF-tree",
        "Paradyn CPU % BF-direct",
        "app CPU % BF-direct",
        "latency ms CF-direct",
        "latency ms BF-direct",
    ]);
    let periods = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let mut cfgs = vec![];
    for &p in &periods {
        let period_us = p * 1e3;
        cfgs.push(SimConfig {
            sampling_period_us: period_us,
            batch: 1,
            ..mpp_base(scale, Forwarding::Direct)
        });
        cfgs.push(SimConfig {
            sampling_period_us: period_us,
            ..mpp_base(scale, Forwarding::Direct)
        });
        cfgs.push(SimConfig {
            sampling_period_us: period_us,
            ..mpp_base(scale, Forwarding::BinaryTree)
        });
    }
    let grid = run_grid(&cfgs, scale);
    for (&p, point) in periods.iter().zip(grid.chunks(3)) {
        let (cf, bf, tr) = (&point[0], &point[1], &point[2]);
        t.row(vec![
            fnum(p, 0),
            pct(mean_of(cf, |m| m.pd_cpu_util_per_node)),
            pct(mean_of(bf, |m| m.pd_cpu_util_per_node)),
            pct(mean_of(tr, |m| m.pd_cpu_util_per_node)),
            pct(mean_of(bf, |m| m.main_cpu_util)),
            pct(mean_of(bf, |m| m.app_cpu_util_per_node)),
            ms(mean_of(cf, |m| m.latency_mean_s)),
            ms(mean_of(bf, |m| m.latency_mean_s)),
        ]);
    }
    t.print();
    println!("paper: BF overhead below CF, especially at small periods; BF full latency");
    println!("higher (accumulation) — the overhead/latency trade-off of Section 4.4.2");
}

/// Reproduce Figure 27: metrics vs node count, direct vs tree (40 ms, BF).
pub fn run_fig27(scale: &Scale) {
    heading("Figure 27: MPP metrics vs nodes, direct vs tree (40 ms, BF 32)");
    let mut t = TextTable::new(vec![
        "nodes",
        "Pd CPU %/node direct",
        "Pd CPU %/node tree",
        "Paradyn CPU % direct",
        "Paradyn CPU % tree",
        "app CPU % direct",
        "latency ms direct",
        "latency ms tree",
    ]);
    let node_counts = [2usize, 8, 32, 128, 256];
    let mut cfgs = vec![];
    for &n in &node_counts {
        for forwarding in [Forwarding::Direct, Forwarding::BinaryTree] {
            cfgs.push(SimConfig {
                nodes: n,
                ..mpp_base(scale, forwarding)
            });
        }
    }
    let grid = run_grid(&cfgs, scale);
    for (&n, pair) in node_counts.iter().zip(grid.chunks(2)) {
        let (d, tr) = (&pair[0], &pair[1]);
        t.row(vec![
            n.to_string(),
            fnum(mean_of(d, |m| m.pd_cpu_util_per_node) * 100.0, 4),
            fnum(mean_of(tr, |m| m.pd_cpu_util_per_node) * 100.0, 4),
            pct(mean_of(d, |m| m.main_cpu_util)),
            pct(mean_of(tr, |m| m.main_cpu_util)),
            pct(mean_of(d, |m| m.app_cpu_util_per_node)),
            ms(mean_of(d, |m| m.latency_mean_s)),
            ms(mean_of(tr, |m| m.latency_mean_s)),
        ]);
    }
    t.print();
    println!("paper: tree forwarding raises per-node Pd overhead (merge work) without");
    println!("helping latency; latency grows with nodes (main-process queueing)");
}

/// Reproduce Figure 28: metrics vs barrier period (256 nodes, 40 ms, BF).
pub fn run_fig28(scale: &Scale) {
    heading("Figure 28: MPP metrics vs barrier period (256 nodes, 40 ms, BF 32)");
    let mut t = TextTable::new(vec![
        "barrier period ms",
        "Pd CPU %/node",
        "Paradyn CPU %",
        "app CPU %/node",
        "latency ms",
        "barrier ops",
    ]);
    let barrier_ms = [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0];
    let cfgs: Vec<SimConfig> = barrier_ms
        .iter()
        .map(|&bp_ms| {
            let mut cfg = mpp_base(scale, Forwarding::Direct);
            cfg.app = pvmbt().with_barriers(bp_ms * 1e3);
            cfg
        })
        .collect();
    for (&bp_ms, runs) in barrier_ms.iter().zip(&run_grid(&cfgs, scale)) {
        t.row(vec![
            fnum(bp_ms, 2),
            fnum(mean_of(runs, |m| m.pd_cpu_util_per_node) * 100.0, 4),
            pct(mean_of(runs, |m| m.main_cpu_util)),
            pct(mean_of(runs, |m| m.app_cpu_util_per_node)),
            ms(mean_of(runs, |m| m.fwd_latency_mean_s)),
            fnum(mean_of(runs, |m| m.barrier_ops as f64), 0),
        ]);
    }
    t.print();
    println!("paper: frequent barriers depress application CPU occupancy and raise the");
    println!("Pd share (event samples + an idle CPU to run on); latency unaffected");
}
