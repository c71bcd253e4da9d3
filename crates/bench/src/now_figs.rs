//! The NOW simulation experiments: Table 4 / Figure 16 (factorial +
//! allocation of variation) and Figures 17–19 (policy comparisons).

use crate::fmt::{fnum, heading, ms, pct, TextTable};
use crate::scale::Scale;
use crate::simhelp::{mean_of, print_variation, run_factorial, run_grid, FactorialRun};
use paradyn_core::{Arch, SimConfig, SimMetrics};
use paradyn_workload::{comm_intensive, compute_intensive};

/// Factor levels of the NOW 2^4 design (Table 4): A = nodes {5, 50},
/// B = sampling period {2, 32 ms}, C = batch {1, 128}, D = app type
/// {compute-, communication-intensive}.
fn now_factorial_cfg(bits: usize, scale: &Scale) -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: false,
        },
        nodes: if bits & 1 != 0 { 50 } else { 5 },
        sampling_period_us: if bits & 2 != 0 { 32_000.0 } else { 2_000.0 },
        batch: if bits & 4 != 0 { 128 } else { 1 },
        app: if bits & 8 != 0 {
            comm_intensive()
        } else {
            compute_intensive()
        },
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    }
}

/// Run the NOW factorial once (shared by Table 4 and Figure 16).
pub fn now_factorial(scale: &Scale) -> FactorialRun {
    run_factorial(
        vec!["number of nodes", "sampling period", "forwarding policy", "application type"],
        |bits| now_factorial_cfg(bits, scale),
        |m| m.pd_cpu_per_node_s,
        scale,
    )
}

/// Reproduce Table 4 from the NOW factorial: the 2^4·r simulation results.
pub fn run_table4(fr: &FactorialRun, scale: &Scale) {
    heading("Table 4: 2^k r factorial simulation results — NOW");
    let mut t = TextTable::new(vec![
        "period ms",
        "nodes",
        "batch",
        "app type",
        "Pd CPU/node (s)",
        "latency/sample (ms)",
    ]);
    for &(bits, ov, lat) in &fr.rows {
        t.row(vec![
            if bits & 2 != 0 { "32" } else { "2" }.to_string(),
            if bits & 1 != 0 { "50" } else { "5" }.to_string(),
            if bits & 4 != 0 { "128" } else { "1" }.to_string(),
            if bits & 8 != 0 { "comm" } else { "compute" }.to_string(),
            fnum(ov, 4),
            fnum(lat, 3),
        ]);
    }
    t.print();
    println!(
        "(duration {} s, {} replications; the paper ran 40-100 s x 50 reps)",
        scale.sim_s, scale.reps
    );
}

/// Reproduce Figure 16 from the NOW factorial: allocation of variation.
pub fn run_fig16(fr: &FactorialRun) {
    heading("Figure 16: allocation of variation — NOW");
    print_variation("variation explained for Pd CPU time", &fr.overhead);
    print_variation("variation explained for monitoring latency", &fr.latency);
    println!("paper: Pd CPU time dominated by B (sampling period, 68%) then C (policy, 19%);");
    println!("       latency dominated by C (policy, 46%) then A (nodes, 21%)");
}

/// Reproduce Figure 17: local-level CPU time and throughput, CF vs BF(32),
/// on one node with multiple application processes.
pub fn run_fig17(scale: &Scale) {
    heading("Figure 17: local metrics, CF vs BF(32) (one node)");
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 1,
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    };
    let periods = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0];
    let apps = [1usize, 2, 4, 8, 16, 32];
    // CF then BF(32) for every point of both panels, in one grid.
    let cf_bf = |c: SimConfig| [c.clone(), SimConfig { batch: 32, ..c }];
    let cfgs: Vec<SimConfig> = periods
        .iter()
        .map(|&p| SimConfig {
            apps_per_node: 8,
            sampling_period_us: p * 1e3,
            ..base.clone()
        })
        .chain(apps.iter().map(|&a| SimConfig {
            apps_per_node: a,
            ..base.clone()
        }))
        .flat_map(cf_bf)
        .collect();
    let grid = run_grid(&cfgs, scale);
    let (by_period, by_apps) = grid.split_at(2 * periods.len());
    let row = |label: String, pair: &[Vec<SimMetrics>]| {
        let (cf, bf) = (&pair[0], &pair[1]);
        vec![
            label,
            fnum(mean_of(cf, |m| m.pd_cpu_per_node_s), 3),
            fnum(mean_of(bf, |m| m.pd_cpu_per_node_s), 3),
            fnum(mean_of(cf, |m| m.throughput_per_s), 0),
            fnum(mean_of(bf, |m| m.throughput_per_s), 0),
        ]
    };
    println!("\n(a) 8 application processes, varying sampling period");
    let mut t = TextTable::new(vec![
        "period ms",
        "Pd CPU (s) CF",
        "Pd CPU (s) BF",
        "throughput/s CF",
        "throughput/s BF",
    ]);
    for (&p, pair) in periods.iter().zip(by_period.chunks(2)) {
        t.row(row(fnum(p, 0), pair));
    }
    t.print();

    println!("\n(b) sampling period = 40 ms, varying application processes");
    let mut t = TextTable::new(vec![
        "apps",
        "Pd CPU (s) CF",
        "Pd CPU (s) BF",
        "throughput/s CF",
        "throughput/s BF",
    ]);
    for (&a, pair) in apps.iter().zip(by_apps.chunks(2)) {
        t.row(row(a.to_string(), pair));
    }
    t.print();
    println!("paper shape: BF daemon CPU far below CF, gap widening at short periods/many apps;");
    println!("             BF sustains higher forwarding throughput once CF saturates");
}

/// Reproduce Figure 18: global metrics vs nodes and vs sampling period,
/// CF vs BF(32) vs uninstrumented (contention-free network).
pub fn run_fig18(scale: &Scale) {
    heading("Figure 18: global metrics, CF vs BF(32), contention-free network");
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    };
    let nodes = [2usize, 4, 8, 16, 32];
    let periods = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    // Panel (a): CF, BF(32), uninstrumented per node count; panel (b):
    // CF, BF(32) per period. One grid for both.
    let mut cfgs = vec![];
    for &n in &nodes {
        cfgs.push(SimConfig { nodes: n, ..base.clone() });
        cfgs.push(SimConfig { nodes: n, batch: 32, ..base.clone() });
        cfgs.push(SimConfig {
            nodes: n,
            instrumented: false,
            ..base.clone()
        });
    }
    for &p in &periods {
        let c = SimConfig {
            nodes: 8,
            sampling_period_us: p * 1e3,
            ..base.clone()
        };
        cfgs.push(c.clone());
        cfgs.push(SimConfig { batch: 32, ..c });
    }
    let grid = run_grid(&cfgs, scale);
    let (by_nodes, by_period) = grid.split_at(3 * nodes.len());
    let series = |runs: &[SimMetrics]| {
        (
            mean_of(runs, |m| m.pd_cpu_util_per_node),
            mean_of(runs, |m| m.main_cpu_util),
            mean_of(runs, |m| m.app_cpu_util_per_node),
            mean_of(runs, |m| m.fwd_latency_mean_s),
        )
    };
    println!("\n(a) sampling period = 40 ms, varying nodes");
    let mut t = TextTable::new(vec![
        "nodes",
        "Pd CPU %/node CF",
        "Pd CPU %/node BF",
        "Paradyn CPU % CF",
        "Paradyn CPU % BF",
        "app CPU % CF",
        "app CPU % uninst",
        "latency ms CF",
        "latency ms BF",
    ]);
    for (&n, point) in nodes.iter().zip(by_nodes.chunks(3)) {
        let (cf, bf, un) = (series(&point[0]), series(&point[1]), series(&point[2]));
        t.row(vec![
            n.to_string(),
            pct(cf.0),
            pct(bf.0),
            pct(cf.1),
            pct(bf.1),
            pct(cf.2),
            pct(un.2),
            ms(cf.3),
            ms(bf.3),
        ]);
    }
    t.print();

    println!("\n(b) nodes = 8, varying sampling period");
    let mut t = TextTable::new(vec![
        "period ms",
        "Pd CPU %/node CF",
        "Pd CPU %/node BF",
        "Paradyn CPU % CF",
        "Paradyn CPU % BF",
        "app CPU % CF",
        "latency ms CF",
        "latency ms BF",
    ]);
    for (&p, pair) in periods.iter().zip(by_period.chunks(2)) {
        let (cf, bf) = (series(&pair[0]), series(&pair[1]));
        t.row(vec![
            fnum(p, 0),
            pct(cf.0),
            pct(bf.0),
            pct(cf.1),
            pct(bf.1),
            pct(cf.2),
            ms(cf.3),
            ms(bf.3),
        ]);
    }
    t.print();
}

/// Reproduce Figure 19: batch-size sweep showing the knee (8 nodes,
/// contention-free network).
pub fn run_fig19(scale: &Scale) {
    heading("Figure 19: batch-size sweep (8 nodes)");
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    };
    let periods = [1.0, 40.0, 64.0];
    let batches = [1usize, 2, 4, 8, 16, 32, 64];
    let mut cfgs = vec![];
    for &p in &periods {
        for &b in &batches {
            cfgs.push(SimConfig {
                sampling_period_us: p * 1e3,
                batch: b,
                ..base.clone()
            });
        }
    }
    let grid = run_grid(&cfgs, scale);
    for (&p, sweep) in periods.iter().zip(grid.chunks(batches.len())) {
        println!("\nsampling period = {p} ms");
        let mut t = TextTable::new(vec![
            "batch",
            "Pd CPU %/node",
            "Paradyn CPU %",
            "app CPU %/node",
            "fwd latency ms",
            "full latency ms",
        ]);
        for (&b, runs) in batches.iter().zip(sweep) {
            t.row(vec![
                b.to_string(),
                pct(mean_of(runs, |m| m.pd_cpu_util_per_node)),
                pct(mean_of(runs, |m| m.main_cpu_util)),
                pct(mean_of(runs, |m| m.app_cpu_util_per_node)),
                ms(mean_of(runs, |m| m.fwd_latency_mean_s)),
                ms(mean_of(runs, |m| m.latency_mean_s)),
            ]);
        }
        t.print();
    }
    println!("paper shape: sharp overhead drop just past batch=1, levelling off at large");
    println!("batches (the knee); full latency grows with batch (accumulation trade-off)");
}
