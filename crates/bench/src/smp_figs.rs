//! The SMP simulation experiments: Table 5 / Figure 20 (factorial) and
//! Figures 21–24 (daemon-count studies).

use crate::fmt::{fnum, heading, ms, pct, TextTable};
use crate::scale::Scale;
use crate::simhelp::{mean_of, print_variation, run_factorial, run_grid, FactorialRun};
use paradyn_core::{Arch, SimConfig};
use paradyn_workload::{comm_intensive, compute_intensive};

/// Factor levels of the SMP 2^4 design (Table 5): A = nodes {5, 50}
/// (apps = nodes, per Section 4.3), B = period {1, 32 ms}, C = batch
/// {1, 128}, D = app type.
fn smp_factorial_cfg(bits: usize, scale: &Scale) -> SimConfig {
    let nodes = if bits & 1 != 0 { 50 } else { 5 };
    SimConfig {
        arch: Arch::Smp,
        nodes,
        apps_per_node: nodes,
        pds: 1,
        sampling_period_us: if bits & 2 != 0 { 32_000.0 } else { 1_000.0 },
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

/// Run the SMP factorial (shared by Table 5 and Figure 20).
pub fn smp_factorial(scale: &Scale) -> FactorialRun {
    run_factorial(
        vec!["number of nodes", "sampling period", "forwarding policy", "application type"],
        |bits| smp_factorial_cfg(bits, scale),
        |m| m.is_cpu_util_per_node * m.duration_s, // IS CPU time per node
        scale,
    )
}

/// Reproduce Table 5 from the SMP factorial.
pub fn run_table5(fr: &FactorialRun) {
    heading("Table 5: 2^k r factorial simulation results — SMP (apps = nodes)");
    let mut t = TextTable::new(vec![
        "period ms",
        "nodes",
        "batch",
        "app type",
        "IS CPU/node (s)",
        "latency/sample (ms)",
    ]);
    for &(bits, ov, lat) in &fr.rows {
        t.row(vec![
            if bits & 2 != 0 { "32" } else { "1" }.to_string(),
            if bits & 1 != 0 { "50" } else { "5" }.to_string(),
            if bits & 4 != 0 { "128" } else { "1" }.to_string(),
            if bits & 8 != 0 { "comm" } else { "compute" }.to_string(),
            fnum(ov, 4),
            fnum(lat, 3),
        ]);
    }
    t.print();
}

/// Reproduce Figure 20 from the SMP factorial: allocation of variation.
pub fn run_fig20(fr: &FactorialRun) {
    heading("Figure 20: allocation of variation — SMP");
    print_variation("variation explained for IS CPU time", &fr.overhead);
    print_variation("variation explained for monitoring latency", &fr.latency);
    println!("paper: IS CPU time led by A (nodes, 33%) then B (period); latency led by");
    println!("       A and C (forwarding policy), 23% each");
}

/// The two forwarding policies every SMP figure compares, CF first.
const POLICIES: [(&str, usize); 2] = [("CF", 1), ("BF(32)", 32)];

fn smp_base(scale: &Scale) -> SimConfig {
    SimConfig {
        arch: Arch::Smp,
        nodes: 16,
        apps_per_node: 32,
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    }
}

/// Reproduce Figure 21: daemon data-forwarding throughput vs CPU count for
/// 1–4 daemons, CF vs BF(32) (each CPU runs one application process).
pub fn run_fig21(scale: &Scale) {
    heading("Figure 21: SMP daemon throughput vs CPUs, 1-4 Pds (40 ms)");
    let cpu_counts = [2usize, 4, 8, 12, 16];
    let mut cfgs = vec![];
    for (_, batch) in POLICIES {
        for &cpus in &cpu_counts {
            for pds in 1..=4usize {
                cfgs.push(SimConfig {
                    nodes: cpus,
                    apps_per_node: cpus,
                    pds: pds.min(cpus),
                    batch,
                    ..smp_base(scale)
                });
            }
        }
    }
    let grid = run_grid(&cfgs, scale);
    for ((label, _), panel) in POLICIES.into_iter().zip(grid.chunks(4 * cpu_counts.len())) {
        println!("\n{label}");
        let mut t = TextTable::new(vec![
            "CPUs",
            "tput/s 1 Pd",
            "tput/s 2 Pds",
            "tput/s 3 Pds",
            "tput/s 4 Pds",
        ]);
        for (&cpus, point) in cpu_counts.iter().zip(panel.chunks(4)) {
            let mut cells = vec![cpus.to_string()];
            for runs in point {
                cells.push(fnum(mean_of(runs, |m| m.throughput_per_s), 0));
            }
            t.row(cells);
        }
        t.print();
    }
    println!("paper shape: under CF extra daemons raise throughput at high CPU counts;");
    println!("under BF one daemon suffices up to 16 CPUs");
}

/// Reproduce Figure 22: global metrics vs node (CPU) count for 1–4
/// daemons (40 ms, 32 apps).
pub fn run_fig22(scale: &Scale) {
    heading("Figure 22: SMP metrics vs nodes, 1-4 Pds (40 ms, 32 apps)");
    let node_counts = [2usize, 4, 8, 16, 24, 32];
    // Per point: 1 Pd, 4 Pds, and the uninstrumented 1-Pd reference.
    let mut cfgs = vec![];
    for (_, batch) in POLICIES {
        for &n in &node_counts {
            for (pds, instrumented) in [(1, true), (4, true), (1, false)] {
                cfgs.push(SimConfig {
                    nodes: n,
                    pds,
                    batch,
                    instrumented,
                    ..smp_base(scale)
                });
            }
        }
    }
    let grid = run_grid(&cfgs, scale);
    for ((label, _), panel) in POLICIES.into_iter().zip(grid.chunks(3 * node_counts.len())) {
        println!("\n{label}");
        let mut t = TextTable::new(vec![
            "nodes",
            "IS CPU %/node 1Pd",
            "IS CPU %/node 4Pd",
            "latency ms 1Pd",
            "latency ms 4Pd",
            "app CPU %/node 1Pd",
            "app CPU % uninst",
        ]);
        for (&n, point) in node_counts.iter().zip(panel.chunks(3)) {
            let (p1, p4, un) = (&point[0], &point[1], &point[2]);
            t.row(vec![
                n.to_string(),
                pct(mean_of(p1, |m| m.is_cpu_util_per_node)),
                pct(mean_of(p4, |m| m.is_cpu_util_per_node)),
                ms(mean_of(p1, |m| m.fwd_latency_mean_s)),
                ms(mean_of(p4, |m| m.fwd_latency_mean_s)),
                pct(mean_of(p1, |m| m.app_cpu_util_per_node)),
                pct(mean_of(un, |m| m.app_cpu_util_per_node)),
            ]);
        }
        t.print();
    }
    println!("paper shape: per-node IS overhead falls with more CPUs; the shared bus");
    println!("becomes the bottleneck at high CPU counts, depressing app CPU time");
}

/// Reproduce Figure 23: global metrics vs sampling period for 1–4 daemons
/// (16 nodes, 32 apps) — including the pipe-full blocking collapse at
/// small periods.
pub fn run_fig23(scale: &Scale) {
    heading("Figure 23: SMP metrics vs sampling period, 1-4 Pds (16 nodes, 32 apps)");
    let periods = [2.0, 5.0, 10.0, 20.0, 40.0, 64.0];
    let mut cfgs = vec![];
    for (_, batch) in POLICIES {
        for &p in &periods {
            for pds in [1, 4] {
                cfgs.push(SimConfig {
                    sampling_period_us: p * 1e3,
                    pds,
                    batch,
                    ..smp_base(scale)
                });
            }
        }
    }
    let grid = run_grid(&cfgs, scale);
    for ((label, _), panel) in POLICIES.into_iter().zip(grid.chunks(2 * periods.len())) {
        println!("\n{label}");
        let mut t = TextTable::new(vec![
            "period ms",
            "IS CPU %/node 1Pd",
            "IS CPU %/node 4Pd",
            "latency ms 1Pd",
            "app CPU % 1Pd",
            "app CPU % 4Pd",
            "blocked 1Pd",
        ]);
        for (&p, point) in periods.iter().zip(panel.chunks(2)) {
            let (p1, p4) = (&point[0], &point[1]);
            t.row(vec![
                fnum(p, 0),
                pct(mean_of(p1, |m| m.is_cpu_util_per_node)),
                pct(mean_of(p4, |m| m.is_cpu_util_per_node)),
                ms(mean_of(p1, |m| m.fwd_latency_mean_s)),
                pct(mean_of(p1, |m| m.app_cpu_util_per_node)),
                pct(mean_of(p4, |m| m.app_cpu_util_per_node)),
                fnum(mean_of(p1, |m| m.blocked_deposits as f64), 0),
            ]);
        }
        t.print();
    }
    println!("paper shape: below ~10 ms the pipe fills and blocks the application —");
    println!("app CPU drops sharply with one daemon; extra daemons relieve it; BF beats CF");
}

/// Reproduce Figure 24: global metrics vs application-process count for
/// 1–4 daemons (40 ms, 16 nodes).
pub fn run_fig24(scale: &Scale) {
    heading("Figure 24: SMP metrics vs app processes, 1-4 Pds (40 ms, 16 nodes)");
    let app_counts = [4usize, 8, 16, 32, 48, 64];
    let mut cfgs = vec![];
    for (_, batch) in POLICIES {
        for &apps in &app_counts {
            for pds in [1, 4] {
                cfgs.push(SimConfig {
                    apps_per_node: apps,
                    pds,
                    batch,
                    ..smp_base(scale)
                });
            }
        }
    }
    let grid = run_grid(&cfgs, scale);
    for ((label, _), panel) in POLICIES.into_iter().zip(grid.chunks(2 * app_counts.len())) {
        println!("\n{label}");
        let mut t = TextTable::new(vec![
            "apps",
            "IS CPU %/node 1Pd",
            "IS CPU %/node 4Pd",
            "latency ms 1Pd",
            "app CPU % 1Pd",
        ]);
        for (&apps, point) in app_counts.iter().zip(panel.chunks(2)) {
            let (p1, p4) = (&point[0], &point[1]);
            t.row(vec![
                apps.to_string(),
                pct(mean_of(p1, |m| m.is_cpu_util_per_node)),
                pct(mean_of(p4, |m| m.is_cpu_util_per_node)),
                ms(mean_of(p1, |m| m.fwd_latency_mean_s)),
                pct(mean_of(p1, |m| m.app_cpu_util_per_node)),
            ]);
        }
        t.print();
    }
}
