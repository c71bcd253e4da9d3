//! Section 5 measurement experiments on the real threaded mini-IS:
//! Figure 30 / Table 7 (policy vs sampling period) and Figure 31 / Table 8
//! (policy vs application program). As in the paper, each table is the
//! allocation of variation of its figure's own measurements: the table
//! functions take the figure's grid and never run the testbed.

use crate::fmt::{fnum, heading, pct, TextTable};
use crate::scale::Scale;
use paradyn_stats::Design2kr;
use paradyn_testbed::{run, KernelKind, Measurement, Policy, TestbedConfig};
use std::time::Duration;

fn measure(policy: Policy, period: Duration, kernel: KernelKind, scale: &Scale) -> Measurement {
    run(&TestbedConfig {
        policy,
        sampling_period: period,
        kernel,
        nodes: 2,
        duration: scale.testbed,
        seed: scale.seed,
    })
    .expect("testbed run failed")
}

/// The Figure 30 measurement grid: {CF, BF(32)} × {10 ms, 30 ms}.
pub fn fig30_grid(scale: &Scale) -> Vec<(Policy, u64, Measurement)> {
    let mut out = vec![];
    for &period_ms in &[10u64, 30] {
        for policy in [Policy::Cf, Policy::Bf { batch: 32 }] {
            let m = measure(
                policy,
                Duration::from_millis(period_ms),
                KernelKind::Bt,
                scale,
            );
            out.push((policy, period_ms, m));
        }
    }
    out
}

/// Figure 30's table: one row per measurement of the grid.
fn fig30_table(grid: &[(Policy, u64, Measurement)]) -> TextTable {
    let mut t = TextTable::new(vec![
        "sampling period",
        "policy",
        "Pd CPU (ms)",
        "main CPU (ms)",
        "app CPU (s)",
        "samples",
        "forward ops",
    ]);
    for (policy, period, m) in grid {
        t.row(vec![
            format!("{period} ms"),
            policy.label(),
            fnum(m.pd_cpu.as_secs_f64() * 1e3, 2),
            fnum(m.main_cpu.as_secs_f64() * 1e3, 2),
            fnum(m.app_cpu.as_secs_f64(), 2),
            m.samples_received.to_string(),
            m.forward_ops.to_string(),
        ]);
    }
    t
}

/// Reproduce Figure 30 from its grid: measured daemon and main-process
/// CPU time under CF vs BF at two sampling periods.
pub fn run_fig30(grid: &[(Policy, u64, Measurement)]) {
    heading("Figure 30: measured CPU overhead, CF vs BF(32) (bt_like kernel)");
    fig30_table(grid).print();
    for period in [10u64, 30] {
        let cf = grid
            .iter()
            .find(|(p, pr, _)| *p == Policy::Cf && *pr == period)
            .expect("grid complete");
        let bf = grid
            .iter()
            .find(|(p, pr, _)| matches!(p, Policy::Bf { .. }) && *pr == period)
            .expect("grid complete");
        println!(
            "{period} ms: Pd CPU reduction {:.0}%  main CPU reduction {:.0}%",
            100.0 * (1.0 - bf.2.pd_cpu.as_secs_f64() / cf.2.pd_cpu.as_secs_f64()),
            100.0 * (1.0 - bf.2.main_cpu.as_secs_f64() / cf.2.main_cpu.as_secs_f64()),
        );
    }
    println!("paper: >60% daemon and ~80% main-process reduction under BF");
    println!(
        "(cpu accounting source: {:?})",
        grid[0].2.cpu_source
    );
}

/// Table 7 from Figure 30's grid: allocation of variation of scheduling
/// policy vs sampling period, for daemon and main CPU times.
fn table7_table(grid: &[(Policy, u64, Measurement)]) -> TextTable {
    let mut pd = Design2kr::new(vec!["scheduling policy", "sampling period"]);
    let mut main = Design2kr::new(vec!["scheduling policy", "sampling period"]);
    for (policy, period, m) in grid {
        let a = matches!(policy, Policy::Bf { .. }) as usize;
        let b = (*period == 30) as usize;
        let bits = a | (b << 1);
        pd.set_responses(bits, vec![m.pd_cpu.as_secs_f64()]);
        main.set_responses(bits, vec![m.main_cpu.as_secs_f64()]);
    }
    let vp = pd.analyze();
    let vm = main.analyze();
    let mut t = TextTable::new(vec![
        "factor",
        "Pd CPU variation %",
        "main CPU variation %",
        "paper Pd %",
        "paper main %",
    ]);
    for (label, paper_pd, paper_main) in [("A", 47.6, 52.9), ("B", 35.9, 26.5), ("AB", 16.5, 20.7)]
    {
        t.row(vec![
            label.to_string(),
            fnum(vp.pct_of(label).expect("term exists"), 1),
            fnum(vm.pct_of(label).expect("term exists"), 1),
            fnum(paper_pd, 1),
            fnum(paper_main, 1),
        ]);
    }
    t
}

/// Reproduce Table 7 from Figure 30's grid.
pub fn run_table7(grid: &[(Policy, u64, Measurement)]) {
    heading("Table 7: variation explained — policy (A) vs sampling period (B)");
    table7_table(grid).print();
    println!("paper conclusion: the scheduling policy dominates the IS overhead variation");
}

/// The Figure 31 measurement grid: {CF, BF(32)} × {pvmbt, pvmis}.
pub fn fig31_grid(scale: &Scale) -> Vec<(Policy, KernelKind, Measurement)> {
    let mut out = vec![];
    for kernel in [KernelKind::Bt, KernelKind::Is] {
        for policy in [Policy::Cf, Policy::Bf { batch: 32 }] {
            let m = measure(policy, Duration::from_millis(10), kernel, scale);
            out.push((policy, kernel, m));
        }
    }
    out
}

/// Reproduce Figure 31 from its grid: normalized CPU occupancy per
/// process, CF vs BF, for the two applications.
pub fn run_fig31(grid: &[(Policy, KernelKind, Measurement)]) {
    heading("Figure 31: normalized CPU occupancy, CF vs BF(32), 10 ms sampling");
    let mut t = TextTable::new(vec![
        "application",
        "policy",
        "Pd normalized %",
        "main normalized %",
        "app CPU (s)",
    ]);
    for (policy, kernel, m) in grid {
        t.row(vec![
            kernel.label().to_string(),
            policy.label(),
            pct(m.pd_normalized()),
            pct(m.main_normalized()),
            fnum(m.app_cpu.as_secs_f64(), 2),
        ]);
    }
    t.print();
    println!("paper: the BF reduction is not significantly affected by the application");
}

/// Table 8 from Figure 31's grid: allocation of variation of scheduling
/// policy vs application program.
fn table8_table(grid: &[(Policy, KernelKind, Measurement)]) -> TextTable {
    let mut pd = Design2kr::new(vec!["scheduling policy", "application program"]);
    let mut main = Design2kr::new(vec!["scheduling policy", "application program"]);
    for (policy, kernel, m) in grid {
        let a = matches!(policy, Policy::Bf { .. }) as usize;
        let b = (*kernel == KernelKind::Is) as usize;
        let bits = a | (b << 1);
        pd.set_responses(bits, vec![m.pd_normalized()]);
        main.set_responses(bits, vec![m.main_normalized()]);
    }
    let vp = pd.analyze();
    let vm = main.analyze();
    let mut t = TextTable::new(vec![
        "factor",
        "Pd norm variation %",
        "main norm variation %",
        "paper Pd %",
        "paper main %",
    ]);
    for (label, paper_pd, paper_main) in [("A", 98.5, 86.8), ("B", 0.3, 6.8), ("AB", 1.2, 6.4)] {
        t.row(vec![
            label.to_string(),
            fnum(vp.pct_of(label).expect("term exists"), 1),
            fnum(vm.pct_of(label).expect("term exists"), 1),
            fnum(paper_pd, 1),
            fnum(paper_main, 1),
        ]);
    }
    t
}

/// Reproduce Table 8 from Figure 31's grid.
pub fn run_table8(grid: &[(Policy, KernelKind, Measurement)]) {
    heading("Table 8: variation explained — policy (A) vs application (B)");
    table8_table(grid).print();
    println!("paper conclusion: the effect of the application program is negligible");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement with the given daemon, main and application CPU (ms).
    fn with_cpu(base: &Measurement, pd_ms: u64, main_ms: u64, app_ms: u64) -> Measurement {
        Measurement {
            pd_cpu: Duration::from_millis(pd_ms),
            main_cpu: Duration::from_millis(main_ms),
            app_cpu: Duration::from_millis(app_ms),
            ..base.clone()
        }
    }

    /// Column `col` of a rendered table's data rows.
    fn column(t: &TextTable, col: usize) -> Vec<String> {
        let csv = t.render_csv();
        csv.lines()
            .skip(1)
            .map(|l| l.split(',').nth(col).unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn tables_7_and_8_are_their_figures_own_grids() {
        let scale = Scale {
            testbed: Duration::from_millis(20),
            ..Scale::quick()
        };
        let base = measure(Policy::Cf, Duration::from_millis(10), KernelKind::Bt, &scale);
        let bf = Policy::Bf { batch: 32 };
        // Figure 30's grid with a pure policy effect on daemon CPU and a
        // pure period effect on main CPU.
        let grid30 = vec![
            (Policy::Cf, 10, with_cpu(&base, 40, 30, 1000)),
            (bf, 10, with_cpu(&base, 10, 30, 1000)),
            (Policy::Cf, 30, with_cpu(&base, 40, 10, 1000)),
            (bf, 30, with_cpu(&base, 10, 10, 1000)),
        ];
        assert_eq!(column(&fig30_table(&grid30), 2), ["40.00", "10.00", "40.00", "10.00"]);
        let t7 = table7_table(&grid30);
        assert_eq!(column(&t7, 1), ["100.0", "0.0", "0.0"], "Pd: policy only");
        assert_eq!(column(&t7, 2), ["0.0", "100.0", "0.0"], "main: period only");
        // Figure 31's grid: the application changes nothing.
        let grid31 = vec![
            (Policy::Cf, KernelKind::Bt, with_cpu(&base, 300, 100, 700)),
            (bf, KernelKind::Bt, with_cpu(&base, 100, 20, 900)),
            (Policy::Cf, KernelKind::Is, with_cpu(&base, 300, 100, 700)),
            (bf, KernelKind::Is, with_cpu(&base, 100, 20, 900)),
        ];
        let t8 = table8_table(&grid31);
        assert_eq!(column(&t8, 1), ["100.0", "0.0", "0.0"]);
        assert_eq!(column(&t8, 2), ["100.0", "0.0", "0.0"]);
    }
}
