#![warn(missing_docs)]
//! # paradyn-bench — the reproduction harness
//!
//! One module per group of paper artifacts; each `run_*` function
//! regenerates a table or figure and prints the series/rows the paper
//! reports, annotated with the paper's reference values where published.
//! The `repro` binary dispatches on artifact ids (`table1` … `fig31`,
//! `all`); the in-tree wall-clock benches under `benches/` (built on
//! [`timing`] — the build is hermetic, so no Criterion) measure the
//! performance of the simulator itself.

pub mod analytic_figs;
pub mod degrade_figs;
pub mod fault_figs;
pub mod fig8;
pub mod fmt;
pub mod json;
pub mod mpp_figs;
pub mod now_figs;
pub mod scale;
pub mod simhelp;
pub mod smp_figs;
pub mod tables;
pub mod testbed_figs;
pub mod timing;

pub use scale::Scale;

use paradyn_testbed::{KernelKind, Measurement, Policy};
use simhelp::FactorialRun;

/// All artifact ids, in paper order.
pub const ARTIFACTS: &[&str] = &[
    "table1", "table2", "table3", "fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "fig15",
    "table4", "fig16", "fig17", "fig18", "fig19", "table5", "fig20", "fig21", "fig22", "fig23",
    "fig24", "table6", "fig25", "fig26", "fig27", "fig28", "fig30", "table7", "fig31", "table8",
    "faults", "degradation",
];

/// The experiments that two artifacts read, each run at most once per
/// value: Table 4 and Figure 16 share the NOW factorial, Table 5 and
/// Figure 20 the SMP one, Table 6 and Figure 25 the MPP one, and Tables 7
/// and 8 are derived from Figure 30's and Figure 31's own measurement
/// grids, as in the paper. The caller owns it; `repro` keeps one for the
/// whole process.
pub struct Shared {
    scale: Scale,
    now: Option<FactorialRun>,
    smp: Option<FactorialRun>,
    mpp: Option<FactorialRun>,
    fig30: Option<Vec<(Policy, u64, Measurement)>>,
    fig31: Option<Vec<(Policy, KernelKind, Measurement)>>,
}

impl Shared {
    /// Nothing run yet; every experiment will run at `scale`.
    pub fn new(scale: Scale) -> Shared {
        Shared {
            scale,
            now: None,
            smp: None,
            mpp: None,
            fig30: None,
            fig31: None,
        }
    }
}

/// Run one artifact by id at the scale of `shared`, running a shared
/// experiment only if no earlier artifact has. Returns `false` for an
/// unknown id.
pub fn run_artifact(id: &str, shared: &mut Shared) -> bool {
    let Shared {
        scale,
        now,
        smp,
        mpp,
        fig30,
        fig31,
    } = shared;
    let scale = &*scale;
    match id {
        "table1" => tables::run_table1(scale),
        "table2" => tables::run_table2(scale),
        "table3" => tables::run_table3(scale),
        "fig8" => fig8::run_fig8(scale),
        "fig9" => analytic_figs::run_fig9(),
        "fig10" => analytic_figs::run_fig10(),
        "fig12" => analytic_figs::run_fig12(),
        "fig13" => analytic_figs::run_fig13(),
        "fig14" => analytic_figs::run_fig14(),
        "fig15" => analytic_figs::run_fig15(),
        "table4" => now_figs::run_table4(
            now.get_or_insert_with(|| now_figs::now_factorial(scale)),
            scale,
        ),
        "fig16" => now_figs::run_fig16(now.get_or_insert_with(|| now_figs::now_factorial(scale))),
        "fig17" => now_figs::run_fig17(scale),
        "fig18" => now_figs::run_fig18(scale),
        "fig19" => now_figs::run_fig19(scale),
        "table5" => smp_figs::run_table5(smp.get_or_insert_with(|| smp_figs::smp_factorial(scale))),
        "fig20" => smp_figs::run_fig20(smp.get_or_insert_with(|| smp_figs::smp_factorial(scale))),
        "fig21" => smp_figs::run_fig21(scale),
        "fig22" => smp_figs::run_fig22(scale),
        "fig23" => smp_figs::run_fig23(scale),
        "fig24" => smp_figs::run_fig24(scale),
        "table6" => mpp_figs::run_table6(mpp.get_or_insert_with(|| mpp_figs::mpp_factorial(scale))),
        "fig25" => mpp_figs::run_fig25(mpp.get_or_insert_with(|| mpp_figs::mpp_factorial(scale))),
        "fig26" => mpp_figs::run_fig26(scale),
        "fig27" => mpp_figs::run_fig27(scale),
        "fig28" => mpp_figs::run_fig28(scale),
        "fig30" => {
            testbed_figs::run_fig30(fig30.get_or_insert_with(|| testbed_figs::fig30_grid(scale)))
        }
        "table7" => {
            testbed_figs::run_table7(fig30.get_or_insert_with(|| testbed_figs::fig30_grid(scale)))
        }
        "fig31" => {
            testbed_figs::run_fig31(fig31.get_or_insert_with(|| testbed_figs::fig31_grid(scale)))
        }
        "table8" => {
            testbed_figs::run_table8(fig31.get_or_insert_with(|| testbed_figs::fig31_grid(scale)))
        }
        "faults" => fault_figs::run_faults(scale),
        "degradation" => degrade_figs::run_degradation(scale),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_list_is_complete_and_dispatchable() {
        assert_eq!(ARTIFACTS.len(), 32);
        assert!(!run_artifact("fig99", &mut Shared::new(Scale::quick())));
    }
}
