//! Tables 1–3: workload characterization and model validation.

use crate::fmt::{fnum, heading, TextTable};
use crate::scale::Scale;
use paradyn_core::validate::validate;
use paradyn_stats::SplitMix64;
use paradyn_workload::{
    characterize, table1, Characterization, ProcessClass, Resource, SynthConfig, Trace,
};

/// Generate the characterization trace used by Tables 1–2 and Figure 8.
pub fn characterization_trace(scale: &Scale) -> Trace {
    let cfg = SynthConfig {
        duration_us: scale.trace_us,
        ..Default::default()
    };
    paradyn_workload::synthesize(&cfg, &mut SplitMix64(scale.seed))
}

/// Paper Table 1 reference (mean, std) per class for CPU occupancy.
const TABLE1_PAPER_CPU: [(&str, f64, f64); 5] = [
    ("Application process", 2213.0, 3034.0),
    ("Paradyn daemon", 267.0, 197.0),
    ("PVM daemon", 294.0, 206.0),
    ("Other processes", 367.0, 819.0),
    ("Main Paradyn process", 3208.0, 3287.0),
];

/// Reproduce Table 1: summary statistics of CPU and network occupancy by
/// process class, printed next to the paper's values.
pub fn run_table1(scale: &Scale) {
    heading("Table 1: occupancy statistics of pvmbt on the (synthetic) SP-2");
    let trace = characterization_trace(scale);
    let rows = table1(&trace);
    let mut t = TextTable::new(vec![
        "Process type",
        "CPU mean",
        "CPU std",
        "CPU min",
        "CPU max",
        "Net mean",
        "Net std",
        "paper CPU mean",
        "paper CPU std",
    ]);
    for (row, paper) in rows.iter().zip(TABLE1_PAPER_CPU) {
        let c = row.cpu.as_ref();
        let n = row.net.as_ref();
        t.row(vec![
            row.class.label().to_string(),
            c.map_or("-".into(), |s| fnum(s.mean, 0)),
            c.map_or("-".into(), |s| fnum(s.std_dev, 0)),
            c.map_or("-".into(), |s| fnum(s.min, 0)),
            c.map_or("-".into(), |s| fnum(s.max, 0)),
            n.map_or("-".into(), |s| fnum(s.mean, 0)),
            n.map_or("-".into(), |s| fnum(s.std_dev, 0)),
            fnum(paper.1, 0),
            fnum(paper.2, 0),
        ]);
    }
    t.print();
    println!("({} trace records analysed)", trace.len());
}

/// Reproduce Table 2: fitted distributions per class, printed next to the
/// paper's choices.
pub fn run_table2(scale: &Scale) {
    heading("Table 2: fitted ROCC parameters");
    let trace = characterization_trace(scale);
    let ch: Characterization = characterize(&trace);
    let paper: [(&str, &str, &str); 5] = [
        ("Application process", "lognormal(2213, 3034)", "exponential(223)"),
        ("Paradyn daemon", "exponential(267)", "exponential(71)"),
        ("PVM daemon", "lognormal(294, 206)", "exponential(58)"),
        ("Other processes", "lognormal(367, 819)", "exponential(92)"),
        ("Main Paradyn process", "lognormal(3208, 3287)", "lognormal(214, 451)"),
    ];
    let mut t = TextTable::new(vec![
        "Process type",
        "CPU fit (ours)",
        "CPU fit (paper)",
        "Net fit (ours)",
        "Net fit (paper)",
        "Interarrival (ours)",
    ]);
    for (class, p) in ProcessClass::ALL.iter().zip(paper) {
        let c = ch.class(*class);
        t.row(vec![
            class.label().to_string(),
            c.best_cpu().map_or("-".into(), |rv| rv.describe()),
            p.1.to_string(),
            c.best_net().map_or("-".into(), |rv| rv.describe()),
            p.2.to_string(),
            c.cpu_interarrival
                .as_ref()
                .map_or("-".into(), |rv| rv.describe()),
        ]);
    }
    t.print();
    let app = ch.class(ProcessClass::Application);
    println!(
        "K-S of winning app CPU fit: {:.4} (competitors: {})",
        app.cpu_fits[0].ks,
        app.cpu_fits[1..]
            .iter()
            .map(|f| format!("{} {:.4}", f.rv.family(), f.ks))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Reproduce Table 3: measurement vs simulation validation.
pub fn run_table3(_scale: &Scale) {
    heading("Table 3: measurement vs simulation (pvmbt, CF, 40 ms, 100 s)");
    let v = validate();
    crate::simhelp::count(std::slice::from_ref(&v.metrics));
    let mut t = TextTable::new(vec![
        "Type of experiment",
        "Application CPU time (s)",
        "Pd CPU time (s)",
    ]);
    t.row(vec![
        "Measurement based (paper)".to_string(),
        fnum(v.reference.measured_app_cpu_s, 2),
        fnum(v.reference.measured_pd_cpu_s, 2),
    ]);
    t.row(vec![
        "Simulation (paper)".to_string(),
        fnum(v.reference.paper_sim_app_cpu_s, 2),
        fnum(v.reference.paper_sim_pd_cpu_s, 2),
    ]);
    t.row(vec![
        "Simulation (this reproduction)".to_string(),
        fnum(v.app_cpu_s, 2),
        fnum(v.pd_cpu_s, 2),
    ]);
    t.print();
    println!(
        "relative error vs measurement: app {:.1}%, Pd {:.1}%",
        v.app_rel_err() * 100.0,
        v.pd_rel_err() * 100.0
    );
}

/// Trace used by Figure 8 (application-process occupancy samples).
pub fn fig8_samples(scale: &Scale) -> (Vec<f64>, Vec<f64>) {
    let trace = characterization_trace(scale);
    (
        trace.occupancies(ProcessClass::Application, Resource::Cpu),
        trace.occupancies(ProcessClass::Application, Resource::Network),
    )
}
