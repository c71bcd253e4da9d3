//! AIX-style resource-occupancy trace records.
//!
//! The paper's workload characterization is driven by traces from the SP-2's
//! AIX tracing facility; each relevant record says *which process occupied
//! which resource for how long, starting when*. This module defines that
//! record, an in-memory trace, and a simple line-oriented text codec so
//! traces can be saved and re-read (we deliberately avoid a heavyweight
//! serialization dependency; the format is one record per line:
//! `t_us pid class resource occupancy_us`).

use std::fmt;
use std::io::{self, BufRead, Write};
use std::str::FromStr;

/// The process classes of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessClass {
    /// Instrumented application process (the NAS benchmark).
    Application,
    /// Paradyn daemon (Pd).
    ParadynDaemon,
    /// PVM daemon (pvmd).
    PvmDaemon,
    /// Other user/system processes.
    Other,
    /// The main Paradyn process on the host workstation.
    MainParadyn,
}

impl ProcessClass {
    /// All classes, in Table 1 order.
    pub const ALL: [ProcessClass; 5] = [
        ProcessClass::Application,
        ProcessClass::ParadynDaemon,
        ProcessClass::PvmDaemon,
        ProcessClass::Other,
        ProcessClass::MainParadyn,
    ];

    /// Table-1 row label.
    pub fn label(self) -> &'static str {
        match self {
            ProcessClass::Application => "Application process",
            ProcessClass::ParadynDaemon => "Paradyn daemon",
            ProcessClass::PvmDaemon => "PVM daemon",
            ProcessClass::Other => "Other processes",
            ProcessClass::MainParadyn => "Main Paradyn process",
        }
    }

    fn code(self) -> &'static str {
        match self {
            ProcessClass::Application => "app",
            ProcessClass::ParadynDaemon => "pd",
            ProcessClass::PvmDaemon => "pvmd",
            ProcessClass::Other => "other",
            ProcessClass::MainParadyn => "main",
        }
    }
}

impl fmt::Display for ProcessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl FromStr for ProcessClass {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "app" => ProcessClass::Application,
            "pd" => ProcessClass::ParadynDaemon,
            "pvmd" => ProcessClass::PvmDaemon,
            "other" => ProcessClass::Other,
            "main" => ProcessClass::MainParadyn,
            other => return Err(format!("unknown process class {other:?}")),
        })
    }
}

/// The two resources of the ROCC model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A CPU occupancy request.
    Cpu,
    /// A network occupancy request.
    Network,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Cpu => "cpu",
            Resource::Network => "net",
        })
    }
}

impl FromStr for Resource {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "cpu" => Resource::Cpu,
            "net" => Resource::Network,
            other => return Err(format!("unknown resource {other:?}")),
        })
    }
}

/// One occupancy record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Start time of the occupancy, microseconds since trace start.
    pub t_us: f64,
    /// Process id within its class.
    pub pid: u32,
    /// Process class.
    pub class: ProcessClass,
    /// Which resource was occupied.
    pub resource: Resource,
    /// Occupancy length in microseconds.
    pub occupancy_us: f64,
}

/// An in-memory trace (records sorted by start time).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace { records: vec![] }
    }

    /// Build from records, sorting by time.
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by(|a, b| a.t_us.partial_cmp(&b.t_us).expect("NaN time"));
        Trace { records }
    }

    /// Append a record (keeps insertion order; call [`Trace::sort`] after
    /// bulk appends from multiple generators).
    pub fn push(&mut self, r: TraceRecord) {
        self.records.push(r);
    }

    /// Sort records by start time.
    pub fn sort(&mut self) {
        self.records
            .sort_by(|a, b| a.t_us.partial_cmp(&b.t_us).expect("NaN time"));
    }

    /// All records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Occupancy lengths of one `(class, resource)` population —
    /// the sample behind one cell pair of Table 1.
    pub fn occupancies(&self, class: ProcessClass, resource: Resource) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.class == class && r.resource == resource)
            .map(|r| r.occupancy_us)
            .collect()
    }

    /// Inter-arrival times (µs) of requests of one `(class, resource)`
    /// population, in trace order.
    pub fn interarrivals(&self, class: ProcessClass, resource: Resource) -> Vec<f64> {
        let times: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.class == class && r.resource == resource)
            .map(|r| r.t_us)
            .collect();
        times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Write the trace in the line format.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for r in &self.records {
            writeln!(
                w,
                "{:.3} {} {} {} {:.3}",
                r.t_us, r.pid, r.class, r.resource, r.occupancy_us
            )?;
        }
        Ok(())
    }

    /// Read a trace from the line format. Blank lines and `#` comments are
    /// skipped.
    pub fn read_from<R: BufRead>(r: R) -> io::Result<Trace> {
        let mut records = vec![];
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse = |line: &str| -> Result<TraceRecord, String> {
                let mut it = line.split_ascii_whitespace();
                let mut next = |what: &str| it.next().ok_or(format!("missing {what}"));
                let t_us: f64 = next("time")?.parse().map_err(|e| format!("time: {e}"))?;
                let pid: u32 = next("pid")?.parse().map_err(|e| format!("pid: {e}"))?;
                let class: ProcessClass = next("class")?.parse()?;
                let resource: Resource = next("resource")?.parse()?;
                let occupancy_us: f64 = next("occupancy")?
                    .parse()
                    .map_err(|e| format!("occupancy: {e}"))?;
                Ok(TraceRecord {
                    t_us,
                    pid,
                    class,
                    resource,
                    occupancy_us,
                })
            };
            match parse(line) {
                Ok(rec) => records.push(rec),
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("trace line {}: {e}", lineno + 1),
                    ))
                }
            }
        }
        Ok(Trace::from_records(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, class: ProcessClass, res: Resource, occ: f64) -> TraceRecord {
        TraceRecord {
            t_us: t,
            pid: 0,
            class,
            resource: res,
            occupancy_us: occ,
        }
    }

    #[test]
    fn from_records_sorts_by_time() {
        let t = Trace::from_records(vec![
            rec(5.0, ProcessClass::Application, Resource::Cpu, 1.0),
            rec(1.0, ProcessClass::Application, Resource::Cpu, 2.0),
        ]);
        assert_eq!(t.records()[0].t_us, 1.0);
    }

    #[test]
    fn occupancies_filter_by_class_and_resource() {
        let t = Trace::from_records(vec![
            rec(0.0, ProcessClass::Application, Resource::Cpu, 10.0),
            rec(1.0, ProcessClass::Application, Resource::Network, 20.0),
            rec(2.0, ProcessClass::ParadynDaemon, Resource::Cpu, 30.0),
            rec(3.0, ProcessClass::Application, Resource::Cpu, 40.0),
        ]);
        assert_eq!(
            t.occupancies(ProcessClass::Application, Resource::Cpu),
            vec![10.0, 40.0]
        );
        assert_eq!(t.occupancies(ProcessClass::ParadynDaemon, Resource::Cpu), vec![30.0]);
    }

    #[test]
    fn interarrivals_computed_within_population() {
        let t = Trace::from_records(vec![
            rec(0.0, ProcessClass::PvmDaemon, Resource::Cpu, 1.0),
            rec(50.0, ProcessClass::Application, Resource::Cpu, 1.0),
            rec(100.0, ProcessClass::PvmDaemon, Resource::Cpu, 1.0),
            rec(250.0, ProcessClass::PvmDaemon, Resource::Cpu, 1.0),
        ]);
        assert_eq!(
            t.interarrivals(ProcessClass::PvmDaemon, Resource::Cpu),
            vec![100.0, 150.0]
        );
    }

    #[test]
    fn codec_round_trips() {
        let t = Trace::from_records(vec![
            rec(0.5, ProcessClass::Application, Resource::Cpu, 2213.25),
            rec(100.0, ProcessClass::ParadynDaemon, Resource::Network, 71.0),
            rec(200.0, ProcessClass::MainParadyn, Resource::Cpu, 3208.0),
        ]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let t2 = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(t.records().len(), t2.records().len());
        for (a, b) in t.records().iter().zip(t2.records()) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.resource, b.resource);
            assert!((a.t_us - b.t_us).abs() < 1e-3);
            assert!((a.occupancy_us - b.occupancy_us).abs() < 1e-3);
        }
    }

    #[test]
    fn codec_skips_comments_and_rejects_garbage() {
        let text = "# header\n\n0.0 0 app cpu 10.0\n";
        let t = Trace::read_from(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        let bad = "0.0 0 alien cpu 10.0\n";
        assert!(Trace::read_from(bad.as_bytes()).is_err());
        let short = "0.0 0 app cpu\n";
        assert!(Trace::read_from(short.as_bytes()).is_err());
    }

    #[test]
    fn class_labels_match_table1() {
        assert_eq!(ProcessClass::Application.label(), "Application process");
        assert_eq!(ProcessClass::MainParadyn.label(), "Main Paradyn process");
        assert_eq!(ProcessClass::ALL.len(), 5);
    }
}
