#![warn(missing_docs)]
//! # paradyn-workload — workload characterization for the Paradyn IS study
//!
//! The paper parameterizes its ROCC model from AIX traces of the NAS
//! `pvmbt` benchmark on an IBM SP-2 (Section 2.3). That hardware and those
//! traces are unavailable, so this crate provides the documented substitute:
//!
//! * [`trace`] — AIX-style occupancy records with a text codec;
//! * [`synth`] — a synthetic trace generator driven by the paper's own
//!   published distributions (Table 2), standing in for the SP-2 tracing
//!   facility;
//! * [`characterize`] — the measurement-analysis pipeline: Table 1 summary
//!   statistics and Table 2 distribution fits, producing a [`RoccParams`];
//! * [`params`] — the ROCC parameter set with the paper's defaults;
//! * [`nas`] — application profiles (pvmbt, compute- and
//!   communication-intensive).

pub mod characterize;
pub mod nas;
pub mod params;
pub mod replay;
pub mod synth;
pub mod trace;

pub use characterize::{characterize, table1, Characterization, ClassFits, Table1Row};
pub use nas::{comm_intensive, compute_intensive, pvmbt, AppProfile};
pub use params::{ProcessParams, RoccParams};
pub use replay::ReplaySchedule;
pub use synth::{synthesize, SynthConfig};
pub use trace::{ProcessClass, Resource, Trace, TraceRecord};
