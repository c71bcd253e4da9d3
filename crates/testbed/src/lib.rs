#![warn(missing_docs)]
//! # paradyn-testbed — a real multithreaded mini-IS for measurement-based
//! validation (paper Section 5)
//!
//! The paper validates its simulation findings by implementing the BF
//! policy in the real Paradyn IS and measuring CPU overheads with AIX
//! kernel tracing on an SP-2. This crate is the documented substitute:
//! a genuinely concurrent instrumentation system in which
//!
//! * application threads run verifiable compute kernels
//!   ([`kernels::BtLike`] / [`kernels::IsLike`] for NAS pvmbt / pvmis);
//! * instrumentation embedded in the application emits periodic samples
//!   into **real OS pipes** (`pipe(2)`, blocking when full);
//! * daemon threads collect the pipes and forward to a collector under
//!   the CF or BF policy — CF pays one `write` system call plus protocol
//!   work per sample, BF amortizes them over a batch;
//! * per-thread CPU time is measured from `/proc` ([`cputime`]), standing
//!   in for the AIX tracing facility.
//!
//! The mechanism under test (per-forward system-call + marshalling cost)
//! is the same one the paper credits for its >60% measured overhead
//! reduction, so the comparison — not the absolute numbers — carries over.

pub mod cputime;
pub mod harness;
pub mod kernels;
pub mod pipes;

pub use cputime::{self_check, CpuTimeSource, ThreadCpu};
pub use harness::{run, Measurement, Policy, TestbedConfig};
pub use kernels::{BtLike, IsLike, Kernel, KernelKind};
pub use pipes::{
    sample_pipe, BulkReader, SampleReader, SampleRecord, SampleWriter, TruncatedRecord,
};
