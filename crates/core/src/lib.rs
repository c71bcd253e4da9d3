#![warn(missing_docs)]
//! # paradyn-core — the ROCC model of the Paradyn instrumentation system
//!
//! The paper's primary contribution as an executable artifact: a
//! Resource-OCCupancy (ROCC) discrete-event model of Paradyn's data
//! collection path — instrumented application processes depositing samples
//! into bounded Unix pipes, per-node Paradyn daemons collecting and
//! forwarding them under the **collect-and-forward (CF)** or
//! **batch-and-forward (BF)** policy, **directly** or along a **binary
//! merge tree**, to the main Paradyn process — on three architectures
//! (NOW, SMP, MPP).
//!
//! * [`config`] — architectures, policies, and experiment factors;
//! * [`pipe`] — the bounded pipe with writer blocking;
//! * [`model`] — the event-driven system model (Figure 5);
//! * [`metrics`] — the paper's metric set (direct overhead, monitoring
//!   latency, throughput, application CPU utilization);
//! * [`experiment`] — single and replicated runs with confidence
//!   intervals;
//! * [`validate`] — the Table 3 measurement-vs-simulation check.
//!
//! ## Quick start
//!
//! ```
//! use paradyn_core::{run, Arch, SimConfig};
//!
//! let cf = run(&SimConfig { duration_s: 2.0, ..Default::default() });
//! let bf = run(&SimConfig { duration_s: 2.0, batch: 32, ..Default::default() });
//! // The BF policy spends less daemon CPU per forwarded sample.
//! assert!(bf.pd_cpu_util_per_node < cf.pd_cpu_util_per_node);
//! # let _ = Arch::Smp;
//! ```

pub mod config;
pub mod experiment;
pub mod metrics;
pub mod model;
pub mod pipe;
pub mod validate;

pub use config::{
    Arch, ConsumerStallFaults, DaemonCrashFaults, DegradationConfig, FaultPlan,
    Forwarding, LinkFaults, OverloadRamp, SimConfig,
};
pub use experiment::{
    default_threads, predicted_events, replication_seed, run, run_forked, run_many,
    run_perturbed_from_zero, run_replicated, run_replicated_threads, Replicated,
};
pub use metrics::SimMetrics;
pub use model::snapshot::{fork_n, warm_snapshot};
pub use model::{build, build_with_calendar, shardable, RoccModel};
pub use pipe::{Deposit, OverflowPolicy, Pipe};
pub use validate::{validate, validation_config, ValidationResult, TABLE3};
