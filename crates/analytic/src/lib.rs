#![warn(missing_docs)]
//! # paradyn-analytic — operational analysis of the Paradyn IS ROCC model
//!
//! Section 3 of the paper derives "back-of-the-envelope" metrics for the
//! instrumentation system with operational laws under a flow-balance
//! assumption. This crate implements those calculations:
//!
//! * [`laws`] — the operational laws themselves;
//! * [`inputs`] — service demands ([`Demands`]) and experiment knobs
//!   ([`Knobs`], eq. 1's arrival rate);
//! * [`now`] — the NOW case, equations (1)–(6), Figures 9–10;
//! * [`smp`] — the SMP case, equations (7)–(12), Figures 12–13;
//! * [`mpp`] — the MPP case with direct and binary-tree forwarding,
//!   equations (13)–(16), Figures 14–15;
//! * [`mva`] — exact Mean Value Analysis (the approach the paper considers
//!   and rejects for application CPU utilization — kept as an ablation and
//!   sanity envelope).
//!
//! The analytic results are deliberately approximate; the paper uses them
//! as an intuitive cross-check on the simulation, and the integration tests
//! of this workspace do the same in reverse.

pub mod inputs;
pub mod laws;
pub mod mpp;
pub mod mva;
pub mod now;
pub mod smp;

pub use inputs::{Demands, Knobs};
pub use mpp::{mpp_metrics, Forwarding, MppMetrics};
pub use mva::{app_cpu_utilization_mva, mva, Center, MvaSolution};
pub use now::{now_metrics, NowMetrics};
pub use smp::{smp_metrics, SmpMetrics};
