#![warn(missing_docs)]
//! # paradyn-isim — facade crate
//!
//! Re-exports the workspace members under one roof so the examples and
//! integration tests read naturally. See the individual crates for the
//! real API surface:
//!
//! * [`paradyn_des`] — discrete-event simulation kernel;
//! * [`paradyn_stats`] — distributions, fitting, factorial designs, CIs;
//! * [`paradyn_workload`] — traces and workload characterization;
//! * [`paradyn_core`] — the ROCC model of the Paradyn IS;
//! * [`paradyn_analytic`] — the operational-law analysis;
//! * [`paradyn_testbed`] — the real threaded mini-IS.
//!
//! The [`chaos`] module lives here rather than in a member crate: it
//! composes the model, the DES kernel, and the property harness into a
//! randomized scenario search with shrinking.

pub mod chaos;

pub use paradyn_analytic as analytic;
pub use paradyn_core as core_model;
pub use paradyn_des as des;
pub use paradyn_stats as stats;
pub use paradyn_testbed as testbed;
pub use paradyn_workload as workload;
