//! `paradyn-lint` — in-tree, zero-dependency static analysis for the
//! workspace's determinism, no-panic, and hermeticity invariants.
//!
//! The reproduction's headline claims (bit-identical replication at any
//! thread count, bitwise-inert fault plans, oracle-identical calendar
//! traces) rest on *source-level* invariants that runtime tests can only
//! spot-check: a wall-clock read or a `HashMap` iteration that a given
//! seed never exercises still breaks determinism for some other seed.
//! This crate enforces those invariants for every line of every file, on
//! every `cargo test` run (`tests/lint_clean.rs`) and in `scripts/
//! verify.sh`.
//!
//! Consistency invariants that span declarations and impl bodies (every
//! model field snapshotted, every counter reported) need more than token
//! patterns, so the lexer feeds a hand-written item parser ([`parse`])
//! building per-file trees of structs, enums, impls, and fns, resolved
//! workspace-wide into a symbol table ([`model`]) that two completeness
//! passes run against ([`passes`]).
//!
//! Because the workspace is hermetic (no external crates — see
//! `tests/hermetic.rs`), everything is built from scratch: a hand-written
//! lexer ([`lexer`]), a per-file source model with test-region and
//! suppression tracking ([`source`]), the token-level rules ([`rules`]),
//! the item model ([`parse`], [`model`], [`passes`]), and an engine with
//! a ratchet-only baseline ([`engine`]). See DESIGN.md §7.

pub mod engine;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod passes;
pub mod rules;
pub mod source;

pub use engine::{lint_source, run, workspace_crate_allowlist, Options, Report};
pub use passes::MARKERS;
pub use rules::{Finding, RULES};
