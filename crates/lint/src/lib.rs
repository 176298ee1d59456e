//! socmix-lint — in-tree static analysis for the socmix workspace.
//!
//! The reproduction's headline claims (bit-for-bit serial/parallel
//! equality, byte-identical resume, perturbation-free telemetry) rest
//! on conventions no compiler checks: `SAFETY:` discipline at every
//! unsafe site, no stray stdio or env reads from library crates, no
//! unordered containers in float-accumulating code, panic discipline
//! in the worker-pool hot path — and, since the workspace grew
//! lock-free gates, `ORDERING:` discipline at every load-bearing
//! atomic, and knob/metric name registries that match their
//! documentation. This crate machine-checks all of it, in the same
//! zero-dependency in-tree style as `socmix-obs`, in two passes: a
//! hand-rolled lexer ([`lexer`]) feeds a per-file analysis and item
//! index ([`rules`], [`index`]) — built once per file and shared by
//! every rule — then the per-file rules and the workspace-level
//! cross-file rules ([`cross`]) run over the aggregate, scoped by the
//! workspace invariant map ([`config`]).
//! The audit renderers ([`audit`]) keep `results/unsafe_audit.md` and
//! `results/ordering_audit.md` honest.
//!
//! Run it as `cargo run -p socmix-lint -- check [--json] [--timing]
//! [paths…]`; see the README's "Static analysis" section for the
//! diagnostic-code table and the allow-pragma contract.

#![forbid(unsafe_code)]

pub mod audit;
pub mod config;
pub mod cross;
pub mod index;
pub mod lexer;
pub mod rules;

pub use config::{find_workspace_root, workspace_files, Config, Rule, Scope, RULES};
pub use cross::{lint_source, lint_workspace, SourceFile, Workspace};
pub use rules::{Diagnostic, CODE_MALFORMED_PRAGMA, CODE_UNUSED_PRAGMA};
