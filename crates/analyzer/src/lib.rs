//! # knots-analyzer — the workspace source linter
//!
//! Kube-Knots' headline claim is reproducibility: a run is a pure function
//! of `(scheduler, workload, seed)`. Most of what guards it is clippy,
//! configured in the workspace manifest and `clippy.toml`: no wall clock,
//! no hash collection, no lock, no panicking call and no process-stream
//! write in library code (DESIGN.md §8). This crate enforces the rules clippy cannot
//! say:
//!
//! * [`lexer`] tokenizes Rust source with enough fidelity that rule text
//!   inside strings, comments and raw strings can never fire;
//! * [`parser`] layers a brace-tree/item scope parser on the token stream
//!   (fn boundaries, block nesting) for the event-handler rule;
//! * [`rules`] holds the rule table and the token-shaped rules: metric and
//!   span names (M1) and `unsafe` hygiene (C3);
//! * [`events`] holds the event-handler rule (E1: no tick quantization);
//! * [`engine`] walks the workspace, classifies files, carves out
//!   `#[cfg(test)]` regions and skips the vendored shims and the fixtures;
//! * [`diag`] renders findings as text or JSON.
//!
//! Run it with `cargo run -p knots-analyzer -- check` (add `--format json`
//! for CI). Every finding denies; there is no suppression. The crate only
//! reads source; that a seeded run really replays bit for bit is checked
//! by the pinned report digests in the root `tests/determinism.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod events;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use diag::Diagnostic;
pub use engine::{check_root, check_source, classify, FileContext, FileKind};
/// Re-exported only because the benchmark harness names it here; the
/// digest itself lives beside `RunReport`.
pub use knots_core::report_digest;
