//! # knots-analyzer — the workspace lint engine
//!
//! Kube-Knots' headline claim is reproducibility: a run is a pure function
//! of `(scheduler, workload, seed)`. That property is easy to assert and
//! easy to erode — one `HashMap` iteration in a tie-break, one
//! `Instant::now()` in a decision path, one `partial_cmp().unwrap()` on a
//! NaN — so this crate enforces it mechanically:
//!
//! * [`lexer`] tokenizes Rust source with enough fidelity that rule text
//!   inside strings, comments and raw strings can never fire;
//! * [`parser`] layers a brace-tree/item scope parser on the token stream
//!   (fn boundaries, block nesting, statement ends) for the scope-aware
//!   rules;
//! * [`rules`] holds the token-shaped rules (D1–D3, P1–P2, H1, M1);
//! * [`conc`] holds the scope-aware concurrency rules: the guard-lifetime
//!   tracker behind C1 (no guard live across a fan-out) and C2 (no lock
//!   acquired while another guard is live), and `unsafe` hygiene (C3);
//! * [`events`] holds the event-handler purity rule (E1);
//! * [`snapreach`] holds the snapshot-reachability rule (R1): no
//!   `HashMap`/`HashSet`/`Instant` fields in types the durable
//!   control-plane snapshot transitively embeds;
//! * [`engine`] walks the workspace, classifies files, carves out
//!   `#[cfg(test)]` regions, and applies pragma/config suppression;
//! * [`config`] parses `analyzer.toml` (file-level allowlist, severity
//!   overrides);
//! * [`selfcheck`] is the dynamic counterpart: a pinned experiment run
//!   twice with the same seed must produce byte-identical reports, and
//!   both output formats must render byte-identically across renders.
//!
//! Run it with `cargo run -p knots-analyzer -- check` (add
//! `--format json|sarif` for CI), and `check --self-check` for the dynamic
//! harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conc;
pub mod config;
pub mod diag;
pub mod engine;
pub mod events;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod selfcheck;
pub mod snapreach;

pub use diag::{Diagnostic, Severity};
pub use engine::{check_root, check_source, classify, FileContext, FileKind};
pub use selfcheck::report_digest;
