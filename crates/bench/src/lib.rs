//! # knots-bench — the experiment regeneration harness
//!
//! One module per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index). Each module exposes a `run(...)` function that
//! returns structured rows; the `experiments` binary renders them as text
//! tables and JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod render;
