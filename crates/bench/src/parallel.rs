//! Bounded work pool for the figure sweeps.
//!
//! The implementation lives in [`knots_sim::pool`]; this module re-exports
//! the sweep-facing pieces to keep existing call sites stable. Sweeps
//! parallelise whole legs — each leg's simulation steps its nodes
//! serially.

pub use knots_sim::pool::{default_threads, run_jobs};
