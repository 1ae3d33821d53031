//! # knots-sched — GPU cluster schedulers
//!
//! The policies evaluated in the paper, all behind one [`Scheduler`] trait:
//!
//! | Scheduler | Paper role | Module |
//! |-----------|------------|--------|
//! | [`uniform::Uniform`] | Kubernetes' default: exclusive GPU per pod, strict FCFS | [`uniform`] |
//! | [`resag::ResAg`] | GPU sharing, utilization-agnostic FFD bin packing (§IV-B) | [`resag`] |
//! | [`cbp::Cbp`] | Correlation-Based Provisioning: 80th-percentile resizing + Spearman anti-co-location (§IV-C) | [`cbp`] |
//! | [`pp::CbpPp`] | CBP + Peak Prediction: autocorrelation + AR(1) forecasts, consolidation, Algorithm 1 (§IV-D) | [`pp`] |
//! | [`gandiva::Gandiva`] | Time-slicing / migration DL scheduler baseline (§VI-E) | [`gandiva`] |
//! | [`tiresias::Tiresias`] | Least-Attained-Service preemptive baseline (§VI-E) | [`tiresias`] |
//!
//! Schedulers are *pure policies*: they read a [`SchedContext`] (cluster
//! snapshot + pending queue + telemetry) and emit [`Action`]s; the
//! orchestrator in `knots-core` applies them to the simulator. Nothing in
//! this crate peeks at ground-truth profiles — GPU-aware policies learn
//! per-application behaviour online from telemetry, exactly like the real
//! system ("without a priori knowledge of incoming applications").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod binpack;
pub mod cbp;
pub mod context;
pub mod gandiva;
pub mod history;
pub mod pp;
pub mod resag;
#[cfg(test)]
pub(crate) mod testutil;
pub mod tiresias;
pub mod traits;
pub mod uniform;

pub use action::Action;
pub use context::{CacheStats, PendingPodView, SchedContext, StatsCache, SuspendedPodView};
pub use traits::Scheduler;
