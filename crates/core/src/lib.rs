//! # knots-core — the Kube-Knots orchestrator
//!
//! Ties the whole reproduction together (Fig. 5 of the paper):
//!
//! * the [`orchestrator::KubeKnots`] control loop advances the simulated
//!   cluster tick by tick, feeds arrivals from a workload schedule, samples
//!   telemetry into the TSDB each heartbeat, asks the pluggable scheduler
//!   for decisions, and applies them;
//! * [`metrics`] turns the run into the quantities the paper reports:
//!   per-node and cluster-wide utilization percentiles (Figs. 6, 8, 9), COV
//!   (Figs. 7, 11b), QoS violations (Figs. 10a, 12b), JCT statistics
//!   (Fig. 12a, Table IV) and energy (Fig. 11a);
//! * [`experiment`] packages the standard runs: the ten-node app-mix
//!   experiments and the 256-GPU DNN-scheduler comparison;
//! * [`digest`] gives a run its identity: the report digest that shows two
//!   runs made the same decisions, and the FNV-1a hash behind it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod config;
pub mod digest;
pub mod experiment;
pub mod metrics;
pub mod orchestrator;

pub use calendar::{AppliedEvent, CoreEvent, EventCalendar};
pub use config::OrchestratorConfig;
pub use digest::{fnv1a, report_digest};
pub use metrics::{FaultStats, JctStats, RecoveryStats, RunReport};
pub use orchestrator::{KubeKnots, OrchestratorState};

/// Convenient re-exports for downstream binaries and examples.
pub mod prelude {
    pub use crate::config::OrchestratorConfig;
    pub use crate::experiment::{run_mix, ExperimentConfig};
    pub use crate::metrics::{JctStats, RunReport};
    pub use crate::orchestrator::KubeKnots;
    pub use knots_sched::cbp::Cbp;
    pub use knots_sched::gandiva::Gandiva;
    pub use knots_sched::pp::CbpPp;
    pub use knots_sched::resag::ResAg;
    pub use knots_sched::tiresias::Tiresias;
    pub use knots_sched::uniform::Uniform;
    pub use knots_sched::Scheduler;
    pub use knots_sim::prelude::*;
    pub use knots_workloads::{AppMix, LoadGenerator};
}
