//! **knots-trace** — causal, sim-time tracing for the Kube-Knots control
//! loop, on top of `knots_obs::Tracer` (the span sink every `Obs` bundle
//! carries).
//!
//! Every pod gets a per-run trace timeline at arrival; the orchestrator
//! feeds the cluster event log through a [`LifecycleTracker`] that turns
//! lifecycle transitions into stage spans (`queued` → `placed` → `running`
//! → `completed`, with `checkpoint` / `relaunch.backoff` / `gave_up`
//! detours), beside its own system spans on the control track. [`chrome`]
//! exports a span list as a Perfetto-loadable Chrome trace, and
//! [`breakdown`] folds the tracer's stage histograms into per-stage
//! latency rows (see DESIGN.md §12).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod chrome;
pub mod lifecycle;

pub use analyze::{breakdown, StageBreakdownRow};
pub use lifecycle::{LifecycleTracker, PodMeta};
