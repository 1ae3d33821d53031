//! # knots-sim — a discrete-time GPU datacenter simulator
//!
//! This crate is the hardware substrate for the Kube-Knots reproduction.
//! The paper evaluates on a ten-node Nvidia P100 cluster (plus a 256-GPU
//! trace-driven simulation); neither GPUs nor Kubernetes are available here,
//! so this crate simulates the pieces the schedulers actually interact with:
//!
//! * **GPU devices** with space-shared memory, time-shared compute (SMs) and
//!   a PCIe link with finite bandwidth ([`gpu`], [`resources`]).
//! * **Pods/containers** whose resource consumption follows a phase-structured
//!   [`profile::ResourceProfile`] (PCIe burst, then compute/memory ramp — the
//!   shape characterized in Fig. 3 of the paper), with the full lifecycle:
//!   pending, image pull (cold start), running, completed, crashed (OOM),
//!   relaunched, preempted, migrated ([`pod`]).
//! * **Nodes** that advance resident pods every tick, apply contention
//!   slowdowns, detect memory-capacity violations, and emit the same five
//!   metrics pyNVML reports: SM utilization, memory used, power, and PCIe
//!   transmit/receive bandwidth ([`node`], [`metrics`]).
//! * A **cluster** event loop with a pending queue, event log, node
//!   sleep/wake (p-states) and hooks for placement, resizing, preemption and
//!   migration — the action surface a scheduler drives ([`cluster`]).
//! * An **energy model** with the linear GPU power-vs-utilization behaviour
//!   and the non-linear CPU curves from Fig. 1 ([`power`]).
//!
//! Determinism: the simulator itself is fully deterministic; all randomness
//! lives in workload generation (`knots-workloads`), which takes explicit
//! seeds.
//!
//! ```
//! use knots_sim::prelude::*;
//!
//! // Build a 2-node P100 cluster, submit one batch pod, run to completion.
//! let mut cluster = Cluster::new(ClusterConfig::homogeneous(2, GpuModel::P100));
//! let profile = ResourceProfile::constant(0.5, 2048.0, 1_000.0);
//! let spec = PodSpec::batch("demo", profile).with_request_mb(4096.0);
//! let pod = cluster.submit(spec, SimTime::ZERO);
//! cluster.place(pod, NodeId(0)).unwrap();
//! while !cluster.pod(pod).unwrap().state().is_terminal() {
//!     cluster.step(SimDuration::from_millis(10));
//! }
//! assert!(cluster.pod(pod).unwrap().state().is_completed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod error;
pub mod events;
pub mod gpu;
pub mod ids;
pub mod metrics;
pub mod node;
pub mod pod;
pub mod pool;
pub mod power;
pub mod profile;
pub mod resources;
pub mod time;

/// Convenient glob-import of the most commonly used simulator types.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterConfig};
    pub use crate::error::{SimError, SimResult};
    pub use crate::events::{CrashReason, Event, EventKind};
    pub use crate::gpu::{GpuDevice, PState};
    pub use crate::ids::{ImageId, NodeId, PodId};
    pub use crate::metrics::GpuSample;
    pub use crate::node::Node;
    pub use crate::pod::{Pod, PodSpec, PodState, QosClass};
    pub use crate::power::{cpu_energy_efficiency, gpu_power_watts, CpuGeneration, EnergyMeter};
    pub use crate::profile::{Phase, ResourceProfile};
    pub use crate::resources::{GpuModel, GpuSpec, Usage};
    pub use crate::time::{SimDuration, SimTime};
}
