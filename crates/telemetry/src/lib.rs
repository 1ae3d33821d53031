//! # knots-telemetry — the Knots monitoring layer
//!
//! Reproduces the telemetry path of Fig. 5 in the paper:
//!
//! * every worker node samples its GPU once per *heartbeat* — the five
//!   pyNVML metrics (SM utilization, memory used, power, tx/rx bandwidth) —
//!   and appends them to a node-local time-series database (InfluxDB in the
//!   paper, an in-memory ring buffer here: [`tsdb::TimeSeriesDb`]);
//! * per-container usage profiles are recorded alongside
//!   ([`tsdb::TimeSeriesDb::push_pod`]);
//! * the head-node **utilization aggregator** queries every node's most
//!   recent window and assembles a [`snapshot::ClusterSnapshot`], the view a
//!   GPU-aware scheduler acts on ([`aggregator::UtilizationAggregator`]).
//!
//! The store is internally synchronized (`parking_lot::RwLock`) so node
//! writers and the head-node reader may run concurrently, mirroring the
//! paper's distributed deployment. The TSDB partitions its rings along the
//! cluster's [`knots_sim::shard::ShardLayout`] (one lock per shard); the
//! aggregator builds its snapshot with one flat scan of the nodes, which
//! is the same list at every shard count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregator;
pub mod probe;
pub mod snapshot;
pub mod tsdb;

pub use aggregator::UtilizationAggregator;
pub use snapshot::{ClusterSnapshot, NodeView, PodView};
pub use tsdb::{TimeSeriesDb, TsdbConfig, TsdbState, TsdbWriter};
