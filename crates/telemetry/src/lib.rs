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
//! The store is one set of rings with one owner and no lock: the
//! orchestrator's probe writes it between scheduling rounds and the
//! schedulers read it during them, on the one thread that runs the control
//! loop, as the paper's single head node reads one InfluxDB. The store is
//! `!Sync`, so the compiler keeps it on that thread. The aggregator builds its snapshot with one flat scan of
//! the nodes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregator;
pub mod probe;
pub mod snapshot;
pub mod tsdb;

pub use aggregator::UtilizationAggregator;
pub use snapshot::{ClusterSnapshot, NodeView, PodView};
pub use tsdb::{TimeSeriesDb, TsdbConfig, TsdbState, TsdbWriter};
