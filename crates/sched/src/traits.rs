//! The scheduler trait.

use crate::action::Action;
use crate::context::SchedContext;

/// A cluster scheduling policy.
///
/// Called once per heartbeat with a fresh [`SchedContext`]; returns the
/// actions to apply this round. Policies keep their own state (learned
/// per-app statistics, time-slicing rotations, ...) across calls.
pub trait Scheduler {
    /// Display name used in experiment tables (matches the paper's labels).
    fn name(&self) -> &'static str;

    /// Decide this heartbeat's actions.
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action>;

    /// Whether the cluster-level idle auto-sleep timer should run under
    /// this policy. GPU-aware policies that manage p-states themselves
    /// (PP) or deliberately keep the fleet warm for latency (CBP) return
    /// `false`; GPU-agnostic baselines leave the infrastructure default.
    fn wants_cluster_auto_sleep(&self) -> bool {
        true
    }

    /// Whether [`decide`](Self::decide) reads node series from the TSDB
    /// (PP's forecast and its freshness check). Only such a policy has the
    /// samples skipped idle nodes owe written before a round that can
    /// place a pod.
    fn reads_node_series(&self) -> bool {
        false
    }

    /// Whether [`decide`](Self::decide) returns no action and changes no
    /// state of its own when no pod is pending or suspended. The
    /// orchestrator then skips building such a round: it arms the next
    /// heartbeat and counts the round, nothing else. A policy that acts on
    /// running pods or learns from every round (CBP's per-round
    /// observation and resizes) keeps the default `false`.
    fn idle_without_waiting_pods(&self) -> bool {
        false
    }

    /// Export the policy's learned state for a control-plane snapshot
    /// (see crates/recovery). Stateless policies return
    /// [`serde::Value::Null`]; stateful policies must export everything
    /// that influences future decisions, or a restored controller diverges
    /// from an uninterrupted run.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restore state previously exported by
    /// [`snapshot_state`](Self::snapshot_state). Errors mean the snapshot
    /// does not match this policy (wrong scheduler or corrupted state).
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}
