//! The Kubernetes-default "uniform" scheduler.
//!
//! GPU sharing is disabled in stock Kubernetes (§III-B): each pod gets
//! exclusive access to one GPU until completion, and the pending queue is
//! served strictly FCFS. The result — reproduced here — is the paper's
//! baseline pathology: long batch jobs at the head of the queue block
//! latency-critical queries behind them (head-of-line blocking, §VI-B),
//! utilization stays low, and every node must stay powered.

use crate::action::Action;
use crate::context::SchedContext;
use crate::traits::Scheduler;
use knots_sim::ids::NodeId;

/// Exclusive-GPU FCFS scheduler.
#[derive(Debug, Default)]
pub struct Uniform {
    _priv: (),
}

impl Uniform {
    /// Create the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Uniform {
    fn name(&self) -> &'static str {
        "Uniform"
    }

    fn idle_without_waiting_pods(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        if ctx.pending.is_empty() {
            return Vec::new(); // nothing to place: skip collecting the nodes
        }
        let mut actions = Vec::new();
        // Free = awake, not mid-wake, hosting nothing.
        let mut free: Vec<NodeId> = ctx
            .snapshot
            .nodes
            .iter()
            .filter(|n| !n.asleep && !n.waking && n.pods.is_empty())
            .map(|n| n.id)
            .collect();
        let mut sleeping: Vec<NodeId> = ctx.snapshot.sleeping_nodes().collect();

        // Strict FCFS: stop at the first pod that cannot be placed.
        for pod in ctx.pending {
            if let Some(node) = free.pop() {
                if let Some(rec) = ctx.audit() {
                    knots_obs::audit::decision(
                        rec,
                        ctx.now.as_micros(),
                        "Uniform",
                        "sched.place",
                        Some(pod.id.0),
                        Some(node.0 as u64),
                        "fcfs_exclusive_gpu",
                    );
                }
                actions.push(Action::Place { pod: pod.id, node });
            } else if let Some(node) = sleeping.pop() {
                // Wake a node for the blocked head; it becomes placeable on
                // a later heartbeat.
                if let Some(rec) = ctx.audit() {
                    knots_obs::audit::decision(
                        rec,
                        ctx.now.as_micros(),
                        "Uniform",
                        "sched.wake",
                        Some(pod.id.0),
                        Some(node.0 as u64),
                        "hol_blocked_head",
                    );
                }
                actions.push(Action::Wake { node });
                break;
            } else {
                break; // head-of-line blocking
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, node_view, pending, snap};
    use knots_sim::ids::PodId;
    use knots_telemetry::TimeSeriesDb;

    #[test]
    fn places_on_free_nodes_only() {
        let s0 = snap(vec![node_view(0, 1, false), node_view(1, 0, false)]);
        let pend = vec![pending(1, "a", 100.0), pending(2, "b", 100.0)];
        let db = TimeSeriesDb::default();
        let mut s = Uniform::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        // Only one free node: pod 1 placed, pod 2 blocked (no sleepers).
        assert_eq!(acts, vec![Action::Place { pod: PodId(1), node: NodeId(1) }]);
    }

    #[test]
    fn hol_blocking_wakes_a_sleeper() {
        let s0 = snap(vec![node_view(0, 1, false), node_view(1, 0, true)]);
        let pend = vec![pending(1, "a", 100.0)];
        let db = TimeSeriesDb::default();
        let mut s = Uniform::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert_eq!(acts, vec![Action::Wake { node: NodeId(1) }]);
    }

    #[test]
    fn strict_fcfs_never_skips_the_head() {
        // Head can't be placed (no free node); a tiny pod behind it must
        // NOT jump the queue.
        let s0 = snap(vec![node_view(0, 1, false)]);
        let pend = vec![pending(1, "big", 10_000.0), pending(2, "small", 10.0)];
        let db = TimeSeriesDb::default();
        let mut s = Uniform::new();
        assert!(s.decide(&ctx(&s0, &pend, &[], &db)).is_empty());
    }

    #[test]
    fn no_pending_no_actions() {
        // A free node and a sleeper: with nothing pending or suspended, no
        // policy that declares its idle rounds places, wakes or preempts
        // anything, or changes its own state (Tiresias carries a recent
        // preemption into the round).
        let s0 = snap(vec![node_view(0, 0, false), node_view(1, 0, true)]);
        let db = TimeSeriesDb::default();
        let mut tiresias = crate::tiresias::Tiresias::new();
        let state = crate::tiresias::TiresiasState {
            last_preempt: vec![(NodeId(0), knots_sim::time::SimTime::ZERO)],
        };
        tiresias.restore_state(&serde::Serialize::to_value(&state)).unwrap();
        let policies: [Box<dyn Scheduler>; 3] =
            [Box::new(Uniform::new()), Box::new(crate::resag::ResAg::new()), Box::new(tiresias)];
        for mut s in policies {
            assert!(s.idle_without_waiting_pods(), "{}", s.name());
            let before = s.snapshot_state();
            assert!(s.decide(&ctx(&s0, &[], &[], &db)).is_empty(), "{}", s.name());
            assert_eq!(s.snapshot_state(), before, "{}", s.name());
        }
    }
}
