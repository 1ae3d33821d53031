//! A Gandiva-style baseline (§VI-E, Fig. 12, Table V).
//!
//! Gandiva (OSDI '18) is an introspective DL-cluster scheduler built on
//! three mechanisms this model reproduces: aggressive packing, *time-
//! slicing* via suspend-and-resume when a GPU is oversubscribed, and
//! *trial-and-error migration* between unevenly loaded nodes. It is
//! application-aware for DLT jobs but has no utilization telemetry and no
//! notion of latency-critical queries, so inference tasks wait in the same
//! FCFS queue behind training jobs — the head-of-line blocking and
//! migration stalls that cost it QoS violations and JCT in the paper's
//! comparison ("trial-and-error task placement leading to severe HOL
//! blocking of small tasks").

use crate::action::Action;
use crate::context::SchedContext;
use crate::traits::Scheduler;
use knots_sim::ids::NodeId;
use knots_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Maximum concurrently *running* pods per node; extras are suspended and
/// rotated in. Gandiva runs one DL job per GPU and time-slices via
/// suspend-and-resume (it does not co-execute on SMs).
pub const SLOTS_PER_NODE: usize = 1;

/// Time-slice rotation period.
pub const QUANTUM: SimDuration = SimDuration::from_secs(30);

/// Interval between migration attempts.
pub const MIGRATION_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// The Gandiva-style scheduler.
#[derive(Debug, Default)]
pub struct Gandiva {
    last_rotation: Option<SimTime>,
    last_migration: Option<SimTime>,
}

impl Gandiva {
    /// Create with the baseline's tunables.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Serializable form of Gandiva's decision state (snapshot interchange).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GandivaState {
    /// When the last time-slice rotation happened.
    pub last_rotation: Option<SimTime>,
    /// When the last packing migration happened.
    pub last_migration: Option<SimTime>,
}

impl Scheduler for Gandiva {
    fn name(&self) -> &'static str {
        "Gandiva"
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(&GandivaState {
            last_rotation: self.last_rotation,
            last_migration: self.last_migration,
        })
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let s: GandivaState = serde::Deserialize::from_value(state)?;
        self.last_rotation = s.last_rotation;
        self.last_migration = s.last_migration;
        Ok(())
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let mut actions = Vec::new();

        // Local bookkeeping: (running pods, free provisioned memory). Only
        // steps 1 and 2 read it, and only when work waits.
        let mut load: BTreeMap<NodeId, (usize, f64)> = BTreeMap::new();
        if !ctx.pending.is_empty() || !ctx.suspended.is_empty() {
            load.extend(
                ctx.snapshot.active_nodes().map(|n| (n.id, (n.pods.len(), n.free_provision_mb))),
            );
        }

        // 1. Resume suspended pods (longest-suspended first approximated by
        //    FIFO order) wherever a slot is free.
        for s in ctx.suspended {
            if let Some((&node, entry)) = load
                .iter_mut()
                .filter(|(_, (cnt, free))| *cnt < SLOTS_PER_NODE && *free >= s.limit_mb)
                .min_by_key(|(_, (cnt, _))| *cnt)
            {
                actions.push(Action::Resume { pod: s.id, node });
                entry.0 += 1;
                entry.1 -= s.limit_mb;
            }
        }

        // 2. FCFS placement of pending pods: least-loaded node with a free
        //    slot and enough provisioned memory. No QoS awareness: a big
        //    training job at the head blocks everything behind it.
        let mut blocked = false;
        for pod in ctx.pending {
            if blocked {
                break;
            }
            let pick = load
                .iter_mut()
                .filter(|(_, (cnt, free))| *cnt < SLOTS_PER_NODE && *free >= pod.limit_mb)
                .min_by_key(|(_, (cnt, _))| *cnt)
                .map(|(n, e)| (*n, e));
            match pick {
                Some((node, entry)) => {
                    actions.push(Action::Place { pod: pod.id, node });
                    entry.0 += 1;
                    entry.1 -= pod.limit_mb;
                }
                None => blocked = true,
            }
        }
        if blocked {
            if let Some(node) = ctx.snapshot.sleeping_nodes().next() {
                actions.push(Action::Wake { node });
            }
        }

        // 3. Time-slicing: every quantum, rotate one running pod out of
        //    each oversubscribed node (the suspend half; the pod re-enters
        //    via step 1 on a later heartbeat).
        let waiting = ctx.pending.len() + ctx.suspended.len()
            - actions
                .iter()
                .filter(|a| matches!(a, Action::Resume { .. } | Action::Place { .. }))
                .count()
                .min(ctx.pending.len() + ctx.suspended.len());
        let rotate_due = self.last_rotation.is_none_or(|t| ctx.now.saturating_since(t) >= QUANTUM);
        if rotate_due && waiting > 0 {
            self.last_rotation = Some(ctx.now);
            // Rotate only as many GPUs as there is waiting work: suspend
            // the longest-served resident on each chosen node.
            let mut full: Vec<_> =
                ctx.snapshot.active_nodes().filter(|n| n.pods.len() >= SLOTS_PER_NODE).collect();
            full.sort_by(|a, b| {
                let am = a.pods.iter().map(|p| p.attained_service_secs).fold(0.0, f64::max);
                let bm = b.pods.iter().map(|p| p.attained_service_secs).fold(0.0, f64::max);
                bm.total_cmp(&am)
            });
            for n in full.into_iter().take(waiting) {
                if let Some(victim) = n
                    .pods
                    .iter()
                    .filter(|p| !p.pulling)
                    .max_by(|a, b| a.attained_service_secs.total_cmp(&b.attained_service_secs))
                {
                    if let Some(rec) = ctx.audit() {
                        knots_obs::audit::decision(
                            rec,
                            ctx.now.as_micros(),
                            "Gandiva",
                            "sched.preempt",
                            Some(victim.id.0),
                            Some(n.id.0 as u64),
                            "time_slice_rotation",
                        );
                    }
                    actions.push(Action::Preempt { pod: victim.id });
                }
            }
        }

        // 4. Trial-and-error migration: move one pod from the most- to the
        //    least-loaded node when the imbalance is ≥ 2 pods.
        let migrate_due =
            self.last_migration.is_none_or(|t| ctx.now.saturating_since(t) >= MIGRATION_INTERVAL);
        if migrate_due {
            self.last_migration = Some(ctx.now);
            let mut actives: Vec<_> = ctx.snapshot.active_nodes().collect();
            actives.sort_by_key(|n| n.pods.len());
            if let (Some(lo), Some(hi)) = (actives.first(), actives.last()) {
                if hi.pods.len() >= lo.pods.len() + 2 {
                    if let Some(mover) = hi.pods.iter().find(|p| !p.pulling) {
                        if let Some(rec) = ctx.audit() {
                            knots_obs::audit::decision(
                                rec,
                                ctx.now.as_micros(),
                                "Gandiva",
                                "sched.migrate",
                                Some(mover.id.0),
                                Some(lo.id.0 as u64),
                                "trial_and_error_rebalance",
                            );
                        }
                        actions.push(Action::Migrate { pod: mover.id, to: lo.id });
                    }
                }
            }
        }

        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SuspendedPodView;
    use crate::testutil::{ctx, node_view, pending, snap};
    use knots_sim::ids::PodId;
    use knots_sim::pod::QosClass;
    use knots_telemetry::TimeSeriesDb;

    #[test]
    fn fcfs_blocks_behind_unplaceable_head() {
        // The only node is full.
        let s0 = snap(vec![node_view(0, 2, false)]);
        let pend = vec![pending(1, "dlt-0", 4_000.0), pending(2, "dli-1", 500.0)];
        let db = TimeSeriesDb::default();
        let mut g = Gandiva::new();
        let acts = g.decide(&ctx(&s0, &pend, &[], &db));
        assert!(
            !acts.iter().any(|a| matches!(a, Action::Place { .. })),
            "no placements when slots are full: {acts:?}"
        );
        // ... and time-slicing kicks in instead.
        assert!(acts.iter().any(|a| matches!(a, Action::Preempt { .. })));
    }

    #[test]
    fn equally_loaded_tie_break_is_lowest_node_id() {
        // Regression twin of the Tiresias test: min_by_key over the old
        // HashMap load map broke ties by random iteration order.
        let s0 = snap(vec![
            node_view(3, 0, false),
            node_view(1, 0, false),
            node_view(0, 0, false),
            node_view(2, 0, false),
        ]);
        let pend = vec![pending(1, "dli-5", 500.0)];
        let db = TimeSeriesDb::default();
        for _ in 0..32 {
            let mut g = Gandiva::new();
            let acts = g.decide(&ctx(&s0, &pend, &[], &db));
            assert_eq!(
                acts.first(),
                Some(&Action::Place { pod: PodId(1), node: NodeId(0) }),
                "tie-break must be deterministic across scheduler instances"
            );
        }
    }

    #[test]
    fn places_on_least_loaded_node() {
        let s0 = snap(vec![node_view(0, 1, false), node_view(1, 0, false)]);
        let pend = vec![pending(1, "dlt-0", 4_000.0)];
        let db = TimeSeriesDb::default();
        let mut g = Gandiva::new();
        let acts = g.decide(&ctx(&s0, &pend, &[], &db));
        assert!(acts.contains(&Action::Place { pod: PodId(1), node: NodeId(1) }));
    }

    #[test]
    fn resumes_suspended_pods_first() {
        // Two free one-slot nodes: the suspended pod takes the first slot
        // (node 0, the lowest id), the pending pod the second.
        let s0 = snap(vec![node_view(0, 0, false), node_view(1, 0, false)]);
        let susp = vec![SuspendedPodView {
            id: PodId(9),
            app: "dlt".into(),
            qos: QosClass::Batch,
            limit_mb: 3_000.0,
            attained_service_secs: 50.0,
            arrival: knots_sim::time::SimTime::ZERO,
        }];
        let pend = vec![pending(1, "dlt-1", 3_000.0)];
        let db = TimeSeriesDb::default();
        let mut g = Gandiva::new();
        let acts = g.decide(&ctx(&s0, &pend, &susp, &db));
        let first_resume =
            acts.iter().position(|a| *a == Action::Resume { pod: PodId(9), node: NodeId(0) });
        let first_place =
            acts.iter().position(|a| *a == Action::Place { pod: PodId(1), node: NodeId(1) });
        assert!(first_resume.is_some() && first_place.is_some(), "{acts:?}");
        assert!(first_resume < first_place, "resume before place: {acts:?}");
    }

    #[test]
    fn migrates_from_hot_to_cold_node() {
        let s0 = snap(vec![node_view(0, 3, false), node_view(1, 0, false)]);
        let db = TimeSeriesDb::default();
        let mut g = Gandiva::new();
        let acts = g.decide(&ctx(&s0, &[], &[], &db));
        assert!(
            acts.iter().any(|a| matches!(a, Action::Migrate { to: NodeId(1), .. })),
            "acts: {acts:?}"
        );
    }

    #[test]
    fn rotation_respects_quantum() {
        let s0 = snap(vec![node_view(0, 2, false)]);
        let pend = vec![pending(1, "dlt-0", 4_000.0)];
        let db = TimeSeriesDb::default();
        let mut g = Gandiva::new();
        // First decide rotates (quantum never fired before)...
        let first = g.decide(&ctx(&s0, &pend, &[], &db));
        assert!(first.iter().any(|a| matches!(a, Action::Preempt { .. })));
        // ... immediately after, within the same quantum, it must not.
        let second = g.decide(&ctx(&s0, &pend, &[], &db));
        assert!(!second.iter().any(|a| matches!(a, Action::Preempt { .. })));
    }
}
