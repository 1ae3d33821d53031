//! A Tiresias-style baseline (§VI-E, Fig. 12, Table V).
//!
//! Tiresias (NSDI '19) schedules DL training with **discretized
//! Least-Attained-Service (LAS)**: jobs that have consumed little GPU time
//! get priority, implemented as a two-level queue with preemption. Short
//! jobs (and fresh arrivals, including inference) therefore jump ahead of
//! long-running training — good median JCTs and a strong 99th percentile —
//! at the price of preemption churn that still delays latency-critical
//! queries during load surges ("performs job-preemptions to prioritize
//! other short jobs ... Tiresias incurs ... SLO violations when compared to
//! CBP+PP").

use crate::action::Action;
use crate::context::SchedContext;
use crate::traits::Scheduler;
use knots_sim::ids::{NodeId, PodId};
use knots_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Attained-service boundary between the high- and low-priority queues
/// (the discretized LAS threshold).
pub const QUEUE_THRESHOLD_SECS: f64 = 60.0;

/// Maximum concurrently running pods per node: one DL job per GPU
/// (Tiresias preempts rather than co-runs).
pub const SLOTS_PER_NODE: usize = 1;

/// Minimum spacing between preemptions issued for the same node.
pub const PREEMPT_COOLDOWN: SimDuration = SimDuration::from_secs(10);

/// The Tiresias-style LAS scheduler.
#[derive(Debug, Default)]
pub struct Tiresias {
    last_preempt: BTreeMap<NodeId, SimTime>,
}

impl Tiresias {
    /// Create with the baseline's tunables.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A unified waiting-work item: pending or suspended.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    pod: PodId,
    attained: f64,
    arrival: SimTime,
    limit_mb: f64,
    suspended: bool,
}

/// Serializable form of Tiresias' decision state (snapshot interchange).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TiresiasState {
    /// Per-node last-preemption instants, sorted by node id.
    pub last_preempt: Vec<(NodeId, SimTime)>,
}

impl Scheduler for Tiresias {
    fn name(&self) -> &'static str {
        "Tiresias"
    }

    fn idle_without_waiting_pods(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(&TiresiasState {
            last_preempt: self.last_preempt.iter().map(|(&n, &t)| (n, t)).collect(),
        })
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let s: TiresiasState = serde::Deserialize::from_value(state)?;
        self.last_preempt = s.last_preempt.into_iter().collect();
        Ok(())
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let mut actions = Vec::new();

        // LAS order over all waiting work: least attained service first,
        // FIFO tie-break.
        let mut waiting: Vec<Waiting> = ctx
            .pending
            .iter()
            .map(|p| Waiting {
                pod: p.id,
                attained: 0.0,
                arrival: p.arrival,
                limit_mb: p.limit_mb,
                suspended: false,
            })
            .chain(ctx.suspended.iter().map(|s| Waiting {
                pod: s.id,
                attained: s.attained_service_secs,
                arrival: s.arrival,
                limit_mb: s.limit_mb,
                suspended: true,
            }))
            .collect();
        if waiting.is_empty() {
            return actions; // nothing to place, resume or preempt for
        }
        waiting.sort_by(|a, b| a.attained.total_cmp(&b.attained).then(a.arrival.cmp(&b.arrival)));

        let mut load: BTreeMap<NodeId, (usize, f64)> = ctx
            .snapshot
            .active_nodes()
            .map(|n| (n.id, (n.pods.len(), n.free_provision_mb)))
            .collect();

        let mut need_capacity = false;
        for w in &waiting {
            let pick = load
                .iter_mut()
                .filter(|(_, (cnt, free))| *cnt < SLOTS_PER_NODE && *free >= w.limit_mb)
                .min_by_key(|(_, (cnt, _))| *cnt)
                .map(|(n, e)| (*n, e));
            match pick {
                Some((node, entry)) => {
                    actions.push(if w.suspended {
                        Action::Resume { pod: w.pod, node }
                    } else {
                        Action::Place { pod: w.pod, node }
                    });
                    entry.0 += 1;
                    entry.1 -= w.limit_mb;
                }
                None if w.attained < QUEUE_THRESHOLD_SECS => {
                    need_capacity = true;
                    // High-priority work is starving: preempt the running
                    // pod with the MOST attained service that already sits
                    // in the low-priority band, cooldown permitting.
                    let victim = ctx
                        .snapshot
                        .active_nodes()
                        .filter(|n| {
                            self.last_preempt
                                .get(&n.id)
                                .is_none_or(|t| ctx.now.saturating_since(*t) >= PREEMPT_COOLDOWN)
                        })
                        .flat_map(|n| n.pods.iter().map(move |p| (n.id, p)))
                        .filter(|(_, p)| {
                            !p.pulling && p.attained_service_secs > QUEUE_THRESHOLD_SECS
                        })
                        .max_by(|(_, a), (_, b)| {
                            a.attained_service_secs.total_cmp(&b.attained_service_secs)
                        });
                    if let Some((node, p)) = victim {
                        if let Some(rec) = ctx.audit() {
                            knots_obs::audit::decision(
                                rec,
                                ctx.now.as_micros(),
                                "Tiresias",
                                "sched.preempt",
                                Some(p.id.0),
                                Some(node.0 as u64),
                                "las_low_band_victim",
                            );
                        }
                        actions.push(Action::Preempt { pod: p.id });
                        self.last_preempt.insert(node, ctx.now);
                    }
                }
                None => need_capacity = true,
            }
        }

        if need_capacity {
            if let Some(node) = ctx.snapshot.sleeping_nodes().next() {
                actions.push(Action::Wake { node });
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
    use knots_sim::pod::QosClass;
    use knots_telemetry::TimeSeriesDb;

    fn susp(id: u64, attained: f64) -> SuspendedPodView {
        SuspendedPodView {
            id: PodId(id),
            app: "dlt".into(),
            qos: QosClass::Batch,
            limit_mb: 1_000.0,
            attained_service_secs: attained,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn least_attained_service_goes_first() {
        // One free slot (node 0 is full, node 1 free); a fresh pending pod
        // (attained 0) must beat a suspended pod with attained service.
        let s0 = snap(vec![node_view(0, 1, false), node_view(1, 0, false)]);
        let pend = vec![pending(1, "dli-5", 500.0)];
        let suspended = vec![susp(2, 500.0)];
        let db = TimeSeriesDb::default();
        let mut t = Tiresias::new();
        let acts = t.decide(&ctx(&s0, &pend, &suspended, &db));
        assert_eq!(acts.first(), Some(&Action::Place { pod: PodId(1), node: NodeId(1) }));
        assert!(!acts.iter().any(|a| matches!(a, Action::Resume { .. })), "{acts:?}");
    }

    #[test]
    fn equally_loaded_tie_break_is_lowest_node_id() {
        // Regression: the load map used to be a HashMap, whose per-instance
        // random iteration order picked an arbitrary node among min_by_key
        // ties. With a BTreeMap the tie-break is the lowest NodeId, every
        // time, for every scheduler instance.
        let s0 = snap(vec![
            node_view(2, 0, false),
            node_view(0, 0, false),
            node_view(3, 0, false),
            node_view(1, 0, false),
        ]);
        let pend = vec![pending(1, "dli-5", 500.0)];
        let db = TimeSeriesDb::default();
        for _ in 0..32 {
            let mut t = Tiresias::new();
            let acts = t.decide(&ctx(&s0, &pend, &[], &db));
            assert_eq!(
                acts.first(),
                Some(&Action::Place { pod: PodId(1), node: NodeId(0) }),
                "tie-break must be deterministic across scheduler instances"
            );
        }
    }

    #[test]
    fn preempts_long_running_job_for_fresh_arrival() {
        let mut nv = node_view(0, 2, false);
        nv.pods[0].attained_service_secs = 500.0;
        nv.pods[1].attained_service_secs = 2_000.0;
        let s0 = snap(vec![nv.clone()]);
        let pend = vec![pending(1, "dli-9", 500.0)];
        let db = TimeSeriesDb::default();
        let mut t = Tiresias::new();
        let acts = t.decide(&ctx(&s0, &pend, &[], &db));
        // The 2000 s job (most attained) is the victim.
        assert!(acts.contains(&Action::Preempt { pod: nv.pods[1].id }), "acts: {acts:?}");
    }

    #[test]
    fn preemption_respects_cooldown() {
        let mut nv = node_view(0, 2, false);
        nv.pods[0].attained_service_secs = 500.0;
        nv.pods[1].attained_service_secs = 2_000.0;
        let s0 = snap(vec![nv]);
        let pend = vec![pending(1, "dli-9", 500.0)];
        let db = TimeSeriesDb::default();
        let mut t = Tiresias::new();
        let first = t.decide(&ctx(&s0, &pend, &[], &db));
        assert!(first.iter().any(|a| matches!(a, Action::Preempt { .. })));
        let second = t.decide(&ctx(&s0, &pend, &[], &db));
        assert!(
            !second.iter().any(|a| matches!(a, Action::Preempt { .. })),
            "cooldown must suppress immediate re-preemption"
        );
    }

    #[test]
    fn short_jobs_never_preempted() {
        // All running pods are still in the high-priority band: no victim.
        let mut nv = node_view(0, 2, false);
        nv.pods[0].attained_service_secs = 5.0;
        nv.pods[1].attained_service_secs = 10.0;
        let s0 = snap(vec![nv]);
        let pend = vec![pending(1, "dli-9", 500.0)];
        let db = TimeSeriesDb::default();
        let mut t = Tiresias::new();
        let acts = t.decide(&ctx(&s0, &pend, &[], &db));
        assert!(!acts.iter().any(|a| matches!(a, Action::Preempt { .. })));
    }

    #[test]
    fn wakes_sleepers_under_pressure() {
        let s0 = snap(vec![node_view(0, 2, false), node_view(1, 0, true)]);
        let pend = vec![pending(1, "dlt-1", 500.0)];
        let db = TimeSeriesDb::default();
        let mut t = Tiresias::new();
        let acts = t.decide(&ctx(&s0, &pend, &[], &db));
        assert!(acts.contains(&Action::Wake { node: NodeId(1) }));
    }
}
