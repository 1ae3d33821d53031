//! The Resource-Agnostic sharing scheduler — the paper's GPU-sharing
//! baseline (§III-B, §IV-B).
//!
//! GPU sharing is enabled (compute time-shared, memory space-shared) and
//! pods are packed with first-fit-decreasing bin packing **on requested
//! memory**. Crucially, Res-Ag "fails to consider the GPU metrics such as
//! free memory and queue length": it believes request math, not the
//! measured reality. With TensorFlow pods earmarking ~99% of whatever is
//! actually free, and a tail of under-requesting batch jobs, this produces
//! the capacity violations and crash/relaunch cycles of §IV-B.

use crate::action::Action;
use crate::binpack::{decreasing_order, pick_bin, PackStrategy};
use crate::context::SchedContext;
use crate::traits::Scheduler;
use knots_sim::ids::NodeId;

/// Utilization-agnostic GPU-sharing scheduler.
#[derive(Debug)]
pub struct ResAg {
    strategy: PackStrategy,
}

impl Default for ResAg {
    fn default() -> Self {
        // §IV-B: "first fit decreasing order bin-packing algorithm to pack
        // the pods on the GPU". Packing without utilization awareness is
        // exactly what produces the crash/violation pathology of Fig. 10a;
        // a least-requested spreading variant (worst-fit) is available as
        // an ablation and behaves far more benignly at short horizons.
        ResAg { strategy: PackStrategy::FirstFit }
    }
}

impl ResAg {
    /// The paper's configuration (first-fit over decreasing requests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ablation constructor with an alternative packing strategy.
    pub fn with_strategy(strategy: PackStrategy) -> Self {
        ResAg { strategy }
    }
}

impl Scheduler for ResAg {
    fn name(&self) -> &'static str {
        "Res-Ag"
    }

    fn idle_without_waiting_pods(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        if ctx.pending.is_empty() {
            return Vec::new(); // nothing to place: skip collecting the bins
        }
        let mut actions = Vec::new();
        // Bins: awake nodes with *provision-based* free memory (the only
        // signal a GPU-agnostic scheduler has), in node-id order.
        let mut bins: Vec<(NodeId, f64)> = ctx
            .snapshot
            .nodes
            .iter()
            .filter(|n| !n.asleep)
            .map(|n| (n.id, n.free_provision_mb))
            .collect();

        // Decreasing request order: biggest requests place first.
        let sizes: Vec<f64> = ctx.pending.iter().map(|p| p.limit_mb).collect();
        let mut unplaced_any = false;
        for i in decreasing_order(&sizes) {
            let pod = &ctx.pending[i];
            match pick_bin(&bins, pod.limit_mb, self.strategy) {
                Some(b) => {
                    if let Some(rec) = ctx.audit() {
                        knots_obs::audit::placement(
                            rec,
                            ctx.now.as_micros(),
                            "Res-Ag",
                            pod.id.0,
                            bins[b].0 .0 as u64,
                            pod.limit_mb,
                            bins[b].1,
                        );
                    }
                    actions.push(Action::Place { pod: pod.id, node: bins[b].0 });
                    bins[b].1 -= pod.limit_mb;
                }
                None => {
                    if let Some(rec) = ctx.audit() {
                        knots_obs::audit::binpack_reject(
                            rec,
                            ctx.now.as_micros(),
                            "Res-Ag",
                            pod.id.0,
                            pod.limit_mb,
                            "no_feasible_bin",
                        );
                    }
                    unplaced_any = true;
                }
            }
        }
        // Wake one sleeping node when demand overflowed the active set.
        if unplaced_any {
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
    use crate::testutil::{ctx, node_view, pending, pending_lc, snap};
    use knots_sim::ids::PodId;
    use knots_telemetry::TimeSeriesDb;

    #[test]
    fn packs_multiple_pods_per_node_by_request() {
        let s0 = snap(vec![node_view(0, 0, false)]);
        let pend =
            vec![pending(1, "a", 6_000.0), pending(2, "b", 6_000.0), pending(3, "c", 4_000.0)];
        let db = TimeSeriesDb::default();
        let mut s = ResAg::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        // All three fit by provision math (6+6+4 = 16 GB ≤ 16.38 GB).
        assert_eq!(acts.iter().filter(|a| matches!(a, Action::Place { .. })).count(), 3);
    }

    #[test]
    fn decreasing_order_places_large_first() {
        let s0 = snap(vec![node_view(0, 0, false)]);
        let pend = vec![pending(1, "small", 2_000.0), pending(2, "large", 15_000.0)];
        let db = TimeSeriesDb::default();
        let mut s = ResAg::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        // Large (15 GB) goes first and fills the node; small (2 GB) no
        // longer fits by provision.
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0], Action::Place { pod: PodId(2), node: NodeId(0) });
    }

    #[test]
    fn worst_fit_ablation_spreads_like_kubernetes() {
        // Two empty nodes: consecutive pods land on different nodes under
        // the least-requested (worst-fit) ablation variant.
        let s0 = snap(vec![node_view(0, 0, false), node_view(1, 0, false)]);
        let pend = vec![pending(1, "a", 4_000.0), pending(2, "b", 4_000.0)];
        let db = TimeSeriesDb::default();
        let mut s = ResAg::with_strategy(PackStrategy::WorstFit);
        let places: Vec<NodeId> = s
            .decide(&ctx(&s0, &pend, &[], &db))
            .into_iter()
            .filter_map(|a| match a {
                Action::Place { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(places.len(), 2);
        assert_ne!(places[0], places[1], "least-requested must spread");
    }

    #[test]
    fn ignores_measured_usage_entirely() {
        // Node whose provisioned free memory is large but whose *measured*
        // free memory is tiny (a greedy TF pod hogs it). Res-Ag places
        // anyway — this is the §IV-B failure mode.
        let mut nv = node_view(0, 1, false);
        nv.free_provision_mb = 12_000.0;
        nv.free_measured_mb = 200.0;
        let s0 = snap(vec![nv]);
        let pend = vec![pending_lc(1, "face", 1_500.0, true)];
        let db = TimeSeriesDb::default();
        let mut s = ResAg::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert_eq!(acts, vec![Action::Place { pod: PodId(1), node: NodeId(0) }]);
    }

    #[test]
    fn wakes_a_sleeper_on_overflow() {
        let mut full = node_view(0, 0, false);
        full.free_provision_mb = 100.0;
        let s0 = snap(vec![full, node_view(1, 0, true)]);
        let pend = vec![pending(1, "a", 5_000.0)];
        let db = TimeSeriesDb::default();
        let mut s = ResAg::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert_eq!(acts, vec![Action::Wake { node: NodeId(1) }]);
    }

    #[test]
    fn never_resizes_or_configures_growth() {
        let s0 = snap(vec![node_view(0, 0, false)]);
        let pend = vec![pending_lc(1, "face", 1_500.0, true), pending(2, "lud", 3_000.0)];
        let db = TimeSeriesDb::default();
        let mut s = ResAg::new();
        for a in s.decide(&ctx(&s0, &pend, &[], &db)) {
            assert!(
                matches!(a, Action::Place { .. } | Action::Wake { .. }),
                "unexpected action {a:?}"
            );
        }
    }
}
