//! Property-based tests for scheduler policies: whatever the cluster looks
//! like, every action a policy emits must reference entities that exist
//! and respect the policy's own contracts.

use knots_forecast::stats::percentile;
use knots_sched::binpack::{decreasing_order, pick_bin, PackStrategy};
use knots_sched::context::{app_key, PendingPodView, SchedContext};
use knots_sched::history::AppUsageHistory;
use knots_sched::{cbp::Cbp, pp::CbpPp, resag::ResAg, uniform::Uniform, Action, Scheduler};
use knots_sim::ids::{NodeId, PodId};
use knots_sim::metrics::GpuSample;
use knots_sim::pod::QosClass;
use knots_sim::resources::{GpuModel, Usage};
use knots_sim::time::{SimDuration, SimTime};
use knots_telemetry::{ClusterSnapshot, NodeView, PodView, TimeSeriesDb};
use proptest::prelude::*;
use proptest::strategy::ValueTree;
use std::collections::{BTreeMap, VecDeque};

fn arb_node(id: usize) -> impl Strategy<Value = NodeView> {
    (0usize..4, 0.0f64..1.0, proptest::bool::ANY).prop_map(move |(pods, sm, asleep)| {
        let pod_views: Vec<PodView> = (0..pods)
            .map(|j| PodView {
                id: PodId((id * 64 + j) as u64),
                name: format!("app{}-{j}", j % 3),
                qos: QosClass::Batch,
                limit_mb: 1_500.0,
                request_mb: 2_000.0,
                usage: Usage::new(sm / pods.max(1) as f64, 1_400.0, 0.0, 0.0),
                pulling: false,
                attained_service_secs: j as f64 * 30.0,
            })
            .collect();
        let used: f64 = pod_views.iter().map(|p| p.usage.mem_mb).sum();
        NodeView {
            id: NodeId(id),
            model: GpuModel::P100,
            capacity_mb: 16_384.0,
            free_measured_mb: (16_384.0 - used).max(0.0),
            free_provision_mb: (16_384.0 - pod_views.len() as f64 * 1_500.0).max(0.0),
            sample: GpuSample { sm_util: sm, mem_used_mb: used, ..Default::default() },
            pods: pod_views,
            asleep,
            waking: false,
        }
    })
}

fn arb_pending(i: u64) -> impl Strategy<Value = PendingPodView> {
    (64.0f64..18_000.0, proptest::bool::ANY, proptest::bool::ANY).prop_map(
        move |(req, lc, greedy)| PendingPodView {
            id: PodId(100_000 + i),
            name: format!("pend{}-{i}", i % 5),
            app: app_key(&format!("pend{}-{i}", i % 5)),
            qos: if lc { QosClass::latency_critical() } else { QosClass::Batch },
            request_mb: req,
            limit_mb: req,
            greedy_memory: greedy,
            allow_growth: false,
            arrival: SimTime::ZERO,
            crashes: 0,
        },
    )
}

fn check_actions(
    actions: &[Action],
    snapshot: &ClusterSnapshot,
    pending: &[PendingPodView],
    name: &str,
) -> Result<(), TestCaseError> {
    let pending_ids: Vec<PodId> = pending.iter().map(|p| p.id).collect();
    let mut placed: Vec<PodId> = Vec::new();
    for a in actions {
        match a {
            Action::Place { pod, node } => {
                prop_assert!(pending_ids.contains(pod), "{name}: placed unknown pod {pod:?}");
                let nv = snapshot.node(*node);
                prop_assert!(nv.is_some(), "{name}: placed on unknown node {node:?}");
                prop_assert!(nv.is_some_and(|n| !n.asleep), "{name}: placed on sleeping node");
                prop_assert!(!placed.contains(pod), "{name}: pod placed twice");
                placed.push(*pod);
            }
            Action::Resize { pod, limit_mb } => {
                prop_assert!(limit_mb.is_finite() && *limit_mb >= 0.0, "{name}: bad resize");
                let known = pending_ids.contains(pod)
                    || snapshot.nodes.iter().any(|n| n.pods.iter().any(|p| p.id == *pod));
                prop_assert!(known, "{name}: resized unknown pod");
            }
            Action::ConfigureGrowth { pod, .. } => {
                prop_assert!(pending_ids.contains(pod), "{name}: configured non-pending pod");
            }
            Action::Wake { node } | Action::Sleep { node } => {
                prop_assert!(snapshot.node(*node).is_some(), "{name}: unknown node");
            }
            Action::Preempt { pod } => {
                let resident = snapshot.nodes.iter().any(|n| n.pods.iter().any(|p| p.id == *pod));
                prop_assert!(resident, "{name}: preempted non-resident pod");
            }
            Action::Resume { .. } | Action::Migrate { .. } => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every policy only ever emits well-formed actions, regardless of the
    /// cluster state it is shown.
    #[test]
    fn policies_emit_only_valid_actions(
        nodes in proptest::collection::vec(any::<u8>(), 1..6),
        pending_seeds in proptest::collection::vec(any::<u8>(), 0..10),
    ) {
        // Materialize deterministic-but-arbitrary views from the seeds.
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let node_views: Vec<NodeView> = nodes
            .iter()
            .enumerate()
            .map(|(i, _)| arb_node(i).new_tree(&mut runner).unwrap().current())
            .collect();
        let pending: Vec<PendingPodView> = pending_seeds
            .iter()
            .enumerate()
            .map(|(i, _)| arb_pending(i as u64).new_tree(&mut runner).unwrap().current())
            .collect();
        let snapshot = ClusterSnapshot { at: SimTime::from_secs(3), nodes: node_views };
        let db = TimeSeriesDb::default();
        let ctx = SchedContext {
            now: snapshot.at,
            snapshot: &snapshot,
            pending: &pending,
            suspended: &[],
            tsdb: &db,
            window: SimDuration::from_secs(5),
            recorder: None,
            cache: Default::default(),
            freshness: None,
            shards: 1,
        };
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Uniform::new()),
            Box::new(ResAg::new()),
            Box::new(Cbp::new()),
            Box::new(CbpPp::new()),
        ];
        for s in schedulers.iter_mut() {
            let actions = s.decide(&ctx);
            check_actions(&actions, &snapshot, &pending, s.name())?;
        }
    }

    /// Bin packing always picks a feasible bin when one exists.
    #[test]
    fn pick_bin_is_feasible_and_complete(
        bins in proptest::collection::vec(0.0f64..10_000.0, 1..32),
        size in 0.0f64..12_000.0,
    ) {
        let keyed: Vec<(usize, f64)> = bins.iter().copied().enumerate().collect();
        for strat in [PackStrategy::FirstFit, PackStrategy::BestFit, PackStrategy::WorstFit] {
            let feasible_exists = bins.iter().any(|&b| size <= b + 1e-9);
            match pick_bin(&keyed, size, strat) {
                Some(i) => prop_assert!(size <= bins[i] + 1e-9, "{strat:?} chose too-small bin"),
                None => prop_assert!(!feasible_exists, "{strat:?} missed a feasible bin"),
            }
        }
    }

    /// Decreasing order is a permutation sorted by size.
    #[test]
    fn decreasing_order_is_sorted_permutation(sizes in proptest::collection::vec(0.0f64..1e6, 0..64)) {
        let order = decreasing_order(&sizes);
        prop_assert_eq!(order.len(), sizes.len());
        let mut seen = vec![false; sizes.len()];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        for w in order.windows(2) {
            prop_assert!(sizes[w[0]] >= sizes[w[1]]);
        }
    }

    /// History quantiles stay within observed bounds.
    #[test]
    fn history_quantiles_bounded(obs in proptest::collection::vec(0.0f64..16_384.0, 1..128), q in 0.0f64..1.0) {
        let mut h = AppUsageHistory::default();
        for &m in &obs {
            h.observe("a", m, f64::NAN);
        }
        let v = h.mem_quantile("a", q).unwrap();
        let min = obs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = obs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
        prop_assert!(h.mem_peak("a").unwrap() >= max - 1e-9);
    }

    /// The lazily sorted quantile memo answers every read with the bits of
    /// `stats::percentile` over a fresh copy of the live samples: across
    /// eviction (small caps), observations interleaved with reads, and a
    /// snapshot round trip mid-stream (which drops the memo).
    #[test]
    fn history_quantile_memo_is_bit_identical(
        cap in 8usize..33,
        ops in proptest::collection::vec((0u8..8, 0.0f64..1.0, 0.0f64..1.0), 1..160),
        restore_at in 0usize..160,
    ) {
        let mut h = AppUsageHistory::new(cap);
        // Reference model: per-app (memory, SM) reservoirs, oldest first.
        let mut model: BTreeMap<&str, [VecDeque<f64>; 2]> = BTreeMap::new();
        for (i, &(op, x, q)) in ops.iter().enumerate() {
            if i == restore_at {
                h = AppUsageHistory::from_state(h.snapshot_state()).unwrap();
            }
            let app = ["a", "b"][usize::from(op % 2)];
            let kind = usize::from(op / 2);
            let samples = model.entry(app).or_default();
            match kind {
                0 | 1 => {
                    // Coarse values so reservoirs hold ties.
                    let v = if kind == 0 { (x * 64.0).round() * 32.0 } else { (x * 16.0).round() / 16.0 };
                    if kind == 0 { h.observe(app, v, f64::NAN) } else { h.observe(app, f64::NAN, v) }
                    let r = &mut samples[kind];
                    if r.len() == cap {
                        r.pop_front();
                    }
                    r.push_back(v);
                }
                _ => {
                    let r = &samples[kind - 2];
                    let got = if kind == 2 { h.mem_quantile(app, q) } else { h.sm_quantile(app, q) };
                    let want = (!r.is_empty()).then(|| {
                        let fresh: Vec<f64> = r.iter().copied().collect();
                        percentile(&fresh, q)
                    });
                    prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                }
            }
        }
    }
}
