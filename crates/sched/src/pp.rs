//! CBP + Peak Prediction (PP) — §IV-D, Algorithm 1.
//!
//! PP keeps everything CBP does (growth configuration, 80th-percentile
//! harvesting, correlation checks) and adds:
//!
//! * **Temporal peak prediction** — two *positively correlated* pods may
//!   still share a GPU if their peaks are predicted not to coincide. The
//!   admission test follows Algorithm 1: if the node's memory series has a
//!   positive autocorrelation trend, a first-order ARIMA (Eq. 3) forecasts
//!   the node's utilization one second ahead; the pod is admitted when the
//!   predicted free memory still covers its provision.
//! * **Consolidation** — candidate nodes are tried in packing order (least
//!   free memory first among actives), so low-load mixes collapse onto a
//!   minimal set of active GPUs (Fig. 8c) and the orchestrator can put the
//!   rest into deep sleep (`p_state 12`) for the §VI-C energy savings.
//! * **QoS protection** — latency-critical queries are served first and
//!   steered away from compute-saturated nodes so co-location cannot
//!   stretch them past their deadline.

use crate::action::Action;
use crate::cbp::{
    correlation_ok, decode_pending_references, effective_limit, growth_actions, learn,
    resize_actions, service_order, CbpConfig,
};
use crate::context::SchedContext;
use crate::history::{AppHistoryState, AppUsageHistory};
use crate::traits::Scheduler;
use knots_forecast::arima::Ar1;
use knots_forecast::autocorr::has_forecastable_trend;
use knots_sim::ids::NodeId;
use knots_sim::metrics::Metric;
use knots_sim::pod::QosClass;
use std::collections::BTreeMap;

/// Forecast horizon in seconds (Eq. 3 forecasts "the next one second").
pub const HORIZON_SECS: f64 = 1.0;

/// Safety margin on the predicted free memory.
pub const FORECAST_MARGIN: f64 = 1.05;

/// SM utilization above which a node is considered unsafe for a new
/// latency-critical query.
pub const LC_SM_CEILING: f64 = 0.85;

/// The CBP+PP scheduler (the full Kube-Knots policy).
#[derive(Debug, Default)]
pub struct CbpPp {
    cfg: CbpConfig,
    history: AppUsageHistory,
}

impl CbpPp {
    /// Create with the paper's configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create with explicit CBP tunables.
    pub fn with_config(cfg: CbpConfig) -> Self {
        CbpPp { cfg, history: AppUsageHistory::default() }
    }

    /// Peak-prediction admission (the `AutoCorrelation`/`ARIMA` branch of
    /// Algorithm 1): forecast the node's used memory one horizon ahead and
    /// check the pod still fits.
    fn forecast_admits(
        &self,
        ctx: &SchedContext<'_>,
        node: NodeId,
        capacity_mb: f64,
        limit: f64,
    ) -> bool {
        if !ctx.node_series_fresh(node) {
            // The node's series stopped advancing: Algorithm 1's forecast
            // would extrapolate dead data, so PP degrades to plain CBP —
            // no forecast override for correlated pods on this node.
            if let Some(rec) = ctx.audit() {
                knots_obs::audit::stale_fallback(
                    rec,
                    ctx.now.as_micros(),
                    "CBP+PP",
                    "node_mem",
                    None,
                    Some(node.0 as u64),
                );
            }
            return false;
        }
        let series = ctx.tsdb.node_series(node, Metric::MemUsedMb, ctx.now, ctx.window);
        if series.len() < 8 {
            // "input time-series data is limited"
            self.audit_branch(
                ctx,
                node,
                "insufficient_history",
                None,
                capacity_mb,
                series.len(),
                false,
            );
            return false;
        }
        if !has_forecastable_trend(&series) {
            // "the trend is not strong enough"
            self.audit_branch(ctx, node, "no_trend", None, capacity_mb, series.len(), false);
            return false;
        }
        let model = Ar1::fit(&series);
        // Horizon in samples: infer the sampling interval from the window.
        let span = ctx.window.as_secs_f64();
        let dt = span / series.len() as f64;
        let steps = (HORIZON_SECS / dt.max(1e-6)).round().max(1.0) as usize;
        let pred_used = model.forecast_h(series.last().copied().unwrap_or(0.0), steps.min(10_000));
        let pred_free = capacity_mb - pred_used.clamp(0.0, capacity_mb);
        let admitted = pred_free >= limit * FORECAST_MARGIN;
        let branch = if admitted { "forecast_admit" } else { "forecast_reject" };
        self.audit_branch(ctx, node, branch, Some(pred_used), capacity_mb, series.len(), admitted);
        admitted
    }

    /// Log which Algorithm-1 branch fired, when an audit recorder is on.
    #[allow(clippy::too_many_arguments)]
    fn audit_branch(
        &self,
        ctx: &SchedContext<'_>,
        node: NodeId,
        branch: &'static str,
        forecast_mb: Option<f64>,
        capacity_mb: f64,
        history_len: usize,
        admitted: bool,
    ) {
        if let Some(rec) = ctx.audit() {
            knots_obs::audit::forecast_branch(
                rec,
                ctx.now.as_micros(),
                "CBP+PP",
                node.0 as u64,
                branch,
                forecast_mb,
                capacity_mb,
                history_len,
                admitted,
            );
        }
    }
}

impl Scheduler for CbpPp {
    fn name(&self) -> &'static str {
        "CBP+PP"
    }

    fn wants_cluster_auto_sleep(&self) -> bool {
        false // PP issues its own Sleep/Wake actions (Algorithm 1 + §VI-C)
    }

    fn reads_node_series(&self) -> bool {
        true // the forecast reads each candidate node's memory series
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(&self.history.snapshot_state())
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let hs: AppHistoryState = serde::Deserialize::from_value(state)?;
        self.history = AppUsageHistory::from_state(hs)?;
        Ok(())
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        learn(&mut self.history, ctx);
        let mut actions = growth_actions(ctx);
        actions.extend(resize_actions(&self.history, &self.cfg, ctx));
        if ctx.pending.is_empty() {
            return actions; // nothing to place: skip the candidate order
        }
        decode_pending_references(&mut self.history, ctx);

        // Placement order adapts to load (§VI-B: "PP performs efficient
        // load balancing ... in high-load scenarios along with
        // consolidation in ... low-load scenarios"): pack onto busy nodes
        // while the active fleet is lightly used, balance by free memory
        // once it saturates.
        let order = if ctx.snapshot.mean_active_sm_util() > 0.6 {
            ctx.snapshot.nodes_by_free_memory()
        } else {
            ctx.snapshot.nodes_by_packing()
        };
        let mut free: BTreeMap<NodeId, (f64, f64)> = ctx
            .snapshot
            .active_nodes()
            .map(|n| (n.id, (n.free_provision_mb, n.free_measured_mb)))
            .collect();
        let mut unplaced = false;

        for i in service_order(ctx) {
            let pod = &ctx.pending[i];
            let limit = effective_limit(&actions, pod.id, pod.limit_mb);
            let is_lc = matches!(pod.qos, QosClass::LatencyCritical { .. });
            // Latency-critical queries are steered to the least compute-
            // loaded admissible node; batch pods follow the packing order.
            let lc_order: Vec<NodeId>;
            let candidates: &[NodeId] = if is_lc {
                let mut v: Vec<&knots_telemetry::NodeView> = ctx.snapshot.active_nodes().collect();
                v.sort_by(|a, b| {
                    a.sample.sm_util.total_cmp(&b.sample.sm_util).then(a.id.cmp(&b.id))
                });
                lc_order = v.into_iter().map(|n| n.id).collect();
                &lc_order
            } else {
                &order
            };
            let mut placed = false;
            for node_id in candidates {
                let Some(node) = ctx.snapshot.node(*node_id) else { continue };
                let (prov, meas) = free[node_id];
                if limit > prov + 1e-9 || limit > meas + 1e-9 {
                    continue;
                }
                // QoS guard: don't drop a latency-critical query onto a
                // compute-saturated GPU.
                if is_lc && node.sample.sm_util > LC_SM_CEILING {
                    continue;
                }
                // Compute-headroom guard for batch pods: memory is
                // harvested, SMs are not oversubscribed.
                if !is_lc
                    && !node.pods.is_empty()
                    && !crate::cbp::sm_headroom_ok(&self.history, &pod.app, node)
                {
                    continue;
                }
                let corr_ok =
                    correlation_ok(&self.history, &self.cfg, ctx, "CBP+PP", &pod.app, node);
                // Algorithm 1: correlated pods may still co-locate when the
                // forecast says their peaks won't coincide.
                let admitted =
                    corr_ok || self.forecast_admits(ctx, *node_id, node.capacity_mb, limit);
                if !admitted {
                    continue;
                }
                if let Some(rec) = ctx.audit() {
                    knots_obs::audit::placement(
                        rec,
                        ctx.now.as_micros(),
                        "CBP+PP",
                        pod.id.0,
                        node_id.0 as u64,
                        limit,
                        meas,
                    );
                }
                actions.push(Action::Place { pod: pod.id, node: *node_id });
                free.insert(*node_id, (prov - limit, meas - limit));
                placed = true;
                break;
            }
            if !placed {
                unplaced = true;
            }
        }

        if unplaced {
            // Explicitly-slept nodes (ablations) are brought back when the
            // active set cannot absorb the queue; with hardware-automatic
            // p-states this is a no-op.
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
    use knots_sim::metrics::GpuSample;
    use knots_sim::time::{SimDuration, SimTime};
    use knots_telemetry::TimeSeriesDb;

    #[test]
    fn packs_for_consolidation() {
        // Two active nodes: node 1 busier (less free). PP must pick node 1.
        let mut n0 = node_view(0, 0, false);
        n0.free_measured_mb = 16_000.0;
        n0.free_provision_mb = 16_000.0;
        let mut n1 = node_view(1, 1, false);
        n1.free_measured_mb = 10_000.0;
        n1.free_provision_mb = 10_000.0;
        let s0 = snap(vec![n0, n1]);
        let pend = vec![pending(1, "x", 1_000.0)];
        let db = TimeSeriesDb::default();
        let mut s = CbpPp::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert!(acts.contains(&Action::Place { pod: PodId(1), node: NodeId(1) }), "acts: {acts:?}");
    }

    #[test]
    fn correlation_threshold_moves_the_placement() {
        // Node 0 (the packing pick) hosts a resident whose memory series
        // has Spearman ρ ≈ 0.6 with the candidate app's reference, and no
        // node series for the forecast to override a veto with. A 0.9
        // threshold admits the resident and packs onto node 0; a 0.3
        // threshold vetoes it and places on the empty node 1. So a
        // `with_config` that dropped its threshold fails here.
        let n0 = node_view(0, 1, false);
        let resident = n0.pods[0].id;
        let mut snapshot = snap(vec![n0, node_view(1, 0, false)]);
        snapshot.at = SimTime::from_millis(400);
        let db = TimeSeriesDb::default();
        let reference: Vec<f64> = (0..40).map(|i| 100.0 + 10.0 * i as f64).collect();
        for (i, &m) in reference.iter().enumerate() {
            let bump = if i % 2 == 0 { 270.0 } else { 0.0 };
            let at = SimTime::from_millis(i as u64 * 10);
            db.push_pod(resident, at, knots_sim::resources::Usage::new(0.3, m + bump, 0.0, 0.0));
        }
        let series = db.pod_mem_series(resident, snapshot.at, SimDuration::from_secs(5));
        let rho = knots_forecast::spearman::spearman(&reference, &series);
        assert!((0.55..0.65).contains(&rho), "fixture rho {rho}");
        let pend = [pending(1, "corr-1", 1_000.0)];
        let place = |threshold: f64| {
            let mut s = CbpPp::with_config(CbpConfig {
                correlation_threshold: threshold,
                ..CbpConfig::default()
            });
            s.history.refresh_reference("corr", |b| b.extend(reference.iter().map(|&m| (1, m))));
            let acts = s.decide(&ctx(&snapshot, &pend, &[], &db));
            acts.iter().find_map(|a| match a {
                Action::Place { node, .. } => Some(*node),
                _ => None,
            })
        };
        assert_eq!(place(0.9), Some(NodeId(0)));
        assert_eq!(place(0.3), Some(NodeId(1)));
    }

    #[test]
    fn never_issues_explicit_sleeps() {
        // Empty GPUs drop to p_state 12 automatically in the hardware
        // model; PP must not fight the driver with explicit Sleep actions.
        let s0 = snap(vec![node_view(0, 1, false), node_view(1, 0, false), node_view(2, 0, false)]);
        let db = TimeSeriesDb::default();
        let mut s = CbpPp::new();
        let acts = s.decide(&ctx(&s0, &[], &[], &db));
        assert!(!acts.iter().any(|a| matches!(a, Action::Sleep { .. })), "{acts:?}");
        assert!(!s.wants_cluster_auto_sleep());
    }

    #[test]
    fn wakes_instead_of_sleeping_when_blocked() {
        let mut full = node_view(0, 1, false);
        full.free_measured_mb = 100.0;
        full.free_provision_mb = 100.0;
        let s0 = snap(vec![full, node_view(1, 0, true)]);
        let pend = vec![pending(1, "x", 5_000.0)];
        let db = TimeSeriesDb::default();
        let mut s = CbpPp::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert!(acts.contains(&Action::Wake { node: NodeId(1) }), "acts: {acts:?}");
        assert!(!acts.iter().any(|a| matches!(a, Action::Sleep { .. })));
    }

    #[test]
    fn lc_queries_avoid_saturated_nodes() {
        let mut busy = node_view(0, 1, false);
        busy.sample = GpuSample { sm_util: 0.97, ..Default::default() };
        busy.free_measured_mb = 14_000.0;
        busy.free_provision_mb = 14_000.0;
        let mut calm = node_view(1, 1, false);
        calm.sample = GpuSample { sm_util: 0.2, ..Default::default() };
        calm.free_measured_mb = 15_000.0;
        calm.free_provision_mb = 15_000.0;
        let s0 = snap(vec![busy, calm]);
        let pend = vec![pending_lc(1, "face", 1_200.0, false)];
        let db = TimeSeriesDb::default();
        let mut s = CbpPp::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert!(
            acts.contains(&Action::Place { pod: PodId(1), node: NodeId(1) }),
            "LC must land on the calm node: {acts:?}"
        );
    }

    #[test]
    fn forecast_admits_when_memory_is_draining() {
        // Node memory is ramping DOWN: AR(1) predicts plenty of free memory
        // one second ahead, so even a correlated pod is admitted.
        let db = TimeSeriesDb::default();
        for i in 0..50u64 {
            db.push_node(
                NodeId(0),
                GpuSample {
                    at: SimTime::from_millis(i * 100),
                    mem_used_mb: 15_000.0 - 250.0 * i as f64,
                    ..Default::default()
                },
            );
        }
        let s = CbpPp::new();
        let mut snapshot = snap(vec![node_view(0, 0, false)]);
        snapshot.at = SimTime::from_secs(5);
        let pend = [pending(1, "x", 2_000.0)];
        let rec = knots_obs::Recorder::bounded(16);
        let c = SchedContext {
            now: snapshot.at,
            snapshot: &snapshot,
            pending: &pend,
            suspended: &[],
            tsdb: &db,
            window: SimDuration::from_secs(5),
            recorder: Some(&rec),
            cache: Default::default(),
            freshness: None,
            shards: 1,
        };
        assert!(s.forecast_admits(&c, NodeId(0), 16_384.0, 2_000.0));
        // Algorithm-1 branch taken must be in the audit trail.
        let trace = rec.export_jsonl();
        assert!(trace.contains("forecast_admit"), "trace: {trace}");
        assert!(trace.contains("forecast_peak_mb"), "trace: {trace}");
    }

    #[test]
    fn stale_node_series_withholds_the_forecast_override() {
        // The same draining node the admit test uses, but the series stopped
        // 3.1 s before the round and a 1 s freshness bound is set: PP must
        // refuse the override (degrading to plain CBP) and audit why.
        let db = TimeSeriesDb::default();
        for i in 0..50u64 {
            db.push_node(
                NodeId(0),
                GpuSample {
                    at: SimTime::from_millis(i * 100),
                    mem_used_mb: 15_000.0 - 250.0 * i as f64,
                    ..Default::default()
                },
            );
        }
        let s = CbpPp::new();
        let mut snapshot = snap(vec![node_view(0, 0, false)]);
        snapshot.at = SimTime::from_secs(8);
        let pend = [pending(1, "x", 2_000.0)];
        let rec = knots_obs::Recorder::bounded(16);
        let c = SchedContext {
            now: snapshot.at,
            snapshot: &snapshot,
            pending: &pend,
            suspended: &[],
            tsdb: &db,
            window: SimDuration::from_secs(5),
            recorder: Some(&rec),
            cache: Default::default(),
            freshness: Some(SimDuration::from_secs(1)),
            shards: 1,
        };
        assert!(!s.forecast_admits(&c, NodeId(0), 16_384.0, 2_000.0));
        let trace = rec.export_jsonl();
        assert!(trace.contains("sched.stale_fallback"), "trace: {trace}");
        assert!(trace.contains("node_mem"), "trace: {trace}");
    }

    #[test]
    fn forecast_rejects_rising_memory() {
        let db = TimeSeriesDb::default();
        for i in 0..50u64 {
            db.push_node(
                NodeId(0),
                GpuSample {
                    at: SimTime::from_millis(i * 100),
                    mem_used_mb: 4_000.0 + 240.0 * i as f64,
                    ..Default::default()
                },
            );
        }
        let s = CbpPp::new();
        let snapshot = {
            let mut s0 = snap(vec![node_view(0, 0, false)]);
            s0.at = SimTime::from_secs(5);
            s0
        };
        let pend = [pending(1, "x", 2_000.0)];
        let db_ref = &db;
        let c = SchedContext {
            now: snapshot.at,
            snapshot: &snapshot,
            pending: &pend,
            suspended: &[],
            tsdb: db_ref,
            window: SimDuration::from_secs(5),
            recorder: None,
            cache: Default::default(),
            freshness: None,
            shards: 1,
        };
        // Used is ~15.8 GB now and rising: a 2 GB pod must be refused.
        assert!(!s.forecast_admits(&c, NodeId(0), 16_384.0, 2_000.0));
    }

    #[test]
    fn forecast_requires_history_and_trend() {
        let db = TimeSeriesDb::default();
        let s = CbpPp::new();
        let snapshot = snap(vec![node_view(0, 0, false)]);
        let pend = [pending(1, "x", 100.0)];
        let rec = knots_obs::Recorder::bounded(16);
        let c = SchedContext {
            now: snapshot.at,
            snapshot: &snapshot,
            pending: &pend,
            suspended: &[],
            tsdb: &db,
            window: SimDuration::from_secs(5),
            recorder: Some(&rec),
            cache: Default::default(),
            freshness: None,
            shards: 1,
        };
        assert!(!s.forecast_admits(&c, NodeId(0), 16_384.0, 100.0), "no data: reject");
        assert!(rec.export_jsonl().contains("insufficient_history"));
    }
}
