//! Correlation-Based Provisioning (CBP) — §IV-C.
//!
//! CBP adds three things on top of Res-Ag's sharing:
//!
//! 1. **Framework configuration** — pending greedy (TF-default) pods get
//!    `allow_growth` set through the exposed framework API, eliminating the
//!    99%-earmark fragmentation of Fig. 4 (Observation 5).
//! 2. **Harvesting by resizing** — containers of *known* applications are
//!    provisioned for the common case: the 80th percentile of the app's
//!    observed memory, not the worst case ("CBP scheduler bin packs the
//!    uncorrelated applications together by resizing their respective pods
//!    for a common case (80th percentile consumption)"). Running pods whose
//!    usage outgrows their provision are resized *up* while capacity exists
//!    (crash-free growth).
//! 3. **Correlation-aware placement** — before co-locating, CBP computes the
//!    Spearman correlation (Eq. 1) between the candidate app's recent memory
//!    series and each resident pod's series over the sliding window;
//!    positively-correlated pods (ρ > 0.5) go to *different* GPUs because
//!    they would peak together.
//!
//! Everything is learned online from telemetry ([`AppUsageHistory`]); no
//! a-priori profiles.

use crate::action::Action;
use crate::binpack::decreasing_order;
use crate::context::{app_key_str, SchedContext};
use crate::history::{AppHistoryState, AppUsageHistory};
use crate::traits::Scheduler;
use knots_forecast::spearman::spearman;
use knots_sim::ids::{NodeId, PodId};
use knots_sim::pod::QosClass;
use knots_telemetry::NodeView;
use std::collections::BTreeMap;

/// Multiplicative headroom over the provisioning percentile.
pub const RESIZE_HEADROOM: f64 = 1.10;

/// Minimum overlapping samples required before a correlation is trusted.
pub const MIN_CORR_SAMPLES: usize = 16;

/// Tunables (ablated in `knots-bench`).
#[derive(Debug, Clone, Copy)]
pub struct CbpConfig {
    /// The provisioning percentile (paper: 0.80; 0.5/0.6 cause "constant
    /// resizing which affects the docker performance at scale").
    pub resize_percentile: f64,
    /// Spearman threshold above which two pods must not share a GPU
    /// (Algorithm 1 uses 0.5).
    pub correlation_threshold: f64,
}

impl Default for CbpConfig {
    fn default() -> Self {
        CbpConfig { resize_percentile: 0.80, correlation_threshold: 0.5 }
    }
}

/// The CBP scheduler, with the paper's configuration.
#[derive(Debug, Default)]
pub struct Cbp {
    cfg: CbpConfig,
    history: AppUsageHistory,
}

impl Cbp {
    /// Create with the paper's configuration.
    pub fn new() -> Self {
        Self::default()
    }
}

// ---------------------------------------------------------------------
// Shared machinery (also driven by the PP scheduler).
// ---------------------------------------------------------------------

/// Update per-app statistics from the current snapshot + telemetry.
pub(crate) fn learn(history: &mut AppUsageHistory, ctx: &SchedContext<'_>) {
    for node in &ctx.snapshot.nodes {
        for pod in &node.pods {
            if pod.pulling {
                continue;
            }
            let sm = pod.usage.sm_frac.clamp(0.0, 1.0);
            history.observe(app_key_str(&pod.name), pod.usage.mem_mb, sm);
        }
    }
    // Refresh one reference series per app from the longest-running pod we
    // can see (the first one seen wins a tie), copied from the TSDB as runs
    // into the history's reused buffer. Each app's pick is kept in a reused
    // list of `(node, pod, app key length, series length)` indexing the
    // snapshot, one entry per app in first-seen order.
    let nodes = &ctx.snapshot.nodes;
    let app = |&(n, p, key, _): &(usize, usize, usize, usize)| &nodes[n].pods[p].name[..key];
    let mut picks = std::mem::take(&mut history.picks);
    picks.clear();
    for (n, node) in nodes.iter().enumerate() {
        for (p, pod) in node.pods.iter().enumerate() {
            let key = app_key_str(&pod.name);
            let pick = (n, p, key.len(), ctx.tsdb.pod_len(pod.id));
            match picks.iter_mut().find(|c| app(c) == key) {
                Some(best) if pick.3 > best.3 => *best = pick,
                Some(_) => {}
                None => picks.push(pick),
            }
        }
    }
    for best in &picks {
        if best.3 >= 8 {
            let pod = nodes[best.0].pods[best.1].id;
            history.refresh_reference(app(best), |buf| {
                ctx.tsdb.pod_mem_runs_into(pod, ctx.now, ctx.window, buf);
            });
        }
    }
    history.picks = picks;
}

/// Decode the reference series of every pending pod's app: the ones
/// [`correlation_ok`] reads this round.
pub(crate) fn decode_pending_references(history: &mut AppUsageHistory, ctx: &SchedContext<'_>) {
    for p in ctx.pending {
        history.decode_reference(&p.app);
    }
}

/// `ConfigureGrowth` for every pending TF-greedy pod.
pub(crate) fn growth_actions(ctx: &SchedContext<'_>) -> Vec<Action> {
    ctx.pending
        .iter()
        .filter(|p| p.greedy_memory && !p.allow_growth)
        .map(|p| Action::ConfigureGrowth { pod: p.id, allow: true })
        .collect()
}

/// Resize pending pods of known apps to the common-case provision, and
/// grow running pods that have outgrown their provision.
pub(crate) fn resize_actions(
    history: &AppUsageHistory,
    cfg: &CbpConfig,
    ctx: &SchedContext<'_>,
) -> Vec<Action> {
    let mut actions = Vec::new();
    // Pending: provision for the observed common case.
    for p in ctx.pending {
        if !history.is_known(&p.app) {
            continue;
        }
        if let Some(q) = history.mem_quantile(&p.app, cfg.resize_percentile) {
            // Harvesting shrinks an over-stated request toward the app's
            // common-case footprint; it never inflates a small job to the
            // app-wide quantile (per-job growth is handled at runtime by
            // the crash-free grow-back below).
            let target = (q * RESIZE_HEADROOM).min(p.request_mb).clamp(64.0, 16_384.0);
            if target < p.limit_mb * 0.95 {
                actions.push(Action::Resize { pod: p.id, limit_mb: target });
            }
        }
    }
    // Running: crash-free grow-back during peaks (the provision chases real
    // usage so that co-location accounting stays honest).
    for node in &ctx.snapshot.nodes {
        for pod in &node.pods {
            if pod.usage.mem_mb > pod.limit_mb * 1.02 {
                let target = (pod.usage.mem_mb * 1.05).min(16_384.0);
                actions.push(Action::Resize { pod: pod.id, limit_mb: target });
            }
        }
    }
    actions
}

/// Expected steady SM demand of an app (its observed 80th percentile), or
/// a conservative default when unknown.
pub(crate) fn expected_sm(history: &AppUsageHistory, app: &str) -> f64 {
    history.sm_quantile(app, 0.8).unwrap_or(0.5)
}

/// Compute-headroom guard for *batch* co-location: Knots harvests memory,
/// it does not oversubscribe SMs — stacking two compute-bound jobs would
/// halve both (the interference §II's Observation 2 warns about). The
/// node's load is the sum of its residents' *steady* (80th-percentile)
/// demands, not the instantaneous sample — otherwise a compute-bound job
/// sampled during its input phase looks co-locatable. A small overshoot is
/// tolerated because phases rarely align.
pub(crate) fn sm_headroom_ok(history: &AppUsageHistory, app: &str, node: &NodeView) -> bool {
    let resident_load: f64 = node
        .pods
        .iter()
        .map(|p| history.sm_quantile(app_key_str(&p.name), 0.8).unwrap_or(p.usage.sm_frac))
        .sum();
    resident_load + expected_sm(history, app) <= 1.05
}

/// Can `app` co-locate with everything resident on `node`?
///
/// Rejects when the app's reference memory series is positively correlated
/// (Spearman ρ > threshold) with any resident pod's recent series. When the
/// context carries an audit recorder, the gate logs the worst coefficient
/// it compared (`scheduler` labels the policy driving the shared gate).
///
/// Each resident's series is read from the TSDB and compared with
/// [`spearman`], which aligns both series on their common trailing suffix.
pub(crate) fn correlation_ok(
    history: &AppUsageHistory,
    cfg: &CbpConfig,
    ctx: &SchedContext<'_>,
    scheduler: &'static str,
    app: &str,
    node: &NodeView,
) -> bool {
    let Some(reference) = history.reference(app) else {
        return true; // nothing known yet: co-locate optimistically
    };
    // Worst (highest) coefficient seen, with the resident app it belongs to.
    let mut max_rho: Option<(f64, &str)> = None;
    for pod in &node.pods {
        if !ctx.pod_series_fresh(pod.id) {
            // The resident's series stopped advancing (probe dropout, node
            // churn): a correlation against it would compare the candidate
            // with the past. Degrade to Res-Ag's optimistic co-location for
            // this resident rather than veto on dead data.
            if let Some(rec) = ctx.audit() {
                knots_obs::audit::stale_fallback(
                    rec,
                    ctx.now.as_micros(),
                    scheduler,
                    "pod_mem",
                    Some(pod.id.0),
                    Some(node.id.0 as u64),
                );
            }
            continue;
        }
        let series = ctx.tsdb.pod_mem_series(pod.id, ctx.now, ctx.window);
        let n = reference.len().min(series.len());
        if n < MIN_CORR_SAMPLES {
            continue;
        }
        let rho = spearman(reference, &series);
        if max_rho.as_ref().is_none_or(|(best, _)| rho > *best) {
            max_rho = Some((rho, app_key_str(&pod.name)));
        }
        if rho > cfg.correlation_threshold {
            if let Some(rec) = ctx.audit() {
                knots_obs::audit::correlation_gate(
                    rec,
                    ctx.now.as_micros(),
                    scheduler,
                    node.id.0 as u64,
                    app,
                    app_key_str(&pod.name),
                    rho,
                    cfg.correlation_threshold,
                    false,
                );
            }
            return false;
        }
    }
    if let (Some(rec), Some((rho, other))) = (ctx.audit(), max_rho) {
        knots_obs::audit::correlation_gate(
            rec,
            ctx.now.as_micros(),
            scheduler,
            node.id.0 as u64,
            app,
            other,
            rho,
            cfg.correlation_threshold,
            true,
        );
    }
    true
}

/// The provision a pending pod will occupy, accounting for a resize emitted
/// earlier in the same action batch.
pub(crate) fn effective_limit(actions: &[Action], pod: PodId, fallback: f64) -> f64 {
    actions
        .iter()
        .rev()
        .find_map(|a| match a {
            Action::Resize { pod: p, limit_mb } if *p == pod => Some(*limit_mb),
            _ => None,
        })
        .unwrap_or(fallback)
}

/// Pending order: latency-critical pods first (FCFS among them), then batch
/// pods largest-first (the FFD order of §IV-D's `Sort_Apps_by_Memory_Size`).
pub(crate) fn service_order(ctx: &SchedContext<'_>) -> Vec<usize> {
    let mut lc: Vec<usize> = Vec::new();
    let mut batch: Vec<usize> = Vec::new();
    for (i, p) in ctx.pending.iter().enumerate() {
        if matches!(p.qos, QosClass::LatencyCritical { .. }) {
            lc.push(i);
        } else {
            batch.push(i);
        }
    }
    let sizes: Vec<f64> = batch.iter().map(|&i| ctx.pending[i].limit_mb).collect();
    let batch_sorted: Vec<usize> = decreasing_order(&sizes).into_iter().map(|k| batch[k]).collect();
    lc.into_iter().chain(batch_sorted).collect()
}

impl Scheduler for Cbp {
    fn name(&self) -> &'static str {
        "CBP"
    }

    fn wants_cluster_auto_sleep(&self) -> bool {
        // CBP spreads correlated pods across GPUs and keeps the fleet warm
        // for latency; the paper measures its power 15-25% above PP/Res-Ag
        // (Fig. 11a) for exactly this reason.
        false
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

        // Candidate nodes ordered by *measured* free memory, most free
        // first (the real-time signal Knots adds over Res-Ag).
        let order = ctx.snapshot.nodes_by_free_memory();
        let mut free: BTreeMap<NodeId, (f64, f64)> = ctx
            .snapshot
            .active_nodes()
            .map(|n| (n.id, (n.free_provision_mb, n.free_measured_mb)))
            .collect();
        let mut unplaced = false;

        for i in service_order(ctx) {
            let pod = &ctx.pending[i];
            let limit = effective_limit(&actions, pod.id, pod.limit_mb);
            let mut placed = false;
            for node_id in order.iter() {
                let Some(node) = ctx.snapshot.node(*node_id) else { continue };
                let (prov, meas) = free[node_id];
                if limit > prov + 1e-9 || limit > meas + 1e-9 {
                    continue;
                }
                if !node.pods.is_empty() && !sm_headroom_ok(&self.history, &pod.app, node) {
                    continue;
                }
                if !correlation_ok(&self.history, &self.cfg, ctx, "CBP", &pod.app, node) {
                    continue;
                }
                if let Some(rec) = ctx.audit() {
                    knots_obs::audit::placement(
                        rec,
                        ctx.now.as_micros(),
                        "CBP",
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
            if let Some(node) = ctx.snapshot.sleeping_nodes().next() {
                if let Some(rec) = ctx.audit() {
                    knots_obs::audit::decision(
                        rec,
                        ctx.now.as_micros(),
                        "CBP",
                        "sched.wake",
                        None,
                        Some(node.0 as u64),
                        "queue_overflowed_active_set",
                    );
                }
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
    use knots_obs::FieldValue;
    use knots_sim::resources::Usage;
    use knots_sim::time::{SimDuration, SimTime};
    use knots_telemetry::TimeSeriesDb;

    /// Feed the scheduler enough same-app telemetry that the app is known.
    fn teach(s: &mut Cbp, app: &str, samples: &[f64]) {
        for &m in samples {
            s.history.observe(app, m, f64::NAN); // memory only
        }
        s.history.refresh_reference(app, |b| b.extend(samples.iter().map(|&m| (1, m))));
    }

    #[test]
    fn configures_growth_for_greedy_pods() {
        let s0 = snap(vec![node_view(0, 0, false)]);
        let pend = vec![pending_lc(1, "face", 1500.0, true)];
        let db = TimeSeriesDb::default();
        let mut s = Cbp::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert!(
            acts.contains(&Action::ConfigureGrowth { pod: knots_sim::ids::PodId(1), allow: true })
        );
    }

    #[test]
    fn resizes_known_apps_to_p80() {
        let s0 = snap(vec![node_view(0, 0, false)]);
        // App "lud" observed at 100..=199 MB; request was 8000 MB.
        let pend = vec![pending(1, "lud-7", 8000.0)];
        let db = TimeSeriesDb::default();
        let mut s = Cbp::new();
        let samples: Vec<f64> = (0..100).map(|i| 100.0 + i as f64).collect();
        teach(&mut s, "lud", &samples);
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        let resize = acts.iter().find_map(|a| match a {
            Action::Resize { limit_mb, .. } => Some(*limit_mb),
            _ => None,
        });
        let target = resize.expect("resize emitted");
        // p80 of 100..199 ≈ 179.2, ×1.1 headroom ≈ 197.
        assert!((target - 197.0).abs() < 5.0, "target {target}");
        // And the pod is placed using the *resized* provision.
        assert!(acts.iter().any(|a| matches!(a, Action::Place { .. })));
    }

    #[test]
    fn unknown_apps_keep_their_request() {
        let s0 = snap(vec![node_view(0, 0, false)]);
        let pend = vec![pending(1, "mystery-1", 8000.0)];
        let db = TimeSeriesDb::default();
        let mut s = Cbp::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert!(!acts.iter().any(|a| matches!(a, Action::Resize { .. })));
    }

    #[test]
    fn positively_correlated_apps_split_across_nodes() {
        // Node 0 hosts a resident pod whose memory series ramps up; the
        // candidate app's reference ramps identically (ρ = 1). CBP must
        // place the candidate on node 1 instead.
        let mut nv0 = node_view(0, 1, false);
        let resident_id = nv0.pods[0].id;
        nv0.pods[0].name = "rampA-1".into();
        // Make node 0 the most-free candidate so the correlation gate (not
        // the free-memory order) is what steers the pod to node 1.
        nv0.free_measured_mb = 16_000.0;
        nv0.free_provision_mb = 16_000.0;
        let mut nv1 = node_view(1, 0, false);
        nv1.free_measured_mb = 14_000.0;
        nv1.free_provision_mb = 14_000.0;
        let s0 = snap(vec![nv0, nv1]);
        let db = TimeSeriesDb::default();
        let ramp: Vec<f64> = (0..40).map(|i| 100.0 + 10.0 * i as f64).collect();
        for (i, &m) in ramp.iter().enumerate() {
            db.push_pod(
                resident_id,
                SimTime::from_millis(i as u64 * 10),
                Usage::new(0.2, m, 0.0, 0.0),
            );
        }
        let mut s = Cbp::new();
        teach(&mut s, "rampB", &ramp);
        // Make sure timestamps fall inside the query window.
        let mut snapshot = s0;
        snapshot.at = SimTime::from_millis(400);
        let pend = vec![pending(1, "rampB-1", 500.0)];
        let rec = knots_obs::Recorder::bounded(64);
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
        let acts = s.decide(&c);
        // The audit trail must carry the rejecting Spearman coefficient.
        let trace = rec.export_jsonl();
        assert!(trace.contains("sched.correlation"), "trace: {trace}");
        assert!(trace.contains("spearman_rho"), "trace: {trace}");
        assert!(trace.contains("\"admitted\":false"), "trace: {trace}");
        let place = acts.iter().find_map(|a| match a {
            Action::Place { node, .. } => Some(*node),
            _ => None,
        });
        assert_eq!(place, Some(knots_sim::ids::NodeId(1)), "acts: {acts:?}");
    }

    #[test]
    fn stale_resident_series_falls_back_to_co_location() {
        // Same perfectly-correlated pair as above, but the resident's series
        // stopped 1.6 s before the round and a 1 s freshness bound is set:
        // the gate must skip the dead series (audited as a stale fallback)
        // and co-locate on the most-free node 0 like Res-Ag would.
        let mut nv0 = node_view(0, 1, false);
        let resident_id = nv0.pods[0].id;
        nv0.pods[0].name = "rampA-1".into();
        nv0.free_measured_mb = 16_000.0;
        nv0.free_provision_mb = 16_000.0;
        let mut nv1 = node_view(1, 0, false);
        nv1.free_measured_mb = 14_000.0;
        nv1.free_provision_mb = 14_000.0;
        let s0 = snap(vec![nv0, nv1]);
        let db = TimeSeriesDb::default();
        let ramp: Vec<f64> = (0..40).map(|i| 100.0 + 10.0 * i as f64).collect();
        for (i, &m) in ramp.iter().enumerate() {
            db.push_pod(
                resident_id,
                SimTime::from_millis(i as u64 * 10),
                Usage::new(0.2, m, 0.0, 0.0),
            );
        }
        let mut s = Cbp::new();
        teach(&mut s, "rampB", &ramp);
        let mut snapshot = s0;
        snapshot.at = SimTime::from_secs(2);
        let pend = vec![pending(1, "rampB-1", 500.0)];
        let rec = knots_obs::Recorder::bounded(64);
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
        let acts = s.decide(&c);
        let trace = rec.export_jsonl();
        assert!(trace.contains("sched.stale_fallback"), "trace: {trace}");
        assert!(trace.contains("pod_mem"), "trace: {trace}");
        let place = acts.iter().find_map(|a| match a {
            Action::Place { node, .. } => Some(*node),
            _ => None,
        });
        assert_eq!(place, Some(NodeId(0)), "stale veto must not block node 0: {acts:?}");
    }

    #[test]
    fn uncorrelated_apps_co_locate() {
        let mut nv0 = node_view(0, 1, false);
        let resident_id = nv0.pods[0].id;
        // Make node 0 the most-free node so co-location is preferred.
        nv0.free_measured_mb = 15_000.0;
        nv0.free_provision_mb = 15_000.0;
        let s0 = snap(vec![nv0]);
        let db = TimeSeriesDb::default();
        // A rising resident with a bump every third sample, against a
        // longer falling reference: strongly but not perfectly
        // anti-correlated, and the gate must align the two on their
        // common trailing suffix.
        let resident: Vec<f64> = (0..40)
            .map(|i| 100.0 + 10.0 * i as f64 + if i % 3 == 0 { 25.0 } else { 0.0 })
            .collect();
        let ramp_down: Vec<f64> = (0..48).map(|i| 600.0 - 10.0 * i as f64).collect();
        for (i, &m) in resident.iter().enumerate() {
            db.push_pod(
                resident_id,
                SimTime::from_millis(i as u64 * 10),
                Usage::new(0.2, m, 0.0, 0.0),
            );
        }
        let mut s = Cbp::new();
        teach(&mut s, "anti", &ramp_down);
        let mut snapshot = s0;
        snapshot.at = SimTime::from_millis(400);
        let pend = vec![pending(1, "anti-1", 500.0)];
        let rec = knots_obs::Recorder::bounded(64);
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
        let acts = s.decide(&c);
        assert!(
            acts.iter().any(|a| matches!(a, Action::Place { .. })),
            "negatively-correlated pods should co-locate: {acts:?}"
        );
        // The ρ the gate admitted on is the library's Spearman of the app's
        // reference against the resident's TSDB window, bit for bit.
        let series = db.pod_mem_series(resident_id, snapshot.at, c.window);
        let expected = spearman(s.history.reference("anti").unwrap(), &series);
        assert!(expected > -1.0 && expected < -0.9, "rho {expected}");
        let events = rec.events();
        let gate = events.iter().find(|e| e.kind == "sched.correlation").expect("gate audited");
        let Some(&FieldValue::F64(rho)) = gate.field("spearman_rho") else {
            panic!("no rho: {gate:?}")
        };
        assert_eq!(rho.to_bits(), expected.to_bits(), "gate rho {rho} vs spearman {expected}");
        assert_eq!(gate.field("admitted"), Some(&FieldValue::Bool(true)));
    }

    #[test]
    fn capacity_check_uses_measured_memory_too() {
        // Free by provision but hogged by measurement: CBP must refuse
        // (unlike Res-Ag).
        let mut nv = node_view(0, 1, false);
        nv.free_provision_mb = 12_000.0;
        nv.free_measured_mb = 200.0;
        let s0 = snap(vec![nv]);
        let pend = vec![pending(1, "x", 1_500.0)];
        let db = TimeSeriesDb::default();
        let mut s = Cbp::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        assert!(!acts.iter().any(|a| matches!(a, Action::Place { .. })));
    }

    #[test]
    fn lc_pods_are_served_before_batch() {
        let s0 = snap(vec![node_view(0, 0, false)]);
        let pend = vec![pending(1, "big-batch", 9_000.0), pending_lc(2, "face", 1_000.0, false)];
        let db = TimeSeriesDb::default();
        let mut s = Cbp::new();
        let acts = s.decide(&ctx(&s0, &pend, &[], &db));
        let places: Vec<PodId> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Place { pod, .. } => Some(*pod),
                _ => None,
            })
            .collect();
        assert_eq!(places.first(), Some(&PodId(2)), "LC first: {places:?}");
    }

    #[test]
    fn restore_refuses_a_reservoir_over_its_cap() {
        // A reservoir longer than its cap would never shrink back (eviction
        // trims only at exactly `cap`); both history-backed policies must
        // refuse it, and a cap below the minimum, with a typed error.
        let mut h = AppUsageHistory::new(8);
        for i in 0..8 {
            h.observe("lud", i as f64, f64::NAN);
        }
        let good = h.snapshot_state();
        let mut oversize = good.clone();
        oversize.apps[0].mem_samples.push(8.0);
        let mut tiny_cap = good.clone();
        tiny_cap.cap = 4;
        tiny_cap.apps.clear();
        let mut cbp = Cbp::new();
        let mut pp = crate::pp::CbpPp::new();
        for s in [&mut cbp as &mut dyn Scheduler, &mut pp] {
            assert!(s.restore_state(&serde::Serialize::to_value(&good)).is_ok());
            for bad in [&oversize, &tiny_cap] {
                let err = s.restore_state(&serde::Serialize::to_value(bad));
                assert!(err.is_err(), "{}: accepted {bad:?}", s.name());
            }
        }
    }

    #[test]
    fn grows_running_pod_past_its_provision() {
        let mut nv = node_view(0, 1, false);
        nv.pods[0].limit_mb = 500.0;
        nv.pods[0].usage = Usage::new(0.3, 900.0, 0.0, 0.0);
        let s0 = snap(vec![nv]);
        let db = TimeSeriesDb::default();
        let mut s = Cbp::new();
        let acts = s.decide(&ctx(&s0, &[], &[], &db));
        let resize = acts.iter().find_map(|a| match a {
            Action::Resize { limit_mb, .. } => Some(*limit_mb),
            _ => None,
        });
        assert!((resize.unwrap() - 945.0).abs() < 1.0);
    }
}
