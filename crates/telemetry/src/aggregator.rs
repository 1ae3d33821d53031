//! The head-node utilization aggregator (Fig. 5).
//!
//! Queries every worker's time-series store once per *heartbeat interval*
//! and assembles the [`ClusterSnapshot`] handed to the scheduler. The
//! heartbeat is the central fidelity knob of the whole system: §VI-D shows
//! prediction accuracy rising from 36% to 84% as the interval shrinks from
//! 1000 ms to 1 ms (and degrading past that).
//!
//! Because the snapshot is rebuilt on every heartbeat, the orchestrator
//! keeps one and refills it in place ([`UtilizationAggregator::query_into`]):
//! each node view, its pod list and each pod name reuse last round's
//! buffers, so a steady-state heartbeat allocates nothing here.

use crate::snapshot::{ClusterSnapshot, NodeView, PodView};
use knots_sim::cluster::Cluster;
use knots_sim::pod::PodState;
use knots_sim::time::{SimDuration, SimTime};

/// Head-node aggregator with a fixed heartbeat.
#[derive(Debug, Clone)]
pub struct UtilizationAggregator {
    heartbeat: SimDuration,
    window: SimDuration,
    next_due: Option<SimTime>,
}

impl UtilizationAggregator {
    /// Aggregator with the given heartbeat and sliding window.
    pub fn new(heartbeat: SimDuration, window: SimDuration) -> Self {
        assert!(!heartbeat.is_zero(), "heartbeat must be positive");
        UtilizationAggregator { heartbeat, window, next_due: None }
    }

    /// The configured heartbeat interval.
    pub fn heartbeat(&self) -> SimDuration {
        self.heartbeat
    }

    /// The configured sliding-window length (the `d` of §IV-C).
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Whether a new heartbeat query is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        self.next_due.is_none_or(|t| now >= t)
    }

    /// The next scheduled heartbeat instant, if one has been armed by a
    /// previous query. `None` means "due immediately" (before the first
    /// query). Feeds the orchestrator's event calendar.
    pub fn next_due(&self) -> Option<SimTime> {
        self.next_due
    }

    /// Refill `snap` (unconditionally) and schedule the next due time.
    /// The next due time snaps to the heartbeat grid (anchored at t=0)
    /// instead of `now + heartbeat`: when the simulation tick doesn't divide
    /// the heartbeat, measuring from the (late) fire time would stretch
    /// every interval to `ceil(heartbeat / tick) * tick` and the cadence
    /// would drift ever further behind the configured rate.
    pub fn query_into(&mut self, cluster: &Cluster, snap: &mut ClusterSnapshot) {
        let now = cluster.now();
        let hb_us = self.heartbeat.as_micros().max(1);
        self.next_due = Some(SimTime::from_micros((now.as_micros() / hb_us + 1) * hb_us));
        fill_snapshot(cluster, snap);
    }

    /// [`Self::query_into`] a fresh snapshot.
    pub fn query(&mut self, cluster: &Cluster) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::default();
        self.query_into(cluster, &mut snap);
        snap
    }

    /// Push the next heartbeat back by `by` (an injected head-node /
    /// network stall). The scheduler simply decides on an older snapshot
    /// for a while — delayed telemetry degrades decision quality, it must
    /// not corrupt it.
    pub fn postpone(&mut self, now: SimTime, by: SimDuration) {
        let base = self.next_due.unwrap_or(now);
        self.next_due = Some(base + by);
    }

    /// Re-arm the heartbeat from a snapshot (durable control plane; see
    /// crates/recovery). `next_due` is the aggregator's only dynamic state —
    /// heartbeat and window are configuration re-supplied at restore.
    pub fn restore_next_due(&mut self, next_due: Option<SimTime>) {
        self.next_due = next_due;
    }
}

/// Overwrite `snap` with the cluster's current state: one view per node, in
/// node order. Every field is rewritten, so the result equals a fresh
/// snapshot; only the buffers (node views, pod lists, pod names) carry
/// over, truncated to the live counts.
///
/// Failed nodes are omitted entirely — exactly what a real head node sees
/// when a worker stops answering. Schedulers therefore never place onto a
/// dead node without needing any fault awareness of their own.
///
/// An idle node's view changes only in its sample time and waking flag
/// until the node next changes ([`Cluster::quiet_since`]). When its slot
/// already holds a view of it built after that change, only those two
/// fields are rewritten. (A view's sample time is never later than the
/// instant the view was built, so it bounds that instant from below.)
fn fill_snapshot(cluster: &Cluster, snap: &mut ClusterSnapshot) {
    let now = cluster.now();
    snap.at = now;
    let mut live = 0;
    for n in cluster.nodes().iter().filter(|n| !n.is_failed()) {
        if let (Some(since), Some(v)) = (cluster.quiet_since(n.id()), snap.nodes.get_mut(live)) {
            if v.id == n.id() && v.sample.at > since {
                v.sample.at = now;
                v.waking = n.is_waking(now);
                live += 1;
                continue;
            }
        }
        let mut pods =
            snap.nodes.get_mut(live).map(|v| std::mem::take(&mut v.pods)).unwrap_or_default();
        let mut k = 0;
        for (id, p) in n.residents() {
            let mut name = pods.get_mut(k).map(|v| std::mem::take(&mut v.name)).unwrap_or_default();
            name.clone_from(&p.spec().name);
            let view = PodView {
                id,
                name,
                qos: p.spec().qos,
                limit_mb: p.limit_mb(),
                request_mb: p.spec().request_mb,
                usage: p.last_usage(),
                pulling: matches!(p.state(), PodState::Pulling { .. }),
                attained_service_secs: p.attained_service(),
            };
            put(&mut pods, k, view);
            k += 1;
        }
        pods.truncate(k);
        // The sample counts the ticks the node owes; free memory by
        // measured usage follows from it.
        let sample = cluster.node_sample(n.id());
        let capacity_mb = n.gpu().capacity_mb();
        let view = NodeView {
            id: n.id(),
            model: n.gpu().spec().model,
            capacity_mb,
            free_measured_mb: (capacity_mb - sample.mem_used_mb).max(0.0),
            free_provision_mb: n.free_provision_mb(),
            sample,
            pods,
            asleep: n.gpu().is_asleep(),
            waking: n.is_waking(now),
        };
        put(&mut snap.nodes, live, view);
        live += 1;
    }
    snap.nodes.truncate(live);
}

/// Store `item` at index `i` (at most `v.len()`): overwrite, or append.
fn put<T>(v: &mut Vec<T>, i: usize, item: T) {
    match v.get_mut(i) {
        Some(slot) => *slot = item,
        None => v.push(item),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_sim::cluster::ClusterConfig;
    use knots_sim::ids::NodeId;
    use knots_sim::pod::PodSpec;
    use knots_sim::profile::ResourceProfile;
    use knots_sim::resources::GpuModel;

    fn cluster() -> Cluster {
        let mut cfg = ClusterConfig::homogeneous(3, GpuModel::P100);
        cfg.overheads.cold_start_pull = SimDuration::ZERO;
        Cluster::new(cfg)
    }

    fn snapshot_of(c: &Cluster) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::default();
        fill_snapshot(c, &mut snap);
        snap
    }

    /// Query only when the heartbeat is due, as the orchestrator does;
    /// returns whether a snapshot was taken.
    fn poll(agg: &mut UtilizationAggregator, c: &Cluster) -> bool {
        let due = agg.due(c.now());
        if due {
            agg.query(c);
        }
        due
    }

    #[test]
    fn heartbeat_gating() {
        let mut c = cluster();
        let mut agg =
            UtilizationAggregator::new(SimDuration::from_millis(100), SimDuration::from_secs(5));
        assert!(agg.due(c.now()));
        assert!(poll(&mut agg, &c));
        assert!(!agg.due(c.now()));
        c.step(SimDuration::from_millis(50));
        assert!(!poll(&mut agg, &c));
        c.step(SimDuration::from_millis(50));
        assert!(poll(&mut agg, &c));
    }

    #[test]
    fn heartbeat_does_not_drift_under_non_divisible_tick() {
        // 100 ms heartbeat sampled by a 30 ms tick. Measuring "since last
        // fire" stretches every interval to 120 ms (fires at 0, 120, 240,
        // 360 — a 20% cadence drift). Grid-snapping keeps the long-run
        // average at the configured heartbeat: fires at 0, 120, 210, 300.
        let mut c = cluster();
        let mut agg =
            UtilizationAggregator::new(SimDuration::from_millis(100), SimDuration::from_secs(5));
        let mut fires = Vec::new();
        for _ in 0..101 {
            if poll(&mut agg, &c) {
                fires.push(c.now().as_micros());
            }
            c.step(SimDuration::from_millis(30));
        }
        assert_eq!(&fires[..4], &[0, 120_000, 210_000, 300_000]);
        // 3.03 s of wall time at a 100 ms heartbeat: ~30 fires, not 25.
        let span_us = fires.last().unwrap() - fires.first().unwrap();
        let mean_gap_us = span_us as f64 / (fires.len() - 1) as f64;
        assert!(
            (mean_gap_us - 100_000.0).abs() < 5_000.0,
            "mean inter-fire gap drifted: {mean_gap_us} µs"
        );
    }

    #[test]
    fn snapshot_reflects_cluster_state() {
        let mut c = cluster();
        let id = c.submit(
            PodSpec::batch("r", ResourceProfile::constant(0.7, 3000.0, 10.0))
                .with_request_mb(8000.0),
            SimTime::ZERO,
        );
        c.place(id, NodeId(1)).unwrap();
        c.step(SimDuration::from_millis(10));
        c.sleep_node(NodeId(2)).unwrap();
        let snap = snapshot_of(&c);
        assert_eq!(snap.nodes.len(), 3);
        let n1 = snap.node(NodeId(1)).unwrap();
        assert_eq!(n1.pods.len(), 1);
        assert_eq!(n1.pods[0].id, id);
        assert!((n1.pods[0].usage.mem_mb - 3000.0).abs() < 1e-9);
        assert!((n1.free_provision_mb - (16384.0 - 8000.0)).abs() < 1e-9);
        assert!((n1.free_measured_mb - (16384.0 - 3000.0)).abs() < 1e-9);
        assert!(snap.node(NodeId(2)).unwrap().asleep);
        assert_eq!(snap.active_nodes().count(), 2);
    }

    #[test]
    fn failed_nodes_vanish_from_snapshots() {
        let mut c = cluster();
        c.fail_node(NodeId(1)).unwrap();
        let snap = snapshot_of(&c);
        assert_eq!(snap.nodes.len(), 2);
        assert!(snap.node(NodeId(1)).is_none());
        c.recover_node(NodeId(1)).unwrap();
        assert_eq!(snapshot_of(&c).nodes.len(), 3);
    }

    #[test]
    fn degraded_capacity_is_visible_to_schedulers() {
        let mut c = cluster();
        c.degrade_node(NodeId(0), 0.5).unwrap();
        let snap = snapshot_of(&c);
        assert!((snap.node(NodeId(0)).unwrap().capacity_mb - 8192.0).abs() < 1e-9);
        assert_eq!(snap.node(NodeId(1)).unwrap().capacity_mb, 16_384.0);
    }

    #[test]
    fn postpone_delays_the_next_heartbeat() {
        let mut c = cluster();
        let mut agg =
            UtilizationAggregator::new(SimDuration::from_millis(100), SimDuration::from_secs(5));
        agg.query(&c); // next due at 100 ms
        agg.postpone(c.now(), SimDuration::from_millis(150));
        for _ in 0..25 {
            c.step(SimDuration::from_millis(10));
            if c.now() < SimTime::from_millis(250) {
                assert!(!poll(&mut agg, &c), "due too early at {:?}", c.now());
            }
        }
        assert!(poll(&mut agg, &c));
        // Postponing before the first heartbeat anchors on `now`.
        let mut fresh =
            UtilizationAggregator::new(SimDuration::from_millis(100), SimDuration::from_secs(5));
        fresh.postpone(SimTime::ZERO, SimDuration::from_millis(50));
        assert!(!fresh.due(SimTime::from_millis(40)));
        assert!(fresh.due(SimTime::from_millis(50)));
    }

    /// Refill `reused` in place and check it serializes exactly like a
    /// freshly built snapshot of the same instant.
    fn assert_refill_matches(
        agg: &mut UtilizationAggregator,
        c: &Cluster,
        reused: &mut ClusterSnapshot,
    ) {
        agg.query_into(c, reused);
        let fresh = agg.query(c);
        assert_eq!(
            serde_json::to_string(reused).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "refilled snapshot diverged at {:?}",
            c.now()
        );
    }

    #[test]
    fn refilled_snapshot_matches_a_fresh_one() {
        // Per-node pod counts grow and shrink, the pod at a given slot
        // changes name length, and a node fails then recovers: every
        // refill must equal a fresh snapshot, whatever the buffers held.
        let mut c = cluster();
        let mut agg =
            UtilizationAggregator::new(SimDuration::from_millis(100), SimDuration::from_secs(5));
        let mut reused = ClusterSnapshot::default();
        assert_refill_matches(&mut agg, &c, &mut reused);
        let start = |c: &mut Cluster, name: &str, secs: f64, node: usize| {
            let spec = PodSpec::batch(name, ResourceProfile::constant(0.2, 1000.0, secs));
            let id = c.submit(spec, c.now());
            c.place(id, NodeId(node)).unwrap();
        };
        start(&mut c, "a-1", 0.5, 0);
        start(&mut c, "a-much-longer-application-name-22", 3.0, 0);
        start(&mut c, "mid-3", 5.0, 1);
        c.step(SimDuration::from_millis(100));
        assert_refill_matches(&mut agg, &c, &mut reused);
        assert_eq!(reused.node(NodeId(0)).unwrap().pods.len(), 2);
        // The short job finishes: node 0 shrinks and its first slot now
        // holds the longer name.
        c.step(SimDuration::from_secs(1));
        assert_refill_matches(&mut agg, &c, &mut reused);
        assert_eq!(
            reused.node(NodeId(0)).unwrap().pods[0].name,
            "a-much-longer-application-name-22"
        );
        // Node 1 fails: the node list shrinks and its resident requeues.
        c.fail_node(NodeId(1)).unwrap();
        assert_refill_matches(&mut agg, &c, &mut reused);
        assert_eq!(reused.nodes.len(), 2);
        // Node 0 grows past its previous count with short names.
        for (i, name) in ["b-1", "b-2", "c"].into_iter().enumerate() {
            start(&mut c, name, 1.0 + i as f64, 0);
        }
        c.step(SimDuration::from_millis(100));
        assert_refill_matches(&mut agg, &c, &mut reused);
        assert_eq!(reused.node(NodeId(0)).unwrap().pods.len(), 4);
        // Node 1 recovers and takes a pod again; then everything drains.
        c.recover_node(NodeId(1)).unwrap();
        assert_refill_matches(&mut agg, &c, &mut reused);
        assert_eq!(reused.nodes.len(), 3);
        start(&mut c, "late-100", 0.3, 1);
        for _ in 0..60 {
            c.step(SimDuration::from_millis(100));
            assert_refill_matches(&mut agg, &c, &mut reused);
        }
        assert!(reused.nodes.iter().all(|n| n.pods.is_empty()), "cluster should drain");
    }
}
