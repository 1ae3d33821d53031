//! The node-level sampler (pyNVML stand-in).
//!
//! In the paper every worker runs a python agent that queries the GPU via
//! pyNVML each heartbeat and writes into the node's InfluxDB. Here the probe
//! reads each simulated node's latest sample and each resident pod's usage
//! vector, and appends them to the shared [`TimeSeriesDb`].

use crate::tsdb::{TimeSeriesDb, TsdbWriter};
use knots_sim::cluster::{Cluster, IdleSpan};
use knots_sim::ids::NodeId;
use knots_sim::metrics::GpuSample;
use knots_sim::node::Node;
use knots_sim::pod::PodState;

/// Sample every node (and resident pod) of the cluster into the store,
/// through a per-node interposition hook — the seam the chaos layer uses to
/// model probe dropouts and sample corruption without the telemetry crate
/// knowing about fault plans.
///
/// Call once per heartbeat, after `Cluster::step`. Failed nodes are skipped
/// entirely: a dead agent reports nothing, so its series simply goes stale
/// rather than filling with fabricated zeros.
///
/// For each live node the hook receives the would-be sample and returns
/// `Some(sample)` to record it (possibly altered) or `None` to drop this
/// heartbeat's readings for the node (its resident pods are dropped too:
/// a dead probe reports neither). Returns the number of dropped nodes.
pub fn sample_cluster_with(
    cluster: &Cluster,
    db: &TimeSeriesDb,
    mut hook: impl FnMut(NodeId, GpuSample) -> Option<GpuSample>,
) -> u64 {
    // One batched writer per probe round: a single lock acquisition covers
    // every node and pod push of this tick.
    let mut w = db.writer();
    let mut dropped = 0;
    for node in cluster.nodes() {
        if node.is_failed() {
            continue;
        }
        let Some(sample) = hook(node.id(), node.last_sample()) else {
            dropped += 1;
            continue;
        };
        push_readings(&mut w, node, sample);
    }
    dropped
}

/// Record a node's sample and its running pods' usage at the sample time.
fn push_readings(w: &mut TsdbWriter<'_>, node: &Node, sample: GpuSample) {
    w.push_node(node.id(), sample);
    for (pod_id, pod) in node.residents() {
        if matches!(pod.state(), PodState::Running) {
            w.push_pod(pod_id, sample.at, pod.last_usage());
        }
    }
}

/// The event loop's probe round under idle skipping: write the idle spans
/// the cluster settled since the last round (O(1) each), then sample only
/// the nodes the tick stepped, and their running pods. Run after every
/// [`Cluster::step_active`], it leaves the store as [`sample_cluster_with`]
/// with an identity hook leaves it after every [`Cluster::step`], up to the
/// samples skipped nodes still owe ([`settle_idle`]).
pub fn sample_active(cluster: &mut Cluster, db: &TimeSeriesDb) {
    let mut w = db.writer();
    push_idle_spans(cluster.drain_idle_spans(), &mut w);
    for node in cluster.stepped_nodes() {
        push_readings(&mut w, node, node.last_sample());
    }
}

/// Settle every skipped idle node and write the samples it owes: the store
/// then reads exactly as if every node had been probed every tick.
pub fn settle_idle(cluster: &mut Cluster, db: &TimeSeriesDb) {
    cluster.settle_idle();
    let mut spans = cluster.drain_idle_spans().peekable();
    if spans.peek().is_some() {
        push_idle_spans(spans, &mut db.writer());
    }
}

/// Write settled idle spans: the samples each node owes.
fn push_idle_spans(spans: impl Iterator<Item = IdleSpan>, w: &mut TsdbWriter<'_>) {
    for s in spans {
        w.push_node_span(s.node, s.sample, s.start, s.dt, s.ticks);
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
    use knots_sim::time::{SimDuration, SimTime};

    /// Probe without interposition: every live node's sample is recorded.
    fn sample_cluster(cluster: &Cluster, db: &TimeSeriesDb) {
        sample_cluster_with(cluster, db, |_, s| Some(s));
    }

    #[test]
    fn probe_records_node_and_pod_series() {
        let mut cfg = ClusterConfig::homogeneous(2, GpuModel::P100);
        cfg.overheads.cold_start_pull = SimDuration::ZERO;
        let mut cluster = Cluster::new(cfg);
        let db = TimeSeriesDb::default();
        let id = cluster.submit(
            PodSpec::batch("x", ResourceProfile::constant(0.5, 2000.0, 10.0)),
            SimTime::ZERO,
        );
        cluster.place(id, NodeId(0)).unwrap();
        for _ in 0..20 {
            cluster.step(SimDuration::from_millis(10));
            sample_cluster(&cluster, &db);
        }
        assert_eq!(db.node_len(NodeId(0)), 20);
        assert_eq!(db.node_len(NodeId(1)), 20);
        assert_eq!(db.pod_len(id), 20);
        let mem = db.pod_mem_series(id, cluster.now(), SimDuration::from_secs(5));
        assert!(mem.iter().all(|&m| (m - 2000.0).abs() < 1e-9));
        // Node 0 shows utilization; node 1 is idle.
        let latest = db.latest_node(NodeId(0)).unwrap();
        assert!((latest.sm_util - 0.5).abs() < 1e-9);
        assert_eq!(db.latest_node(NodeId(1)).unwrap().sm_util, 0.0);
    }

    #[test]
    fn hook_can_drop_and_corrupt() {
        let mut cfg = ClusterConfig::homogeneous(2, GpuModel::P100);
        cfg.overheads.cold_start_pull = SimDuration::ZERO;
        let mut cluster = Cluster::new(cfg);
        let db = TimeSeriesDb::default();
        for _ in 0..5 {
            cluster.step(SimDuration::from_millis(10));
            // Drop node 0; corrupt node 1 with NaN (the TSDB rejects it).
            let dropped = sample_cluster_with(&cluster, &db, |id, mut s| {
                if id == NodeId(0) {
                    None
                } else {
                    s.sm_util = f64::NAN;
                    Some(s)
                }
            });
            assert_eq!(dropped, 1);
        }
        assert_eq!(db.node_len(NodeId(0)), 0);
        assert_eq!(db.node_len(NodeId(1)), 0);
        assert_eq!(db.node_rejected(NodeId(1)), 5);
        assert_eq!(db.rejected_total(), 5);
    }

    #[test]
    fn failed_nodes_report_nothing() {
        let mut cfg = ClusterConfig::homogeneous(2, GpuModel::P100);
        cfg.overheads.cold_start_pull = SimDuration::ZERO;
        let mut cluster = Cluster::new(cfg);
        let db = TimeSeriesDb::default();
        cluster.fail_node(NodeId(0)).unwrap();
        for _ in 0..3 {
            cluster.step(SimDuration::from_millis(10));
            sample_cluster(&cluster, &db);
        }
        assert_eq!(db.node_len(NodeId(0)), 0, "dead agents must not fabricate samples");
        assert_eq!(db.node_len(NodeId(1)), 3);
        assert_eq!(db.node_last_at(NodeId(0)), None);
    }
}
