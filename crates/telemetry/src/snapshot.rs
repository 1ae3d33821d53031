//! The head-node view of the cluster a scheduler acts on.

use knots_sim::ids::{NodeId, PodId};
use knots_sim::metrics::GpuSample;
use knots_sim::pod::QosClass;
use knots_sim::resources::{GpuModel, Usage};
use knots_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Summary of one resident pod as the aggregator sees it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PodView {
    /// Pod id.
    pub id: PodId,
    /// Workload name (for logs).
    pub name: String,
    /// QoS class.
    pub qos: QosClass,
    /// Current memory provision, MB.
    pub limit_mb: f64,
    /// Original user request, MB.
    pub request_mb: f64,
    /// Last measured usage.
    pub usage: Usage,
    /// Whether the pod is still in its cold-start pull.
    pub pulling: bool,
    /// Cumulative GPU service received (SM-share-weighted seconds) — the
    /// "attained service" signal LAS schedulers rank by.
    pub attained_service_secs: f64,
}

/// Summary of one worker node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeView {
    /// Node id.
    pub id: NodeId,
    /// GPU model on this node.
    pub model: GpuModel,
    /// Device memory capacity, MB.
    pub capacity_mb: f64,
    /// Free memory by *measured* usage — the real-time signal Knots adds.
    pub free_measured_mb: f64,
    /// Free memory by sum of provisions — what a request-based scheduler sees.
    pub free_provision_mb: f64,
    /// Latest metrics sample.
    pub sample: GpuSample,
    /// Resident pods.
    pub pods: Vec<PodView>,
    /// Deep sleep?
    pub asleep: bool,
    /// Still paying wake-up latency?
    pub waking: bool,
}

/// A consistent snapshot of every node, produced once per heartbeat.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Per-node views, in node order.
    pub nodes: Vec<NodeView>,
}

impl ClusterSnapshot {
    /// Active (awake) nodes only — Algorithm 1 considers only active GPUs.
    pub fn active_nodes(&self) -> impl Iterator<Item = &NodeView> {
        self.nodes.iter().filter(|n| !n.asleep)
    }

    /// Active node ids sorted by *measured* free memory, descending — the
    /// `Sort_by_Free_Memory` step of Algorithm 1.
    pub fn nodes_by_free_memory(&self) -> Vec<NodeId> {
        let mut v: Vec<&NodeView> = self.active_nodes().collect();
        v.sort_by(|a, b| b.free_measured_mb.total_cmp(&a.free_measured_mb).then(a.id.cmp(&b.id)));
        v.into_iter().map(|n| n.id).collect()
    }

    /// Active node ids sorted for consolidation: least free memory first,
    /// so pods pack onto already-busy GPUs and idle ones can sleep.
    pub fn nodes_by_packing(&self) -> Vec<NodeId> {
        let mut v: Vec<&NodeView> = self.active_nodes().collect();
        v.sort_by(|a, b| a.free_measured_mb.total_cmp(&b.free_measured_mb).then(a.id.cmp(&b.id)));
        v.into_iter().map(|n| n.id).collect()
    }

    /// Look up a node view.
    pub fn node(&self, id: NodeId) -> Option<&NodeView> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Sleeping node ids.
    pub fn sleeping_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|n| n.asleep).map(|n| n.id)
    }

    /// Cluster-wide mean SM utilization over awake nodes.
    pub fn mean_active_sm_util(&self) -> f64 {
        let active: Vec<f64> = self.active_nodes().map(|n| n.sample.sm_util).collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: usize, free: f64, asleep: bool, sm: f64) -> NodeView {
        NodeView {
            id: NodeId(id),
            model: GpuModel::P100,
            capacity_mb: 16384.0,
            free_measured_mb: free,
            free_provision_mb: free,
            sample: GpuSample { sm_util: sm, ..Default::default() },
            pods: vec![],
            asleep,
            waking: false,
        }
    }

    fn snap() -> ClusterSnapshot {
        ClusterSnapshot {
            at: SimTime::ZERO,
            nodes: vec![
                node(0, 1000.0, false, 0.9),
                node(1, 9000.0, false, 0.2),
                node(2, 5000.0, true, 0.0),
                node(3, 5000.0, false, 0.5),
            ],
        }
    }

    #[test]
    fn sort_by_free_memory_descending_skips_sleepers() {
        let order = snap().nodes_by_free_memory();
        assert_eq!(order, vec![NodeId(1), NodeId(3), NodeId(0)]);
    }

    #[test]
    fn packing_order_is_ascending() {
        let order = snap().nodes_by_packing();
        assert_eq!(order, vec![NodeId(0), NodeId(3), NodeId(1)]);
    }

    #[test]
    fn sleeping_and_active_sets_partition() {
        let s = snap();
        let sleeping: Vec<_> = s.sleeping_nodes().collect();
        assert_eq!(sleeping, vec![NodeId(2)]);
        assert_eq!(s.active_nodes().count(), 3);
    }

    #[test]
    fn mean_util_ignores_sleepers() {
        let s = snap();
        assert!((s.mean_active_sm_util() - (0.9 + 0.2 + 0.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn node_lookup() {
        let s = snap();
        assert!(s.node(NodeId(3)).is_some());
        assert!(s.node(NodeId(9)).is_none());
        assert!(s.node(NodeId(1)).unwrap().pods.is_empty());
    }

    #[test]
    fn tie_break_is_by_node_id() {
        let s = ClusterSnapshot {
            at: SimTime::ZERO,
            nodes: vec![node(1, 100.0, false, 0.0), node(0, 100.0, false, 0.0)],
        };
        assert_eq!(s.nodes_by_free_memory(), vec![NodeId(0), NodeId(1)]);
    }
}
