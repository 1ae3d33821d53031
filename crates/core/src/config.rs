//! Orchestrator configuration.

use knots_sim::time::SimDuration;

/// Timing knobs of the Kube-Knots control loop.
#[derive(Debug, Clone, Copy)]
pub struct OrchestratorConfig {
    /// Simulation tick. Everything (execution, telemetry, scheduling) is
    /// quantized to this. 10 ms resolves the shortest inference queries
    /// against the 150 ms QoS deadline.
    pub tick: SimDuration,
    /// Scheduler heartbeat: how often the aggregator snapshots the cluster
    /// and the scheduler runs. A heartbeat shorter than `tick` is raised
    /// to `tick` when the orchestrator is built or resumed. Both presets
    /// run one round per tick. The paper's sub-tick operating points
    /// (1 ms down to 0.1 ms, Fig. 10b) never run through this loop: the
    /// Fig. 10b harness samples a synthetic utilization signal at each
    /// interval directly.
    pub heartbeat: SimDuration,
    /// The sliding telemetry window `d` handed to the scheduler (§IV-C,
    /// default 5 s).
    pub window: SimDuration,
    /// Interval at which node utilization is recorded for the experiment
    /// metrics (coarser than the tick to bound memory).
    pub metric_interval: SimDuration,
    /// Keep running this long after the last arrival to let queued work
    /// drain before the report is cut.
    pub drain_grace: SimDuration,
    /// Maximum telemetry age before schedulers treat a series as stale and
    /// fall back to their Res-Ag-like baseline (CBP skips the correlation
    /// veto, PP withholds the forecast override). `None` — the default,
    /// which the pinned digests assume — trusts every series, correct for
    /// a fault-free cluster where probes never miss a tick.
    pub freshness: Option<SimDuration>,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            tick: SimDuration::from_millis(10),
            heartbeat: SimDuration::from_millis(10),
            window: SimDuration::from_secs(5),
            metric_interval: SimDuration::from_millis(100),
            drain_grace: SimDuration::from_secs(180),
            freshness: None,
        }
    }
}

impl OrchestratorConfig {
    /// A coarser loop for the long 256-GPU DNN simulation.
    pub fn dnn_sim() -> Self {
        OrchestratorConfig {
            // 20 ms resolves the 60-130 ms inference services against their
            // 150 ms deadline while keeping the 256-GPU trace tractable.
            tick: SimDuration::from_millis(20),
            heartbeat: SimDuration::from_millis(20),
            window: SimDuration::from_secs(5),
            metric_interval: SimDuration::from_secs(1),
            drain_grace: SimDuration::from_secs(600),
            freshness: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = OrchestratorConfig::default();
        assert!(c.heartbeat >= c.tick);
        assert!(c.window > c.heartbeat);
        assert!(c.metric_interval >= c.tick);
        let d = OrchestratorConfig::dnn_sim();
        assert!(d.metric_interval > c.metric_interval);
    }
}
