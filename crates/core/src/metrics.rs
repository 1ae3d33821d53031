//! Experiment accounting: everything the paper's figures report, computed
//! from a finished run.

use knots_forecast::stats::{cov, mean, percentile, utilization_quartet};
use knots_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Job-completion-time statistics, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct JctStats {
    /// Number of jobs summarized.
    pub count: usize,
    /// Mean JCT.
    pub avg: f64,
    /// Median JCT.
    pub median: f64,
    /// 99th-percentile JCT.
    pub p99: f64,
    /// Maximum JCT.
    pub max: f64,
}

impl JctStats {
    /// Summarize a set of completion times (seconds).
    pub fn from_secs(mut xs: Vec<f64>) -> JctStats {
        if xs.is_empty() {
            return JctStats::default();
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        JctStats {
            count: xs.len(),
            avg: mean(&xs),
            median: percentile(&xs, 0.5),
            p99: percentile(&xs, 0.99),
            max: xs.last().copied().unwrap_or(0.0),
        }
    }

    /// Element-wise ratio against a baseline (how Table IV normalizes).
    pub fn normalized_to(&self, base: &JctStats) -> (f64, f64, f64) {
        let safe = |x: f64, y: f64| if y.abs() < 1e-12 { 0.0 } else { x / y };
        (safe(self.avg, base.avg), safe(self.median, base.median), safe(self.p99, base.p99))
    }
}

/// One row of the skipped-action breakdown: how many actions of `kind`
/// failed with `error` when the orchestrator applied them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkippedAction {
    /// Action kind (`Place`, `Resize`, ...).
    pub kind: String,
    /// Simulator error label (`invalid_state`, `node_asleep`, ...).
    pub error: String,
    /// Occurrences.
    pub count: u64,
}

/// Fault-injection accounting for one run. All-zero (the default) when no
/// chaos engine was attached or its plan was empty.
///
/// Deliberately *excluded* from the determinism digest
/// (`knots_analyzer::selfcheck::report_digest`): the pinned digests predate
/// fault injection, and a fault-free run must keep producing them.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Whole-node failures injected.
    pub node_failures: u64,
    /// GPU capacity degradations injected.
    pub degradations: u64,
    /// Probe-dropout windows opened.
    pub probe_dropouts: u64,
    /// Sample-corruption windows opened.
    pub corruption_windows: u64,
    /// Individual probe readings mangled inside those windows.
    pub corrupted_samples: u64,
    /// Heartbeat delays injected.
    pub heartbeat_delays: u64,
    /// Non-finite samples the TSDB refused to store.
    pub rejected_samples: u64,
    /// Pods abandoned after hitting the crash-loop cap.
    pub gave_up: u64,
    /// `ControllerCrash` events reached in the plan (the kill/restart cycle
    /// itself is accounted in [`RecoveryStats`]).
    pub controller_crashes: u64,
}

/// Controller crash/recovery accounting for one run, filled in by the
/// recovery harness (crates/recovery). All-zero for an uninterrupted run.
///
/// Like [`FaultStats`], excluded from the determinism digest: recovery
/// describes how the run was *executed* (how many times the controller
/// was killed and replayed), never the simulated outcome — which the
/// crash-resume proptest pins to be bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Controller kills performed by the harness.
    pub controller_crashes: u64,
    /// Checkpoints captured (including the mandatory one at t=0).
    pub checkpoints: u64,
    /// WAL events replayed across all recoveries.
    pub replayed_events: u64,
    /// Wall-clock spent in restore+replay across all recoveries, µs.
    pub recovery_wall_us: f64,
}

/// Everything measured over one orchestrated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Scheduler label.
    pub scheduler: String,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Per-node SM-utilization samples (percent, `metric_interval` apart),
    /// including idle/sleeping periods as zeros — the Fig. 6 / Fig. 8 view.
    pub node_util_series: Vec<Vec<f64>>,
    /// SM-utilization samples pooled over *active* GPUs only (nodes hosting
    /// at least one pod at sample time) — the Fig. 9 cluster-wide view,
    /// where consolidation shows up as higher utilization per active GPU.
    pub active_util_samples: Vec<f64>,
    /// Pods submitted / completed.
    pub submitted: usize,
    /// Pods completed.
    pub completed: usize,
    /// Latency-critical queries completed.
    pub lc_completed: usize,
    /// Latency-critical queries that missed the 150 ms deadline (completed
    /// late, or still unfinished past their deadline at the end of the run).
    pub lc_violations: usize,
    /// Batch JCT statistics.
    pub batch_jct: JctStats,
    /// Latency-critical end-to-end latency statistics.
    pub lc_latency: JctStats,
    /// All-pod JCT statistics.
    pub all_jct: JctStats,
    /// Total GPU energy, joules.
    pub energy_joules: f64,
    /// OOM crash count.
    pub crashes: usize,
    /// Preemption count.
    pub preemptions: usize,
    /// Migration count.
    pub migrations: usize,
    /// Actions the orchestrator skipped because they raced with state
    /// changes (diagnostic; should stay near zero).
    pub skipped_actions: usize,
    /// Skipped actions broken down by action kind and simulator error
    /// (sums to `skipped_actions`).
    pub skipped_breakdown: Vec<SkippedAction>,
    /// Fault-injection accounting (all-zero without a chaos engine).
    pub faults: FaultStats,
    /// Calendar events the event-queue loop processed (zero under the
    /// per-tick oracle, `KubeKnots::run_ticked`). Like `faults`, excluded
    /// from the determinism digest: it describes the engine, not the
    /// simulated outcome.
    pub events_processed: u64,
    /// `events_processed` per simulated second — the event core's
    /// throughput row.
    pub events_per_sim_second: f64,
    /// Controller crash/recovery accounting (all-zero unless the run went
    /// through the recovery harness). Digest-excluded like `faults`.
    pub recovery: RecoveryStats,
}

impl RunReport {
    /// Per-node (p50, p90, p99, max) utilization — the Fig. 6 / Fig. 8 bars.
    pub fn node_quartets(&self) -> Vec<(f64, f64, f64, f64)> {
        self.node_util_series.iter().map(|s| utilization_quartet(s)).collect()
    }

    /// Cluster-wide (p50, p90, p99, max) over active-GPU samples — the
    /// Fig. 9 bars.
    pub fn active_quartet(&self) -> (f64, f64, f64, f64) {
        utilization_quartet(&self.active_util_samples)
    }

    /// Mean SM utilization over active-GPU samples, percent.
    pub fn mean_active_util(&self) -> f64 {
        mean(&self.active_util_samples)
    }

    /// Per-node COV of utilization — Fig. 7 (sorted ascending, as plotted).
    /// Nodes that never hosted work are excluded: a constant-zero series has
    /// no load to characterize.
    pub fn node_covs_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .node_util_series
            .iter()
            .filter(|s| s.iter().any(|&u| u > 0.0))
            .map(|s| cov(s))
            .collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Pairwise COV of node loads — Fig. 11b. Entry `(i, j)` is the COV of
    /// the two nodes' pooled utilization samples: near zero when the pair
    /// is balanced and steady.
    pub fn pairwise_cov(&self) -> Vec<Vec<f64>> {
        let n = self.node_util_series.len();
        let mut m = vec![vec![0.0; n]; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in (i + 1)..n {
                let mut pooled = self.node_util_series[i].clone();
                pooled.extend_from_slice(&self.node_util_series[j]);
                let c = cov(&pooled);
                m[i][j] = c;
                m[j][i] = c;
            }
        }
        m
    }

    /// QoS violations per thousand inference queries — the Fig. 10a metric.
    pub fn violations_per_kilo(&self) -> f64 {
        let denom = self.lc_completed.max(1);
        self.lc_violations as f64 * 1000.0 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jct_stats_summary() {
        let s = JctStats::from_secs(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert!((s.avg - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.max - 4.0).abs() < 1e-12);
        assert_eq!(JctStats::from_secs(vec![]).count, 0);
    }

    #[test]
    fn normalization_ratios() {
        let a = JctStats { count: 1, avg: 2.0, median: 4.0, p99: 8.0, max: 8.0 };
        let b = JctStats { count: 1, avg: 1.0, median: 2.0, p99: 16.0, max: 16.0 };
        let (r_avg, r_med, r_p99) = a.normalized_to(&b);
        assert!((r_avg - 2.0).abs() < 1e-12);
        assert!((r_med - 2.0).abs() < 1e-12);
        assert!((r_p99 - 0.5).abs() < 1e-12);
    }

    fn report(series: Vec<Vec<f64>>) -> RunReport {
        RunReport {
            scheduler: "t".into(),
            duration: SimDuration::from_secs(1),
            node_util_series: series,
            active_util_samples: vec![],
            submitted: 0,
            completed: 0,
            lc_completed: 0,
            lc_violations: 0,
            batch_jct: JctStats::default(),
            lc_latency: JctStats::default(),
            all_jct: JctStats::default(),
            energy_joules: 0.0,
            crashes: 0,
            preemptions: 0,
            migrations: 0,
            skipped_actions: 0,
            skipped_breakdown: Vec::new(),
            faults: FaultStats::default(),
            events_processed: 0,
            events_per_sim_second: 0.0,
            recovery: RecoveryStats::default(),
        }
    }

    #[test]
    fn quartets_and_covs() {
        let r = report(vec![vec![10.0; 100], (0..100).map(|i| i as f64).collect()]);
        let q = r.node_quartets();
        assert_eq!(q.len(), 2);
        assert!((q[0].0 - 10.0).abs() < 1e-12);
        assert!(q[1].3 >= q[1].2);
        let covs = r.node_covs_sorted();
        assert!(covs[0] <= covs[1]);
        assert!((covs[0] - 0.0).abs() < 1e-12); // constant series
    }

    #[test]
    fn pairwise_cov_symmetry() {
        let r = report(vec![vec![10.0; 50], vec![10.0; 50], vec![100.0; 50]]);
        let m = r.pairwise_cov();
        assert!((m[0][1] - 0.0).abs() < 1e-9, "identical balanced pair");
        assert!(m[0][2] > 0.5, "imbalanced pair has high COV");
        assert!((m[0][2] - m[2][0]).abs() < 1e-12);
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let mut r = report(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        r.submitted = 7;
        r.completed = 6;
        r.skipped_breakdown = vec![
            SkippedAction { kind: "Place".into(), error: "node_asleep".into(), count: 2 },
            SkippedAction { kind: "Resize".into(), error: "invalid_state".into(), count: 1 },
        ];
        r.events_processed = 12_345;
        r.events_per_sim_second = 102.875;
        r.faults = FaultStats {
            node_failures: 3,
            degradations: 1,
            probe_dropouts: 2,
            corruption_windows: 1,
            corrupted_samples: 9,
            heartbeat_delays: 4,
            rejected_samples: 5,
            gave_up: 1,
            controller_crashes: 2,
        };
        r.recovery = RecoveryStats {
            controller_crashes: 2,
            checkpoints: 5,
            replayed_events: 1234,
            recovery_wall_us: 870.5,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.skipped_breakdown, r.skipped_breakdown);
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.recovery, r.recovery);
        // Re-serializing must reproduce the exact bytes: the JSON form is
        // part of the determinism contract (`experiments --json` digests).
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn violations_per_kilo() {
        let mut r = report(vec![]);
        r.lc_completed = 2000;
        r.lc_violations = 30;
        assert!((r.violations_per_kilo() - 15.0).abs() < 1e-12);
    }
}
