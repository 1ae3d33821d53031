//! Packaged experiments used by the `experiments` binary, the examples and
//! the benches: the scheduler registry, the two standard runs
//! ([`run_mix`], [`run_dnn`]) and the input builders behind them.

use crate::config::OrchestratorConfig;
use crate::metrics::RunReport;
use crate::orchestrator::KubeKnots;
use knots_sched::cbp::Cbp;
use knots_sched::gandiva::Gandiva;
use knots_sched::pp::CbpPp;
use knots_sched::resag::ResAg;
use knots_sched::tiresias::Tiresias;
use knots_sched::uniform::Uniform;
use knots_sched::Scheduler;
use knots_sim::cluster::ClusterConfig;
use knots_sim::time::SimDuration;
use knots_workloads::dnn::{self, DnnWorkloadConfig};
use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator, ScheduledPod};
use knots_workloads::AppMix;

/// Configuration for a ten-node app-mix experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Worker-node count (paper: 10).
    pub nodes: usize,
    /// Workload window length.
    pub duration: SimDuration,
    /// Seed for the load generator.
    pub seed: u64,
    /// Orchestrator timing.
    pub orch: OrchestratorConfig,
    /// Arrival-rate multiplier.
    pub rate_scale: f64,
    /// Batch runtime multiplier.
    pub batch_scale: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            nodes: knots_sim::config::TESTBED_WORKER_NODES,
            duration: SimDuration::from_secs(600),
            seed: 42,
            orch: OrchestratorConfig::default(),
            rate_scale: 1.0,
            batch_scale: 1.0,
        }
    }
}

/// Instantiate a scheduler by its paper label.
///
/// Known labels: `"Uniform"`, `"Res-Ag"`, `"CBP"`, `"CBP+PP"`, `"Gandiva"`,
/// `"Tiresias"`.
pub fn scheduler_by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    match name {
        "Uniform" => Some(Box::new(Uniform::new())),
        "Res-Ag" => Some(Box::new(ResAg::new())),
        "CBP" => Some(Box::new(Cbp::new())),
        "CBP+PP" => Some(Box::new(CbpPp::new())),
        "Gandiva" => Some(Box::new(Gandiva::new())),
        "Tiresias" => Some(Box::new(Tiresias::new())),
        _ => None,
    }
}

/// The four cluster-experiment schedulers, in the paper's comparison order.
pub const CLUSTER_SCHEDULERS: [&str; 4] = ["Uniform", "Res-Ag", "CBP", "CBP+PP"];

/// The four DNN-experiment schedulers (Fig. 12 / Table IV).
pub const DNN_SCHEDULERS: [&str; 4] = ["Res-Ag", "Gandiva", "Tiresias", "CBP+PP"];

/// The inputs of one app-mix run on the paper's testbed topology: the
/// seeded load schedule and the cluster it runs on.
///
/// Callers that attach observability, a fault plan or a tracer build the
/// orchestrator themselves from these, e.g.
/// `KubeKnots::new(cluster_cfg, scheduler, cfg.orch).with_chaos(engine)`.
pub fn mix_inputs(mix: AppMix, cfg: &ExperimentConfig) -> (Vec<ScheduledPod>, ClusterConfig) {
    let mut gen_cfg = LoadGenConfig::new(cfg.duration, cfg.seed);
    gen_cfg.rate_scale = cfg.rate_scale;
    gen_cfg.batch_scale = cfg.batch_scale;
    let schedule = LoadGenerator::generate(mix, &gen_cfg);
    let mut cluster_cfg = ClusterConfig::homogeneous(cfg.nodes, knots_sim::config::TESTBED_GPU);
    // Long-lived inference services keep their images pre-pulled in
    // production; batch jobs still pay real cold starts.
    cluster_cfg.prewarm_images = mix.lc_services().iter().map(|s| s.image()).collect();
    (schedule, cluster_cfg)
}

/// Run one scheduler over one app-mix on the paper's testbed topology.
pub fn run_mix(scheduler: Box<dyn Scheduler>, mix: AppMix, cfg: &ExperimentConfig) -> RunReport {
    let (schedule, cluster_cfg) = mix_inputs(mix, cfg);
    KubeKnots::new(cluster_cfg, scheduler, cfg.orch).run_schedule(&schedule)
}

/// The inputs of one run of the §V-C DNN workload on the 256-GPU
/// topology: the schedule, the cluster and the orchestrator timing.
pub fn dnn_inputs(
    workload: &DnnWorkloadConfig,
) -> (Vec<ScheduledPod>, ClusterConfig, OrchestratorConfig) {
    let schedule: Vec<ScheduledPod> = dnn::generate(workload)
        .into_iter()
        .map(|t| ScheduledPod { at: t.at, spec: t.spec })
        .collect();
    let mut cluster_cfg = ClusterConfig::dnn_sim();
    // Serving images are pre-pulled fleet-wide; training images cold-start.
    cluster_cfg.prewarm_images =
        knots_workloads::djinn::InferenceService::ALL.iter().map(|s| s.image()).collect();
    let mut orch = OrchestratorConfig::dnn_sim();
    // Overloaded traces leave a queue at the end of the window; give the
    // backlog room to drain so JCT statistics cover the whole population.
    orch.drain_grace = SimDuration::from_secs((workload.duration.as_secs_f64() * 1.5) as u64);
    (schedule, cluster_cfg, orch)
}

/// Run one scheduler over the §V-C DNN workload on the 256-GPU topology.
pub fn run_dnn(scheduler: Box<dyn Scheduler>, workload: &DnnWorkloadConfig) -> RunReport {
    let (schedule, cluster_cfg, orch) = dnn_inputs(workload);
    KubeKnots::new(cluster_cfg, scheduler, orch).run_schedule(&schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_lookup() {
        for name in CLUSTER_SCHEDULERS.iter().chain(DNN_SCHEDULERS.iter()) {
            assert!(scheduler_by_name(name).is_some(), "{name}");
            assert_eq!(scheduler_by_name(name).unwrap().name(), *name);
        }
        assert!(scheduler_by_name("nonsense").is_none());
    }

    #[test]
    fn only_cbp_pp_reads_node_series() {
        // The round settles idle nodes' owed samples only for a policy that
        // reads node series; every other label must skip that settle.
        for name in CLUSTER_SCHEDULERS.iter().chain(DNN_SCHEDULERS.iter()) {
            let reads = scheduler_by_name(name).unwrap().reads_node_series();
            assert_eq!(reads, *name == "CBP+PP", "{name}");
        }
    }

    #[test]
    fn short_mix_run_smoke() {
        let cfg = ExperimentConfig { duration: SimDuration::from_secs(30), ..Default::default() };
        let report = run_mix(scheduler_by_name("CBP+PP").unwrap(), AppMix::Mix3, &cfg);
        assert!(report.submitted > 0);
        assert!(report.completed > 0, "some pods must finish");
        assert_eq!(report.node_util_series.len(), 10);
    }
}
