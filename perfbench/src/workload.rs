//! The two benchmark workloads, their legs, and the untraced runner.
//!
//! A leg is one scheduler over one generated input. Its set-up is the
//! workload generation (`LoadGenerator::generate`, plus
//! the fault plan for recovery legs) and `KubeKnots::new`; its run is the
//! real program: `KubeKnots::run_schedule`, or
//! `knots_recovery::run_with_recovery` for recovery legs. The inputs are
//! built exactly as `knots_core::experiment`'s runners build them.

use std::time::Instant;

use knots_chaos::{gen, ChaosEngine, FaultPlan};
use knots_core::experiment::{scheduler_by_name, CLUSTER_SCHEDULERS, DNN_SCHEDULERS};
use knots_core::{KubeKnots, OrchestratorConfig, RunReport};
use knots_recovery::{run_with_recovery, RecoveryConfig};
use knots_sched::Scheduler;
use knots_sim::cluster::ClusterConfig;
use knots_sim::time::SimDuration;
use knots_telemetry::TimeSeriesDb;
use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator, ScheduledPod};
use knots_workloads::AppMix;

use crate::prof;

/// The seed whose report digests are pinned in `reference.json`.
pub const DEFAULT_SEED: u64 = 42;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's ten-node study: 4 cluster schedulers × App-Mix-1/2/3.
    Testbed10,
    /// 4-node App-Mix-2 through the crash-recovery supervisor.
    Recovery4,
}

/// Run size: `Full` is what the benchmark measures, `Tiny` keeps every
/// leg and code path but shrinks the inputs for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Test size.
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Testbed10, Workload::Recovery4];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Testbed10 => "testbed10",
            Workload::Recovery4 => "recovery4",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's legs for `seed`.
    ///
    /// Some inputs are pinned to [`DEFAULT_SEED`] whatever `seed` is, because
    /// their cost is not a stable function of the seed and the benchmark's
    /// runs must be comparable across seeds (`baselines.json` has the
    /// measurements behind each choice):
    /// - testbed10's CBP/App-Mix-1 leg: CBP's decide cost on that mix swings
    ///   from under a second to tens of seconds with the load seed. Pinned,
    ///   the hot spot is in every run at the same size.
    /// - recovery4's load trace: checkpoint cost follows the pending queue,
    ///   which on 4 overloaded nodes follows the arrival count. The seed
    ///   drives the crash schedule instead — the input the recovery path
    ///   is about.
    pub fn legs(self, seed: u64, size: Size) -> Vec<LegSpec> {
        let tiny = size == Size::Tiny;
        let mix_cfg = |nodes: usize, secs: u64, seed: u64| MixCfg {
            nodes,
            duration: SimDuration::from_secs(secs),
            seed,
        };
        match self {
            Workload::Testbed10 => {
                let secs = if tiny { 20 } else { 300 };
                let mut legs = Vec::new();
                for mix in AppMix::ALL {
                    for sched in CLUSTER_SCHEDULERS {
                        let pinned = sched == "CBP" && mix == AppMix::Mix1;
                        let cfg = mix_cfg(10, secs, if pinned { DEFAULT_SEED } else { seed });
                        legs.push(LegSpec {
                            label: format!("{sched}/{mix:?}"),
                            scheduler: sched,
                            input: Input::Mix { mix, cfg },
                            seeded: !pinned,
                        });
                    }
                }
                legs
            }
            Workload::Recovery4 => {
                // 60 s rather than the recovery sweep's 180 s, so one run
                // holds enough passes for each leg's fastest one to reach a
                // quiet moment of a shared host (baselines.json has the numbers).
                let cfg = mix_cfg(4, if tiny { 20 } else { 60 }, DEFAULT_SEED);
                DNN_SCHEDULERS
                    .iter()
                    .map(|&sched| LegSpec {
                        label: sched.to_string(),
                        scheduler: sched,
                        input: Input::Recovery { cfg, crash_seed: seed, crashes_per_minute: 6.0 },
                        // A recovered run is bit-identical to the
                        // uninterrupted one, so the report cannot depend on
                        // the crash schedule.
                        seeded: false,
                    })
                    .collect()
            }
        }
    }
}

/// App-mix input parameters (the subset of `ExperimentConfig` the
/// benchmark varies; the rest keep their defaults).
#[derive(Debug, Clone, Copy)]
pub struct MixCfg {
    /// Worker-node count.
    pub nodes: usize,
    /// Workload window.
    pub duration: SimDuration,
    /// Load-generator seed.
    pub seed: u64,
}

/// What a leg runs on.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// An app-mix schedule on a homogeneous testbed-GPU cluster.
    Mix {
        /// Which mix.
        mix: AppMix,
        /// Size and seed.
        cfg: MixCfg,
    },
    /// App-Mix-2 under seeded controller crashes, run through
    /// `run_with_recovery` with 10 s checkpoints.
    Recovery {
        /// Load size and seed.
        cfg: MixCfg,
        /// Seed of the controller-crash schedule.
        crash_seed: u64,
        /// Scheduled controller crashes per simulated minute.
        crashes_per_minute: f64,
    },
}

/// One leg: a scheduler over one input.
#[derive(Debug, Clone)]
pub struct LegSpec {
    /// `scheduler[/mix]`, unique within the workload.
    pub label: String,
    /// Scheduler label for `scheduler_by_name`.
    pub scheduler: &'static str,
    /// The input.
    pub input: Input,
    /// Whether the leg's report depends on the run's seed. Reports of
    /// unseeded legs must match their reference digest on every seed.
    pub seeded: bool,
}

/// A leg's generated inputs: everything `KubeKnots::new` and the loop
/// consume.
pub struct Prepared {
    /// Arrival-sorted workload schedule.
    pub schedule: Vec<ScheduledPod>,
    /// Cluster topology.
    pub cluster_cfg: ClusterConfig,
    /// Loop timing.
    pub orch: OrchestratorConfig,
    /// Fault plan (recovery legs only).
    pub plan: Option<FaultPlan>,
    /// Checkpoint policy (recovery legs only).
    pub recovery: Option<RecoveryConfig>,
}

impl LegSpec {
    /// A fresh instance of the leg's scheduler.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        scheduler_by_name(self.scheduler).expect("legs name only known schedulers")
    }

    /// Generate the leg's inputs (the workload-generation half of set-up).
    pub fn prepare(&self) -> Prepared {
        match self.input {
            Input::Mix { mix, cfg } => {
                let (schedule, cluster_cfg) = mix_inputs(mix, &cfg);
                Prepared {
                    schedule,
                    cluster_cfg,
                    orch: OrchestratorConfig::default(),
                    plan: None,
                    recovery: None,
                }
            }
            Input::Recovery { cfg, crash_seed, crashes_per_minute } => {
                let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg);
                let plan = FaultPlan::from_events(gen::generate_controller_crashes(
                    crash_seed,
                    cfg.duration,
                    crashes_per_minute,
                ));
                Prepared {
                    schedule,
                    cluster_cfg,
                    orch: OrchestratorConfig::default(),
                    plan: Some(plan),
                    recovery: Some(RecoveryConfig { checkpoint_every: SimDuration::from_secs(10) }),
                }
            }
        }
    }
}

/// `run_mix_with_chaos`'s input construction.
fn mix_inputs(mix: AppMix, cfg: &MixCfg) -> (Vec<ScheduledPod>, ClusterConfig) {
    let schedule = LoadGenerator::generate(mix, &LoadGenConfig::new(cfg.duration, cfg.seed));
    let mut cluster_cfg = ClusterConfig::homogeneous(cfg.nodes, knots_sim::config::TESTBED_GPU);
    cluster_cfg.prewarm_images = mix.lc_services().iter().map(|s| s.image()).collect();
    (schedule, cluster_cfg)
}

/// FNV-1a over the JSON encoding of the final cluster and TSDB state —
/// the fidelity check between the traced driver and the orchestrator.
pub fn state_digest(cluster: &knots_sim::cluster::Cluster, tsdb: &TimeSeriesDb) -> u64 {
    let c = serde_json::to_string(&cluster.snapshot_state()).expect("cluster state serializes");
    let t = serde_json::to_string(&tsdb.snapshot_state()).expect("tsdb state serializes");
    knots_recovery::fnv1a(c.as_bytes()) ^ knots_recovery::fnv1a(t.as_bytes()).rotate_left(1)
}

/// One untraced leg execution.
pub struct UntracedLeg {
    /// Set-up seconds: generation + `KubeKnots::new`.
    pub setup_s: f64,
    /// Run seconds.
    pub run_s: f64,
    /// CPU seconds over the run.
    pub cpu_s: f64,
    /// `knots_analyzer::report_digest` of the report.
    pub report_digest: u64,
    /// Final cluster + TSDB state digest, when asked for.
    pub state_digest: Option<u64>,
}

/// Run one leg untraced, timing set-up and run separately. With
/// `want_state`, also digests the final state; for a recovery leg that
/// costs an extra uninterrupted run (outside the timed span), whose report
/// must match the recovered one.
pub fn run_untraced(leg: &LegSpec, want_state: bool) -> Result<UntracedLeg, String> {
    let t0 = Instant::now();
    let p = leg.prepare();
    if let Some(rc) = p.recovery {
        let plan = p.plan.expect("recovery legs carry a plan");
        let setup_s = t0.elapsed().as_secs_f64();
        let u0 = prof::cpu_s();
        let t1 = Instant::now();
        let report = run_with_recovery(
            &p.cluster_cfg,
            &|| leg.scheduler(),
            &p.orch,
            &plan,
            &p.schedule,
            &rc,
            &knots_obs::Obs::disabled(),
        )
        .map_err(|e| format!("{}: recovery failed: {e:?}", leg.label))?;
        let run_s = t1.elapsed().as_secs_f64();
        let cpu_s = prof::cpu_s() - u0;
        check_report(leg, &report)?;
        let report_digest = knots_analyzer::report_digest(&report);
        let state_digest = if want_state {
            let mut k = KubeKnots::new(p.cluster_cfg.clone(), leg.scheduler(), p.orch)
                .with_chaos(ChaosEngine::new(plan));
            let clean = k.run_schedule(&p.schedule);
            if knots_analyzer::report_digest(&clean) != report_digest {
                return Err(format!(
                    "{}: recovered report differs from the uninterrupted run",
                    leg.label
                ));
            }
            Some(state_digest(k.cluster(), k.tsdb()))
        } else {
            None
        };
        return Ok(UntracedLeg { setup_s, run_s, cpu_s, report_digest, state_digest });
    }
    let mut k = KubeKnots::new(p.cluster_cfg, leg.scheduler(), p.orch);
    let setup_s = t0.elapsed().as_secs_f64();
    let u0 = prof::cpu_s();
    let t1 = Instant::now();
    let report = k.run_schedule(&p.schedule);
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = prof::cpu_s() - u0;
    check_report(leg, &report)?;
    Ok(UntracedLeg {
        setup_s,
        run_s,
        cpu_s,
        report_digest: knots_analyzer::report_digest(&report),
        state_digest: want_state.then(|| state_digest(k.cluster(), k.tsdb())),
    })
}

/// Set-up alone: generate the leg's inputs and build its orchestrator.
pub fn setup_only(leg: &LegSpec) -> f64 {
    let t0 = Instant::now();
    let p = leg.prepare();
    let k = KubeKnots::new(p.cluster_cfg, leg.scheduler(), p.orch);
    let s = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(k));
    s
}

/// A finished report must have run and finished something.
fn check_report(leg: &LegSpec, r: &RunReport) -> Result<(), String> {
    if r.submitted == 0 || r.completed == 0 || !r.energy_joules.is_finite() {
        return Err(format!(
            "{}: degenerate report ({} submitted, {} completed)",
            leg.label, r.submitted, r.completed
        ));
    }
    Ok(())
}
