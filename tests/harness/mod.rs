//! The differential harness: one way to run a leg and one fingerprint of
//! the finished run, for every bit-identity pair the simulator promises. A
//! run is a pure function of its inputs however it is driven, so every
//! [`Mode`] must end in the per-tick oracle's [`Fingerprint`]; on a
//! divergence [`assert_same`] names the leg, the mode pair, each differing
//! component and the first differing state field path.
//!
//! Each test binary that asserts such a pair declares `mod harness;` and
//! drives its own legs: the loop modes in `tests/determinism.rs`, resume and
//! crash recovery in `tests/recovery.rs`; `tests/differential.rs` tests the
//! field-path walk and the resumes of foreign states.

// Each test binary uses its own part of the harness.
#![allow(dead_code)]
#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test helpers fail like the tests they serve"
)]

use knots_chaos::{gen, ChaosEngine, FaultPlan, GenConfig};
use knots_core::config::OrchestratorConfig;
use knots_core::experiment::{mix_inputs, scheduler_by_name, ExperimentConfig};
use knots_core::{KubeKnots, OrchestratorState, RunReport};
use knots_obs::{Obs, Tracer, Track};
use knots_recovery::{run_with_recovery, RecoveryConfig, Snapshot, WriteAheadLog};
use knots_sim::cluster::ClusterConfig;
use knots_sim::resources::GpuModel;
use knots_sim::time::{SimDuration, SimTime};
use knots_workloads::djinn::InferenceService;
use knots_workloads::dnn::{self, DnnWorkloadConfig};
use knots_workloads::loadgen::ScheduledPod;
use knots_workloads::AppMix;
use serde::Value;

/// Training jobs of a [`Leg::dnn`] trace.
pub const DNN_TRAINING_JOBS: usize = 16;

/// Inference tasks of a [`Leg::dnn`] trace.
pub const DNN_INFERENCE_TASKS: usize = 40;

/// Every scheduler the experiments run.
pub const SCHEDULERS: [&str; 6] = ["Uniform", "Res-Ag", "CBP", "CBP+PP", "Gandiva", "Tiresias"];

/// One leg's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    pub scheduler: &'static str,
    pub mix: AppMix,
    /// Run a small §V-C DNN trace instead of `mix` ([`DNN_TRAINING_JOBS`]
    /// training jobs and [`DNN_INFERENCE_TASKS`] inference tasks over
    /// `secs`, seeded by `seed`, on P100s with the serving images
    /// pre-pulled): its training jobs outlive Tiresias's 60 s queue
    /// threshold, so Tiresias preempts and suspends, which no app mix makes
    /// it do.
    pub dnn: bool,
    pub nodes: usize,
    /// Seed of the load generator.
    pub seed: u64,
    /// Seed of the fault plan: infrastructure faults and controller crashes.
    pub plan_seed: u64,
    pub hb_ms: u64,
    pub secs: u64,
    pub faults_per_minute: f64,
    pub crashes_per_minute: f64,
    /// Idle time before an empty node auto-sleeps, where the scheduler
    /// allows it.
    pub auto_sleep: Option<SimDuration>,
    /// Crash-loop restarts before a pod is abandoned (0: never).
    pub crash_loop_cap: u32,
}

impl Leg {
    /// App-Mix-2 on 4 nodes, seed 42, a 50 ms heartbeat, 30 s, no faults.
    pub fn new(scheduler: &'static str) -> Leg {
        Leg {
            scheduler,
            mix: AppMix::Mix2,
            dnn: false,
            nodes: 4,
            seed: 42,
            plan_seed: 42 ^ 0x51ab,
            hb_ms: 50,
            secs: 30,
            faults_per_minute: 0.0,
            crashes_per_minute: 0.0,
            auto_sleep: None,
            crash_loop_cap: 0,
        }
    }

    /// What every mode of this leg runs on: the experiments' own input
    /// builder, plus the leg's timing, sleep, cap and fault plan.
    pub fn inputs(&self) -> Inputs {
        let duration = SimDuration::from_secs(self.secs);
        let exp =
            ExperimentConfig { nodes: self.nodes, duration, seed: self.seed, ..Default::default() };
        let (schedule, mut cluster) = if self.dnn {
            let workload = DnnWorkloadConfig {
                dlt_jobs: DNN_TRAINING_JOBS,
                dli_tasks: DNN_INFERENCE_TASKS,
                duration,
                time_scale: 1.0 / 120.0,
                seed: self.seed,
            };
            let schedule = dnn::generate(&workload)
                .into_iter()
                .map(|t| ScheduledPod { at: t.at, spec: t.spec })
                .collect();
            let mut cluster = ClusterConfig::homogeneous(self.nodes, GpuModel::P100);
            cluster.prewarm_images = InferenceService::ALL.iter().map(|s| s.image()).collect();
            (schedule, cluster)
        } else {
            mix_inputs(self.mix, &exp)
        };
        cluster.auto_sleep_after = self.auto_sleep;
        cluster.overheads.crash_loop_cap = self.crash_loop_cap;
        let (seed, nodes, faults_per_minute) = (self.plan_seed, self.nodes, self.faults_per_minute);
        let faults = gen::generate(&GenConfig { seed, nodes, duration, faults_per_minute }).events;
        let crashes = gen::generate_controller_crashes(seed, duration, self.crashes_per_minute);
        Inputs {
            leg: *self,
            schedule,
            cluster,
            orch: OrchestratorConfig {
                heartbeat: SimDuration::from_millis(self.hb_ms),
                ..Default::default()
            },
            plan: FaultPlan::from_events([faults, crashes].concat()),
        }
    }
}

/// A leg's built inputs, and the ways of starting and resuming it.
pub struct Inputs {
    pub leg: Leg,
    pub schedule: Vec<ScheduledPod>,
    pub cluster: ClusterConfig,
    pub orch: OrchestratorConfig,
    pub plan: FaultPlan,
}

impl Inputs {
    /// A fresh orchestrator.
    pub fn start(&self) -> KubeKnots {
        let scheduler = scheduler_by_name(self.leg.scheduler).unwrap();
        KubeKnots::new(self.cluster.clone(), scheduler, self.orch)
            .with_chaos(ChaosEngine::new(self.plan.clone()))
    }

    /// An event-queue run begun and paused at the first boundary at or
    /// past `at`.
    pub fn paused_at(&self, at: SimTime) -> KubeKnots {
        let mut k = self.start();
        k.begin(&self.schedule);
        assert!(!k.drive(&self.schedule, Some(at)), "{:?}: the run ended before {at:?}", self.leg);
        k
    }

    /// `state` resumed under `cluster`.
    pub fn resume(
        &self,
        cluster: ClusterConfig,
        state: OrchestratorState,
    ) -> Result<KubeKnots, serde::Error> {
        let scheduler = scheduler_by_name(self.leg.scheduler).unwrap();
        KubeKnots::resume(cluster, scheduler, self.orch, Some(self.plan.clone()), state)
    }

    /// Drive a begun or resumed run to the end and fingerprint it.
    pub fn finish(&self, mut k: KubeKnots) -> Fingerprint {
        assert!(k.drive(&self.schedule, None), "{:?}: a resumed run must complete", self.leg);
        fingerprint(k.finish(self.schedule.len()), Some(&k))
    }
}

/// How a leg is driven.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// The per-tick loop, `KubeKnots::run_ticked`: the reference.
    Oracle,
    /// The event-queue loop.
    Events,
    /// The event queue with the JSONL recorder and the span tracer on.
    Observed,
    /// Driven by hand: begin, drive to the checkpoint and capture it, drive
    /// on to the crash, drop the orchestrator, resume from the checkpoint,
    /// replay to the crash against the write-ahead log, finish.
    Resumed { checkpoint_at: SimTime, crash_at: SimTime },
    /// Through `run_with_recovery`, crashing at the plan's controller
    /// crashes.
    Recovered { checkpoint_every: SimDuration },
}

/// What a finished leg shows. [`assert_same`] compares the digest, the
/// energy and the state; the rest feeds the rows' own checks.
#[derive(Debug)]
pub struct Fingerprint {
    pub digest: u64,
    /// Energy bits: the report's total, then each node's.
    pub energy: Vec<u64>,
    /// The cluster and TSDB state. The TSDB's node series hold every
    /// retained sample, so comparing the state by float bits compares the
    /// TSDB node-sample bits too. `None`, like the per-node energy, for
    /// `Recovered`, whose harness consumes the orchestrator.
    pub state: Option<Value>,
    pub report: RunReport,
    /// Control-loop steps: one per tick for the oracle, the traced
    /// `probe.round` and `pool.batch` spans for `Observed`, 0 otherwise.
    pub steps: usize,
    /// Nodes hosting work at a `Resumed` leg's checkpoint (0 otherwise).
    pub active_at_checkpoint: usize,
}

/// The fingerprint of a run that finished with `report`, read off `k`
/// where the orchestrator survives.
pub fn fingerprint(report: RunReport, k: Option<&KubeKnots>) -> Fingerprint {
    let mut energy = vec![report.energy_joules.to_bits()];
    let state = k.map(|k| {
        energy.extend(k.cluster().nodes().iter().map(|n| n.energy().joules().to_bits()));
        Value::Object(vec![
            ("cluster".into(), serde_json::to_value(&k.cluster().snapshot_state()).unwrap()),
            ("tsdb".into(), serde_json::to_value(&k.tsdb().snapshot_state()).unwrap()),
        ])
    });
    let digest = knots_core::report_digest(&report);
    Fingerprint { digest, energy, state, report, steps: 0, active_at_checkpoint: 0 }
}

/// Drive `leg` in `mode` to the end.
pub fn run(leg: &Leg, mode: Mode) -> Fingerprint {
    let inputs = leg.inputs();
    let schedule = &inputs.schedule;
    match mode {
        Mode::Oracle | Mode::Events | Mode::Observed => {
            let obs = match mode {
                Mode::Observed => {
                    Obs { tracer: Tracer::bounded(1 << 20), ..Obs::with_trace_capacity(1 << 12) }
                }
                _ => Obs::disabled(),
            };
            let naive = matches!(mode, Mode::Oracle);
            let mut k = inputs.start().with_obs(obs);
            let report = if naive { k.run_ticked(schedule) } else { k.run_schedule(schedule) };
            assert_eq!(k.obs().tracer.dropped(), 0, "{leg:?}: the span ring evicted");
            let spans = k.obs().tracer.spans();
            let traced = spans.iter().filter(|s| s.track == Track::Control);
            let steps = if naive {
                (k.cluster().now().0 / inputs.orch.tick.0) as usize
            } else {
                traced.filter(|s| matches!(s.name, "probe.round" | "pool.batch")).count()
            };
            Fingerprint { steps, ..fingerprint(report, Some(&k)) }
        }
        Mode::Resumed { checkpoint_at, crash_at } => {
            let mut k = inputs.paused_at(checkpoint_at);
            let active_at_checkpoint = k.cluster().active_len();
            let snap = Snapshot::capture(&k).unwrap();
            k.enable_journal();
            assert!(!k.drive(schedule, Some(crash_at)), "{leg:?}: the run ended before the crash");
            let mut wal = WriteAheadLog::new();
            wal.append(&k.take_journal());
            drop(k);

            let mut k = inputs.resume(inputs.cluster.clone(), snap.state().unwrap()).unwrap();
            k.enable_journal();
            assert!(!k.drive(schedule, Some(crash_at)), "{leg:?}: the replay overshot the crash");
            wal.verify_replay(&k.take_journal())
                .unwrap_or_else(|e| panic!("{leg:?}: the replay left the write-ahead log: {e}"));
            Fingerprint { active_at_checkpoint, ..inputs.finish(k) }
        }
        Mode::Recovered { checkpoint_every } => {
            let (obs, rc) = (Obs::disabled(), RecoveryConfig { checkpoint_every });
            let scheduler = || scheduler_by_name(leg.scheduler).unwrap();
            let Inputs { cluster, orch, plan, .. } = &inputs;
            let report = run_with_recovery(cluster, &scheduler, orch, plan, schedule, &rc, &obs)
                .unwrap_or_else(|e| panic!("{leg:?}: the recovery harness failed: {e}"));
            assert_eq!(
                obs.metrics.counter_value("knots_recovery_crashes_total", &[]),
                report.recovery.controller_crashes,
                "{leg:?}: the obs crash counter disagrees with the report"
            );
            let heartbeats = [("kind", "heartbeat")];
            assert!(
                obs.metrics.counter_value("knots_core_events_total", &heartbeats) > 0,
                "{leg:?}: the incarnations' metrics did not fold into the harness's bundle"
            );
            fingerprint(report, None)
        }
    }
}

/// The first field path where `a` and `b` differ, with both values there:
/// `cluster.nodes[2].energy.joules: 0x… vs 0x…`. Floats compare by bits,
/// so `-0.0` differs from `0.0` and a NaN equals the same NaN.
pub fn first_diff(a: &Value, b: &Value) -> Option<String> {
    /// The differing path below `a`/`b` (built on the way back up, so equal
    /// trees format nothing) and the two values there.
    fn walk(a: &Value, b: &Value) -> Option<(String, String)> {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => (x.to_bits() != y.to_bits())
                .then(|| (String::new(), format!("{:#x} vs {:#x}", x.to_bits(), y.to_bits()))),
            (Value::Array(xs), Value::Array(ys)) => {
                let mut pairs = xs.iter().zip(ys).enumerate();
                let first =
                    pairs.find_map(|(i, (x, y))| walk(x, y).map(|(p, v)| (format!("[{i}]{p}"), v)));
                first.or_else(|| {
                    let (n, m) = (xs.len(), ys.len());
                    (n != m).then(|| (format!("[{}]", n.min(m)), format!("{n} vs {m} elements")))
                })
            }
            (Value::Object(xs), Value::Object(ys)) if xs.len() == ys.len() => {
                xs.iter().zip(ys).find_map(|((k, x), (l, y))| {
                    if k != l {
                        return Some((format!(".{k}"), format!("field {k:?} vs {l:?}")));
                    }
                    walk(x, y).map(|(p, v)| (format!(".{k}{p}"), v))
                })
            }
            _ => (a != b).then(|| (String::new(), format!("{a:?} vs {b:?}"))),
        }
    }
    walk(a, b).map(|(path, values)| format!("{}: {values}", path.trim_start_matches('.')))
}

/// Assert that `other` ended exactly where `oracle` did. On a divergence,
/// name every differing component under `label`: the digest, the first
/// differing energy (the total or a node's) and the first differing state
/// field path.
pub fn assert_same(oracle: &Fingerprint, other: &Fingerprint, label: &str) {
    let mut diffs = Vec::new();
    if oracle.digest != other.digest {
        diffs.push(format!("report digest: {:#018x} vs {:#018x}", oracle.digest, other.digest));
    }
    let mut energies = oracle.energy.iter().zip(&other.energy).enumerate();
    if let Some((i, (x, y))) = energies.find(|(_, (x, y))| x != y) {
        let what = if i == 0 { "total".to_string() } else { format!("of node {}", i - 1) };
        diffs.push(format!("energy {what}: {x:#x} vs {y:#x}"));
    }
    if let (Some(a), Some(b)) = (&oracle.state, &other.state) {
        diffs.extend(first_diff(a, b).map(|d| format!("state {d}")));
    }
    assert!(diffs.is_empty(), "{label}: diverged (oracle vs other):\n  {}", diffs.join("\n  "));
}

/// Run `leg` on the oracle and in each of `modes`, assert each mode's
/// fingerprint equals the oracle's, and return all of them.
pub fn check(leg: &Leg, modes: &[Mode]) -> (Fingerprint, Vec<Fingerprint>) {
    let oracle = run(leg, Mode::Oracle);
    let others = modes.iter().map(|&mode| {
        let fp = run(leg, mode);
        assert_same(&oracle, &fp, &format!("{leg:?}: Oracle vs {mode:?}"));
        fp
    });
    let others = others.collect();
    (oracle, others)
}

/// `s` seconds into a run.
pub fn secs(s: u64) -> SimTime {
    SimTime(SimDuration::from_secs(s).0)
}
