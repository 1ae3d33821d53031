//! The crash-recovery harness: drive a run with periodic checkpoints,
//! kill the controller at the fault plan's scheduled crash instants, and
//! resume from the latest snapshot + WAL — with a divergence fence
//! guaranteeing the recovered timeline is the uninterrupted one.
//!
//! The harness plays the role of an external supervisor (a kubelet
//! restarting the Kube-Knots head-node pod, in the paper's deployment):
//! the simulated controller itself never sees its own death. A
//! [`knots_chaos::FaultKind::ControllerCrash`] event is a *counted no-op*
//! inside the chaos engine, so an uninterrupted run and a crash-recovery
//! run consume the identical fault plan — which is exactly what makes the
//! bit-identity acceptance check meaningful.

use knots_chaos::{ChaosEngine, FaultPlan};
use knots_core::config::OrchestratorConfig;
use knots_core::metrics::{RecoveryStats, RunReport};
use knots_core::orchestrator::KubeKnots;
use knots_obs::Obs;
use knots_sched::Scheduler;
use knots_sim::cluster::ClusterConfig;
use knots_sim::time::SimDuration;
use knots_workloads::loadgen::ScheduledPod;

use crate::{RecoveryError, Snapshot, WriteAheadLog};

/// Checkpoint policy for [`run_with_recovery`].
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Periodic checkpoint cadence in simulated time. The run also takes
    /// a base checkpoint at t=0, so recovery is always possible.
    pub checkpoint_every: SimDuration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { checkpoint_every: SimDuration::from_secs(10) }
    }
}

/// Which kind of stop the drive loop is heading for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopKind {
    Checkpoint,
    Crash,
}

/// Run `schedule` under `plan` with periodic checkpointing, killing and
/// recovering the controller at every scheduled
/// [`knots_chaos::FaultKind::ControllerCrash`] instant.
///
/// `make_scheduler` must build a fresh instance of the *same* policy each
/// call — one for the initial controller and one per restart (learned
/// state is restored from the snapshot, so the policy must match).
///
/// Returns the run's [`RunReport`] with [`RunReport::recovery`] filled:
/// crashes performed, checkpoints taken, WAL records replayed, and the
/// wall-clock recovery latency. Everything the report digest covers is
/// bit-identical to an uninterrupted run of the same inputs — that is the
/// contract `tests/recovery.rs` pins.
pub fn run_with_recovery(
    cluster_cfg: &ClusterConfig,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    orch: &OrchestratorConfig,
    plan: &FaultPlan,
    schedule: &[ScheduledPod],
    rc: &RecoveryConfig,
    obs: &Obs,
) -> Result<RunReport, RecoveryError> {
    let every = rc.checkpoint_every.max(orch.tick);
    let crashes = plan.controller_crashes();
    let mut crash_iter = crashes.into_iter().peekable();

    let mut k = KubeKnots::new(cluster_cfg.clone(), make_scheduler(), *orch)
        .with_chaos(ChaosEngine::new(plan.clone()));
    k.begin(schedule);
    k.enable_journal();

    // Base checkpoint at t=0: recovery must never depend on reaching the
    // first periodic checkpoint alive.
    let mut latest = Snapshot::capture(&k)?;
    let mut wal = WriteAheadLog::new();
    let mut stats = RecoveryStats { checkpoints: 1, ..RecoveryStats::default() };
    obs.metrics.inc("knots_recovery_checkpoints_total", &[]);
    let mut next_cp = k.cluster().now() + every;

    loop {
        let now = k.cluster().now();
        // Stops must strictly increase: a pause boundary can overshoot a
        // later stop (boundaries live on the event grid), in which case
        // that crash/checkpoint is already behind us.
        while crash_iter.peek().is_some_and(|c| *c <= now) {
            crash_iter.next();
        }
        while next_cp <= now {
            next_cp += every;
        }
        // Checkpoint wins a tie: crashing at the instant of a checkpoint
        // recovers from that checkpoint with an empty replay.
        let (stop, kind) = match crash_iter.peek() {
            Some(&c) if c < next_cp => (c, StopKind::Crash),
            _ => (next_cp, StopKind::Checkpoint),
        };

        if k.drive(schedule, Some(stop)) {
            // Drained (or hit the deadline) before the stop.
            wal.append(&k.take_journal());
            break;
        }

        match kind {
            StopKind::Checkpoint => {
                wal.append(&k.take_journal());
                latest = Snapshot::capture(&k)?;
                wal.truncate();
                stats.checkpoints += 1;
                obs.metrics.inc("knots_recovery_checkpoints_total", &[]);
            }
            StopKind::Crash => {
                crash_iter.next();
                wal.append(&k.take_journal());

                // Kill the controller: every in-memory structure is gone.
                drop(k);

                // knots-allow: D1 -- wall-clock recovery latency is an observability stat (RecoveryStats is digest-excluded); it never feeds back into simulation state
                let t0 = std::time::Instant::now();
                let state = latest.state()?;
                let mut revived = KubeKnots::resume(
                    cluster_cfg.clone(),
                    make_scheduler(),
                    *orch,
                    Some(plan.clone()),
                    state,
                )
                .map_err(|e| RecoveryError::Malformed(e.to_string()))?;
                revived.enable_journal();
                // Replay: re-drive the deterministic loop from the
                // snapshot to the crash boundary. The WAL is the fence,
                // not the executor.
                let replay_done = revived.drive(schedule, Some(stop));
                let replayed = revived.take_journal();
                wal.verify_replay(&replayed)?;
                stats.recovery_wall_us += t0.elapsed().as_secs_f64() * 1e6;
                stats.controller_crashes += 1;
                stats.replayed_events += replayed.len() as u64;
                obs.metrics.inc("knots_recovery_crashes_total", &[]);
                obs.metrics.add("knots_recovery_replayed_events_total", &[], replayed.len() as u64);

                k = revived;
                if replay_done {
                    break;
                }
            }
        }
    }

    let mut report = k.report_now(schedule.len());
    report.recovery = stats;
    Ok(report)
}
