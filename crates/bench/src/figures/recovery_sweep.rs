//! Recovery sweep: crash density vs recovery cost, with bit-identity
//! checked on every leg.
//!
//! DESIGN.md §15's durability claim is quantitative: killing the
//! controller at any rate and resuming from snapshot + WAL must not move
//! a single decision — and recovery must stay cheap (checkpoint restore
//! plus a bounded replay, not a from-scratch rerun). This sweep measures
//! both: for each DNN scheduler and each crash density (controller
//! crashes per simulated minute), the same seeded run is executed twice —
//! once uninterrupted, once under the crash/recover harness — and each
//! row reports the replay length, the wall-clock recovery latency and
//! whether the two report digests agree. The zero-crash legs double as a
//! regression guard: they take the plain code path and must keep the
//! pinned self-check digests.

use crate::render::{f, Table};
use knots_chaos::{gen, ChaosEngine, FaultPlan};
use knots_core::experiment::{mix_inputs, scheduler_by_name, ExperimentConfig, DNN_SCHEDULERS};
use knots_core::metrics::RunReport;
use knots_core::KubeKnots;
use knots_recovery::{run_with_recovery, RecoveryConfig};
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;
use serde::Serialize;

/// Checkpoint cadence used by every sweep leg.
pub fn sweep_checkpoint() -> SimDuration {
    SimDuration::from_secs(10)
}

/// One (scheduler, crash density) leg of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryRow {
    /// Scheduler label.
    pub scheduler: String,
    /// Scheduled controller crashes per simulated minute.
    pub crashes_per_minute: f64,
    /// Controller kills actually performed by the harness.
    pub crashes: u64,
    /// Checkpoints taken (includes the base checkpoint at t=0).
    pub checkpoints: u64,
    /// WAL records replayed across all recoveries.
    pub replayed_events: u64,
    /// Mean wall-clock restore+replay latency per crash, microseconds.
    pub mean_recovery_us: f64,
    /// Completed / submitted, percent.
    pub completion_pct: f64,
    /// Report digest of the recovered run.
    pub digest: u64,
    /// Whether the recovered digest matches the uninterrupted run's.
    pub digest_match: bool,
}

/// Run one (scheduler, crash density) leg: uninterrupted baseline, then
/// the crash/recover harness over the identical plan, then compare.
pub fn run_leg(scheduler: &str, cpm: f64, cfg: &ExperimentConfig) -> RecoveryRow {
    let plan =
        FaultPlan::from_events(gen::generate_controller_crashes(cfg.seed, cfg.duration, cpm));

    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, cfg);
    let new_scheduler = || scheduler_by_name(scheduler).expect("known scheduler");

    // Uninterrupted baseline: same plan (controller crashes are counted
    // no-ops inside the engine, so the legs consume identical fault
    // streams).
    let baseline = KubeKnots::new(cluster_cfg.clone(), new_scheduler(), cfg.orch)
        .with_chaos(ChaosEngine::new(plan.clone()))
        .run_schedule(&schedule);

    // Recovery leg: the same inputs, driven through the supervisor harness.
    let rc = RecoveryConfig { checkpoint_every: sweep_checkpoint() };
    let report = run_with_recovery(
        &cluster_cfg,
        &new_scheduler,
        &cfg.orch,
        &plan,
        &schedule,
        &rc,
        &knots_obs::Obs::disabled(),
    )
    .expect("recovery harness failed");

    row(scheduler, cpm, &baseline, &report)
}

fn row(scheduler: &str, cpm: f64, baseline: &RunReport, r: &RunReport) -> RecoveryRow {
    let rec = &r.recovery;
    RecoveryRow {
        scheduler: scheduler.to_string(),
        crashes_per_minute: cpm,
        crashes: rec.controller_crashes,
        checkpoints: rec.checkpoints,
        replayed_events: rec.replayed_events,
        mean_recovery_us: if rec.controller_crashes == 0 {
            0.0
        } else {
            rec.recovery_wall_us / rec.controller_crashes as f64
        },
        completion_pct: if r.submitted == 0 {
            0.0
        } else {
            r.completed as f64 * 100.0 / r.submitted as f64
        },
        digest: knots_analyzer::report_digest(r),
        digest_match: knots_analyzer::report_digest(r) == knots_analyzer::report_digest(baseline),
    }
}

/// Sweep every DNN scheduler over every crash density on `threads`
/// workers. Rows come back in submission order (scheduler-major), so the
/// rendered table and its JSON are byte-stable across thread counts.
pub fn run(cfg: &ExperimentConfig, densities: &[f64], threads: usize) -> Vec<RecoveryRow> {
    let jobs: Vec<_> = DNN_SCHEDULERS
        .iter()
        .flat_map(|&s| densities.iter().map(move |&cpm| (s, cpm)))
        .map(|(s, cpm)| {
            let cfg = *cfg;
            move || run_leg(s, cpm, &cfg)
        })
        .collect();
    knots_sim::pool::run_jobs(jobs, threads)
}

/// Render the sweep.
pub fn table(rows: &[RecoveryRow]) -> Table {
    let mut t = Table::new(
        "Recovery sweep — crash density vs recovery cost (digest-checked)",
        &[
            "scheduler",
            "crashes/min",
            "crashes",
            "checkpoints",
            "replayed",
            "mean rec us",
            "completed%",
            "digest match",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scheduler.clone(),
            f(r.crashes_per_minute, 1),
            r.crashes.to_string(),
            r.checkpoints.to_string(),
            r.replayed_events.to_string(),
            f(r.mean_recovery_us, 0),
            f(r.completion_pct, 1),
            if r.digest_match { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

/// `true` when every leg's recovered digest matched its uninterrupted
/// baseline — the property the CI smoke job asserts.
pub fn all_match(rows: &[RecoveryRow]) -> bool {
    rows.iter().all(|r| r.digest_match)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig { nodes: 4, duration: SimDuration::from_secs(30), ..Default::default() }
    }

    #[test]
    fn sweep_runs_and_every_leg_is_bit_identical() {
        let rows = run(&quick(), &[0.0, 4.0], 4);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].scheduler, "Res-Ag");
        assert!(all_match(&rows), "a recovered leg diverged from its baseline");
        assert_eq!(rows[0].crashes, 0, "zero density performs no kills");
        assert!(rows[1].crashes > 0, "4/min over 30 s kills the controller");
        assert!(rows[1].replayed_events > 0, "recovery replays WAL records");
        assert!(table(&rows).render().contains("digest match"));
    }
}
