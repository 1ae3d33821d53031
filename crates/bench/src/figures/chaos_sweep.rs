//! Chaos sweep: QoS, throughput and crash behaviour vs fault intensity.
//!
//! DESIGN.md §10's degradation policy makes a quantitative claim — the
//! control loop degrades *gracefully* as faults ramp up, it does not fall
//! over. This sweep measures that: for each scheduler, seeded fault plans
//! of increasing intensity (faults per simulated minute) are replayed
//! against the same workload, and each leg reports QoS violations,
//! completion rate, crash counts and the degradation machinery's own
//! accounting (give-ups, rejected samples). Intensity 0.0 is the fault-free
//! baseline: its plan is empty, so its row must match a plain run exactly.

use crate::render::{f, Table};
use knots_chaos::{gen, ChaosEngine, GenConfig};
use knots_core::experiment::{mix_inputs, scheduler_by_name, ExperimentConfig};
use knots_core::metrics::RunReport;
use knots_core::KubeKnots;
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;
use serde::Serialize;

/// Schedulers the sweep compares: the harvesting baseline and the paper's
/// full system, whose stale-series fallback collapses onto that baseline.
pub const CHAOS_SCHEDULERS: [&str; 2] = ["Res-Ag", "CBP+PP"];

/// Telemetry age beyond which schedulers fall back to their Res-Ag-like
/// baseline during the sweep. Probes fire every heartbeat (10 ms), so only
/// genuine dropouts (1-10 s windows) and failed nodes exceed this.
pub fn sweep_freshness() -> SimDuration {
    SimDuration::from_secs(2)
}

/// One (scheduler, intensity) leg of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Scheduler label.
    pub scheduler: String,
    /// Injected faults per simulated minute.
    pub faults_per_minute: f64,
    /// Faults actually injected (all kinds pooled).
    pub faults_injected: u64,
    /// QoS violations per kilo query.
    pub viol_per_kilo: f64,
    /// Completed / submitted, percent.
    pub completion_pct: f64,
    /// Pod crashes (OOM plus node failures).
    pub crashes: usize,
    /// Pods abandoned at the crash-loop cap.
    pub gave_up: u64,
    /// Non-finite samples the TSDB refused.
    pub rejected_samples: u64,
}

fn row(scheduler: &str, fpm: f64, r: &RunReport) -> ChaosRow {
    let fa = &r.faults;
    ChaosRow {
        scheduler: scheduler.to_string(),
        faults_per_minute: fpm,
        faults_injected: fa.node_failures
            + fa.degradations
            + fa.probe_dropouts
            + fa.corruption_windows
            + fa.heartbeat_delays,
        viol_per_kilo: r.violations_per_kilo(),
        completion_pct: if r.submitted == 0 {
            0.0
        } else {
            r.completed as f64 * 100.0 / r.submitted as f64
        },
        crashes: r.crashes,
        gave_up: fa.gave_up,
        rejected_samples: fa.rejected_samples,
    }
}

/// Run one (scheduler, intensity) leg: generate the plan from the
/// experiment seed and replay it with the stale-series fallback armed.
pub fn run_leg(scheduler: &str, fpm: f64, cfg: &ExperimentConfig) -> ChaosRow {
    let plan = gen::generate(&GenConfig {
        seed: cfg.seed,
        nodes: cfg.nodes,
        duration: cfg.duration,
        faults_per_minute: fpm,
    });
    let mut cfg = *cfg;
    cfg.orch.freshness = Some(sweep_freshness());
    let sched = scheduler_by_name(scheduler).expect("known scheduler");
    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg);
    let r = KubeKnots::new(cluster_cfg, sched, cfg.orch)
        .with_chaos(ChaosEngine::new(plan))
        .run_schedule(&schedule);
    row(scheduler, fpm, &r)
}

/// Sweep every scheduler over every intensity on `threads` workers. Rows
/// come back in submission order (scheduler-major), so the rendered table
/// and its JSON are byte-stable across thread counts.
pub fn run(cfg: &ExperimentConfig, intensities: &[f64], threads: usize) -> Vec<ChaosRow> {
    let jobs: Vec<_> = CHAOS_SCHEDULERS
        .iter()
        .flat_map(|&s| intensities.iter().map(move |&fpm| (s, fpm)))
        .map(|(s, fpm)| {
            let cfg = *cfg;
            move || run_leg(s, fpm, &cfg)
        })
        .collect();
    knots_sim::pool::run_jobs(jobs, threads)
}

/// Render the sweep.
pub fn table(rows: &[ChaosRow]) -> Table {
    let mut t = Table::new(
        "Chaos sweep — QoS / throughput / crashes vs fault intensity",
        &[
            "scheduler",
            "faults/min",
            "injected",
            "viol/k",
            "completed%",
            "crashes",
            "gave up",
            "rejected",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scheduler.clone(),
            f(r.faults_per_minute, 1),
            r.faults_injected.to_string(),
            f(r.viol_per_kilo, 1),
            f(r.completion_pct, 1),
            r.crashes.to_string(),
            r.gave_up.to_string(),
            r.rejected_samples.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_core::experiment::run_mix;

    fn quick() -> ExperimentConfig {
        ExperimentConfig { duration: SimDuration::from_secs(30), ..Default::default() }
    }

    #[test]
    fn sweep_runs_and_keeps_submission_order() {
        let rows = run(&quick(), &[0.0, 20.0], 4);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].scheduler, "Res-Ag");
        assert_eq!(rows[3].scheduler, "CBP+PP");
        assert_eq!(rows[0].faults_injected, 0, "zero intensity injects nothing");
        assert!(rows[1].faults_injected > 0, "20/min over 30 s injects faults");
        assert!(table(&rows).render().contains("faults/min"));
    }

    #[test]
    fn zero_intensity_leg_matches_a_plain_run() {
        // An empty plan must leave the run on the fault-free code path; only
        // the armed freshness bound differs from run_mix, and with 10 ms
        // probes nothing is ever stale, so the reports agree.
        let cfg = quick();
        let leg = run_leg("Res-Ag", 0.0, &cfg);
        let mut plain_cfg = cfg;
        plain_cfg.orch.freshness = Some(sweep_freshness());
        let plain = run_mix(scheduler_by_name("Res-Ag").unwrap(), AppMix::Mix2, &plain_cfg);
        assert_eq!(leg.viol_per_kilo, plain.violations_per_kilo());
        assert_eq!(leg.crashes, plain.crashes);
        assert_eq!(leg.faults_injected, 0);
    }
}
