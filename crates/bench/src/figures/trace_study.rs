//! The `experiments trace` study: the §V-C DNN bake-off run with causal
//! tracing on, clean and under a seeded fault plan, folding every leg's
//! spans into a per-scheduler stage-latency breakdown plus a
//! Perfetto-loadable Chrome trace per leg.
//!
//! Every leg gets its own [`Tracer`] inside its own `Obs` bundle, runs as
//! a pure function of `(scheduler, faulted, seed)`, and legs reassemble in
//! a fixed order — so the whole study (tables, Chrome trace bytes,
//! digest) is byte-identical at any `--threads` setting and across
//! same-seed runs.

use crate::render::{f, Table};
use knots_chaos::{gen, ChaosEngine, FaultPlan, GenConfig};
use knots_core::experiment::{dnn_inputs, scheduler_by_name, DNN_SCHEDULERS};
use knots_core::metrics::RunReport;
use knots_core::KubeKnots;
use knots_obs::{Obs, Tracer};
use knots_trace::{breakdown, chrome, StageBreakdownRow};
use knots_workloads::dnn::DnnWorkloadConfig;
use serde::Serialize;

/// Span ring capacity per leg — large enough that smoke and compressed
/// workloads never evict, while still bounding a runaway full-scale run.
const SPAN_CAPACITY: usize = 1 << 20;

/// Fault intensity for the faulted legs, actions per minute.
const FAULTS_PER_MINUTE: f64 = 6.0;

/// One traced run: a scheduler, with or without the fault plan.
#[derive(Debug, Clone, Serialize)]
pub struct TraceLeg {
    /// Scheduler label.
    pub scheduler: String,
    /// Whether the seeded fault plan was replayed against the run.
    pub faulted: bool,
    /// The run report.
    pub report: RunReport,
    /// Per-stage latency breakdown rows, sorted by stage name.
    pub breakdown: Vec<StageBreakdownRow>,
    /// Number of spans retained in the ring.
    pub spans: usize,
    /// Number of spans the ring evicted (0 in the shipped configs).
    pub dropped: u64,
    /// The Chrome-trace JSON for this leg.
    pub chrome_json: String,
}

/// The full study: `DNN_SCHEDULERS × {clean, faulted}`, in that order.
#[derive(Debug, Clone, Serialize)]
pub struct TraceStudy {
    /// Legs: all clean runs first, then all faulted runs.
    pub legs: Vec<TraceLeg>,
}

impl TraceStudy {
    /// Run the study, one leg per job on `threads` workers. Legs
    /// reassemble in submission order, so the study is identical at every
    /// thread count.
    pub fn run(workload: &DnnWorkloadConfig, seed: u64, threads: usize) -> TraceStudy {
        let mut jobs: Vec<Box<dyn FnOnce() -> TraceLeg + Send>> = Vec::new();
        for faulted in [false, true] {
            for name in DNN_SCHEDULERS {
                let workload = *workload;
                jobs.push(Box::new(move || run_leg(name, faulted, &workload, seed)));
            }
        }
        TraceStudy { legs: knots_sim::pool::run_jobs(jobs, threads) }
    }
}

fn run_leg(name: &str, faulted: bool, workload: &DnnWorkloadConfig, seed: u64) -> TraceLeg {
    let plan = if faulted {
        gen::generate(&GenConfig {
            seed,
            nodes: knots_sim::config::DNN_SIM_GPUS,
            duration: workload.duration,
            faults_per_minute: FAULTS_PER_MINUTE,
        })
    } else {
        FaultPlan::empty()
    };
    let obs = Obs { tracer: Tracer::bounded(SPAN_CAPACITY), ..Obs::disabled() };
    let (schedule, cluster_cfg, orch) = dnn_inputs(workload);
    let report =
        KubeKnots::new(cluster_cfg, scheduler_by_name(name).expect("known scheduler"), orch)
            .with_obs(obs.clone())
            .with_chaos(ChaosEngine::new(plan))
            .run_schedule(&schedule);
    let tracer = &obs.tracer;
    TraceLeg {
        scheduler: name.to_string(),
        faulted,
        report,
        breakdown: breakdown(&tracer.stage_histograms()),
        spans: tracer.len(),
        dropped: tracer.dropped(),
        chrome_json: chrome::export(&tracer.spans()),
    }
}

/// File-name-safe slug for a leg's Chrome trace
/// (`trace_cbp-pp_faults.json`).
pub fn leg_slug(leg: &TraceLeg) -> String {
    let sched: String = leg
        .scheduler
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    format!("trace_{sched}_{}", if leg.faulted { "faults" } else { "clean" })
}

/// The per-stage latency breakdown table across every leg, durations in
/// sim-time milliseconds.
pub fn breakdown_table(study: &TraceStudy) -> Table {
    let mut t = Table::new(
        "Trace — per-stage latency breakdown (sim-time ms)",
        &["scheduler", "faults", "stage", "count", "p50", "p95", "p99", "mean"],
    );
    for leg in &study.legs {
        for row in &leg.breakdown {
            t.row(vec![
                leg.scheduler.clone(),
                if leg.faulted { "yes" } else { "no" }.to_string(),
                row.stage.clone(),
                row.count.to_string(),
                f(row.p50_us / 1e3, 2),
                f(row.p95_us / 1e3, 2),
                f(row.p99_us / 1e3, 2),
                f(row.mean_us / 1e3, 2),
            ]);
        }
    }
    t
}

/// Span-count summary per leg (spans retained, evicted, report digest
/// inputs), for the side table the subcommand prints.
pub fn spans_table(study: &TraceStudy) -> Table {
    let mut t = Table::new(
        "Trace — span volume per leg",
        &["scheduler", "faults", "spans", "evicted", "completed", "crashes"],
    );
    for leg in &study.legs {
        t.row(vec![
            leg.scheduler.clone(),
            if leg.faulted { "yes" } else { "no" }.to_string(),
            leg.spans.to_string(),
            leg.dropped.to_string(),
            leg.report.completed.to_string(),
            leg.report.crashes.to_string(),
        ]);
    }
    t
}

/// A stable digest over every leg's breakdown rows and Chrome trace bytes.
/// Two same-seed runs — at any thread count — must print the same value.
pub fn digest(study: &TraceStudy) -> String {
    let mut h = knots_analyzer::selfcheck::Fnv::new();
    for leg in &study.legs {
        h.write(leg.scheduler.as_bytes());
        h.write(&[u8::from(leg.faulted)]);
        for row in &leg.breakdown {
            h.write(row.stage.as_bytes());
            h.write(&row.count.to_le_bytes());
            h.write(&row.p50_us.to_bits().to_le_bytes());
            h.write(&row.p95_us.to_bits().to_le_bytes());
            h.write(&row.p99_us.to_bits().to_le_bytes());
            h.write(&row.mean_us.to_bits().to_le_bytes());
            h.write(&row.max_us.to_bits().to_le_bytes());
        }
        h.write(leg.chrome_json.as_bytes());
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_sim::time::SimDuration;

    fn tiny() -> DnnWorkloadConfig {
        DnnWorkloadConfig {
            dlt_jobs: 8,
            dli_tasks: 20,
            duration: SimDuration::from_secs(40),
            time_scale: 1.0 / 240.0,
            seed: 5,
        }
    }

    #[test]
    fn study_covers_every_scheduler_clean_and_faulted() {
        let study = TraceStudy::run(&tiny(), 42, knots_sim::pool::default_threads());
        assert_eq!(study.legs.len(), 8);
        assert_eq!(study.legs.iter().filter(|l| l.faulted).count(), 4);
        for leg in &study.legs {
            assert!(leg.spans > 0, "{}: no spans", leg.scheduler);
            assert_eq!(leg.dropped, 0, "{}: ring evicted", leg.scheduler);
            assert!(
                leg.breakdown.iter().any(|r| r.stage == "queued"),
                "{}: no queued stage",
                leg.scheduler
            );
            assert!(leg.chrome_json.starts_with("{\"traceEvents\":["));
        }
        let table = breakdown_table(&study).render();
        assert!(table.contains("queued"));
        assert!(table.contains("running"));
        assert!(leg_slug(&study.legs[3]).starts_with("trace_cbp-pp_"));
        assert_eq!(digest(&study).len(), 16);
    }
}
