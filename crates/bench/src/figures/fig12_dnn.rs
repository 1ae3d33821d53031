//! Fig. 12 + Table IV — the §V-C deep-learning scheduler comparison on the
//! 256-GPU simulated cluster: JCT CDF (12a), DLI QoS violations per hour
//! (12b) and the Table IV JCT ratios normalized to CBP+PP.

use crate::render::{f, Table};
use knots_core::experiment::{run_dnn, scheduler_by_name, DNN_SCHEDULERS};
use knots_core::metrics::RunReport;
use knots_workloads::dnn::DnnWorkloadConfig;
use serde::Serialize;

/// The study: one report per DNN scheduler.
#[derive(Debug, Clone, Serialize)]
pub struct DnnStudy {
    /// Reports in [`DNN_SCHEDULERS`] order.
    pub reports: Vec<RunReport>,
    /// The time compression the workload ran at.
    pub time_scale: f64,
}

impl DnnStudy {
    /// Run the four schedulers over the workload, one leg per job on
    /// `threads` workers. Each leg is deterministic from the workload seed
    /// and results are reassembled in [`DNN_SCHEDULERS`] order, so the
    /// study is identical at every thread count.
    pub fn run(workload: &DnnWorkloadConfig, threads: usize) -> DnnStudy {
        let jobs: Vec<_> = DNN_SCHEDULERS
            .iter()
            .map(|name| {
                let workload = *workload;
                move || run_dnn(scheduler_by_name(name).expect("known"), &workload)
            })
            .collect();
        let reports = knots_sim::pool::run_jobs(jobs, threads);
        DnnStudy { reports, time_scale: workload.time_scale }
    }

    /// The CBP+PP baseline report.
    pub fn baseline(&self) -> &RunReport {
        self.reports.iter().find(|r| r.scheduler == "CBP+PP").expect("CBP+PP in study")
    }
}

/// Table IV — JCT ratios normalized to CBP+PP.
pub fn table4(study: &DnnStudy) -> Table {
    let base = study.baseline().all_jct;
    let mut t = Table::new(
        "Table IV — JCT improvements normalized to CBP+PP",
        &["scheduler", "average", "median", "99%", "completed", "preempts", "migrations"],
    );
    for r in &study.reports {
        let (avg, med, p99) = r.all_jct.normalized_to(&base);
        t.row(vec![
            r.scheduler.clone(),
            format!("{avg:.2}x"),
            format!("{med:.2}x"),
            format!("{p99:.2}x"),
            format!("{}/{}", r.completed, r.submitted),
            r.preemptions.to_string(),
            r.migrations.to_string(),
        ]);
    }
    t
}

/// Fig. 12a — the JCT CDF per scheduler, in *uncompressed* hours.
pub fn fig12a_table(study: &DnnStudy, points: usize) -> Table {
    let mut headers = vec!["JCT(h)".to_string()];
    headers.extend(study.reports.iter().map(|r| r.scheduler.clone()));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Fig. 12a — fraction of jobs completed within JCT", &hrefs);

    // Common JCT grid from the slowest scheduler's max.
    let to_hours = 1.0 / 3600.0 / study.time_scale;
    let max_jct = study.reports.iter().map(|r| r.all_jct.max).fold(0.0f64, f64::max) * to_hours;

    for i in 0..=points {
        let x = i as f64 * max_jct / points as f64;
        let mut cells = vec![f(x, 1)];
        for r in &study.reports {
            // Fraction of completed jobs with JCT <= x is derived from the
            // stored JctStats' underlying population via the report's
            // cached quantiles; RunReport keeps only the summary, so this
            // interpolates over (median, p99, max).
            let frac = cdf_from_stats(r, x / to_hours);
            cells.push(f(frac, 2));
        }
        t.row(cells);
    }
    t
}

/// Approximate CDF from the summary statistics (0 → median → p99 → max).
fn cdf_from_stats(r: &RunReport, x_secs: f64) -> f64 {
    let s = r.all_jct;
    if s.count == 0 || x_secs <= 0.0 {
        return 0.0;
    }
    let pts = [(0.0, 0.0), (s.median, 0.5), (s.p99, 0.99), (s.max, 1.0)];
    for w in pts.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x_secs <= x1 {
            if x1 - x0 < 1e-12 {
                return y1;
            }
            return y0 + (y1 - y0) * (x_secs - x0) / (x1 - x0);
        }
    }
    1.0
}

/// Fig. 12b — DLI QoS violations per (uncompressed) hour.
pub fn fig12b_table(study: &DnnStudy) -> Table {
    let mut t = Table::new(
        "Fig. 12b — average QoS violations of DL inference queries per hour",
        &["scheduler", "viol/hr", "violations", "queries", "p99 latency (ms)"],
    );
    for r in &study.reports {
        let hours = r.duration.as_secs_f64() / 3600.0 / study.time_scale;
        t.row(vec![
            r.scheduler.clone(),
            f(r.lc_violations as f64 / hours.max(1e-9), 2),
            r.lc_violations.to_string(),
            r.lc_completed.to_string(),
            f(r.lc_latency.p99 * 1000.0, 0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_core::metrics::JctStats;
    use knots_sim::time::SimDuration;

    fn dummy_report(median: f64, p99: f64, max: f64) -> RunReport {
        RunReport {
            scheduler: "X".into(),
            duration: SimDuration::from_secs(100),
            node_util_series: vec![],
            active_util_samples: vec![],
            submitted: 10,
            completed: 10,
            lc_completed: 5,
            lc_violations: 1,
            batch_jct: JctStats::default(),
            lc_latency: JctStats::default(),
            all_jct: JctStats { count: 10, avg: median, median, p99, max },
            energy_joules: 1.0,
            crashes: 0,
            preemptions: 0,
            migrations: 0,
            skipped_actions: 0,
            skipped_breakdown: vec![],
            faults: knots_core::FaultStats::default(),
            events_processed: 0,
            events_per_sim_second: 0.0,
            recovery: knots_core::RecoveryStats::default(),
        }
    }

    #[test]
    fn cdf_interpolation_is_monotone() {
        let r = dummy_report(10.0, 50.0, 80.0);
        let mut prev = 0.0;
        for i in 0..100 {
            let v = cdf_from_stats(&r, i as f64);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
        assert!((cdf_from_stats(&r, 10.0) - 0.5).abs() < 1e-9);
        assert!((cdf_from_stats(&r, 1000.0) - 1.0).abs() < 1e-9);
        assert_eq!(cdf_from_stats(&r, 0.0), 0.0);
    }

    #[test]
    fn smoke_study_tables_render() {
        let workload = DnnWorkloadConfig {
            dlt_jobs: 12,
            dli_tasks: 30,
            duration: SimDuration::from_secs(60),
            time_scale: 1.0 / 240.0,
            seed: 5,
        };
        let study = DnnStudy::run(&workload, knots_sim::pool::default_threads());
        assert_eq!(study.reports.len(), 4);
        assert!(table4(&study).render().contains("CBP+PP"));
        assert!(fig12b_table(&study).render().contains("viol/hr"));
        assert!(fig12a_table(&study, 10).render().contains("JCT(h)"));
    }
}
