//! The ten-node cluster study behind Figs. 6, 7, 8 and 9: every cluster
//! scheduler run over every Table I app-mix. The same run reports feed the
//! QoS figure (10a) and the power figure (11), so the study is computed
//! once and shared.

use crate::render::{f, Table};
use knots_core::experiment::{mix_inputs, scheduler_by_name, ExperimentConfig, CLUSTER_SCHEDULERS};
use knots_core::metrics::RunReport;
use knots_core::KubeKnots;
use knots_obs::Obs;
use knots_workloads::AppMix;
use serde::Serialize;

/// All reports of the cluster study, indexed `[mix][scheduler]`.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterStudy {
    /// The mixes, in paper order.
    pub mixes: Vec<String>,
    /// `reports[mix_idx][sched_idx]` in [`CLUSTER_SCHEDULERS`] order.
    pub reports: Vec<Vec<RunReport>>,
}

impl ClusterStudy {
    /// Run the full 3×4 grid, one scheduler/mix leg per job on `threads`
    /// workers (`1` runs the grid on the calling thread).
    ///
    /// Every leg records into its own bundle, made by `obs.empty_like()`.
    /// After the join the legs fold into `obs` in grid order, each event
    /// and series labelled with its `scheduler` and `mix`. Every leg is
    /// deterministic from the config seed, so the study, its JSONL trace
    /// and its counters are byte-identical at every thread count.
    pub fn run(cfg: &ExperimentConfig, obs: &Obs, threads: usize) -> ClusterStudy {
        let grid: Vec<(AppMix, &str)> = AppMix::ALL
            .iter()
            .flat_map(|m| CLUSTER_SCHEDULERS.iter().map(move |s| (*m, *s)))
            .collect();
        let jobs: Vec<_> = grid
            .iter()
            .map(|&(mix, name)| {
                let cfg = *cfg;
                let leg_obs = obs.empty_like();
                move || {
                    let (schedule, cluster_cfg) = mix_inputs(mix, &cfg);
                    let sched = scheduler_by_name(name).expect("known scheduler");
                    let mut k = KubeKnots::new(cluster_cfg, sched, cfg.orch).with_obs(leg_obs);
                    let report = k.run_schedule(&schedule);
                    (report, k.take_obs())
                }
            })
            .collect();
        let mut reports: Vec<Vec<RunReport>> = AppMix::ALL.iter().map(|_| Vec::new()).collect();
        let legs = grid.iter().zip(knots_sim::pool::run_jobs(jobs, threads));
        for (i, ((mix, name), (report, leg_obs))) in legs.enumerate() {
            obs.absorb(leg_obs, &[("scheduler", name), ("mix", &mix.to_string())]);
            reports[i / CLUSTER_SCHEDULERS.len()].push(report);
        }
        ClusterStudy { mixes: AppMix::ALL.iter().map(|m| m.to_string()).collect(), reports }
    }

    /// The report for a mix/scheduler pair.
    pub fn report(&self, mix_idx: usize, scheduler: &str) -> &RunReport {
        let s = CLUSTER_SCHEDULERS.iter().position(|n| *n == scheduler).expect("known scheduler");
        &self.reports[mix_idx][s]
    }
}

/// Fig. 6 (Res-Ag) / Fig. 8 (CBP+PP): per-node 50/90/99/max utilization.
pub fn per_node_table(study: &ClusterStudy, mix_idx: usize, scheduler: &str, fig: &str) -> Table {
    let r = study.report(mix_idx, scheduler);
    let mut t = Table::new(
        format!("{fig} — per-node GPU utilization, {} under {scheduler}", study.mixes[mix_idx]),
        &["node", "p50%", "p90%", "p99%", "max%"],
    );
    for (i, (p50, p90, p99, max)) in r.node_quartets().iter().enumerate() {
        t.row(vec![(i + 1).to_string(), f(*p50, 1), f(*p90, 1), f(*p99, 1), f(*max, 1)]);
    }
    t
}

/// Fig. 7: per-node COV (sorted) for each mix under Res-Ag.
pub fn fig7_table(study: &ClusterStudy) -> Table {
    let mut t = Table::new(
        "Fig. 7 — per-node COV of GPU utilization under Res-Ag (sorted)",
        &["node rank", "App-Mix-1", "App-Mix-2", "App-Mix-3"],
    );
    let covs: Vec<Vec<f64>> =
        (0..3).map(|m| study.report(m, "Res-Ag").node_covs_sorted()).collect();
    let rows = covs.iter().map(|c| c.len()).max().unwrap_or(0);
    for i in 0..rows {
        let cell = |m: usize| covs[m].get(i).map(|v| f(*v, 2)).unwrap_or_default();
        t.row(vec![(i + 1).to_string(), cell(0), cell(1), cell(2)]);
    }
    t
}

/// Fig. 9: cluster-wide utilization quartet per scheduler per mix
/// (active-GPU pooled samples).
pub fn fig9_table(study: &ClusterStudy, mix_idx: usize) -> Table {
    let mut t = Table::new(
        format!("Fig. 9 — cluster-wide GPU utilization, {}", study.mixes[mix_idx]),
        &["scheduler", "p50%", "p90%", "p99%", "max%", "mean%"],
    );
    for name in ["CBP+PP", "CBP", "Res-Ag"] {
        let r = study.report(mix_idx, name);
        let (p50, p90, p99, max) = r.active_quartet();
        t.row(vec![
            name.to_string(),
            f(p50, 1),
            f(p90, 1),
            f(p99, 1),
            f(max, 1),
            f(r.mean_active_util(), 1),
        ]);
    }
    t
}

/// Fig. 11b: pairwise COV of node loads under CBP+PP for a mix.
pub fn fig11b_table(study: &ClusterStudy, mix_idx: usize) -> Table {
    let r = study.report(mix_idx, "CBP+PP");
    let m = r.pairwise_cov();
    let n = m.len();
    let mut headers: Vec<String> = vec!["".into()];
    headers.extend((1..=n).map(|i| i.to_string()));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!("Fig. 11b — pairwise COV of node loads under CBP+PP, {}", study.mixes[mix_idx]),
        &hrefs,
    );
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let mut cells = vec![(i + 1).to_string()];
        for j in 0..n {
            cells.push(if j > i { f(m[i][j], 2) } else { String::new() });
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_sim::time::SimDuration;

    /// A fast, small instance of the whole study (smoke test).
    #[test]
    fn study_grid_runs() {
        let cfg = ExperimentConfig { duration: SimDuration::from_secs(20), ..Default::default() };
        let study = ClusterStudy::run(&cfg, &Obs::disabled(), knots_sim::pool::default_threads());
        assert_eq!(study.reports.len(), 3);
        assert_eq!(study.reports[0].len(), 4);
        assert_eq!(study.report(0, "Uniform").scheduler, "Uniform");
        // Render each table once.
        assert!(per_node_table(&study, 0, "Res-Ag", "Fig. 6").render().contains("node"));
        assert!(fig7_table(&study).render().contains("App-Mix-3"));
        assert!(fig9_table(&study, 1).render().contains("CBP+PP"));
        assert!(fig11b_table(&study, 0).render().contains("1"));
    }
}
