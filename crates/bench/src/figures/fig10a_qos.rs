//! Fig. 10a — average QoS violations per thousand inference queries, per
//! app-mix, per scheduler.

use crate::figures::fig06_09_cluster::ClusterStudy;
use crate::render::{f, Table};
use knots_core::experiment::CLUSTER_SCHEDULERS;
use serde::Serialize;

/// One mix row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Mix label.
    pub mix: String,
    /// `(scheduler, violations per kilo-inference)`.
    pub per_kilo: Vec<(String, f64)>,
}

/// Extract the figure from a finished cluster study.
pub fn run(study: &ClusterStudy) -> Vec<Row> {
    study
        .mixes
        .iter()
        .enumerate()
        .map(|(m, mix)| Row {
            mix: mix.clone(),
            per_kilo: CLUSTER_SCHEDULERS
                .iter()
                .map(|s| (s.to_string(), study.report(m, s).violations_per_kilo()))
                .collect(),
        })
        .collect()
}

/// Render.
pub fn table(rows: &[Row]) -> Table {
    let mut headers = vec!["mix"];
    headers.extend(CLUSTER_SCHEDULERS);
    let mut t = Table::new("Fig. 10a — QoS violations per kilo inference queries", &headers);
    for r in rows {
        let mut cells = vec![r.mix.clone()];
        cells.extend(r.per_kilo.iter().map(|(_, v)| f(*v, 1)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_core::experiment::ExperimentConfig;
    use knots_sim::time::SimDuration;

    #[test]
    fn qos_ordering_on_a_short_run() {
        // Even a 60 s window shows the headline ordering on the loaded mix:
        // the GPU-aware schedulers violate far less than Res-Ag.
        let cfg = ExperimentConfig { duration: SimDuration::from_secs(60), ..Default::default() };
        let study = ClusterStudy::run(
            &cfg,
            &knots_obs::Obs::disabled(),
            knots_sim::pool::default_threads(),
        );
        let rows = run(&study);
        assert_eq!(rows.len(), 3);
        let mix1 = &rows[0].per_kilo;
        let get = |n: &str| mix1.iter().find(|(s, _)| s == n).expect("present").1;
        assert!(get("Res-Ag") > get("CBP+PP"), "Res-Ag {} vs PP {}", get("Res-Ag"), get("CBP+PP"));
        assert!(get("Res-Ag") > get("CBP"));
        assert!(table(&rows).render().contains("Res-Ag"));
    }
}
