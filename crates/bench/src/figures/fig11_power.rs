//! Fig. 11a — normalized cluster power per scheduler per app-mix
//! (normalized to the Uniform baseline, as the paper normalizes to the
//! GPU-agnostic scheduler's draw).

use crate::figures::fig06_09_cluster::ClusterStudy;
use crate::render::{f, Table};
use knots_core::experiment::CLUSTER_SCHEDULERS;
use serde::Serialize;

/// One mix row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Mix label.
    pub mix: String,
    /// `(scheduler, normalized energy)` with Uniform = 1.0.
    pub normalized: Vec<(String, f64)>,
}

/// Extract the figure from a finished cluster study.
pub fn run(study: &ClusterStudy) -> Vec<Row> {
    study
        .mixes
        .iter()
        .enumerate()
        .map(|(m, mix)| {
            let base = study.report(m, "Uniform").energy_joules.max(1e-9);
            Row {
                mix: mix.clone(),
                normalized: CLUSTER_SCHEDULERS
                    .iter()
                    .map(|s| (s.to_string(), study.report(m, s).energy_joules / base))
                    .collect(),
            }
        })
        .collect()
}

/// Mean energy saving of CBP+PP vs the Uniform baseline across mixes
/// (the paper's headline "33% cluster-wide energy savings on average").
pub fn mean_pp_saving(rows: &[Row]) -> f64 {
    let savings: Vec<f64> = rows
        .iter()
        .map(|r| 1.0 - r.normalized.iter().find(|(s, _)| s == "CBP+PP").expect("CBP+PP present").1)
        .collect();
    savings.iter().sum::<f64>() / savings.len().max(1) as f64
}

/// Render.
pub fn table(rows: &[Row]) -> Table {
    let mut headers = vec!["mix"];
    headers.extend(CLUSTER_SCHEDULERS);
    let mut t = Table::new(
        format!(
            "Fig. 11a — normalized cluster energy (Uniform = 1.0; CBP+PP saves {:.0}% on average)",
            mean_pp_saving(rows) * 100.0
        ),
        &headers,
    );
    for r in rows {
        let mut cells = vec![r.mix.clone()];
        cells.extend(r.normalized.iter().map(|(_, v)| f(*v, 2)));
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
    fn pp_saves_energy_vs_uniform() {
        let cfg = ExperimentConfig { duration: SimDuration::from_secs(60), ..Default::default() };
        let study = ClusterStudy::run(
            &cfg,
            &knots_obs::Obs::disabled(),
            knots_sim::pool::default_threads(),
        );
        let rows = run(&study);
        // Uniform is 1.0 by construction.
        for r in &rows {
            let uni = r.normalized.iter().find(|(s, _)| s == "Uniform").expect("present").1;
            assert!((uni - 1.0).abs() < 1e-9);
        }
        // On the loaded mix, consolidation buys real savings.
        let pp1 = rows[0].normalized.iter().find(|(s, _)| s == "CBP+PP").expect("pp").1;
        assert!(pp1 < 1.0, "PP mix1 normalized energy {pp1}");
        assert!(mean_pp_saving(&rows) > 0.0);
    }
}
