//! Quality ablations of the design choices DESIGN.md calls out: the
//! resize percentile (§IV-C picks the 80th), the correlation threshold
//! (Algorithm 1 uses 0.5), the sliding-window length `d`, and the bin
//! packing strategy. Each knob is swept over one loaded app-mix run and
//! scored on the metrics it trades off.

use crate::render::{f, Table};
use knots_core::experiment::{run_mix, ExperimentConfig};
use knots_core::metrics::RunReport;
use knots_sched::binpack::PackStrategy;
use knots_sched::cbp::CbpConfig;
use knots_sched::pp::CbpPp;
use knots_sched::resag::ResAg;
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;
use serde::Serialize;

/// One swept configuration and its outcome.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Knob label, e.g. `"p50"`.
    pub setting: String,
    /// QoS violations per kilo query.
    pub viol_per_kilo: f64,
    /// OOM crashes.
    pub crashes: usize,
    /// Resize actions issued (the §IV-C "constant resizing" cost proxy).
    pub mean_active_util: f64,
    /// Energy, joules.
    pub energy_joules: f64,
    /// Batch JCT average, seconds.
    pub batch_jct_avg: f64,
}

fn row(setting: String, r: &RunReport) -> AblationRow {
    AblationRow {
        setting,
        viol_per_kilo: r.violations_per_kilo(),
        crashes: r.crashes,
        mean_active_util: r.mean_active_util(),
        energy_joules: r.energy_joules,
        batch_jct_avg: r.batch_jct.avg,
    }
}

fn pp_with(cfg: CbpConfig) -> Box<CbpPp> {
    Box::new(CbpPp::with_config(cfg))
}

/// The knob sweeps need contention to differentiate: run them at 1.5× the
/// default arrival rates and double-length batch jobs.
fn loaded(cfg: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig { rate_scale: 1.5, batch_scale: 2.0, ..*cfg }
}

/// Sweep the CBP resize percentile (50/60/80/95/99). The paper picks 80:
/// lower percentiles "lead to constant resizing", higher ones forgo the
/// harvesting opportunity.
pub fn resize_percentile(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    [0.50, 0.60, 0.80, 0.95, 0.99]
        .iter()
        .map(|&p| {
            let sched = pp_with(CbpConfig { resize_percentile: p, ..CbpConfig::default() });
            let r = run_mix(sched, AppMix::Mix1, &loaded(cfg));
            row(format!("p{:.0}", p * 100.0), &r)
        })
        .collect()
}

/// Sweep the Spearman co-location threshold (Algorithm 1 uses 0.5).
pub fn correlation_threshold(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    [0.1, 0.3, 0.5, 0.8, 1.0]
        .iter()
        .map(|&t| {
            let sched = pp_with(CbpConfig { correlation_threshold: t, ..CbpConfig::default() });
            let r = run_mix(sched, AppMix::Mix1, &loaded(cfg));
            row(format!("rho>{t:.1}"), &r)
        })
        .collect()
}

/// Sweep the sliding-window length `d` (§IV-C; default 5 s).
pub fn window_length(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    [1u64, 2, 5, 10, 20]
        .iter()
        .map(|&secs| {
            let mut c = loaded(cfg);
            c.orch.window = SimDuration::from_secs(secs);
            let r = run_mix(Box::new(CbpPp::new()), AppMix::Mix1, &c);
            row(format!("d={secs}s"), &r)
        })
        .collect()
}

/// Compare bin-packing strategies under Res-Ag (the scheduler where the
/// strategy is the whole policy).
pub fn pack_strategy(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    [
        ("first-fit", PackStrategy::FirstFit),
        ("best-fit", PackStrategy::BestFit),
        ("worst-fit", PackStrategy::WorstFit),
    ]
    .iter()
    .map(|(name, strat)| {
        let r = run_mix(Box::new(ResAg::with_strategy(*strat)), AppMix::Mix1, cfg);
        row(name.to_string(), &r)
    })
    .collect()
}

/// Render one sweep.
pub fn table(title: &str, rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        title,
        &["setting", "viol/k", "crashes", "active util%", "energy kJ", "batch JCT s"],
    );
    for r in rows {
        t.row(vec![
            r.setting.clone(),
            f(r.viol_per_kilo, 1),
            r.crashes.to_string(),
            f(r.mean_active_util, 1),
            f(r.energy_joules / 1000.0, 1),
            f(r.batch_jct_avg, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig { duration: SimDuration::from_secs(30), ..Default::default() }
    }

    #[test]
    fn percentile_sweep_runs_and_orders() {
        let rows = resize_percentile(&quick());
        assert_eq!(rows.len(), 5);
        assert!(table("t", &rows).render().contains("p80"));
    }

    #[test]
    fn pack_strategy_sweep_runs() {
        let rows = pack_strategy(&quick());
        assert_eq!(rows.len(), 3);
    }
}
