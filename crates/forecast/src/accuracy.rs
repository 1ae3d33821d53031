//! Walk-forward forecast-accuracy evaluation — the Fig. 10b methodology.
//!
//! The paper varies the heartbeat (sampling) interval from 1000 ms down to
//! 0.1 ms and reports the fraction of utilization forecasts that were
//! accurate. Three elements are fixed by §IV-D:
//!
//! * the sliding training window is five *seconds* of telemetry (so the
//!   number of training points grows as the heartbeat shrinks);
//! * the forecast target is the next heartbeat sample (Eq. 3 is the
//!   one-step recurrence `Y_pred = µ + φ·Y_{t−1}`);
//! * the model is refitted each step on the trailing window.

use crate::regressors::Regressor;
use crate::stats;

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyConfig {
    /// Number of samples in the sliding fit window.
    pub window: usize,
    /// Forecast horizon, in samples.
    pub horizon: usize,
    /// A prediction is "accurate" when within this absolute tolerance of
    /// the truth. For utilization-percent series the paper-style choice is
    /// 10 (percentage points).
    pub tolerance_abs: f64,
    /// Evaluate every `stride`-th origin (1 = every step). Larger strides
    /// keep long-series evaluations cheap without biasing the estimate.
    pub stride: usize,
}

impl AccuracyConfig {
    /// The §IV-D setup for a given heartbeat: the model is refitted on the
    /// trailing 5 s window and asked for the *next sample* (Eq. 3 is a
    /// one-step recurrence `Y_pred = µ + φ·Y_{t−1}` applied at the
    /// heartbeat rate).
    pub fn paper(heartbeat_us: u64) -> Self {
        let window = (5_000_000 / heartbeat_us).max(2) as usize;
        AccuracyConfig { window, horizon: 1, tolerance_abs: 10.0, stride: 1 }
    }
}

/// Outcome of a walk-forward evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Fraction of forecasts within tolerance, `[0, 1]`.
    pub accuracy: f64,
    /// Root-mean-square error of all forecasts.
    pub rmse: f64,
    /// Mean absolute percentage error (None if all actuals ~0).
    pub mape: Option<f64>,
    /// Number of forecasts evaluated.
    pub evaluated: usize,
}

/// Walk the series: at each origin `t`, fit on `series[t-window..t]`,
/// forecast `horizon` steps ahead, compare against `series[t+horizon-1]`.
pub fn walk_forward(
    series: &[f64],
    reg: &mut dyn Regressor,
    cfg: &AccuracyConfig,
) -> AccuracyReport {
    let stride = cfg.stride.max(1);
    let mut preds = Vec::new();
    let mut actuals = Vec::new();
    let mut t = cfg.window;
    while t + cfg.horizon <= series.len() {
        reg.fit(&series[t - cfg.window..t]);
        preds.push(reg.predict_h(cfg.horizon));
        actuals.push(series[t + cfg.horizon - 1]);
        t += stride;
    }
    summarize(&preds, &actuals, cfg.tolerance_abs)
}

fn summarize(preds: &[f64], actuals: &[f64], tol: f64) -> AccuracyReport {
    if preds.is_empty() {
        return AccuracyReport { accuracy: 0.0, rmse: 0.0, mape: None, evaluated: 0 };
    }
    let hits = preds.iter().zip(actuals).filter(|(p, a)| (*p - *a).abs() <= tol).count();
    AccuracyReport {
        accuracy: hits as f64 / preds.len() as f64,
        rmse: stats::rmse(preds, actuals),
        mape: stats::mape(preds, actuals),
        evaluated: preds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arima::ArimaRegressor;
    use crate::regressors::TheilSen;

    #[test]
    fn perfect_series_scores_high() {
        // A slowly converging AR(1) path is exactly learnable by ARIMA.
        let mut ys = vec![0.0];
        for _ in 0..300 {
            let last = *ys.last().unwrap();
            ys.push(5.0 + 0.9 * last);
        }
        let cfg = AccuracyConfig { window: 30, horizon: 1, tolerance_abs: 1.0, stride: 1 };
        let rep = walk_forward(&ys, &mut ArimaRegressor::default(), &cfg);
        assert!(rep.accuracy > 0.95, "accuracy {}", rep.accuracy);
        assert!(rep.evaluated > 200);
    }

    #[test]
    fn impossible_series_scores_low() {
        // Large jumps every step, far beyond the tolerance band.
        let ys: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 0.0 } else { 100.0 }).collect();
        let cfg = AccuracyConfig { window: 10, horizon: 1, tolerance_abs: 5.0, stride: 1 };
        let rep = walk_forward(&ys, &mut TheilSen::default(), &cfg);
        assert!(rep.accuracy < 0.5, "accuracy {}", rep.accuracy);
    }

    #[test]
    fn paper_config_scales_window_with_heartbeat() {
        let at_1000ms = AccuracyConfig::paper(1_000_000);
        assert_eq!(at_1000ms.window, 5);
        assert_eq!(at_1000ms.horizon, 1);
        let at_1ms = AccuracyConfig::paper(1_000);
        assert_eq!(at_1ms.window, 5000);
        assert_eq!(at_1ms.horizon, 1);
        let at_01ms = AccuracyConfig::paper(100);
        assert_eq!(at_01ms.window, 50_000);
    }

    #[test]
    fn stride_reduces_evaluations_not_conclusions() {
        let ys: Vec<f64> = (0..500).map(|i| (i as f64 * 0.05).sin() * 10.0 + 50.0).collect();
        let base = AccuracyConfig { window: 50, horizon: 1, tolerance_abs: 3.0, stride: 1 };
        let strided = AccuracyConfig { stride: 7, ..base };
        let a = walk_forward(&ys, &mut ArimaRegressor::default(), &base);
        let b = walk_forward(&ys, &mut ArimaRegressor::default(), &strided);
        assert!(b.evaluated < a.evaluated);
        assert!((a.accuracy - b.accuracy).abs() < 0.2);
    }

    #[test]
    fn too_short_series_yields_empty_report() {
        let cfg = AccuracyConfig { window: 100, horizon: 10, tolerance_abs: 1.0, stride: 1 };
        let rep = walk_forward(&[1.0, 2.0], &mut ArimaRegressor::default(), &cfg);
        assert_eq!(rep.evaluated, 0);
        assert_eq!(rep.accuracy, 0.0);
    }
}
