//! First-order non-seasonal ARIMA — Eq. (3) of the paper.
//!
//! The paper's model is `Y_pred = µ + φ·Y_{t−1}`: a moving-window AR(1) with
//! intercept, refitted over the sliding telemetry window every heartbeat.
//! §IV-D argues this simple statistical model beats fancier regressors here
//! because only ~5 s of real-time training data exist at any moment.

use crate::regressors::Regressor;

/// A fitted AR(1) model: `Y_t = µ + φ·Y_{t−1} + ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ar1 {
    /// Intercept µ.
    pub mu: f64,
    /// Slope φ.
    pub phi: f64,
}

impl Ar1 {
    /// Fit by ordinary least squares on the lag-1 pairs of `ys`.
    ///
    /// Falls back to a persistence model (`µ = last value, φ = 0`) when the
    /// series is too short or constant — the same degenerate-data guard the
    /// paper applies before trusting a forecast.
    pub fn fit(ys: &[f64]) -> Ar1 {
        let n = ys.len();
        if n < 3 {
            return Ar1 { mu: ys.last().copied().unwrap_or(0.0), phi: 0.0 };
        }
        // Regress y[1..] on y[..n-1].
        let x = &ys[..n - 1];
        let y = &ys[1..];
        let m = (n - 1) as f64;
        let mx = x.iter().sum::<f64>() / m;
        let my = y.iter().sum::<f64>() / m;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for i in 0..n - 1 {
            let dx = x[i] - mx;
            sxx += dx * dx;
            sxy += dx * (y[i] - my);
        }
        if sxx < 1e-18 {
            return Ar1 { mu: ys[n - 1], phi: 0.0 };
        }
        // Clamp φ to the stationary region so iterated forecasts stay sane.
        let phi = (sxy / sxx).clamp(-0.999, 0.999);
        let mu = my - phi * mx;
        Ar1 { mu, phi }
    }

    /// One-step-ahead forecast from the last observed value.
    pub fn forecast(&self, last: f64) -> f64 {
        self.mu + self.phi * last
    }

    /// `h`-step-ahead forecast by iterating the recurrence.
    pub fn forecast_h(&self, last: f64, h: usize) -> f64 {
        let mut y = last;
        for _ in 0..h {
            y = self.forecast(y);
        }
        y
    }
}

/// [`Regressor`] adapter so ARIMA competes in the Fig. 10b accuracy harness.
#[derive(Debug, Default, Clone)]
pub struct ArimaRegressor {
    model: Option<(Ar1, f64)>,
}

impl Regressor for ArimaRegressor {
    fn name(&self) -> &'static str {
        "CBP+PP (ARIMA)"
    }

    fn fit(&mut self, window: &[f64]) {
        let model = Ar1::fit(window);
        self.model = Some((model, window.last().copied().unwrap_or(0.0)));
    }

    fn predict_h(&self, h: usize) -> f64 {
        match &self.model {
            Some((m, last)) => m.forecast_h(*last, h),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_known_ar1_process() {
        // Deterministic AR(1): y_{t+1} = 2 + 0.8 y_t from y_0 = 0.
        let mut ys = vec![0.0];
        for _ in 0..200 {
            let last = *ys.last().unwrap();
            ys.push(2.0 + 0.8 * last);
        }
        // The trajectory converges; fit on the transient part.
        let m = Ar1::fit(&ys[..30]);
        assert!((m.phi - 0.8).abs() < 1e-6, "phi {}", m.phi);
        assert!((m.mu - 2.0).abs() < 1e-5, "mu {}", m.mu);
    }

    #[test]
    fn one_step_forecast_matches_recurrence() {
        let m = Ar1 { mu: 1.0, phi: 0.5 };
        assert!((m.forecast(4.0) - 3.0).abs() < 1e-12);
        assert!((m.forecast_h(4.0, 2) - 2.5).abs() < 1e-12);
        assert!((m.forecast_h(4.0, 0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_series_fall_back_to_persistence() {
        let m = Ar1::fit(&[5.0]);
        assert_eq!(m.phi, 0.0);
        assert!((m.forecast(5.0) - 5.0).abs() < 1e-12);
        let m = Ar1::fit(&[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(m.phi, 0.0);
        assert!((m.forecast(3.0) - 3.0).abs() < 1e-12);
        let m = Ar1::fit(&[]);
        assert_eq!(m.forecast(0.0), 0.0);
    }

    #[test]
    fn phi_is_clamped_to_stationarity() {
        // An exponentially exploding series would fit phi > 1; the clamp
        // keeps iterated forecasts finite.
        let ys: Vec<f64> = (0..20).map(|i| 2f64.powi(i)).collect();
        let m = Ar1::fit(&ys);
        assert!(m.phi <= 0.999);
        assert!(m.forecast_h(ys[19], 100).is_finite());
    }

    #[test]
    fn regressor_adapter() {
        let mut r = ArimaRegressor::default();
        assert_eq!(r.predict_h(1), 0.0);
        let ys: Vec<f64> = (0..50).map(|i| 10.0 + (i as f64 * 0.3).sin()).collect();
        r.fit(&ys);
        let p = r.predict_h(1);
        assert!((p - 10.0).abs() < 2.0);
        assert_eq!(r.name(), "CBP+PP (ARIMA)");
    }
}
