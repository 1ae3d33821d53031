//! # knots-forecast — statistics and time-series forecasting for Kube-Knots
//!
//! Implements every analytical building block the paper's schedulers use:
//!
//! * [`stats`] — means, percentiles, CDFs and the coefficient of variation
//!   (COV) used to classify app-mix load (§III-C, Fig. 7).
//! * [`spearman`](mod@spearman) — Spearman's rank correlation, Eq. (1), the signal CBP
//!   uses to decide which pods may share a GPU (§IV-C, Fig. 2).
//! * [`autocorr`] — the autocorrelation function, Eq. (2), which PP uses to
//!   detect periodic peak-resource phases (§IV-D).
//! * [`arima`] — the first-order non-seasonal ARIMA (an AR(1) with
//!   intercept), Eq. (3), fitted over the sliding telemetry window.
//! * [`regressors`] — the alternative estimators the paper compares in
//!   Fig. 10b (Theil-Sen, SGD linear regression, a small MLP) behind a
//!   common [`regressors::Regressor`] trait.
//! * [`accuracy`] — walk-forward evaluation of forecast accuracy versus
//!   heartbeat interval, regenerating the Fig. 10b methodology.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod arima;
pub mod autocorr;
pub mod regressors;
pub mod spearman;
pub mod stats;

pub use arima::Ar1;
pub use autocorr::{autocorrelation, dominant_period};
pub use regressors::Regressor;
pub use spearman::spearman;
pub use stats::{cov, mean, percentile, stddev};
