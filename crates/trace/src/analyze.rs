//! Folds stage histograms into a per-stage latency breakdown.
//!
//! The interesting question a trace answers is *where a pod's latency came
//! from*: queueing vs. placement vs. execution vs. relaunch backoff. The
//! tracer already streams every complete-span duration into a per-stage
//! [`knots_obs::Histogram`]; this module renders those into the
//! p50/p95/p99 rows the `experiments trace` report prints.

use knots_obs::Histogram;
use serde::{Deserialize, Serialize};

/// One row of the per-stage latency breakdown, all durations in sim-time
/// microseconds. Percentiles are rank-based histogram estimates (see
/// `Histogram::percentile`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageBreakdownRow {
    /// Stage name (`queued`, `placed`, `running`, `relaunch.backoff`, ...).
    pub stage: String,
    /// Number of spans folded in.
    pub count: u64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// 95th-percentile duration, µs.
    pub p95_us: f64,
    /// 99th-percentile duration, µs.
    pub p99_us: f64,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Largest duration observed, µs.
    pub max_us: f64,
}

/// Fold `(stage, histogram)` pairs into breakdown rows, preserving order
/// (the tracer hands them over sorted by stage name). Empty histograms are
/// skipped.
pub fn breakdown(stages: &[(&'static str, Histogram)]) -> Vec<StageBreakdownRow> {
    stages
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(name, h)| StageBreakdownRow {
            stage: name.to_string(),
            count: h.count(),
            p50_us: h.percentile(0.50).unwrap_or(0.0),
            p95_us: h.percentile(0.95).unwrap_or(0.0),
            p99_us: h.percentile(0.99).unwrap_or(0.0),
            mean_us: h.mean().unwrap_or(0.0),
            max_us: h.max().unwrap_or(0.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_obs::{Tracer, Track};

    #[test]
    fn breakdown_reports_percentiles_per_stage() {
        let t = Tracer::bounded(64);
        for i in 0..100u64 {
            t.record_complete(Track::Pod(i), "queued", 0, 1_000 + i * 10, None, vec![]);
        }
        t.record_complete(Track::Pod(0), "running", 0, 5_000_000, None, vec![]);
        let rows = breakdown(&t.stage_histograms());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, "queued");
        assert_eq!(rows[0].count, 100);
        assert!(rows[0].p50_us <= rows[0].p99_us);
        assert!(rows[0].p99_us <= rows[0].max_us);
        assert_eq!(rows[1].stage, "running");
        assert_eq!(rows[1].max_us, 5_000_000.0);
    }

    #[test]
    fn rows_round_trip_through_serde() {
        let row = StageBreakdownRow {
            stage: "relaunch.backoff".to_string(),
            count: 3,
            p50_us: 1.5,
            p95_us: 2.0,
            p99_us: 2.0,
            mean_us: 1.25,
            max_us: 2.0,
        };
        let text = serde_json::to_string(&row).unwrap();
        let back: StageBreakdownRow = serde_json::from_str(&text).unwrap();
        assert_eq!(back, row);
    }
}
