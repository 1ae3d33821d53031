//! Phase-structured resource profiles.
//!
//! Section II-C of the paper characterizes GPU applications as sequences of
//! deterministic *phases*: a PCIe input burst is typically followed a few
//! milliseconds later by compute- and memory-intensive phases, and the whole
//! allocated capacity is used for only ~6% of the runtime. CBP and PP exploit
//! exactly this structure, so profiles are first-class simulator objects.
//!
//! A [`ResourceProfile`] is a piecewise-constant function from *work*
//! (seconds of execution at full, uncontended speed) to a resource demand
//! [`Usage`]. When a pod is slowed down by SM time-sharing or PCIe
//! contention, it takes longer than `total_work` seconds of wall-clock time
//! to finish the same profile — which is how co-location interference shows
//! up in job completion times.

use crate::resources::Usage;
use serde::{Deserialize, Serialize};

/// One phase of an application's execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Length of the phase in *work-seconds* (wall-clock seconds at full speed).
    pub work_secs: f64,
    /// Resource demand while the phase executes.
    pub demand: Usage,
}

impl Phase {
    /// Create a phase.
    ///
    /// # Panics
    /// Panics when `work_secs` is not strictly positive or the demand vector
    /// is invalid (negative, NaN, or `sm_frac > 1`).
    pub fn new(work_secs: f64, demand: Usage) -> Self {
        assert!(
            work_secs.is_finite() && work_secs > 0.0,
            "phase work must be positive: {work_secs}"
        );
        assert!(demand.is_valid_demand(), "invalid phase demand: {demand:?}");
        Phase { work_secs, demand }
    }
}

/// A piecewise-constant map from executed work to resource demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    phases: Vec<Phase>,
    /// Cumulative work boundaries; `cumulative[i]` is the end of phase `i`.
    cumulative: Vec<f64>,
}

impl ResourceProfile {
    /// Build a profile from an ordered list of phases.
    ///
    /// # Panics
    /// Panics on an empty phase list.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "profile needs at least one phase");
        let mut cumulative = Vec::with_capacity(phases.len());
        let mut acc = 0.0;
        for p in &phases {
            acc += p.work_secs;
            cumulative.push(acc);
        }
        ResourceProfile { phases, cumulative }
    }

    /// A single-phase profile with constant demand — useful for tests and
    /// simple workloads.
    pub fn constant(sm_frac: f64, mem_mb: f64, work_secs: f64) -> Self {
        ResourceProfile::new(vec![Phase::new(work_secs, Usage::new(sm_frac, mem_mb, 0.0, 0.0))])
    }

    /// Total work in seconds-at-full-speed. This is the job's *solo* runtime.
    pub fn total_work(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// The phases of this profile.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Demand at a given amount of executed work. Work beyond the end clamps
    /// to the final phase (the pod is about to complete anyway).
    pub fn demand_at(&self, work: f64) -> Usage {
        debug_assert!(work.is_finite() && work >= 0.0);
        // Binary search over the cumulative boundaries. Profiles have at most
        // a few dozen phases, but demand_at is called every tick per pod.
        let idx = match self.cumulative.binary_search_by(|b| b.total_cmp(&work)) {
            // Exactly on a boundary: the boundary ends its phase, so the
            // demand comes from the *next* phase (if any).
            Ok(i) => (i + 1).min(self.phases.len() - 1),
            Err(i) => i.min(self.phases.len() - 1),
        };
        self.phases[idx].demand
    }

    /// Component-wise peak demand over the whole profile. This is what a
    /// "provision for the worst case" scheduler (Res-Ag) reserves.
    pub fn peak_demand(&self) -> Usage {
        self.phases.iter().fold(Usage::ZERO, |acc, p| acc.max(p.demand))
    }

    /// Work-weighted mean memory demand in MB.
    pub fn mean_mem_mb(&self) -> f64 {
        let total = self.total_work();
        self.phases.iter().map(|p| p.demand.mem_mb * p.work_secs).sum::<f64>() / total
    }

    /// Work-weighted memory percentile (`q` in `[0, 1]`), i.e. the smallest
    /// memory level such that phases covering at least a `q` fraction of the
    /// work demand no more than that level. CBP resizes containers to the
    /// 80th percentile of this distribution (§IV-C).
    pub fn mem_percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1]: {q}");
        let mut levels: Vec<(f64, f64)> =
            self.phases.iter().map(|p| (p.demand.mem_mb, p.work_secs)).collect();
        levels.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = self.total_work();
        let target = q * total;
        let mut acc = 0.0;
        for (mem, w) in &levels {
            acc += w;
            if acc >= target - 1e-12 {
                return *mem;
            }
        }
        levels.last().map(|(m, _)| *m).unwrap_or(0.0)
    }

    /// Fraction of total work during which memory demand is within `tol` of
    /// the peak. The paper observes applications use their whole allocation
    /// for only ~6% of execution time.
    pub fn peak_mem_fraction(&self, tol: f64) -> f64 {
        let peak = self.peak_demand().mem_mb;
        if peak == 0.0 {
            return 0.0;
        }
        let at_peak: f64 = self
            .phases
            .iter()
            .filter(|p| p.demand.mem_mb >= peak * (1.0 - tol))
            .map(|p| p.work_secs)
            .sum();
        at_peak / self.total_work()
    }

    /// Sample the profile's demand at `n` equally-spaced work points —
    /// useful for building synthetic telemetry traces.
    pub fn sample(&self, n: usize) -> Vec<Usage> {
        assert!(n > 0);
        let total = self.total_work();
        (0..n).map(|i| self.demand_at(total * (i as f64 + 0.5) / n as f64)).collect()
    }
}

/// Incremental builder for multi-phase profiles.
///
/// ```
/// use knots_sim::profile::ProfileBuilder;
/// let p = ProfileBuilder::new()
///     .transfer(0.050, 4_000.0, 512.0)   // 50 ms input burst at 4 GB/s
///     .compute(2.0, 0.9, 2_048.0)        // 2 s compute at 90% SM
///     .writeback(0.020, 2_000.0, 2_048.0)
///     .build();
/// assert!(p.total_work() > 2.0);
/// ```
#[derive(Debug, Default)]
pub struct ProfileBuilder {
    phases: Vec<Phase>,
}

impl ProfileBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an arbitrary phase.
    pub fn phase(mut self, work_secs: f64, demand: Usage) -> Self {
        self.phases.push(Phase::new(work_secs, demand));
        self
    }

    /// Append a host-to-device transfer phase: high rx bandwidth, low SM.
    pub fn transfer(self, work_secs: f64, rx_mbps: f64, mem_mb: f64) -> Self {
        self.phase(work_secs, Usage::new(0.05, mem_mb, rx_mbps, 0.0))
    }

    /// Append a compute phase at the given SM fraction and memory footprint.
    pub fn compute(self, work_secs: f64, sm_frac: f64, mem_mb: f64) -> Self {
        self.phase(work_secs, Usage::new(sm_frac, mem_mb, 0.0, 0.0))
    }

    /// Append a device-to-host writeback phase.
    pub fn writeback(self, work_secs: f64, tx_mbps: f64, mem_mb: f64) -> Self {
        self.phase(work_secs, Usage::new(0.05, mem_mb, 0.0, tx_mbps))
    }

    /// Append an idle/setup phase (negligible demand, some resident memory).
    pub fn idle(self, work_secs: f64, mem_mb: f64) -> Self {
        self.phase(work_secs, Usage::new(0.01, mem_mb, 0.0, 0.0))
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics when no phase was added.
    pub fn build(self) -> ResourceProfile {
        ResourceProfile::new(self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_phase() -> ResourceProfile {
        ProfileBuilder::new()
            .transfer(1.0, 1000.0, 100.0)
            .compute(2.0, 0.8, 500.0)
            .writeback(1.0, 800.0, 200.0)
            .build()
    }

    #[test]
    fn total_work_sums_phases() {
        assert!((three_phase().total_work() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn demand_lookup_hits_each_phase() {
        let p = three_phase();
        assert!((p.demand_at(0.5).rx_mbps - 1000.0).abs() < 1e-9);
        assert!((p.demand_at(2.0).sm_frac - 0.8).abs() < 1e-9);
        assert!((p.demand_at(3.5).tx_mbps - 800.0).abs() < 1e-9);
        // Past the end: clamps to the final phase.
        assert!((p.demand_at(100.0).tx_mbps - 800.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_belongs_to_next_phase() {
        let p = three_phase();
        // work = 1.0 is the end of the transfer phase; demand should come
        // from the compute phase.
        assert!((p.demand_at(1.0).sm_frac - 0.8).abs() < 1e-9);
    }

    #[test]
    fn peak_demand_is_componentwise() {
        let peak = three_phase().peak_demand();
        assert!((peak.sm_frac - 0.8).abs() < 1e-9);
        assert!((peak.mem_mb - 500.0).abs() < 1e-9);
        assert!((peak.rx_mbps - 1000.0).abs() < 1e-9);
        assert!((peak.tx_mbps - 800.0).abs() < 1e-9);
    }

    #[test]
    fn mem_percentile_orders_by_level() {
        let p = three_phase(); // mem levels: 100 (1s), 500 (2s), 200 (1s)
        assert!((p.mem_percentile(0.25) - 100.0).abs() < 1e-9);
        assert!((p.mem_percentile(0.5) - 200.0).abs() < 1e-9);
        assert!((p.mem_percentile(1.0) - 500.0).abs() < 1e-9);
        // 80th percentile lands inside the 500 MB compute phase.
        assert!((p.mem_percentile(0.8) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn mean_mem_is_work_weighted() {
        let p = three_phase();
        let expect = (100.0 * 1.0 + 500.0 * 2.0 + 200.0 * 1.0) / 4.0;
        assert!((p.mean_mem_mb() - expect).abs() < 1e-9);
    }

    #[test]
    fn peak_fraction_matches_phase_share() {
        let p = three_phase();
        assert!((p.peak_mem_fraction(0.0) - 0.5).abs() < 1e-9); // 2s of 4s at 500MB
    }

    #[test]
    fn constant_profile() {
        let p = ResourceProfile::constant(0.4, 1024.0, 10.0);
        assert!((p.total_work() - 10.0).abs() < 1e-12);
        assert!((p.demand_at(5.0).mem_mb - 1024.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_covers_profile() {
        let s = three_phase().sample(8);
        assert_eq!(s.len(), 8);
        assert!(s.iter().any(|u| u.rx_mbps > 0.0));
        assert!(s.iter().any(|u| u.sm_frac > 0.5));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_profile_panics() {
        let _ = ResourceProfile::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_phase_panics() {
        let _ = Phase::new(0.0, Usage::ZERO);
    }
}
