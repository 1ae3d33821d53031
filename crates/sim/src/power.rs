//! Power and energy-efficiency models (paper §II-A, Fig. 1).
//!
//! The paper's motivating observation is that GPUs are close to linearly
//! power-proportional: board power rises linearly with SM utilization, so
//! performance-per-watt keeps improving all the way to 100% utilization.
//! CPUs instead peak at 60–80% utilization and *lose* efficiency beyond that
//! (hyper-threading effects), so a GPU-cluster scheduler should pack far more
//! aggressively than a CPU scheduler (Observation 1).

use crate::resources::GpuSpec;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Board power at a given granted SM utilization, for an awake device.
///
/// Linear interpolation between idle and TDP — the "highly linear energy
/// efficiency with respect to utilization" behaviour the paper leverages.
pub fn gpu_power_watts(spec: &GpuSpec, sm_util: f64) -> f64 {
    let u = sm_util.clamp(0.0, 1.0);
    spec.idle_watts + (spec.tdp_watts - spec.idle_watts) * u
}

/// GPU energy efficiency (throughput per watt) normalized to the efficiency
/// at 100% utilization, as plotted in Fig. 1.
///
/// With linear power and linear throughput this is
/// `u · tdp / (idle + (tdp − idle)·u)` — monotonically increasing, equal to
/// 1.0 at `u = 1`. Maximum efficiency is only reached fully utilized.
pub fn gpu_energy_efficiency(spec: &GpuSpec, sm_util: f64) -> f64 {
    let u = sm_util.clamp(0.0, 1.0);
    if u == 0.0 {
        return 0.0;
    }
    u * spec.tdp_watts / gpu_power_watts(spec, u)
}

/// CPU generations plotted in Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CpuGeneration {
    /// Intel Sandy Bridge — newer, more energy proportional; efficiency peaks
    /// around 60–70% core utilization at ~1.3× the efficiency at 100%.
    SandyBridge,
    /// Intel Westmere — older, flatter curve peaking mildly around 70–80%.
    Westmere,
}

/// CPU energy efficiency normalized to the efficiency at 100% utilization.
///
/// Modeled as a saturating throughput-per-watt curve multiplied by a
/// hyper-threading droop beyond the peak zone:
/// `EE(u) ∝ (u / (u + k)) · (1 − d · max(0, u − u₀)²)`, normalized so that
/// `EE(1) = 1`. Constants are fitted to the qualitative shape of Fig. 1.
pub fn cpu_energy_efficiency(gen: CpuGeneration, util: f64) -> f64 {
    let u = util.clamp(0.0, 1.0);
    if u == 0.0 {
        return 0.0;
    }
    let (k, u0, d) = match gen {
        CpuGeneration::SandyBridge => (0.08, 0.55, 1.4),
        CpuGeneration::Westmere => (0.35, 0.60, 0.9),
    };
    let f = |x: f64| (x / (x + k)) * (1.0 - d * (x - u0).max(0.0).powi(2));
    f(u) / f(1.0)
}

/// Integrates power over simulated time into joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    joules: f64,
}

impl EnergyMeter {
    /// A meter reading zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `power_watts` drawn for `dt`.
    pub fn add(&mut self, power_watts: f64, dt: SimDuration) {
        debug_assert!(power_watts >= 0.0);
        self.joules += power_watts * dt.as_secs_f64();
    }

    /// Total energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::GpuModel;

    #[test]
    fn gpu_power_is_linear_between_idle_and_tdp() {
        let spec = GpuModel::P100.spec();
        assert!((gpu_power_watts(&spec, 0.0) - spec.idle_watts).abs() < 1e-9);
        assert!((gpu_power_watts(&spec, 1.0) - spec.tdp_watts).abs() < 1e-9);
        let half = gpu_power_watts(&spec, 0.5);
        assert!((half - (spec.idle_watts + spec.tdp_watts) / 2.0).abs() < 1e-9);
        // Clamping.
        assert!((gpu_power_watts(&spec, 2.0) - spec.tdp_watts).abs() < 1e-9);
    }

    #[test]
    fn gpu_efficiency_monotonic_and_peaks_at_full_util() {
        let spec = GpuModel::P100.spec();
        let mut prev = 0.0;
        for i in 1..=10 {
            let ee = gpu_energy_efficiency(&spec, i as f64 / 10.0);
            assert!(ee > prev, "GPU EE must rise monotonically");
            prev = ee;
        }
        assert!((gpu_energy_efficiency(&spec, 1.0) - 1.0).abs() < 1e-9);
        assert_eq!(gpu_energy_efficiency(&spec, 0.0), 0.0);
    }

    #[test]
    fn cpu_efficiency_peaks_in_the_60_80_zone() {
        for gen in [CpuGeneration::SandyBridge, CpuGeneration::Westmere] {
            let utils: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
            let (peak_u, peak_ee) = utils
                .iter()
                .map(|&u| (u, cpu_energy_efficiency(gen, u)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert!((0.55..=0.85).contains(&peak_u), "{gen:?} peak at {peak_u}");
            assert!(peak_ee > 1.0, "{gen:?} peak EE {peak_ee} should exceed EE(100%)");
            assert!((cpu_energy_efficiency(gen, 1.0) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sandybridge_is_more_energy_proportional_than_westmere() {
        // At moderate utilization, the newer part should be relatively more
        // efficient (Fig. 1).
        for u in [0.2, 0.4, 0.6] {
            assert!(
                cpu_energy_efficiency(CpuGeneration::SandyBridge, u)
                    > cpu_energy_efficiency(CpuGeneration::Westmere, u)
            );
        }
    }

    #[test]
    fn gpu_beats_cpu_pattern_near_full_load() {
        // The GPU keeps gaining efficiency where CPUs droop: the GPU EE
        // at 100% (=1.0) exceeds its EE at 70%, while the CPU EE at 100%
        // is *below* its EE at 70%.
        let spec = GpuModel::P100.spec();
        assert!(gpu_energy_efficiency(&spec, 1.0) > gpu_energy_efficiency(&spec, 0.7));
        assert!(
            cpu_energy_efficiency(CpuGeneration::SandyBridge, 1.0)
                < cpu_energy_efficiency(CpuGeneration::SandyBridge, 0.7)
        );
    }

    #[test]
    fn energy_meter_integrates() {
        let mut m = EnergyMeter::new();
        m.add(100.0, SimDuration::from_secs(36));
        assert!((m.joules() - 3600.0).abs() < 1e-9);
    }
}
