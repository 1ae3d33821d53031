//! Rodinia-style batch (HPC) application profiles — the paper's batch
//! workload (§II-C1, Fig. 3).
//!
//! Real Rodinia kernels can't run here (no GPU), so each application is a
//! phase-structured profile reproducing the statistics the schedulers
//! exploit, as characterized in the paper:
//!
//! * a deterministic cycle: PCIe input burst → compute → short memory/SM
//!   peak → tail compute → writeback ("if an application's input PCIe
//!   bandwidth activity is high ... compute and memory follow in the next
//!   few milliseconds");
//! * very skewed utilization: the SM median-to-peak gap is ~90×, bandwidth
//!   ~400×, and the whole allocation is used for only ~6% of runtime;
//! * stable average usage with occasional surges, making the footprint
//!   predictable from correlation markers (Observation 4).

use knots_sim::ids::ImageId;
use knots_sim::pod::PodSpec;
use knots_sim::profile::{ProfileBuilder, ResourceProfile};
use knots_sim::resources::Usage;
use serde::{Deserialize, Serialize};

/// The nine Rodinia applications used across the paper's three app-mixes
/// (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum RodiniaApp {
    Leukocyte,
    Heartwall,
    ParticleFilter,
    MummerGpu,
    Pathfinder,
    Lud,
    Kmeans,
    StreamCluster,
    Myocyte,
}

/// Shape parameters for one application's cycle.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Number of compute cycles in one run at scale 1.0.
    cycles: usize,
    /// Seconds per cycle.
    cycle_secs: f64,
    /// Background SM fraction (most of the runtime).
    sm_low: f64,
    /// Main compute SM fraction.
    sm_mid: f64,
    /// Peak SM fraction (short).
    sm_peak: f64,
    /// Resident memory between peaks, MB.
    mem_mid: f64,
    /// Peak memory, MB.
    mem_peak: f64,
    /// Input burst bandwidth, MB/s.
    rx_burst: f64,
    /// Writeback bandwidth, MB/s.
    tx_burst: f64,
}

impl RodiniaApp {
    /// All nine applications.
    pub const ALL: [RodiniaApp; 9] = [
        RodiniaApp::Leukocyte,
        RodiniaApp::Heartwall,
        RodiniaApp::ParticleFilter,
        RodiniaApp::MummerGpu,
        RodiniaApp::Pathfinder,
        RodiniaApp::Lud,
        RodiniaApp::Kmeans,
        RodiniaApp::StreamCluster,
        RodiniaApp::Myocyte,
    ];

    /// Canonical lowercase name (as used in Table I).
    pub fn name(self) -> &'static str {
        match self {
            RodiniaApp::Leukocyte => "leukocyte",
            RodiniaApp::Heartwall => "heartwall",
            RodiniaApp::ParticleFilter => "particlefilter",
            RodiniaApp::MummerGpu => "mummergpu",
            RodiniaApp::Pathfinder => "pathfinder",
            RodiniaApp::Lud => "lud",
            RodiniaApp::Kmeans => "kmeans",
            RodiniaApp::StreamCluster => "streamcluster",
            RodiniaApp::Myocyte => "myocyte",
        }
    }

    /// Stable container-image id (one image per application).
    #[expect(
        clippy::expect_used,
        reason = "Self::ALL enumerates every variant, so position() always finds self"
    )]
    pub fn image(self) -> ImageId {
        ImageId(1 + Self::ALL.iter().position(|a| *a == self).expect("in ALL") as u32)
    }

    fn shape(self) -> Shape {
        match self {
            RodiniaApp::Leukocyte => Shape {
                cycles: 8,
                cycle_secs: 5.0,
                sm_low: 0.05,
                sm_mid: 0.45,
                sm_peak: 0.92,
                mem_mid: 900.0,
                mem_peak: 2_300.0,
                rx_burst: 3_800.0,
                tx_burst: 900.0,
            },
            RodiniaApp::Heartwall => Shape {
                cycles: 7,
                cycle_secs: 5.0,
                sm_low: 0.05,
                sm_mid: 0.40,
                sm_peak: 0.85,
                mem_mid: 750.0,
                mem_peak: 1_900.0,
                rx_burst: 3_000.0,
                tx_burst: 800.0,
            },
            RodiniaApp::ParticleFilter => Shape {
                cycles: 5,
                cycle_secs: 4.0,
                sm_low: 0.04,
                sm_mid: 0.25,
                sm_peak: 0.60,
                mem_mid: 500.0,
                mem_peak: 1_300.0,
                rx_burst: 4_200.0,
                tx_burst: 1_500.0,
            },
            RodiniaApp::MummerGpu => Shape {
                cycles: 5,
                cycle_secs: 5.0,
                sm_low: 0.04,
                sm_mid: 0.30,
                sm_peak: 0.70,
                mem_mid: 1_100.0,
                mem_peak: 2_600.0,
                rx_burst: 4_800.0,
                tx_burst: 2_000.0,
            },
            RodiniaApp::Pathfinder => Shape {
                cycles: 4,
                cycle_secs: 3.5,
                sm_low: 0.04,
                sm_mid: 0.30,
                sm_peak: 0.65,
                mem_mid: 400.0,
                mem_peak: 950.0,
                rx_burst: 2_500.0,
                tx_burst: 600.0,
            },
            RodiniaApp::Lud => Shape {
                cycles: 6,
                cycle_secs: 5.0,
                sm_low: 0.06,
                sm_mid: 0.50,
                sm_peak: 0.95,
                mem_mid: 650.0,
                mem_peak: 1_600.0,
                rx_burst: 2_200.0,
                tx_burst: 700.0,
            },
            RodiniaApp::Kmeans => Shape {
                cycles: 10,
                cycle_secs: 2.5,
                sm_low: 0.05,
                sm_mid: 0.35,
                sm_peak: 0.75,
                mem_mid: 850.0,
                mem_peak: 2_100.0,
                rx_burst: 2_800.0,
                tx_burst: 1_200.0,
            },
            RodiniaApp::StreamCluster => Shape {
                cycles: 6,
                cycle_secs: 5.0,
                sm_low: 0.04,
                sm_mid: 0.28,
                sm_peak: 0.58,
                mem_mid: 700.0,
                mem_peak: 1_700.0,
                rx_burst: 5_200.0,
                tx_burst: 2_400.0,
            },
            RodiniaApp::Myocyte => Shape {
                cycles: 3,
                cycle_secs: 4.0,
                sm_low: 0.02,
                sm_mid: 0.12,
                sm_peak: 0.35,
                mem_mid: 250.0,
                mem_peak: 650.0,
                rx_burst: 1_200.0,
                tx_burst: 300.0,
            },
        }
    }

    /// Build the application's resource profile.
    ///
    /// `scale` stretches each cycle (scale 1.0 gives runs of ~10–40 s,
    /// a laptop-friendly stand-in for the paper's minutes-to-hours jobs;
    /// see DESIGN.md). Phase fractions within a cycle are fixed: 8% input
    /// burst, 46% quiescent compute, 18% ramp, 6% peak, 14% low tail, 8%
    /// writeback — so the SM *median* falls in the quiescent band, giving
    /// the ~90× median-to-peak spread the paper measures, and the memory
    /// peak covers ~6% of the runtime.
    ///
    /// # Panics
    /// Panics when `scale` is not strictly positive.
    pub fn profile(self, scale: f64) -> ResourceProfile {
        assert!(scale > 0.0, "scale must be positive");
        let s = self.shape();
        let c = s.cycle_secs * scale;
        let mut b = ProfileBuilder::new();
        for i in 0..s.cycles {
            // First cycle starts from a small setup footprint; later cycles
            // keep the resident mid-level memory (allocator behaviour).
            let base_mem = if i == 0 { s.mem_mid * 0.3 } else { s.mem_mid };
            b = b
                .phase(0.08 * c, Usage::new(s.sm_low, base_mem, s.rx_burst, 0.0))
                .phase(0.46 * c, Usage::new(s.sm_low, s.mem_mid, 0.0, 0.0))
                .phase(0.18 * c, Usage::new(s.sm_mid, s.mem_mid, 0.0, 0.0))
                .phase(0.06 * c, Usage::new(s.sm_peak, s.mem_peak, 0.0, 0.0))
                .phase(0.14 * c, Usage::new(s.sm_low, s.mem_mid, 0.0, 0.0))
                .phase(0.08 * c, Usage::new(s.sm_low, s.mem_mid, 0.0, s.tx_burst));
        }
        b.build()
    }

    /// A ready-to-submit batch pod spec. The request is the *peak* demand —
    /// the "provision for the worst case" default the paper criticizes —
    /// optionally inflated by `overstatement` (≥ 0; e.g. 0.3 requests 130%
    /// of peak, reproducing the Alibaba overcommitment).
    pub fn pod_spec(self, scale: f64, overstatement: f64) -> PodSpec {
        let profile = self.profile(scale);
        let peak = profile.peak_demand().mem_mb;
        let request = (peak * (1.0 + overstatement)).min(16_384.0);
        PodSpec::batch(self.name(), profile).with_image(self.image()).with_request_mb(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_forecast::stats::percentile;

    #[test]
    fn nine_apps_with_unique_names_and_images() {
        let names: std::collections::BTreeSet<_> =
            RodiniaApp::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 9);
        let images: std::collections::BTreeSet<_> =
            RodiniaApp::ALL.iter().map(|a| a.image()).collect();
        assert_eq!(images.len(), 9);
    }

    #[test]
    fn peak_memory_fraction_is_small() {
        // Paper: the whole allocated capacity is used for only ~6% of the
        // execution time.
        for app in RodiniaApp::ALL {
            let p = app.profile(1.0);
            let frac = p.peak_mem_fraction(0.01);
            assert!(frac > 0.03 && frac < 0.12, "{}: peak fraction {frac}", app.name());
        }
    }

    #[test]
    fn sm_median_to_peak_spread_is_large() {
        for app in RodiniaApp::ALL {
            let p = app.profile(1.0);
            let sm: Vec<f64> = p.sample(1000).iter().map(|u| u.sm_frac).collect();
            let median = percentile(&sm, 0.5);
            let peak = sm.iter().cloned().fold(0.0f64, f64::max);
            assert!(peak / median.max(1e-6) > 10.0, "{}: median {median} peak {peak}", app.name());
        }
    }

    #[test]
    fn bandwidth_is_bursty() {
        let p = RodiniaApp::StreamCluster.profile(1.0);
        let bw: Vec<f64> = p.sample(1000).iter().map(|u| u.total_bw_mbps()).collect();
        let median = percentile(&bw, 0.5);
        let peak = bw.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(median, 0.0, "bandwidth should be zero most of the time");
        assert!(peak > 1000.0);
    }

    #[test]
    fn p80_is_well_below_peak() {
        // The harvesting opportunity: the 80th-percentile memory footprint
        // CBP provisions for is meaningfully below the peak request.
        for app in RodiniaApp::ALL {
            let p = app.profile(1.0);
            let p80 = p.mem_percentile(0.8);
            let peak = p.peak_demand().mem_mb;
            assert!(p80 < 0.6 * peak, "{}: p80 {p80} peak {peak}", app.name());
        }
    }

    #[test]
    fn scale_stretches_runtime() {
        let a = RodiniaApp::Lud.profile(1.0).total_work();
        let b = RodiniaApp::Lud.profile(2.0).total_work();
        assert!((b - 2.0 * a).abs() < 1e-9);
    }

    #[test]
    fn pod_spec_requests_inflated_peak() {
        let spec = RodiniaApp::Kmeans.pod_spec(1.0, 0.3);
        let peak = RodiniaApp::Kmeans.profile(1.0).peak_demand().mem_mb;
        assert!((spec.request_mb - peak * 1.3).abs() < 1e-9);
        assert!(!spec.qos.is_latency_critical());
        assert_eq!(spec.image, RodiniaApp::Kmeans.image());
    }

    #[test]
    fn peaks_are_periodic_for_pp() {
        // PP relies on the peak interval being discoverable via
        // autocorrelation: check the dominant period of the memory series
        // matches the cycle length.
        let p = RodiniaApp::Kmeans.profile(1.0);
        let n = 1000;
        let mem: Vec<f64> = p.sample(n).iter().map(|u| u.mem_mb).collect();
        let samples_per_cycle = n / 10; // kmeans has 10 cycles
        let period = knots_forecast::autocorr::dominant_period(
            &mem,
            samples_per_cycle / 2,
            3 * samples_per_cycle,
        )
        .expect("periodic signal");
        let ratio = period as f64 / samples_per_cycle as f64;
        assert!(
            (ratio - ratio.round()).abs() < 0.15,
            "period {period} vs cycle {samples_per_cycle}"
        );
    }
}
