//! Djinn & Tonic-style DNN inference services — the paper's user-facing
//! queries (§II-C2, Fig. 4).
//!
//! Seven services (the Table I abbreviations: face, imc, key, ner, pos, chk,
//! plus asr for speech) with:
//!
//! * per-query GPU memory that is small at batch size 1 (mostly < 10% of a
//!   16 GB P100) and grows sub-linearly to < 50% at batch 128 — Fig. 4;
//! * service times of ~10–90 ms ("the image recognition DNN-based inference
//!   query takes 90 ms on an average, on Nvidia P100");
//! * a TensorFlow-style `greedy_memory` default that earmarks ~99% of free
//!   device memory unless the scheduler flips `allow_growth` (Observation 5).

use knots_sim::ids::ImageId;
use knots_sim::pod::{PodSpec, QosClass};
use knots_sim::profile::{ProfileBuilder, ResourceProfile};
use serde::{Deserialize, Serialize};

/// The DNN inference services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum InferenceService {
    /// Face recognition.
    Face,
    /// Image classification.
    Imc,
    /// Keyword spotting.
    Key,
    /// Named-entity recognition.
    Ner,
    /// Part-of-speech tagging.
    Pos,
    /// Sentence chunking.
    Chk,
    /// Automatic speech recognition.
    Asr,
}

impl InferenceService {
    /// All services.
    pub const ALL: [InferenceService; 7] = [
        InferenceService::Face,
        InferenceService::Imc,
        InferenceService::Key,
        InferenceService::Ner,
        InferenceService::Pos,
        InferenceService::Chk,
        InferenceService::Asr,
    ];

    /// Table I abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            InferenceService::Face => "face",
            InferenceService::Imc => "imc",
            InferenceService::Key => "key",
            InferenceService::Ner => "ner",
            InferenceService::Pos => "pos",
            InferenceService::Chk => "chk",
            InferenceService::Asr => "asr",
        }
    }

    /// Stable container-image id (distinct from the Rodinia range).
    #[expect(
        clippy::expect_used,
        reason = "Self::ALL enumerates every variant, so position() always finds self"
    )]
    pub fn image(self) -> ImageId {
        ImageId(20 + Self::ALL.iter().position(|s| *s == self).expect("in ALL") as u32)
    }

    /// Solo service latency for a single query, milliseconds.
    pub fn base_latency_ms(self) -> f64 {
        match self {
            InferenceService::Face => 90.0,
            InferenceService::Imc => 60.0,
            InferenceService::Key => 25.0,
            InferenceService::Ner => 12.0,
            InferenceService::Pos => 14.0,
            InferenceService::Chk => 18.0,
            InferenceService::Asr => 70.0,
        }
    }

    /// SM fraction demanded while the query computes.
    pub fn sm_demand(self) -> f64 {
        match self {
            InferenceService::Face => 0.85,
            InferenceService::Imc => 0.80,
            InferenceService::Key => 0.45,
            InferenceService::Ner => 0.30,
            InferenceService::Pos => 0.30,
            InferenceService::Chk => 0.35,
            InferenceService::Asr => 0.75,
        }
    }

    /// Model + activation memory at the given batch size, MB (Fig. 4 curve:
    /// `base + slope · (batch − 1)^0.7`).
    ///
    /// # Panics
    /// Panics for a batch size of zero.
    pub fn mem_mb(self, batch: u32) -> f64 {
        assert!(batch >= 1, "batch size must be >= 1");
        let (base, slope) = match self {
            InferenceService::Face => (1_000.0, 70.0),
            InferenceService::Imc => (1_250.0, 90.0),
            InferenceService::Key => (450.0, 30.0),
            InferenceService::Ner => (300.0, 18.0),
            InferenceService::Pos => (280.0, 16.0),
            InferenceService::Chk => (380.0, 24.0),
            InferenceService::Asr => (1_500.0, 190.0),
        };
        base + slope * ((batch - 1) as f64).powf(0.7)
    }

    /// Solo latency at the given batch size, ms (batching amortizes
    /// heavily on GPUs: `base · batch^0.45`).
    pub fn latency_ms(self, batch: u32) -> f64 {
        self.base_latency_ms() * (batch as f64).powf(0.45)
    }

    /// The query's resource profile at the given batch size: input transfer
    /// (~10% of the latency), compute (~85%), result writeback (~5%).
    pub fn profile(self, batch: u32) -> ResourceProfile {
        let total = self.latency_ms(batch) / 1_000.0;
        let mem = self.mem_mb(batch);
        ProfileBuilder::new()
            .transfer(0.10 * total, 3_000.0, mem * 0.6)
            .compute(0.85 * total, self.sm_demand(), mem)
            .writeback(0.05 * total, 800.0, mem)
            .build()
    }

    /// A ready-to-submit latency-critical pod. `greedy` selects the TF
    /// default memory behaviour (Fig. 4's "TF" bar); Kube-Knots-aware
    /// schedulers later flip `allow_growth` through the framework API.
    pub fn pod_spec(self, batch: u32, greedy: bool) -> PodSpec {
        let profile = self.profile(batch);
        let peak = profile.peak_demand().mem_mb;
        PodSpec {
            name: self.name().to_string(),
            image: self.image(),
            qos: QosClass::latency_critical(),
            profile,
            request_mb: (peak * 1.2).min(16_384.0),
            greedy_memory: greedy,
            allow_growth: false,
            checkpoint_fraction: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P100_MB: f64 = 16_384.0;

    #[test]
    fn seven_distinct_services() {
        let names: std::collections::BTreeSet<_> =
            InferenceService::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 7);
        let imgs: std::collections::BTreeSet<_> =
            InferenceService::ALL.iter().map(|s| s.image()).collect();
        assert_eq!(imgs.len(), 7);
    }

    #[test]
    fn single_query_footprint_is_small() {
        // Fig. 4: "For most of the single inference queries, the memory
        // consumption is less than 10%."
        let small = InferenceService::ALL.iter().filter(|s| s.mem_mb(1) < 0.10 * P100_MB).count();
        assert!(small >= 5, "{small} of 7 under 10%");
    }

    #[test]
    fn batch_128_stays_under_half_the_device() {
        // Fig. 4: "the majority of the inferences even with batching consume
        // less than 50% of the device memory."
        for s in InferenceService::ALL {
            assert!(s.mem_mb(128) < 0.5 * P100_MB, "{} at 128: {}", s.name(), s.mem_mb(128));
        }
    }

    #[test]
    fn memory_grows_monotonically_and_sublinearly() {
        for s in InferenceService::ALL {
            let m1 = s.mem_mb(1);
            let m16 = s.mem_mb(16);
            let m128 = s.mem_mb(128);
            assert!(m1 < m16 && m16 < m128);
            assert!(m128 / m1 < 16.0, "{}: growth should be sublinear", s.name());
        }
    }

    #[test]
    fn latencies_are_tens_of_ms() {
        for s in InferenceService::ALL {
            let l = s.base_latency_ms();
            assert!((10.0..=120.0).contains(&l), "{}: {l} ms", s.name());
        }
        assert!((InferenceService::Face.base_latency_ms() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn profile_work_matches_latency() {
        let s = InferenceService::Imc;
        let p = s.profile(4);
        assert!((p.total_work() - s.latency_ms(4) / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn pod_spec_is_latency_critical() {
        let spec = InferenceService::Face.pod_spec(1, true);
        assert!(spec.qos.is_latency_critical());
        assert!(spec.greedy_memory);
        assert!(!spec.allow_growth);
        let spec = InferenceService::Face.pod_spec(1, false);
        assert!(!spec.greedy_memory);
    }
}
