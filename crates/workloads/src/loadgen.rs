//! The load generator (§II-C: "We design a load generator for Kube-Knots
//! that mimics the real-world datacenter ... modeled after the Alibaba
//! datacenter task inter-arrival times").
//!
//! Turns an [`AppMix`] into a deterministic, seeded submission schedule:
//! latency-critical inference queries and long-running batch jobs arrive
//! according to the mix's Alibaba-style processes, batch requests overstate
//! their peak (with an occasional *under*-stater, the mis-estimation tail
//! that makes utilization-agnostic sharing dangerous), and inference pods
//! default to TensorFlow's greedy memory behaviour.

use crate::appmix::AppMix;
use knots_sim::pod::PodSpec;
use knots_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One scheduled submission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduledPod {
    /// Arrival instant.
    pub at: SimTime,
    /// The pod to submit.
    pub spec: PodSpec,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Experiment duration.
    pub duration: SimDuration,
    /// RNG seed (every run with the same seed yields the same schedule).
    pub seed: u64,
    /// Stretches batch-job runtimes (1.0 ≈ 10–40 s jobs).
    pub batch_scale: f64,
    /// Multiplies both arrival rates (load knob for sweeps).
    pub rate_scale: f64,
}

/// Whether inference pods use the TF greedy-memory default.
pub const GREEDY_INFERENCE: bool = true;

/// Probability that a batch job *under*-requests its peak memory — the
/// §II-B mis-estimation tail that makes trusting requests unsafe
/// (Observation 2).
pub const UNDER_REQUEST_PROB: f64 = 0.15;

/// Distribution of inference batch sizes (chosen uniformly).
pub const INFERENCE_BATCHES: [u32; 4] = [1, 1, 1, 2];

impl LoadGenConfig {
    /// Defaults matching the paper's testbed experiments.
    pub fn new(duration: SimDuration, seed: u64) -> Self {
        LoadGenConfig { duration, seed, batch_scale: 1.0, rate_scale: 1.0 }
    }
}

/// The arrival instant of the next unsubmitted pod, given how many have
/// already been consumed from the (sorted) schedule. Feeds the
/// orchestrator's event calendar: between arrivals the workload layer
/// never needs the loop to wake on its account.
pub fn next_arrival(schedule: &[ScheduledPod], next: usize) -> Option<SimTime> {
    schedule.get(next).map(|s| s.at)
}

/// The load generator.
#[derive(Debug)]
pub struct LoadGenerator;

impl LoadGenerator {
    /// Generate the full submission schedule for an app-mix, sorted by
    /// arrival time.
    pub fn generate(mix: AppMix, cfg: &LoadGenConfig) -> Vec<ScheduledPod> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (mix.id() as u64) << 32);
        let mut out = Vec::new();

        // Latency-critical inference queries.
        let mut lc_proc = mix.lc_arrivals();
        lc_proc.mean_rate *= cfg.rate_scale;
        let services = mix.lc_services();
        for at in lc_proc.generate(cfg.duration, &mut rng) {
            let svc = services[rng.gen_range(0..services.len())];
            let batch = INFERENCE_BATCHES[rng.gen_range(0..INFERENCE_BATCHES.len())];
            out.push(ScheduledPod { at, spec: svc.pod_spec(batch, GREEDY_INFERENCE) });
        }

        // Batch jobs.
        let mut batch_proc = mix.batch_arrivals();
        batch_proc.mean_rate *= cfg.rate_scale;
        let apps = mix.batch_apps();
        for at in batch_proc.generate(cfg.duration, &mut rng) {
            let app = apps[rng.gen_range(0..apps.len())];
            // Job size jitter: ±40% around the mix's batch scale.
            let scale = cfg.batch_scale * rng.gen_range(0.6..1.4);
            let mut spec = if rng.gen_bool(UNDER_REQUEST_PROB) {
                // Mis-estimated request below the real peak.
                let profile = app.profile(scale);
                let peak = profile.peak_demand().mem_mb;
                app.pod_spec(scale, 0.0).with_request_mb(peak * rng.gen_range(0.55..0.90))
            } else {
                // Overstated request: 5%–60% above peak (Fig. 2b behaviour).
                app.pod_spec(scale, rng.gen_range(0.05..0.60))
            };
            spec.name = format!("{}-{}", spec.name, out.len());
            out.push(ScheduledPod { at, spec });
        }

        out.sort_by_key(|s| s.at);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(mix: AppMix) -> Vec<ScheduledPod> {
        let cfg = LoadGenConfig::new(SimDuration::from_secs(600), 11);
        LoadGenerator::generate(mix, &cfg)
    }

    #[test]
    fn schedule_is_sorted_and_in_range() {
        let s = schedule(AppMix::Mix1);
        assert!(!s.is_empty());
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.iter().all(|p| p.at < SimTime::from_secs(600)));
    }

    #[test]
    fn pareto_split_keeps_most_pods_short_lived() {
        // The paper's cut keeps ~80% of pods short-lived (latency-critical).
        for mix in AppMix::ALL {
            let s = schedule(mix);
            let lc = s.iter().filter(|p| p.spec.qos.is_latency_critical()).count();
            let frac = lc as f64 / s.len() as f64;
            assert!(frac > 0.70, "{mix}: short-lived fraction {frac}");
        }
    }

    #[test]
    fn load_levels_rank_mix_sizes() {
        let n1 = schedule(AppMix::Mix1).len();
        let n2 = schedule(AppMix::Mix2).len();
        let n3 = schedule(AppMix::Mix3).len();
        assert!(n1 > n2 && n2 > n3, "sizes {n1} {n2} {n3}");
    }

    #[test]
    fn batch_jobs_overstate_requests_mostly() {
        let s = schedule(AppMix::Mix2);
        let batch: Vec<_> = s.iter().filter(|p| !p.spec.qos.is_latency_critical()).collect();
        assert!(!batch.is_empty());
        let over = batch
            .iter()
            .filter(|p| p.spec.request_mb >= p.spec.profile.peak_demand().mem_mb)
            .count();
        let frac = over as f64 / batch.len() as f64;
        assert!(frac > 0.8, "overstatement fraction {frac}");
        // ... but not all: the under-request tail exists.
        assert!(frac < 1.0 || batch.len() < 20);
    }

    #[test]
    fn inference_pods_are_greedy_by_default() {
        let s = schedule(AppMix::Mix1);
        assert!(s
            .iter()
            .filter(|p| p.spec.qos.is_latency_critical())
            .all(|p| p.spec.greedy_memory));
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = schedule(AppMix::Mix3);
        let b = schedule(AppMix::Mix3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.spec.request_mb, y.spec.request_mb);
        }
    }

    #[test]
    fn rate_scale_scales_volume() {
        let base = LoadGenConfig::new(SimDuration::from_secs(600), 7);
        let mut doubled = base;
        doubled.rate_scale = 2.0;
        let n1 = LoadGenerator::generate(AppMix::Mix2, &base).len();
        let n2 = LoadGenerator::generate(AppMix::Mix2, &doubled).len();
        assert!(n2 as f64 > 1.6 * n1 as f64, "{n1} -> {n2}");
    }
}
