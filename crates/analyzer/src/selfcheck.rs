//! `--self-check`: the dynamic half of the determinism story.
//!
//! The static rules (D1–D3) argue that nothing *can* leak wall-clock or
//! entropy into a run; this harness demonstrates that nothing *does*: it
//! runs a pinned experiment twice with the same seed and fails on any
//! digest mismatch, then re-runs with observability attached to prove the
//! obs layer is read-only with respect to simulation state.
//!
//! The digest deliberately covers only the simulated outcome in
//! [`RunReport`]: engine throughput, fault and recovery accounting
//! describe how the run was executed and are excluded.

use knots_core::experiment::{mix_inputs, run_mix, scheduler_by_name, ExperimentConfig};
use knots_core::metrics::RunReport;
use knots_core::KubeKnots;
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        // to_bits gives every float (NaN payloads included) a stable image.
        self.u64(v.to_bits());
    }

    /// Final digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Digest every simulated-outcome field of a report (everything except
/// the engine-throughput, fault and recovery accounting).
pub fn report_digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.write(r.scheduler.as_bytes());
    h.u64(r.duration.as_micros());
    h.u64(r.node_util_series.len() as u64);
    for series in &r.node_util_series {
        h.u64(series.len() as u64);
        for &v in series {
            h.f64(v);
        }
    }
    h.u64(r.active_util_samples.len() as u64);
    for &v in &r.active_util_samples {
        h.f64(v);
    }
    h.u64(r.submitted as u64);
    h.u64(r.completed as u64);
    h.u64(r.lc_completed as u64);
    h.u64(r.lc_violations as u64);
    for jct in [&r.batch_jct, &r.lc_latency, &r.all_jct] {
        h.u64(jct.count as u64);
        h.f64(jct.avg);
        h.f64(jct.median);
        h.f64(jct.p99);
        h.f64(jct.max);
    }
    h.f64(r.energy_joules);
    h.u64(r.crashes as u64);
    h.u64(r.preemptions as u64);
    h.u64(r.migrations as u64);
    h.u64(r.skipped_actions as u64);
    for s in &r.skipped_breakdown {
        h.write(s.kind.as_bytes());
        h.write(s.error.as_bytes());
        h.u64(s.count);
    }
    h.finish()
}

/// Outcome of one self-check scheduler leg.
#[derive(Debug)]
pub struct LegResult {
    /// Scheduler label.
    pub scheduler: &'static str,
    /// Digest of the first run.
    pub digest_a: u64,
    /// Digest of the identically-seeded second run.
    pub digest_b: u64,
    /// Digest of the run with observability attached.
    pub digest_obs: u64,
}

impl LegResult {
    /// Did every run of this leg agree?
    pub fn ok(&self) -> bool {
        self.digest_a == self.digest_b && self.digest_a == self.digest_obs
    }
}

/// The pinned configuration: small enough to finish in seconds, large
/// enough to exercise placement ties, preemption and harvesting.
fn pinned_config() -> ExperimentConfig {
    ExperimentConfig {
        nodes: 10,
        duration: SimDuration::from_secs(120),
        seed: 42,
        ..Default::default()
    }
}

/// Run the self-check across the schedulers whose decision paths differ
/// most (queue-driven, packing-driven, and load-driven placement).
pub fn run() -> Vec<LegResult> {
    const LEGS: [&str; 3] = ["CBP+PP", "Tiresias", "Gandiva"];
    let cfg = pinned_config();
    let mut out = Vec::new();
    for name in LEGS {
        let Some(s1) = scheduler_by_name(name) else { continue };
        let Some(s2) = scheduler_by_name(name) else { continue };
        let Some(s3) = scheduler_by_name(name) else { continue };
        let a = run_mix(s1, AppMix::Mix2, &cfg);
        let b = run_mix(s2, AppMix::Mix2, &cfg);
        let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg);
        let o = KubeKnots::new(cluster_cfg, s3, cfg.orch)
            .with_obs(knots_obs::Obs::with_trace_capacity(4096))
            .run_schedule(&schedule);
        out.push(LegResult {
            scheduler: name,
            digest_a: report_digest(&a),
            digest_b: report_digest(&b),
            digest_obs: report_digest(&o),
        });
    }
    out
}

/// Digests of the two output formats, each rendered twice over the same
/// embedded fixture corpus. `--format json` has a byte-stability contract
/// with CI (scripts diff consecutive runs) and SARIF inherits it; this leg
/// turns that contract into a checked invariant.
#[derive(Debug)]
pub struct FormatDigests {
    /// First JSON render.
    pub json_a: u64,
    /// Second JSON render.
    pub json_b: u64,
    /// First SARIF render.
    pub sarif_a: u64,
    /// Second SARIF render.
    pub sarif_b: u64,
}

impl FormatDigests {
    /// Did both formats render byte-identically?
    pub fn ok(&self) -> bool {
        self.json_a == self.json_b && self.sarif_a == self.sarif_b
    }
}

/// The embedded corpus: every per-rule fixture, checked as decision-crate
/// library code so each rule contributes diagnostics to the rendered set.
fn fixture_corpus() -> Vec<crate::diag::Diagnostic> {
    const FIXTURES: [(&str, &str); 14] = [
        ("d1", include_str!("../tests/fixtures/d1_wall_clock.rs")),
        ("d2", include_str!("../tests/fixtures/d2_hash_collections.rs")),
        ("d3", include_str!("../tests/fixtures/d3_ambient_entropy.rs")),
        ("p1", include_str!("../tests/fixtures/p1_panics.rs")),
        ("p2", include_str!("../tests/fixtures/p2_partial_cmp.rs")),
        ("h1", include_str!("../tests/fixtures/h1_prints.rs")),
        ("m1", include_str!("../tests/fixtures/m1_names.rs")),
        ("c1", include_str!("../tests/fixtures/c1_guard_across_fanout.rs")),
        ("c2", include_str!("../tests/fixtures/c2_lock_order.rs")),
        ("c3", include_str!("../tests/fixtures/c3_unsafe_hygiene.rs")),
        ("e1", include_str!("../tests/fixtures/e1_event_handlers.rs")),
        ("r1", include_str!("../tests/fixtures/r1_snapshot_reach.rs")),
        ("pragmas", include_str!("../tests/fixtures/pragmas.rs")),
        ("tricky", include_str!("../tests/fixtures/tricky.rs")),
    ];
    let cfg = crate::config::Config::default();
    let mut diags = Vec::new();
    for (name, src) in FIXTURES {
        let rel = format!("crates/sim/src/{name}.rs");
        diags.extend(crate::engine::check_source(&rel, src, &cfg));
    }
    crate::diag::sort(&mut diags);
    diags
}

/// Render the fixture corpus twice in both formats and digest each render.
pub fn format_digests() -> FormatDigests {
    let digest = |s: &str| {
        let mut h = Fnv::new();
        h.write(s.as_bytes());
        h.finish()
    };
    let diags_a = fixture_corpus();
    let diags_b = fixture_corpus();
    FormatDigests {
        json_a: digest(&crate::diag::to_json(&diags_a)),
        json_b: digest(&crate::diag::to_json(&diags_b)),
        sarif_a: digest(&crate::diag::to_sarif(&diags_a)),
        sarif_b: digest(&crate::diag::to_sarif(&diags_b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_digests_are_stable_within_a_run() {
        let d = format_digests();
        assert!(d.ok(), "{d:?}");
        // The corpus is non-trivial: both formats hash differently.
        assert_ne!(d.json_a, d.sarif_a);
    }

    #[test]
    fn every_rule_fires_in_the_fixture_corpus() {
        let diags = fixture_corpus();
        for r in crate::rules::RULES {
            assert!(diags.iter().any(|d| d.rule == r.id), "rule {} has no corpus finding", r.id);
        }
    }

    #[test]
    fn fnv_distinguishes_and_repeats() {
        let mut a = Fnv::new();
        a.write(b"hello");
        let mut b = Fnv::new();
        b.write(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write(b"hellp");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn digest_covers_decisions_but_not_engine_accounting() {
        let base = RunReport {
            scheduler: "X".into(),
            duration: SimDuration::from_secs(1),
            node_util_series: vec![vec![1.0, 2.0]],
            active_util_samples: vec![0.5],
            submitted: 3,
            completed: 2,
            lc_completed: 1,
            lc_violations: 0,
            batch_jct: knots_core::JctStats::from_secs(vec![1.0]),
            lc_latency: knots_core::JctStats::from_secs(vec![]),
            all_jct: knots_core::JctStats::from_secs(vec![1.0]),
            energy_joules: 9.0,
            crashes: 0,
            preemptions: 1,
            migrations: 0,
            skipped_actions: 0,
            skipped_breakdown: vec![],
            faults: knots_core::FaultStats::default(),
            events_processed: 0,
            events_per_sim_second: 0.0,
            recovery: knots_core::RecoveryStats::default(),
        };
        let d0 = report_digest(&base);

        let mut evented = base.clone();
        evented.events_processed = 1234;
        evented.events_per_sim_second = 9.75;
        assert_eq!(report_digest(&evented), d0, "engine throughput must not affect the digest");

        let mut recovered = base.clone();
        recovered.recovery = knots_core::RecoveryStats {
            controller_crashes: 3,
            checkpoints: 7,
            replayed_events: 41,
            recovery_wall_us: 812.5,
        };
        assert_eq!(report_digest(&recovered), d0, "recovery stats must not affect the digest");

        let mut decided = base;
        decided.preemptions = 2;
        assert_ne!(report_digest(&decided), d0);
    }
}
