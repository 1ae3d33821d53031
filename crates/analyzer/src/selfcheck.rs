//! `--self-check`: the dynamic half of the determinism story.
//!
//! The static rules (D1–D3) argue that nothing *can* leak wall-clock or
//! entropy into a run; this harness demonstrates that nothing *does*: it
//! runs a pinned experiment twice with the same seed and fails on any
//! digest mismatch, then re-runs with observability attached to prove the
//! obs layer is read-only with respect to simulation state.
//!
//! Runs are compared by [`knots_core::report_digest`], which covers only
//! the simulated outcome.

use knots_core::experiment::{mix_inputs, run_mix, scheduler_by_name, ExperimentConfig};
use knots_core::{fnv1a, report_digest, KubeKnots};
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;

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
    let digest = |s: &str| fnv1a(s.as_bytes());
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
}
