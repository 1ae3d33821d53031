//! The "near-free when disabled" acceptance bar for span tracing, in two
//! parts:
//!
//! 1. *Behavioral* cost is exactly zero: a run with a disabled obs bundle
//!    (tracer included) and an empty fault plan attached must produce the
//!    same decision digest as the plain [`run_mix`] (they are one code
//!    path — this pins that), and so must a run whose bundle records
//!    events and spans.
//! 2. *Wall-time* cost is under 5%: interleaved min-of-N timings of the
//!    plain and traced-disabled runs. Min-of-N over an interleaved schedule
//!    squeezes out scheduler and turbo noise; the 5% bound still carries a
//!    small absolute floor so sub-second timings cannot flake CI.

use std::time::Instant;

use knots_chaos::{ChaosEngine, FaultPlan};
use knots_core::experiment::{mix_inputs, run_mix, scheduler_by_name, ExperimentConfig};
use knots_core::orchestrator::KubeKnots;
use knots_obs::{Obs, Recorder, Tracer};
use knots_sim::cluster::ClusterConfig;
use knots_sim::time::SimDuration;
use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator};
use knots_workloads::AppMix;

fn cfg() -> ExperimentConfig {
    ExperimentConfig { duration: SimDuration::from_secs(60), seed: 42, ..Default::default() }
}

fn run_plain() -> knots_core::metrics::RunReport {
    run_mix(scheduler_by_name("CBP+PP").unwrap(), AppMix::Mix2, &cfg())
}

fn run_observed(obs: Obs) -> knots_core::metrics::RunReport {
    let cfg = cfg();
    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg);
    KubeKnots::new(cluster_cfg, scheduler_by_name("CBP+PP").unwrap(), cfg.orch)
        .with_obs(obs)
        .with_chaos(ChaosEngine::new(FaultPlan::empty()))
        .run_schedule(&schedule)
}

fn run_traced_disabled() -> knots_core::metrics::RunReport {
    run_observed(Obs::disabled())
}

#[test]
fn disabled_tracer_is_behaviorally_free() {
    let plain = knots_analyzer::report_digest(&run_plain());
    let traced = knots_analyzer::report_digest(&run_traced_disabled());
    assert_eq!(plain, traced, "a disabled tracer changed the run");
    let enabled = Obs {
        recorder: Recorder::bounded(1 << 16),
        tracer: Tracer::bounded(1 << 16),
        ..Obs::disabled()
    };
    let observed = knots_analyzer::report_digest(&run_observed(enabled));
    assert_eq!(plain, observed, "recording events and spans changed the run");
}

#[test]
fn disabled_tracer_wall_time_within_five_percent() {
    // Warm both paths once (allocator, page cache, lazy statics).
    run_plain();
    run_traced_disabled();
    const ROUNDS: usize = 3;
    let mut plain_best = f64::INFINITY;
    let mut traced_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        std::hint::black_box(run_plain());
        plain_best = plain_best.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        std::hint::black_box(run_traced_disabled());
        traced_best = traced_best.min(t1.elapsed().as_secs_f64());
    }
    // 5% relative, with a 50 ms absolute floor so very fast debug/CI runs
    // cannot fail on timer granularity alone.
    let bound = (plain_best * 1.05).max(plain_best + 0.05);
    assert!(
        traced_best <= bound,
        "disabled tracing cost too much: plain {plain_best:.3}s vs traced {traced_best:.3}s"
    );
}

#[test]
fn enabled_tracer_records_without_evicting_on_the_mix_run() {
    let cfg = cfg();
    let schedule =
        LoadGenerator::generate(AppMix::Mix2, &LoadGenConfig::new(cfg.duration, cfg.seed));
    let cluster_cfg = ClusterConfig::homogeneous(cfg.nodes, knots_sim::config::TESTBED_GPU);
    let obs = Obs { tracer: Tracer::bounded(1 << 20), ..Obs::disabled() };
    let mut k =
        KubeKnots::new(cluster_cfg, scheduler_by_name("CBP+PP").unwrap(), cfg.orch).with_obs(obs);
    k.run_schedule(&schedule);
    let tracer = &k.obs().tracer;
    assert!(!tracer.is_empty(), "no spans recorded");
    assert_eq!(tracer.dropped(), 0, "ring evicted on a 60 s mix run");
}
