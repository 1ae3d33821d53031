//! Fault-injection integration tests: the control loop must *degrade*,
//! never lie or fall over. Under scripted and seeded fault plans the run
//! completes without panicking, pod accounting stays conserved across
//! crash/relaunch/give-up transitions, corrupted telemetry is refused at
//! the TSDB door, and the schedulers' stale-series fallbacks leave visible
//! tracks in the decision audit log.

use knots_chaos::{gen, ChaosEngine, CorruptionMode, FaultEvent, FaultKind, FaultPlan, GenConfig};
use knots_core::experiment::{mix_inputs, scheduler_by_name, ExperimentConfig};
use knots_core::{KubeKnots, OrchestratorConfig, RunReport};
use knots_sim::cluster::{Cluster, ClusterConfig};
use knots_sim::ids::NodeId;
use knots_sim::time::{SimDuration, SimTime};
use knots_workloads::appmix::AppMix;
use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator};

fn cfg(seed: u64, secs: u64) -> ExperimentConfig {
    ExperimentConfig {
        nodes: 10,
        duration: SimDuration::from_secs(secs),
        seed,
        ..Default::default()
    }
}

/// One App-Mix-2 run of `scheduler` with `plan` replayed against it.
fn run_mix2(
    scheduler: &str,
    cfg: &ExperimentConfig,
    obs: knots_obs::Obs,
    plan: FaultPlan,
) -> RunReport {
    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, cfg);
    KubeKnots::new(cluster_cfg, scheduler_by_name(scheduler).unwrap(), cfg.orch)
        .with_obs(obs)
        .with_chaos(ChaosEngine::new(plan))
        .run_schedule(&schedule)
}

/// Every submitted pod must be in exactly one place: completed, abandoned,
/// pending, suspended, waiting out a relaunch backoff, or resident on a
/// node. Faults move pods between these states; they must not lose any.
fn assert_conserved(cluster: &Cluster, submitted: usize) {
    let running: usize = cluster.nodes().iter().map(|n| n.resident_count()).sum();
    let suspended = cluster.suspended_pods().count();
    let accounted = cluster.completed_len()
        + cluster.failed_len()
        + cluster.pending_len()
        + cluster.relaunching_len()
        + suspended
        + running;
    assert_eq!(
        submitted,
        accounted,
        "pod accounting leaked: {submitted} submitted vs {accounted} accounted \
         (completed {}, failed {}, pending {}, relaunching {}, suspended {suspended}, \
         running {running})",
        cluster.completed_len(),
        cluster.failed_len(),
        cluster.pending_len(),
        cluster.relaunching_len(),
    );
}

#[test]
fn pods_are_conserved_under_an_aggressive_fault_plan() {
    let duration = SimDuration::from_secs(60);
    let plan = gen::generate(&GenConfig { seed: 7, nodes: 10, duration, faults_per_minute: 30.0 });
    assert!(!plan.is_empty());
    let schedule = LoadGenerator::generate(AppMix::Mix2, &LoadGenConfig::new(duration, 7));
    let cluster_cfg = ClusterConfig::homogeneous(10, knots_sim::config::TESTBED_GPU);
    let orch =
        OrchestratorConfig { freshness: Some(SimDuration::from_secs(2)), ..Default::default() };
    let mut k = KubeKnots::new(cluster_cfg, scheduler_by_name("CBP+PP").unwrap(), orch)
        .with_chaos(ChaosEngine::new(plan));
    let report = k.run_schedule(&schedule);
    assert_eq!(report.submitted, schedule.len());
    assert!(report.completed > 0, "the cluster must keep making progress under faults");
    assert_conserved(k.cluster(), report.submitted);
}

#[test]
fn generated_plans_never_panic_and_keep_reports_sane() {
    for seed in [1, 2, 3] {
        for fpm in [10.0, 60.0] {
            let c = cfg(seed, 30);
            let plan = gen::generate(&GenConfig {
                seed,
                nodes: c.nodes,
                duration: c.duration,
                faults_per_minute: fpm,
            });
            let mut c = c;
            c.orch.freshness = Some(SimDuration::from_secs(2));
            let r = run_mix2("CBP+PP", &c, knots_obs::Obs::disabled(), plan);
            let fa = &r.faults;
            let injected = fa.node_failures
                + fa.degradations
                + fa.probe_dropouts
                + fa.corruption_windows
                + fa.heartbeat_delays;
            assert!(injected > 0, "seed {seed} fpm {fpm}: plan must inject something");
            assert!(r.submitted > 0);
            assert!(r.completed <= r.submitted);
        }
    }
}

#[test]
fn corrupted_samples_are_refused_and_counted() {
    // A NaN/Inf corruption window on one node: the TSDB must reject every
    // mangled reading (non-finite values never enter a series) and the
    // report must own up to how many it refused.
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::SampleCorruption {
                node: NodeId(0),
                duration: SimDuration::from_secs(5),
                mode: CorruptionMode::Nan,
            },
        },
        FaultEvent {
            at: SimTime::from_secs(12),
            kind: FaultKind::SampleCorruption {
                node: NodeId(1),
                duration: SimDuration::from_secs(5),
                mode: CorruptionMode::Inf,
            },
        },
    ]);
    let r = run_mix2("Res-Ag", &cfg(42, 30), knots_obs::Obs::disabled(), plan);
    assert_eq!(r.faults.corruption_windows, 2);
    assert!(r.faults.corrupted_samples > 0, "the windows must mangle some readings");
    assert!(r.faults.rejected_samples > 0, "the TSDB must refuse the non-finite ones");
    assert!(r.completed > 0, "corruption must not stall the run");
}

#[test]
fn stale_series_fallbacks_show_up_in_the_audit_log() {
    // Blind the probes on every node for a 20 s stretch: with a 500 ms
    // freshness bound, any scheduling decision inside the window consults
    // stale series, and both CBP (pod co-location veto) and PP (node
    // forecast override) must log their retreat to the Res-Ag baseline.
    let events = (0..10)
        .map(|n| FaultEvent {
            at: SimTime::from_secs(10),
            kind: FaultKind::ProbeDropout { node: NodeId(n), duration: SimDuration::from_secs(20) },
        })
        .collect();
    let plan = FaultPlan::from_events(events);
    let mut c = cfg(42, 40);
    c.orch.freshness = Some(SimDuration::from_millis(500));
    let obs = knots_obs::Obs::with_trace_capacity(1 << 16);
    let r = run_mix2("CBP+PP", &c, obs.clone(), plan);
    assert_eq!(r.faults.probe_dropouts, 10);
    let trace = obs.recorder.export_jsonl();
    assert!(
        trace.contains("sched.stale_fallback"),
        "stale-series fallbacks must be visible in the decision audit log"
    );
    assert!(r.completed > 0, "the blinded window must not stall the run");
}
