//! Controller-crash recovery acceptance.
//!
//! The durable control plane's contract: a run that is killed at scheduled
//! instants and resumed from the latest snapshot + write-ahead log is
//! **bit-identical** to the run that never crashed — same report digest,
//! same retained TSDB sample bits, same energy total — for every DNN
//! scheduler, with and without concurrent infrastructure chaos, and for
//! crashes landing at *any* event boundary (the proptest below draws crash
//! instants uniformly).

use knots_chaos::{gen, ChaosEngine, FaultPlan, GenConfig};
use knots_core::config::OrchestratorConfig;
use knots_core::experiment::{scheduler_by_name, DNN_SCHEDULERS};
use knots_core::orchestrator::KubeKnots;
use knots_recovery::{run_with_recovery, RecoveryConfig, RecoveryError, Snapshot};
use knots_sim::cluster::ClusterConfig;
use knots_sim::ids::NodeId;
use knots_sim::metrics::{GpuSample, Metric};
use knots_sim::resources::GpuModel;
use knots_sim::time::{SimDuration, SimTime};
use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator, ScheduledPod};
use knots_workloads::AppMix;
use proptest::prelude::*;

const NODES: usize = 4;

/// (report digest, energy bits, per-node `(at, metric bits)` samples).
type LegResult = (u64, u64, Vec<Vec<(u64, [u64; 5])>>);

fn leg_result(k: &KubeKnots, report: &knots_core::RunReport, secs: u64) -> LegResult {
    let now = k.cluster().now();
    let window = SimDuration::from_secs(secs + 3600);
    let samples = (0..NODES)
        .map(|n| {
            k.tsdb()
                .node_window(NodeId(n), now, window)
                .iter()
                .map(|s: &GpuSample| {
                    let mut vals = [0u64; 5];
                    for (i, m) in Metric::ALL.iter().enumerate() {
                        vals[i] = s.get(*m).to_bits();
                    }
                    (s.at.0, vals)
                })
                .collect()
        })
        .collect();
    (knots_analyzer::report_digest(report), report.energy_joules.to_bits(), samples)
}

/// Base infrastructure chaos (`fpm` faults/min) plus `cpm` controller
/// crashes/min, merged into one plan both legs consume identically.
fn plan(seed: u64, duration: SimDuration, fpm: f64, cpm: f64) -> FaultPlan {
    let mut events = if fpm > 0.0 {
        gen::generate(&GenConfig {
            seed: seed ^ 0x51ab,
            nodes: NODES,
            duration,
            faults_per_minute: fpm,
        })
        .events
    } else {
        Vec::new()
    };
    events.extend(gen::generate_controller_crashes(seed ^ 0x51ab, duration, cpm));
    FaultPlan::from_events(events)
}

fn setup(
    seed: u64,
    hb_ms: u64,
    secs: u64,
) -> (Vec<ScheduledPod>, ClusterConfig, OrchestratorConfig) {
    let duration = SimDuration::from_secs(secs);
    let schedule = LoadGenerator::generate(AppMix::Mix2, &LoadGenConfig::new(duration, seed));
    let cluster_cfg = ClusterConfig::homogeneous(NODES, knots_sim::config::TESTBED_GPU);
    let orch =
        OrchestratorConfig { heartbeat: SimDuration::from_millis(hb_ms), ..Default::default() };
    (schedule, cluster_cfg, orch)
}

/// The uninterrupted oracle: one orchestrator runs the whole schedule,
/// consuming the same plan (controller crashes are counted no-ops there).
fn uninterrupted(name: &str, seed: u64, hb_ms: u64, secs: u64, p: &FaultPlan) -> LegResult {
    let (schedule, cluster_cfg, orch) = setup(seed, hb_ms, secs);
    let mut k = KubeKnots::new(cluster_cfg, scheduler_by_name(name).unwrap(), orch)
        .with_chaos(ChaosEngine::new(p.clone()));
    let report = k.run_schedule(&schedule);
    leg_result(&k, &report, secs)
}

/// The recovery leg: same inputs, but the controller is killed at every
/// scheduled crash and restarted from the latest checkpoint + WAL.
fn recovered(
    name: &str,
    seed: u64,
    hb_ms: u64,
    secs: u64,
    p: &FaultPlan,
    checkpoint_secs: u64,
) -> (LegResult, knots_core::RecoveryStats) {
    let (schedule, cluster_cfg, orch) = setup(seed, hb_ms, secs);
    let rc = RecoveryConfig { checkpoint_every: SimDuration::from_secs(checkpoint_secs) };
    let obs = knots_obs::Obs::disabled();
    let report = run_with_recovery(
        &cluster_cfg,
        &|| scheduler_by_name(name).unwrap(),
        &orch,
        p,
        &schedule,
        &rc,
        &obs,
    )
    .expect("recovery harness must succeed");
    assert_eq!(
        obs.metrics.counter_value("knots_recovery_crashes_total", &[]),
        report.recovery.controller_crashes,
        "obs crash counter disagrees with report"
    );
    // The harness consumes its orchestrator, so this leg compares digest
    // and energy; raw TSDB sample bits are covered by
    // `crash_resume_matches_tsdb_bits`, which drives the pieces by hand.
    (
        (knots_analyzer::report_digest(&report), report.energy_joules.to_bits(), Vec::new()),
        report.recovery,
    )
}

#[test]
fn crash_recovery_is_bit_identical_for_every_dnn_scheduler() {
    let secs = 40;
    let duration = SimDuration::from_secs(secs);
    for name in DNN_SCHEDULERS {
        for fpm in [0.0, 6.0] {
            let p = plan(42, duration, fpm, 3.0);
            assert!(
                !p.controller_crashes().is_empty(),
                "plan must schedule at least one controller crash"
            );
            let oracle = uninterrupted(name, 42, 50, secs, &p);
            let (rec, stats) = recovered(name, 42, 50, secs, &p, 10);
            assert!(stats.controller_crashes > 0, "{name}: no crash was performed");
            assert!(stats.checkpoints >= 2, "{name}: periodic checkpoints missing");
            assert_eq!(oracle.0, rec.0, "{name} fpm={fpm}: report digest diverged");
            assert_eq!(oracle.1, rec.1, "{name} fpm={fpm}: energy total diverged");
        }
    }
}

/// Drive the harness pieces by hand so the recovered orchestrator's TSDB
/// is inspectable: begin → checkpoint → crash (drop) → resume → replay →
/// finish, then compare raw sample bits against the uninterrupted run.
#[test]
fn crash_resume_matches_tsdb_bits() {
    let secs = 30u64;
    let (schedule, cluster_cfg, orch) = setup(42, 50, secs);
    let p = plan(42, SimDuration::from_secs(secs), 6.0, 0.0);

    let oracle = {
        let mut k = KubeKnots::new(cluster_cfg.clone(), scheduler_by_name("CBP+PP").unwrap(), orch)
            .with_chaos(ChaosEngine::new(p.clone()));
        let report = k.run_schedule(&schedule);
        leg_result(&k, &report, secs)
    };

    let mut k = KubeKnots::new(cluster_cfg.clone(), scheduler_by_name("CBP+PP").unwrap(), orch)
        .with_chaos(ChaosEngine::new(p.clone()));
    k.begin(&schedule);
    k.enable_journal();
    assert!(!k.drive(&schedule, Some(SimTime(7_000_000))), "run ended before checkpoint");
    let snap = Snapshot::capture(&k).unwrap();
    k.take_journal();
    let mut wal = knots_recovery::WriteAheadLog::new();
    // Keep driving past the checkpoint, then "crash".
    assert!(!k.drive(&schedule, Some(SimTime(19_000_000))), "run ended before crash");
    wal.append(&k.take_journal());
    drop(k);

    let mut revived = KubeKnots::resume(
        cluster_cfg,
        scheduler_by_name("CBP+PP").unwrap(),
        orch,
        Some(p.clone()),
        snap.state().unwrap(),
    )
    .unwrap();
    revived.enable_journal();
    assert!(!revived.drive(&schedule, Some(SimTime(19_000_000))), "replay overshot the run");
    wal.verify_replay(&revived.take_journal()).expect("replay must match the WAL");
    assert!(revived.drive(&schedule, None), "resumed run must complete");
    let report = revived.report_now(schedule.len());
    let rec = leg_result(&revived, &report, secs);
    assert_eq!(oracle.0, rec.0, "report digest diverged");
    assert_eq!(oracle.1, rec.1, "energy total diverged");
    assert_eq!(oracle.2, rec.2, "TSDB node sample bits diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Crash-at-any-event-boundary: random seeds, off-grid heartbeats,
    /// random crash densities and checkpoint cadences — resume is always
    /// bit-identical in digest and energy.
    #[test]
    fn crash_at_any_event_boundary_resumes_bit_identically(
        seed in 0u64..1_000_000,
        hb_ms in 10u64..200,
        secs in 8u64..20,
        cpm in 1.0f64..12.0,
        checkpoint_secs in 2u64..8,
        faulty in proptest::bool::ANY,
    ) {
        let fpm = if faulty { 6.0 } else { 0.0 };
        let p = plan(seed, SimDuration::from_secs(secs), fpm, cpm);
        for name in ["CBP+PP", "Tiresias"] {
            let oracle = uninterrupted(name, seed, hb_ms, secs, &p);
            let (rec, _) = recovered(name, seed, hb_ms, secs, &p, checkpoint_secs);
            prop_assert_eq!(oracle.0, rec.0, "{} report digest diverged", name);
            prop_assert_eq!(oracle.1, rec.1, "{} energy diverged", name);
        }
    }
}

#[test]
fn corrupted_snapshots_fail_with_typed_errors_not_panics() {
    let (schedule, cluster_cfg, orch) = setup(42, 100, 10);
    let mut k = KubeKnots::new(cluster_cfg, scheduler_by_name("CBP+PP").unwrap(), orch);
    k.begin(&schedule);
    k.drive(&schedule, Some(SimTime(2_000_000)));
    let snap = Snapshot::capture(&k).unwrap();

    // Pristine snapshot decodes.
    snap.state().expect("pristine snapshot must decode");

    // Bit-rot in the payload: digest mismatch, no panic.
    let mut rotten = snap.clone();
    let mid = rotten.payload.len() / 2;
    rotten.payload.replace_range(mid..mid + 1, "X");
    assert!(matches!(rotten.state(), Err(RecoveryError::DigestMismatch { .. })));

    // Version skew — both a future format and the v1 format
    // are rejected with the typed error carrying both versions.
    let mut skewed = snap.clone();
    skewed.version = 999;
    assert!(matches!(skewed.state(), Err(RecoveryError::VersionMismatch { found: 999, .. })));
    skewed.version = 1;
    match skewed.state() {
        Err(RecoveryError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 1);
            assert_eq!(expected, knots_recovery::SNAPSHOT_VERSION);
        }
        other => panic!("v1 snapshot must be version-rejected, got {other:?}"),
    }

    // Truncated payload with a "fixed up" digest: malformed JSON, no panic.
    let mut truncated = snap.clone();
    truncated.payload.truncate(truncated.payload.len() / 3);
    truncated.digest = knots_recovery::fnv1a(truncated.payload.as_bytes());
    assert!(matches!(truncated.state(), Err(RecoveryError::Malformed(_))));

    // Valid JSON, wrong shape: malformed, no panic.
    let mut wrong_shape = snap.clone();
    wrong_shape.payload = "{\"not\": \"an orchestrator state\"}".to_string();
    wrong_shape.digest = knots_recovery::fnv1a(wrong_shape.payload.as_bytes());
    assert!(matches!(wrong_shape.state(), Err(RecoveryError::Malformed(_))));

    // A mangled envelope fails to parse cleanly too.
    assert!(matches!(Snapshot::decode("{nope"), Err(RecoveryError::Malformed(_))));
}

#[test]
fn every_state_struct_round_trips_byte_stably() {
    // Each component of `OrchestratorState` — cluster, TSDB, chaos cursor,
    // scheduler state, calendar entries — must survive serialize → parse →
    // deserialize → re-serialize with identical bytes. Pausing a chaotic
    // mid-run for every DNN scheduler exercises pods in all lifecycle
    // states, occupied TSDB rings and each scheduler's learned state
    // (CBP/PP usage history, Gandiva rotation clocks, Tiresias preemption
    // clocks).
    fn stable<T: serde::Serialize + serde::Deserialize>(v: &T, what: &str) {
        let text = serde_json::to_string(v).unwrap();
        let back: T = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{what}: failed to parse back: {e}"));
        assert_eq!(text, serde_json::to_string(&back).unwrap(), "{what}: bytes drifted");
    }
    for name in DNN_SCHEDULERS {
        let (schedule, cluster_cfg, orch) = setup(42, 50, 30);
        let p = plan(42, SimDuration::from_secs(30), 6.0, 0.0);
        let mut k = KubeKnots::new(cluster_cfg, scheduler_by_name(name).unwrap(), orch)
            .with_chaos(ChaosEngine::new(p.clone()));
        k.begin(&schedule);
        k.drive(&schedule, Some(SimTime(17_000_000)));
        let state = k.pause_state().unwrap();
        stable(&state.cluster, "ClusterState");
        stable(&state.tsdb, "TsdbState");
        stable(state.chaos.as_ref().expect("chaos cursor present"), "ChaosEngineState");
        stable(&state.scheduler, name);
        stable(&state.calendar, "calendar entries");
        stable(&state, "OrchestratorState");
    }
}

/// A v2 snapshot written by a build with a sharded core records its shard
/// count in `OrchestratorState::shards`. Such a state — a paused chaotic
/// CBP+PP run with `shards` set to 2, round-tripped through the snapshot
/// envelope — still resumes, and the resumed run completes with the same
/// report digest, energy bits and TSDB node-sample bits as the run that
/// never paused.
#[test]
fn sharded_v2_state_resumes_bit_identically() {
    let secs = 30u64;
    let (schedule, cluster_cfg, orch) = setup(42, 50, secs);
    let p = plan(42, SimDuration::from_secs(secs), 6.0, 0.0);
    let oracle = uninterrupted("CBP+PP", 42, 50, secs, &p);

    let mut k = KubeKnots::new(cluster_cfg.clone(), scheduler_by_name("CBP+PP").unwrap(), orch)
        .with_chaos(ChaosEngine::new(p.clone()));
    k.begin(&schedule);
    assert!(!k.drive(&schedule, Some(SimTime(7_000_000))), "run ended before the pause");
    let mut state = k.pause_state().unwrap();
    drop(k);
    assert_eq!(state.shards, 1);
    state.shards = 2;
    let snap = Snapshot::from_state(&state, state.cluster.now).unwrap();
    assert_eq!(snap.version, 2);
    let state = snap.state().unwrap();
    assert_eq!(state.shards, 2);

    let mut revived =
        KubeKnots::resume(cluster_cfg, scheduler_by_name("CBP+PP").unwrap(), orch, Some(p), state)
            .expect("a v2 state recorded with 2 shards must resume");
    assert!(revived.drive(&schedule, None), "resumed run must complete");
    let report = revived.report_now(schedule.len());
    let rec = leg_result(&revived, &report, secs);
    assert_eq!(oracle.0, rec.0, "report digest diverged");
    assert_eq!(oracle.1, rec.1, "energy total diverged");
    assert_eq!(oracle.2, rec.2, "TSDB node sample bits diverged");
}

/// `KubeKnots::resume` refuses a cluster config whose topology differs
/// from the captured state's — more nodes, or the same count with another
/// GPU model on one node — instead of running on the state's nodes while
/// `cluster().config()` reports the config's. The original config still
/// resumes bit-identically.
#[test]
fn resume_refuses_a_config_of_another_topology() {
    let secs = 20u64;
    let (schedule, cluster_cfg, orch) = setup(5, 50, secs);
    let p = plan(5, SimDuration::from_secs(secs), 6.0, 0.0);
    let oracle = uninterrupted("CBP+PP", 5, 50, secs, &p);

    let mut k = KubeKnots::new(cluster_cfg.clone(), scheduler_by_name("CBP+PP").unwrap(), orch)
        .with_chaos(ChaosEngine::new(p.clone()));
    k.begin(&schedule);
    assert!(!k.drive(&schedule, Some(SimTime(6_000_000))), "run ended before the pause");
    let state = k.pause_state().unwrap();
    drop(k);

    let bigger = ClusterConfig::homogeneous(NODES + 2, knots_sim::config::TESTBED_GPU);
    let mut other_model = cluster_cfg.clone();
    other_model.node_models[1] = GpuModel::V100;
    assert_ne!(other_model.node_models, cluster_cfg.node_models);
    for (what, cfg) in [("6-node", bigger), ("other-GPU", other_model)] {
        let resumed = KubeKnots::resume(
            cfg,
            scheduler_by_name("CBP+PP").unwrap(),
            orch,
            Some(p.clone()),
            state.clone(),
        );
        let Err(e) = resumed else { panic!("the {what} config was accepted") };
        assert!(e.to_string().contains("topology"), "{what}: {e}");
    }

    let mut revived =
        KubeKnots::resume(cluster_cfg, scheduler_by_name("CBP+PP").unwrap(), orch, Some(p), state)
            .expect("the original config must resume");
    assert!(revived.drive(&schedule, None), "resumed run must complete");
    let report = revived.report_now(schedule.len());
    assert_eq!(oracle, leg_result(&revived, &report, secs), "resumed run diverged");
}

#[test]
fn snapshot_capture_is_byte_stable() {
    // Capture → decode → re-encapsulate must reproduce the payload byte
    // for byte (the acceptance criterion behind "bit-identical resume":
    // state survives the serde boundary without drift).
    let (schedule, cluster_cfg, orch) = setup(7, 70, 12);
    let p = plan(7, SimDuration::from_secs(12), 6.0, 0.0);
    let mut k = KubeKnots::new(cluster_cfg, scheduler_by_name("Gandiva").unwrap(), orch)
        .with_chaos(ChaosEngine::new(p.clone()));
    k.begin(&schedule);
    k.drive(&schedule, Some(SimTime(5_000_000)));
    let snap = Snapshot::capture(&k).unwrap();
    let state = snap.state().unwrap();
    let again = Snapshot::from_state(&state, snap.at).unwrap();
    assert_eq!(snap.payload, again.payload, "payload drifted across a round-trip");
    assert_eq!(snap.digest, again.digest);
    // And the envelope itself round-trips.
    assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
}
