//! Controller-crash recovery acceptance.
//!
//! The durable control plane's contract: a run that is killed at scheduled
//! instants and resumed from the latest snapshot + write-ahead log is
//! **bit-identical** to the per-tick oracle that never crashed — same report
//! digest, same energy, same cluster and TSDB state down to the retained
//! sample bits — for every DNN scheduler, with and without concurrent
//! infrastructure chaos, and for crashes landing at *any* event boundary
//! (the proptest below draws crash instants uniformly). The legs run
//! through the differential harness (`tests/harness/`). The envelope and
//! format tests check that a snapshot survives the serde boundary byte for
//! byte, that every state struct round-trips, and that corrupted input fails
//! with typed errors instead of panics.

mod harness;

use knots_chaos::{gen, ChaosEngine, FaultPlan, GenConfig};
use knots_core::config::OrchestratorConfig;
use knots_core::experiment::{scheduler_by_name, DNN_SCHEDULERS};
use knots_core::orchestrator::KubeKnots;
use knots_recovery::{RecoveryError, Snapshot, WriteAheadLog};
use knots_sched::history::AppHistoryState;
use knots_sim::cluster::ClusterConfig;
use knots_sim::time::{SimDuration, SimTime};
use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator, ScheduledPod};
use knots_workloads::AppMix;
use proptest::prelude::*;

use harness::{check, secs, Leg, Mode};

const NODES: usize = 4;

/// A seeded 6-faults/min infrastructure chaos plan.
fn plan(seed: u64, duration: SimDuration) -> FaultPlan {
    let faults_per_minute = 6.0;
    gen::generate(&GenConfig { seed: seed ^ 0x51ab, nodes: NODES, duration, faults_per_minute })
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

#[test]
fn crash_recovery_is_bit_identical_for_every_dnn_scheduler() {
    // Controller crashes at 3/min with and without infrastructure chaos,
    // recovered from 10 s checkpoints; the harness also checks that the obs
    // crash counter equals the report's.
    for name in DNN_SCHEDULERS {
        for faults_per_minute in [0.0, 6.0] {
            let leg =
                Leg { secs: 40, faults_per_minute, crashes_per_minute: 3.0, ..Leg::new(name) };
            let (_, runs) =
                check(&leg, &[Mode::Recovered { checkpoint_every: SimDuration::from_secs(10) }]);
            let stats = runs[0].report.recovery;
            assert!(stats.controller_crashes > 0, "{leg:?}: no crash was performed");
            assert!(stats.checkpoints >= 2, "{leg:?}: periodic checkpoints missing");
        }
    }
}

/// Drive the harness pieces by hand so the recovered orchestrator's TSDB is
/// inspectable: begin → checkpoint at 7 s → crash (drop) at 19 s → resume →
/// replay against the write-ahead log → finish, then compare the whole
/// fingerprint, raw TSDB sample bits included, with the oracle's.
#[test]
fn crash_resume_matches_tsdb_bits() {
    let leg = Leg { faults_per_minute: 6.0, ..Leg::new("CBP+PP") };
    check(&leg, &[Mode::Resumed { checkpoint_at: secs(7), crash_at: secs(19) }]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Crash-at-any-event-boundary: random seeds, off-grid heartbeats,
    /// random crash densities, checkpoint cadences and pause and crash
    /// instants — a crash-recovered run and a run resumed by hand both end
    /// bit-identically to the oracle.
    #[test]
    fn crash_at_any_event_boundary_resumes_bit_identically(
        seed in 0u64..1_000_000,
        hb_ms in 10u64..200,
        secs in 8u64..20,
        cpm in 1.0f64..12.0,
        checkpoint_secs in 2u64..8,
        faulty in proptest::bool::ANY,
        pause_permille in 100u64..400,
        crash_permille in 0u64..300,
    ) {
        let checkpoint_at = SimTime(secs * pause_permille * 1000);
        let crash_at = SimTime(checkpoint_at.0 + secs * crash_permille * 1000);
        for name in ["CBP+PP", "Tiresias"] {
            let leg = Leg {
                seed,
                plan_seed: seed ^ 0x51ab,
                hb_ms,
                secs,
                faults_per_minute: if faulty { 6.0 } else { 0.0 },
                crashes_per_minute: cpm,
                ..Leg::new(name)
            };
            check(&leg, &[
                Mode::Recovered { checkpoint_every: SimDuration::from_secs(checkpoint_secs) },
                Mode::Resumed { checkpoint_at, crash_at },
            ]);
        }
    }
}

/// A fault-free run skips its idle nodes and settles them lazily. Pausing
/// it while most of 12 nodes are idle settles them into the captured state;
/// the resumed run must finish exactly like the oracle — report digest,
/// total and per-node energy bits, cluster and TSDB state.
#[test]
fn pause_with_idle_nodes_owing_ticks_resumes_bit_identically() {
    for name in ["CBP+PP", "Res-Ag"] {
        let leg = Leg { mix: AppMix::Mix3, nodes: 12, seed: 11, hb_ms: 10, ..Leg::new(name) };
        let leg = Leg { secs: 20, ..leg };
        let (_, runs) = check(&leg, &[Mode::Resumed { checkpoint_at: secs(9), crash_at: secs(9) }]);
        let active = runs[0].active_at_checkpoint;
        assert!(
            active < leg.nodes / 2,
            "{leg:?}: most nodes must be idle (and owe ticks) at the pause"
        );
    }
}

/// CBP+PP copies each app's reference series as runs every round and
/// decodes it only in a round that can place a pod. A checkpoint taken
/// while no pod is pending captures references not yet decoded; it must
/// serialize them as the dense series, and the resumed run must finish
/// exactly like the oracle.
#[test]
fn checkpoint_without_pending_pods_resumes_bit_identically() {
    let leg = Leg::new("CBP+PP");
    let checkpoint_at = secs(14);
    let k = leg.inputs().paused_at(checkpoint_at);
    assert_eq!(k.cluster().pending_len(), 0, "{leg:?}: a pod is pending at the checkpoint");
    let state = Snapshot::capture(&k).unwrap().state().unwrap();
    let history: AppHistoryState = serde::Deserialize::from_value(&state.scheduler).unwrap();
    let captured = history.apps.iter().filter(|a| !a.reference.is_empty()).count();
    assert!(captured > 0, "{leg:?}: no reference series to capture");
    check(&leg, &[Mode::Resumed { checkpoint_at, crash_at: secs(20) }]);
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
    truncated.digest = knots_core::fnv1a(truncated.payload.as_bytes());
    assert!(matches!(truncated.state(), Err(RecoveryError::Malformed(_))));

    // Valid JSON, wrong shape: malformed, no panic.
    let mut wrong_shape = snap.clone();
    wrong_shape.payload = "{\"not\": \"an orchestrator state\"}".to_string();
    wrong_shape.digest = knots_core::fnv1a(wrong_shape.payload.as_bytes());
    assert!(matches!(wrong_shape.state(), Err(RecoveryError::Malformed(_))));

    // A mangled envelope fails to parse cleanly too.
    assert!(matches!(Snapshot::decode("{nope"), Err(RecoveryError::Malformed(_))));
}

#[test]
fn deeply_nested_input_fails_with_a_typed_error() {
    // A megabyte of openers nests far past the parser's cap; each decoder
    // must return `Malformed` instead of exhausting the stack. Unknown keys
    // are skipped by parsing them, so `{"a":` reaches the cap through the
    // envelope and the log, and a payload's `scheduler` tree reaches it on
    // resume.
    let mib = 1 << 20;
    let arrays = "[".repeat(mib);
    let objects = "{\"a\":".repeat(mib / 5);
    for text in [&arrays, &objects] {
        assert!(matches!(Snapshot::decode(text), Err(RecoveryError::Malformed(_))));
        assert!(matches!(WriteAheadLog::decode(text), Err(RecoveryError::Malformed(_))));
        let payload = format!("{{\"scheduler\":{text}");
        let snap = Snapshot {
            version: knots_recovery::SNAPSHOT_VERSION,
            digest: knots_core::fnv1a(payload.as_bytes()),
            at: SimTime::ZERO,
            payload,
        };
        assert!(matches!(snap.state(), Err(RecoveryError::Malformed(_))));
    }
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
        let p = plan(42, SimDuration::from_secs(30));
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

#[test]
fn snapshot_capture_is_byte_stable() {
    // Capture → decode → re-encapsulate must reproduce the payload byte
    // for byte (the acceptance criterion behind "bit-identical resume":
    // state survives the serde boundary without drift).
    let (schedule, cluster_cfg, orch) = setup(7, 70, 12);
    let p = plan(7, SimDuration::from_secs(12));
    let mut k = KubeKnots::new(cluster_cfg.clone(), scheduler_by_name("Gandiva").unwrap(), orch)
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
    // A payload written while Gandiva still modelled migration carries a
    // `last_migration` timer as well; it resumes and runs on exactly like
    // the current one.
    let mut legacy = state.clone();
    let serde::Value::Object(fields) = &mut legacy.scheduler else { panic!("Gandiva's state") };
    fields.push(("last_migration".into(), serde::Value::U64(0)));
    let finish = |state| {
        let sched = scheduler_by_name("Gandiva").unwrap();
        let mut k = KubeKnots::resume(cluster_cfg.clone(), sched, orch, Some(p.clone()), state)
            .unwrap_or_else(|e| panic!("resume refused: {e}"));
        assert!(k.drive(&schedule, None));
        knots_core::report_digest(&k.finish(schedule.len()))
    };
    assert_eq!(finish(legacy), finish(state));
}

/// Checkpoint bytes, pinned: every DNN scheduler under the seed-42 chaos
/// plan, captured at two fixed boundaries. Each capture's payload digest,
/// payload length and the FNV-1a of the encoded envelope must equal the
/// values below, so a change to the writer's number or string text (or to
/// the state's shape) fails here even when it round-trips. Each pinned
/// payload must also come back byte for byte from its own decoded state.
#[test]
fn checkpoint_payloads_are_pinned() {
    // (scheduler, boundary µs, payload digest, payload bytes, envelope FNV-1a)
    const PINNED: [(&str, u64, u64, usize, u64); 8] = [
        ("Res-Ag", 9_000_000, 0x285a1dd03f7385bb, 62_900, 0x514c014f1bdbf680),
        ("Res-Ag", 21_000_000, 0x8f0b662f441ea246, 157_757, 0x2cae947660b3e081),
        ("Gandiva", 9_000_000, 0x8c2a2cf0421ff3a8, 61_765, 0xc3eb13fb50bfb0b2),
        ("Gandiva", 21_000_000, 0x19a60e83774b6a6e, 148_722, 0x4ed94cb11dedc1b0),
        ("Tiresias", 9_000_000, 0xdf24d19871b1034c, 61_759, 0x7ea10e96e8b0a9c2),
        ("Tiresias", 21_000_000, 0xdd21b4913f721952, 148_716, 0x175b26e31116b967),
        ("CBP+PP", 9_000_000, 0x7a6f04dff1167d65, 61_752, 0xe57f5c935bcd761c),
        ("CBP+PP", 21_000_000, 0x980e8030ce788cf8, 158_626, 0x067de17841e50485),
    ];
    let mut got = Vec::new();
    for name in DNN_SCHEDULERS {
        let (schedule, cluster_cfg, orch) = setup(42, 50, 30);
        let p = plan(42, SimDuration::from_secs(30));
        let mut k = KubeKnots::new(cluster_cfg, scheduler_by_name(name).unwrap(), orch)
            .with_chaos(ChaosEngine::new(p));
        k.begin(&schedule);
        for at in [9_000_000, 21_000_000] {
            k.drive(&schedule, Some(SimTime(at)));
            if (name, at) == ("Res-Ag", 21_000_000) {
                assert!(k.cluster().relaunching_len() > 0, "the row covers a relaunch queue");
            }
            let snap = Snapshot::capture(&k).unwrap();
            let again = Snapshot::from_state(&snap.state().unwrap(), snap.at).unwrap();
            assert!(again.payload == snap.payload, "{name} at {at} µs: payload drifted on resume");
            let envelope = knots_core::fnv1a(snap.encode().as_bytes());
            got.push((name, at, snap.digest, snap.payload.len(), envelope));
        }
    }
    assert_eq!(got, PINNED);
}
