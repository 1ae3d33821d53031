//! Seed-replay determinism: the whole control loop — load generation,
//! telemetry, forecasting, scheduling, simulation — must be a pure function
//! of the experiment seed. Two runs with the same seed must produce
//! bit-identical reports (engine and recovery accounting excluded).
//!
//! This pins the tie-break fix in the Tiresias/Gandiva placement path:
//! their per-node load maps used to be `HashMap`s, whose per-instance
//! random iteration order silently broke `min_by_key` ties differently
//! on every run. `knots_analyzer::report_digest` hashes every
//! decision-derived field of a `RunReport`, so any relapse shows up as a
//! digest mismatch here (and in `knots-analyzer -- --self-check`).
//!
//! The loop-mode tests drive each leg through the differential harness
//! (`tests/harness/`): the event queue, with and without the recorder and
//! tracer, must end where the per-tick oracle (`KubeKnots::run_ticked`)
//! does.

mod harness;

use knots_chaos::{ChaosEngine, FaultPlan};
use knots_core::experiment::{
    mix_inputs, run_mix, scheduler_by_name, ExperimentConfig, DNN_SCHEDULERS,
};
use knots_core::KubeKnots;
use knots_sim::time::SimDuration;
use knots_workloads::appmix::AppMix;

use harness::{check, Leg, Mode};

fn cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        nodes: 10,
        duration: SimDuration::from_secs(120),
        seed,
        ..Default::default()
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    for name in DNN_SCHEDULERS {
        let a = run_mix(scheduler_by_name(name).unwrap(), AppMix::Mix2, &cfg(42));
        let b = run_mix(scheduler_by_name(name).unwrap(), AppMix::Mix2, &cfg(42));
        assert_eq!(
            knots_analyzer::report_digest(&a),
            knots_analyzer::report_digest(&b),
            "{name}: same-seed replay diverged"
        );
    }
}

#[test]
fn parallel_sweep_matches_serial_sweep() {
    // The figure sweeps fan independent scheduler/mix legs out onto a
    // bounded thread pool; each leg is a pure function of its seed, so the
    // per-leg reports must digest identically no matter how many workers
    // ran them (and no matter which worker ran which leg).
    use knots_bench::figures::fig06_09_cluster::ClusterStudy;
    use knots_bench::figures::fig12_dnn::DnnStudy;
    use knots_workloads::dnn::DnnWorkloadConfig;

    let cfg = ExperimentConfig {
        nodes: 10,
        duration: SimDuration::from_secs(20),
        seed: 42,
        ..Default::default()
    };
    let serial = ClusterStudy::run(&cfg, &knots_obs::Obs::disabled(), 1);
    let parallel = ClusterStudy::run(&cfg, &knots_obs::Obs::disabled(), 4);
    let digests = |s: &ClusterStudy| -> Vec<u64> {
        s.reports.iter().flatten().map(knots_analyzer::report_digest).collect()
    };
    assert_eq!(digests(&serial), digests(&parallel), "cluster sweep diverged across thread counts");

    let workload = DnnWorkloadConfig::smoke();
    let serial = DnnStudy::run(&workload, 1);
    let parallel = DnnStudy::run(&workload, 4);
    let digests = |s: &DnnStudy| -> Vec<u64> {
        s.reports.iter().map(knots_analyzer::report_digest).collect()
    };
    assert_eq!(digests(&serial), digests(&parallel), "dnn sweep diverged across thread counts");
}

#[test]
fn empty_fault_plan_reproduces_the_pinned_digests() {
    // The analyzer self-check pins these digests (BENCH_3.json). A run
    // carrying an *empty* fault plan must drop its inert chaos engine and
    // take the fault-free code path bit for bit — chaos support may not
    // move a single decision in a run with no faults.
    const PINNED: [(&str, u64); 3] = [
        ("CBP+PP", 0x3dd6_2b08_c803_b70c),
        ("Tiresias", 0x3f35_b90a_739d_908c),
        ("Gandiva", 0x3528_4ac8_9ffc_37ac),
    ];
    for (name, want) in PINNED {
        let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg(42));
        let r = KubeKnots::new(cluster_cfg, scheduler_by_name(name).unwrap(), cfg(42).orch)
            .with_chaos(ChaosEngine::new(FaultPlan::empty()))
            .run_schedule(&schedule);
        assert_eq!(
            knots_analyzer::report_digest(&r),
            want,
            "{name}: zero-fault digest moved off the pinned value"
        );
    }
}

#[test]
fn cbp_mix1_chaotic_seed_keeps_its_digest() {
    // CBP on App-Mix-1 at seed 3 was the decide hot spot: its pending queue
    // stays long, so every round read the 80th-percentile quantiles of
    // every resident app many times over. The quantiles now come from a
    // per-app sorted memo; this pins that the memo moved no decision.
    let cfg = ExperimentConfig { duration: SimDuration::from_secs(60), ..cfg(3) };
    let r = run_mix(scheduler_by_name("CBP").unwrap(), AppMix::Mix1, &cfg);
    assert_eq!(
        knots_analyzer::report_digest(&r),
        0xcced_07b7_fda1_0865,
        "CBP/App-Mix-1 seed-3 digest moved"
    );
}

#[test]
fn chaos_sweep_is_byte_identical_across_thread_counts() {
    // Fault injection must not loosen the parallel-sweep guarantee: the
    // same (seed, plan) pair replays identically no matter how many
    // workers ran the legs, down to the serialized row bytes.
    use knots_bench::figures::chaos_sweep;
    let cfg = ExperimentConfig {
        nodes: 10,
        duration: SimDuration::from_secs(20),
        seed: 42,
        ..Default::default()
    };
    let intensities = [0.0, 10.0, 30.0];
    let serial = chaos_sweep::run(&cfg, &intensities, 1);
    let parallel = chaos_sweep::run(&cfg, &intensities, 4);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "chaos sweep diverged across thread counts"
    );
}

#[test]
fn every_loop_mode_matches_naive_ticking() {
    // Heartbeat at 5× the tick on the paper's 10 nodes: between scheduling
    // rounds the event queue jumps straight to the next calendar entry.
    // That may not move a single bit relative to the per-tick oracle, for
    // any scheduler, with the recorder and tracer on — and the event queue
    // must really skip: it runs fewer control-loop steps than the oracle's
    // ticks and pops calendar events.
    for name in DNN_SCHEDULERS {
        let leg = Leg { nodes: 10, secs: 60, ..Leg::new(name) };
        let (oracle, runs) = check(&leg, &[Mode::Observed]);
        let observed = &runs[0];
        assert!(observed.steps > 0, "{leg:?}: the event queue ran no loop steps");
        assert!(
            observed.steps < oracle.steps,
            "{leg:?}: a 50 ms heartbeat over a 10 ms tick must skip dead iterations \
             ({} steps over {} ticks)",
            observed.steps,
            oracle.steps
        );
        assert!(observed.report.events_processed > 0, "{leg:?}: no calendar event popped");
    }
}

#[test]
fn every_loop_mode_matches_naive_ticking_under_chaos() {
    // Same A/B with a seeded 6-faults/min plan: node failures,
    // degradations, probe dropouts, sample corruption and heartbeat
    // delays all land on the same ticks whether the loop crawls or runs
    // on the event queue.
    for name in DNN_SCHEDULERS {
        let leg =
            Leg { nodes: 10, secs: 60, faults_per_minute: 6.0, plan_seed: 9, ..Leg::new(name) };
        check(&leg, &[Mode::Events]);
    }
}

#[test]
fn gave_up_terminal_path_is_identical_across_all_loop_modes() {
    // Pin the crash-loop cap's terminal `GaveUp` path across both loops:
    // with the cap at 1, every pod crashed by a node failure is abandoned,
    // and the abandonment must land on the same tick — same fingerprint,
    // same `gave_up` count (fault counts are outside the digest) — whether
    // the loop crawls or runs on the event queue.
    let leg = Leg { secs: 60, faults_per_minute: 30.0, plan_seed: 9, ..Leg::new("CBP+PP") };
    let leg = Leg { crash_loop_cap: 1, ..leg };
    let (oracle, runs) = check(&leg, &[Mode::Events]);
    let gave_up = oracle.report.faults.gave_up;
    assert!(gave_up > 0, "{leg:?}: no crash-looping pod was abandoned");
    assert_eq!(runs[0].report.faults.gave_up, gave_up, "{leg:?}: gave_up diverged");
}

mod event_interleavings {
    //! Property: for *arbitrary* event interleavings — random seeds,
    //! off-grid heartbeat periods, durations and fault intensities — the
    //! event queue replays the oracle bit for bit, with and without the
    //! recorder and tracer, all the way down to the raw telemetry: the
    //! harness compares the report digest, every node's energy and the
    //! whole cluster and TSDB state (every retained TSDB node sample among
    //! it) by float bits. The oracle steps and probes every node every
    //! tick; the event queue skips idle nodes and settles them lazily.

    use super::harness::{check, Leg, Mode, SCHEDULERS};
    use knots_sim::time::SimDuration;
    use knots_workloads::AppMix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        #[test]
        fn event_queue_replays_oracle_tsdb_and_energy_bit_identically(
            seed in 0u64..1_000_000,
            hb_ms in 10u64..200,   // deliberately not tick-aligned
            secs in 5u64..15,
            faulty in proptest::bool::ANY,
        ) {
            let leg = Leg {
                seed,
                plan_seed: seed ^ 0x51ab,
                hb_ms,
                secs,
                faults_per_minute: if faulty { 6.0 } else { 0.0 },
                ..Leg::new("CBP+PP")
            };
            check(&leg, &[Mode::Events, Mode::Observed]);
        }

        /// Mostly-idle clusters: 12-16 nodes under the light mixes, where
        /// most node-ticks fall on nodes hosting nothing, for every
        /// scheduler. Those that allow it let empty nodes auto-sleep after
        /// half a second; CBP keeps every node awake, and PP sleeps and
        /// wakes nodes itself.
        #[test]
        fn event_queue_replays_oracle_on_mostly_idle_clusters(
            seed in 0u64..1_000_000,
            scheduler in 0usize..SCHEDULERS.len(),
            mix3 in proptest::bool::ANY,
            nodes in 12usize..17,
            hb_ms in prop_oneof![Just(10u64), 10u64..120],
            secs in 5u64..15,
        ) {
            let leg = Leg {
                mix: if mix3 { AppMix::Mix3 } else { AppMix::Mix2 },
                nodes,
                seed,
                plan_seed: seed ^ 0x51ab,
                hb_ms,
                secs,
                auto_sleep: Some(SimDuration::from_millis(500)),
                ..Leg::new(SCHEDULERS[scheduler])
            };
            check(&leg, &[Mode::Events, Mode::Observed]);
        }
    }
}

#[test]
fn different_seeds_diverge() {
    // Digest sanity: if report_digest collapsed distinct runs the replay
    // test above would be vacuous.
    let a = run_mix(scheduler_by_name("CBP+PP").unwrap(), AppMix::Mix2, &cfg(42));
    let b = run_mix(scheduler_by_name("CBP+PP").unwrap(), AppMix::Mix2, &cfg(43));
    assert_ne!(
        knots_analyzer::report_digest(&a),
        knots_analyzer::report_digest(&b),
        "different seeds should not collide"
    );
}
