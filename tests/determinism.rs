//! Seed-replay determinism: the whole control loop — load generation,
//! telemetry, forecasting, scheduling, simulation — must be a pure function
//! of the experiment seed. Two runs with the same seed must produce
//! bit-identical reports (engine and recovery accounting excluded).
//!
//! This pins the tie-break fix in the Tiresias/Gandiva placement path:
//! their per-node load maps used to be `HashMap`s, whose per-instance
//! random iteration order silently broke `min_by_key` ties differently
//! on every run. `knots_core::report_digest`, beside `RunReport`, hashes
//! every decision-derived field of the report (a new field does not compile
//! until the digest hashes or excludes it), so any relapse shows up as a
//! digest mismatch here. `empty_fault_plan_reproduces_the_pinned_digests`
//! holds the pinned values every change must keep.
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
use knots_core::{report_digest, KubeKnots};
use knots_obs::Obs;
use knots_sim::time::SimDuration;
use knots_workloads::appmix::AppMix;

use harness::{check, Leg, Mode, SCHEDULERS};

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
        assert_eq!(report_digest(&a), report_digest(&b), "{name}: same-seed replay diverged");
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
    // With the recorder on, the legs' events and series merge in grid
    // order, so the JSONL trace is byte-equal too, and so is every series
    // but the wall-clock heartbeat latencies.
    let run = |threads| {
        let obs = Obs::with_trace_capacity(1 << 16);
        let study = ClusterStudy::run(&cfg, &obs, threads);
        let digests: Vec<u64> = study.reports.iter().flatten().map(report_digest).collect();
        let prom = obs.metrics.to_prometheus();
        let prom: Vec<String> = prom
            .lines()
            .filter(|l| !l.starts_with("knots_heartbeat_latency_us"))
            .map(str::to_string)
            .collect();
        (digests, obs.recorder.export_jsonl(), prom)
    };
    let (serial, parallel) = (run(1), run(4));
    assert_eq!(serial.0, parallel.0, "cluster sweep diverged across thread counts");
    assert!(serial.1.lines().count() > 100, "the recorder kept {} lines", serial.1.lines().count());
    for line in serial.1.lines() {
        assert!(line.contains("\"fields\":{\"scheduler\":\""), "an event without its leg: {line}");
        assert!(line.contains(",\"mix\":\"App-Mix-"), "an event without its mix: {line}");
    }
    assert!(serial.1 == parallel.1, "the merged JSONL trace depends on the thread count");
    assert_eq!(serial.2, parallel.2, "the metrics depend on the thread count");

    let workload = DnnWorkloadConfig::smoke();
    let serial = DnnStudy::run(&workload, 1);
    let parallel = DnnStudy::run(&workload, 4);
    let digests = |s: &DnnStudy| -> Vec<u64> { s.reports.iter().map(report_digest).collect() };
    assert_eq!(digests(&serial), digests(&parallel), "dnn sweep diverged across thread counts");
}

#[test]
fn empty_fault_plan_reproduces_the_pinned_digests() {
    // The contract every change keeps: these three digests of the pinned
    // Mix-2 config (10 nodes, 120 s, seed 42) cover queue-, packing- and
    // load-driven placement. Each is reached twice. A run carrying an
    // *empty* fault plan must drop its inert chaos engine and take the
    // fault-free code path bit for bit, and a run with the event recorder
    // on must decide exactly as one without it: neither chaos support nor
    // observability may move a decision.
    const PINNED: [(&str, u64); 3] = [
        ("CBP+PP", 0x3dd6_2b08_c803_b70c),
        ("Tiresias", 0x3f35_b90a_739d_908c),
        ("Gandiva", 0x3528_4ac8_9ffc_37ac),
    ];
    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg(42));
    for (name, want) in PINNED {
        let start =
            || KubeKnots::new(cluster_cfg.clone(), scheduler_by_name(name).unwrap(), cfg(42).orch);
        let runs = [
            ("empty fault plan", start().with_chaos(ChaosEngine::new(FaultPlan::empty()))),
            ("recorder on", start().with_obs(Obs::with_trace_capacity(4096))),
        ];
        for (how, mut run) in runs {
            let r = run.run_schedule(&schedule);
            assert_eq!(
                report_digest(&r),
                want,
                "{name} ({how}): digest moved off the pinned value"
            );
        }
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
    assert_eq!(report_digest(&r), 0xcced_07b7_fda1_0865, "CBP/App-Mix-1 seed-3 digest moved");
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
    // ticks and pops calendar events. The oracle builds every scheduling
    // round, while the event queue only counts a round with no pod waiting
    // under a policy that declares such rounds idle (Uniform, Res-Ag,
    // Tiresias), so all six policies run here, on an app mix and on a DNN
    // trace, where Tiresias suspends pods and must still resume them in
    // rounds with nothing pending.
    for name in SCHEDULERS {
        for leg in [Leg { nodes: 10, secs: 60, ..Leg::new(name) }, dnn_leg(name)] {
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
            if name == "Tiresias" && leg.dnn {
                assert!(oracle.report.preemptions > 0, "{leg:?}: nothing was ever suspended");
            }
        }
    }
}

/// The DNN leg of the loop-mode tests: 8 nodes, 60 s.
fn dnn_leg(name: &'static str) -> Leg {
    Leg { nodes: 8, secs: 60, dnn: true, ..Leg::new(name) }
}

#[test]
fn every_loop_mode_matches_naive_ticking_under_chaos() {
    // Same A/B with a seeded 6-faults/min plan: node failures,
    // degradations, probe dropouts, sample corruption and heartbeat
    // delays all land on the same ticks whether the loop crawls or runs
    // on the event queue, for all six policies.
    for name in SCHEDULERS {
        for leg in [Leg { nodes: 10, secs: 60, ..Leg::new(name) }, dnn_leg(name)] {
            check(&Leg { faults_per_minute: 6.0, plan_seed: 9, ..leg }, &[Mode::Events]);
        }
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
    assert_ne!(report_digest(&a), report_digest(&b), "different seeds should not collide");
}
