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

use knots_chaos::{ChaosEngine, FaultPlan};
use knots_core::experiment::{
    mix_inputs, run_mix, scheduler_by_name, ExperimentConfig, DNN_SCHEDULERS,
};
use knots_core::{KubeKnots, RunReport};
use knots_obs::{Obs, Tracer, Track};
use knots_sim::time::SimDuration;
use knots_workloads::appmix::AppMix;

fn cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        nodes: 10,
        duration: SimDuration::from_secs(120),
        seed,
        ..Default::default()
    }
}

/// One App-Mix-2 run of `scheduler` with `plan` replayed against it.
fn run_mix2_with_plan(scheduler: &str, cfg: &ExperimentConfig, plan: FaultPlan) -> RunReport {
    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, cfg);
    KubeKnots::new(cluster_cfg, scheduler_by_name(scheduler).unwrap(), cfg.orch)
        .with_chaos(ChaosEngine::new(plan))
        .run_schedule(&schedule)
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
        let r = run_mix2_with_plan(name, &cfg(42), FaultPlan::empty());
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
    // Heartbeat at 5× the tick: between scheduling rounds the event queue
    // jumps straight to the next calendar entry. That may not move a
    // single bit of the report relative to the per-tick oracle, for any
    // scheduler — and the event queue must really skip: it runs fewer
    // control-loop steps than the oracle's ticks and pops calendar events.
    // Steps are read off the tracer's control track: one `probe.round` per
    // single-tick step, one `pool.batch` per multi-tick span.
    let traced_run = |name: &str, c: &ExperimentConfig| {
        let obs = Obs { tracer: Tracer::bounded(1 << 20), ..Obs::disabled() };
        let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, c);
        let report = KubeKnots::new(cluster_cfg, scheduler_by_name(name).unwrap(), c.orch)
            .with_obs(obs.clone())
            .run_schedule(&schedule);
        assert_eq!(obs.tracer.dropped(), 0, "{name}: the span ring evicted");
        let steps = obs
            .tracer
            .spans()
            .iter()
            .filter(|s| s.track == Track::Control && matches!(s.name, "probe.round" | "pool.batch"))
            .count();
        (report, steps)
    };
    for name in DNN_SCHEDULERS {
        let mut c = cfg(42);
        c.duration = SimDuration::from_secs(60);
        c.orch.heartbeat = SimDuration::from_millis(50);
        c.orch.naive_ticking = true;
        let (naive, naive_steps) = traced_run(name, &c);
        c.orch.naive_ticking = false;
        let (fast, fast_steps) = traced_run(name, &c);
        assert_eq!(
            knots_analyzer::report_digest(&fast),
            knots_analyzer::report_digest(&naive),
            "{name}: the event queue diverged from naive ticking"
        );
        assert!(fast_steps > 0, "{name}: the event-queue leg ran no loop steps");
        assert!(
            fast_steps < naive_steps,
            "{name}: a 50 ms heartbeat over a 10 ms tick must skip dead iterations \
             ({fast_steps} steps over {naive_steps} ticks)"
        );
        assert!(fast.events_processed > 0, "{name}: the event-queue leg must pop calendar events");
    }
}

#[test]
fn every_loop_mode_matches_naive_ticking_under_chaos() {
    // Same A/B with a seeded 6-faults/min plan: node failures,
    // degradations, probe dropouts, sample corruption and heartbeat
    // delays all land on the same ticks whether the loop crawls or runs
    // on the event queue.
    use knots_chaos::{gen, GenConfig};
    let duration = SimDuration::from_secs(60);
    let plan =
        || gen::generate(&GenConfig { seed: 9, nodes: 10, duration, faults_per_minute: 6.0 });
    for name in DNN_SCHEDULERS {
        let mut c = cfg(42);
        c.duration = duration;
        c.orch.heartbeat = SimDuration::from_millis(50);
        c.orch.naive_ticking = true;
        let naive = run_mix2_with_plan(name, &c, plan());
        c.orch.naive_ticking = false;
        let fast = run_mix2_with_plan(name, &c, plan());
        assert_eq!(
            knots_analyzer::report_digest(&fast),
            knots_analyzer::report_digest(&naive),
            "{name}: the event queue diverged from naive ticking under chaos"
        );
    }
}

#[test]
fn gave_up_terminal_path_is_identical_across_all_loop_modes() {
    // Pin the crash-loop cap's terminal `GaveUp` path across both loops:
    // with the cap at 1, every pod crashed by a node failure is abandoned,
    // and the abandonment must land on the same tick — same digest, same
    // `gave_up` count — whether the loop crawls or runs on the event
    // queue.
    use knots_chaos::{gen, ChaosEngine, GenConfig};
    use knots_core::config::OrchestratorConfig;
    use knots_core::orchestrator::KubeKnots;
    use knots_sim::cluster::ClusterConfig;
    use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator};

    let nodes = 4usize;
    let duration = SimDuration::from_secs(60);
    let schedule = LoadGenerator::generate(AppMix::Mix2, &LoadGenConfig::new(duration, 42));
    let plan = || gen::generate(&GenConfig { seed: 9, nodes, duration, faults_per_minute: 30.0 });
    let run = |naive: bool| {
        let mut cluster_cfg = ClusterConfig::homogeneous(nodes, knots_sim::config::TESTBED_GPU);
        cluster_cfg.overheads.crash_loop_cap = 1;
        let orch = OrchestratorConfig {
            heartbeat: SimDuration::from_millis(50),
            naive_ticking: naive,
            ..Default::default()
        };
        let mut k = KubeKnots::new(cluster_cfg, Box::new(knots_sched::pp::CbpPp::new()), orch)
            .with_chaos(ChaosEngine::new(plan()));
        let report = k.run_schedule(&schedule);
        (knots_analyzer::report_digest(&report), report.faults.gave_up)
    };
    let naive = run(true);
    assert!(naive.1 > 0, "scenario must actually abandon crash-looping pods (gave_up = 0)");
    let fast = run(false);
    assert_eq!(fast, naive, "GaveUp terminal path diverged from naive ticking");
}

mod event_interleavings {
    //! Property: for *arbitrary* event interleavings — random seeds,
    //! off-grid heartbeat periods, durations and fault intensities — the
    //! event queue replays the oracle bit for bit, all the way down to
    //! the raw telemetry: every retained TSDB node sample, every node's
    //! energy and the whole cluster and TSDB state must be bitwise
    //! identical at the matching end-of-run grid point, not just the
    //! digested report. The oracle steps and probes every node every tick;
    //! the event queue skips idle nodes and settles them lazily.

    use knots_chaos::{gen, ChaosEngine, GenConfig};
    use knots_core::config::OrchestratorConfig;
    use knots_core::experiment::{scheduler_by_name, CLUSTER_SCHEDULERS};
    use knots_core::orchestrator::KubeKnots;
    use knots_sim::cluster::ClusterConfig;
    use knots_sim::ids::NodeId;
    use knots_sim::metrics::{GpuSample, Metric};
    use knots_sim::time::SimDuration;
    use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator};
    use knots_workloads::AppMix;
    use proptest::prelude::*;

    /// One leg's inputs.
    #[derive(Debug, Clone, Copy)]
    struct Leg {
        scheduler: &'static str,
        mix: AppMix,
        nodes: usize,
        seed: u64,
        hb_ms: u64,
        secs: u64,
        faults_per_minute: f64,
        /// Idle time before an empty node auto-sleeps, where the scheduler
        /// allows it.
        auto_sleep: Option<SimDuration>,
    }

    /// Report digest, energy bits (total, then per node), per-node
    /// `(at, metric bits)` samples, and the FNV digest of the serialized
    /// cluster and TSDB state.
    type LegResult = (u64, Vec<u64>, Vec<Vec<(u64, [u64; 5])>>, u64);

    /// Run one leg and return its [`LegResult`].
    fn run_leg(naive: bool, leg: Leg) -> LegResult {
        let duration = SimDuration::from_secs(leg.secs);
        let schedule = LoadGenerator::generate(leg.mix, &LoadGenConfig::new(duration, leg.seed));
        let mut cluster_cfg = ClusterConfig::homogeneous(leg.nodes, knots_sim::config::TESTBED_GPU);
        cluster_cfg.auto_sleep_after = leg.auto_sleep;
        let orch = OrchestratorConfig {
            heartbeat: SimDuration::from_millis(leg.hb_ms),
            naive_ticking: naive,
            ..Default::default()
        };
        let scheduler = scheduler_by_name(leg.scheduler).unwrap();
        let mut k = KubeKnots::new(cluster_cfg, scheduler, orch);
        if leg.faults_per_minute > 0.0 {
            let plan = gen::generate(&GenConfig {
                seed: leg.seed ^ 0x51ab,
                nodes: leg.nodes,
                duration,
                faults_per_minute: leg.faults_per_minute,
            });
            k = k.with_chaos(ChaosEngine::new(plan));
        }
        let report = k.run_schedule(&schedule);
        let now = k.cluster().now();
        let window = SimDuration::from_secs(leg.secs + 3600);
        let samples = (0..leg.nodes)
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
        let mut energy = vec![report.energy_joules.to_bits()];
        energy.extend(k.cluster().nodes().iter().map(|n| n.energy().joules().to_bits()));
        let c = serde_json::to_string(&k.cluster().snapshot_state()).unwrap();
        let t = serde_json::to_string(&k.tsdb().snapshot_state()).unwrap();
        let state = knots_recovery::fnv1a(c.as_bytes()) ^ knots_recovery::fnv1a(t.as_bytes());
        (knots_analyzer::report_digest(&report), energy, samples, state)
    }

    fn assert_replays(leg: Leg) -> Result<(), TestCaseError> {
        let naive = run_leg(true, leg);
        let event = run_leg(false, leg);
        prop_assert_eq!(naive.0, event.0, "report digest diverged: {:?}", leg);
        prop_assert_eq!(&naive.1, &event.1, "energy diverged: {:?}", leg);
        prop_assert_eq!(&naive.2, &event.2, "TSDB node samples diverged: {:?}", leg);
        prop_assert_eq!(naive.3, event.3, "cluster or TSDB state diverged: {:?}", leg);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        #[test]
        fn event_queue_replays_oracle_tsdb_and_energy_bit_identically(
            seed in 0u64..1_000_000,
            hb_ms in 10u64..200,   // deliberately not tick-aligned
            secs in 5u64..15,
            faulty in proptest::bool::ANY,
        ) {
            let fpm = if faulty { 6.0 } else { 0.0 };
            assert_replays(Leg {
                scheduler: "CBP+PP",
                mix: AppMix::Mix2,
                nodes: 4,
                seed,
                hb_ms,
                secs,
                faults_per_minute: fpm,
                auto_sleep: None,
            })?;
        }

        /// Mostly-idle clusters: 12-16 nodes under the light mixes, where
        /// most node-ticks fall on nodes hosting nothing, for every cluster
        /// scheduler. Uniform and Res-Ag let empty nodes auto-sleep after
        /// half a second; CBP keeps every node awake, and PP sleeps and
        /// wakes nodes itself.
        #[test]
        fn event_queue_replays_oracle_on_mostly_idle_clusters(
            seed in 0u64..1_000_000,
            scheduler in 0usize..4,
            mix3 in proptest::bool::ANY,
            nodes in 12usize..17,
            hb_ms in prop_oneof![Just(10u64), 10u64..120],
            secs in 5u64..15,
        ) {
            assert_replays(Leg {
                scheduler: CLUSTER_SCHEDULERS[scheduler],
                mix: if mix3 { AppMix::Mix3 } else { AppMix::Mix2 },
                nodes,
                seed,
                hb_ms,
                secs,
                faults_per_minute: 0.0,
                auto_sleep: Some(SimDuration::from_millis(500)),
            })?;
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
