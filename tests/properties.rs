//! Property-based tests over the simulator's core invariants: whatever a
//! (randomized) scheduler does, the cluster must preserve conservation and
//! capacity properties.

use kube_knots::sim::prelude::*;
use proptest::prelude::*;

/// A random but valid pod spec.
fn arb_spec() -> impl Strategy<Value = PodSpec> {
    (
        0.05f64..1.0,        // sm
        64.0f64..12_000.0,   // mem
        0.05f64..5.0,        // work secs
        0.5f64..1.8,         // request factor (under- and over-stated)
        proptest::bool::ANY, // greedy
        proptest::bool::ANY, // latency critical
    )
        .prop_map(|(sm, mem, work, reqf, greedy, lc)| {
            let profile = ResourceProfile::constant(sm, mem, work);
            let base = if lc {
                PodSpec::latency_critical("p", profile)
            } else {
                PodSpec::batch("p", profile)
            };
            base.with_request_mb((mem * reqf).min(16_384.0)).with_greedy_memory(greedy)
        })
}

/// Random action script entry: (pod index, node index, kind).
#[derive(Debug, Clone)]
enum Op {
    Place(usize, usize),
    Resize(usize, f64),
    Preempt(usize),
    Resume(usize, usize),
    Step,
}

fn arb_op(pods: usize, nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0..pods), (0..nodes)).prop_map(|(p, n)| Op::Place(p, n)),
        ((0..pods), 32.0f64..16_384.0).prop_map(|(p, m)| Op::Resize(p, m)),
        (0..pods).prop_map(Op::Preempt),
        ((0..pods), (0..nodes)).prop_map(|(p, n)| Op::Resume(p, n)),
        Just(Op::Step),
        Just(Op::Step),
        Just(Op::Step),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whatever sequence of (possibly invalid) actions is applied, the
    /// cluster never reports memory above capacity, never loses pods, and
    /// keeps energy monotonically increasing.
    #[test]
    fn cluster_invariants_under_random_drivers(
        specs in proptest::collection::vec(arb_spec(), 1..12),
        ops in proptest::collection::vec(arb_op(12, 3), 1..80),
    ) {
        let mut cluster = Cluster::new(ClusterConfig::homogeneous(3, GpuModel::P100));
        let ids: Vec<PodId> =
            specs.into_iter().map(|s| cluster.submit(s, SimTime::ZERO)).collect();
        let mut prev_energy = 0.0;
        for op in ops {
            // Errors are fine (invalid transitions must be *rejected*, not
            // corrupt state); panics are not.
            match op {
                Op::Place(p, n) => {
                    let _ = cluster.place(*ids.get(p % ids.len()).unwrap(), NodeId(n));
                }
                Op::Resize(p, m) => {
                    let _ = cluster.resize(*ids.get(p % ids.len()).unwrap(), m);
                }
                Op::Preempt(p) => {
                    let _ = cluster.preempt(*ids.get(p % ids.len()).unwrap());
                }
                Op::Resume(p, n) => {
                    let _ = cluster.resume(*ids.get(p % ids.len()).unwrap(), NodeId(n));
                }
                Op::Step => cluster.step(SimDuration::from_millis(10)),
            }
            // Capacity: measured memory never exceeds the device.
            for node in cluster.nodes() {
                prop_assert!(node.last_sample().mem_used_mb <= 16_384.0 + 1e-6);
                prop_assert!(node.last_sample().sm_util <= 1.0 + 1e-9);
            }
            // Energy is monotone.
            let e = cluster.total_energy_joules();
            prop_assert!(e >= prev_energy - 1e-9);
            prev_energy = e;
            // Conservation: every pod is exactly somewhere.
            let mut found = 0usize;
            for id in &ids {
                if cluster.pod(*id).is_some() {
                    found += 1;
                }
            }
            prop_assert_eq!(found, ids.len(), "pods lost or duplicated");
        }
    }

    /// Profiles: quantiles are monotone in q and bounded by the peak.
    #[test]
    fn profile_quantiles_are_monotone(
        phases in proptest::collection::vec(
            (0.01f64..5.0, 0.0f64..1.0, 1.0f64..16_000.0), 1..12),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let profile = ResourceProfile::new(
            phases
                .into_iter()
                .map(|(w, sm, mem)| Phase::new(w, Usage::new(sm, mem, 0.0, 0.0)))
                .collect(),
        );
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(profile.mem_percentile(lo) <= profile.mem_percentile(hi) + 1e-9);
        prop_assert!(profile.mem_percentile(1.0) <= profile.peak_demand().mem_mb + 1e-9);
        prop_assert!(profile.mean_mem_mb() <= profile.peak_demand().mem_mb + 1e-9);
        // demand_at stays within the phase envelope.
        let total = profile.total_work();
        for i in 0..20 {
            let d = profile.demand_at(total * i as f64 / 19.0);
            prop_assert!(d.mem_mb <= profile.peak_demand().mem_mb + 1e-9);
            prop_assert!(d.sm_frac <= profile.peak_demand().sm_frac + 1e-9);
        }
    }

    /// A solo pod's completion time equals its work (no contention, full
    /// speed), up to one tick of quantization.
    #[test]
    fn solo_pod_runs_at_profile_speed(
        sm in 0.05f64..1.0,
        mem in 64.0f64..15_000.0,
        work_ms in 50u64..2_000,
    ) {
        let mut cfg = ClusterConfig::homogeneous(1, GpuModel::P100);
        cfg.overheads.cold_start_pull = SimDuration::ZERO;
        let mut cluster = Cluster::new(cfg);
        let id = cluster.submit(
            PodSpec::batch("solo", ResourceProfile::constant(sm, mem, work_ms as f64 / 1000.0)),
            SimTime::ZERO,
        );
        cluster.place(id, NodeId(0)).unwrap();
        let tick = SimDuration::from_millis(10);
        let mut ticks = 0u64;
        while !cluster.pod(id).unwrap().state().is_completed() {
            cluster.step(tick);
            ticks += 1;
            prop_assert!(ticks < 10_000, "runaway");
        }
        let elapsed_ms = ticks * 10;
        prop_assert!(elapsed_ms >= work_ms, "finished early: {elapsed_ms} < {work_ms}");
        prop_assert!(elapsed_ms <= work_ms + 10, "finished late: {elapsed_ms} vs {work_ms}");
    }
}

/// A cluster-level action for the idle-skipping equivalence property.
#[derive(Debug, Clone)]
enum NodeOp {
    Pod(Op),
    Migrate(usize, usize),
    Sleep(usize),
    Wake(usize),
    Fail(usize),
    Recover(usize),
    Degrade(usize, f64),
    Settle,
}

fn arb_node_op(pods: usize, nodes: usize) -> impl Strategy<Value = NodeOp> {
    prop_oneof![
        arb_op(pods, nodes).prop_map(NodeOp::Pod),
        arb_op(pods, nodes).prop_map(NodeOp::Pod),
        arb_op(pods, nodes).prop_map(NodeOp::Pod),
        ((0..pods), (0..nodes)).prop_map(|(p, n)| NodeOp::Migrate(p, n)),
        (0..nodes).prop_map(NodeOp::Sleep),
        (0..nodes).prop_map(NodeOp::Wake),
        (0..nodes).prop_map(NodeOp::Fail),
        (0..nodes).prop_map(NodeOp::Recover),
        ((0..nodes), 0.0f64..0.6).prop_map(|(n, f)| NodeOp::Degrade(n, f)),
        Just(NodeOp::Settle),
        Just(NodeOp::Pod(Op::Step)),
        Just(NodeOp::Pod(Op::Step)),
        Just(NodeOp::Pod(Op::Step)),
        Just(NodeOp::Pod(Op::Step)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Idle skipping is invisible: a cluster stepped with
    /// `Cluster::step_active` and probed with `probe::sample_active` shows
    /// the same per-node samples as one that steps and probes every node
    /// every tick, its refilled aggregator snapshot serializes like the
    /// eager one's, and once settled its cluster and TSDB state serialize
    /// byte-identically — under every action, node faults included, with
    /// auto-sleep on.
    #[test]
    fn idle_skipping_matches_stepping_every_node(
        specs in proptest::collection::vec(arb_spec(), 1..10),
        ops in proptest::collection::vec(arb_node_op(10, 4), 1..200),
    ) {
        use kube_knots::telemetry::{probe, ClusterSnapshot, TimeSeriesDb, UtilizationAggregator};
        let mut cfg = ClusterConfig::homogeneous(4, GpuModel::P100);
        cfg.auto_sleep_after = Some(SimDuration::from_millis(50));
        cfg.overheads.wake_delay = SimDuration::from_millis(30);
        cfg.overheads.cold_start_pull = SimDuration::from_millis(20);
        let (mut eager, mut lazy) = (Cluster::new(cfg.clone()), Cluster::new(cfg));
        let (eager_db, lazy_db) = (TimeSeriesDb::default(), TimeSeriesDb::default());
        let hb = SimDuration::from_millis(10);
        let window = SimDuration::from_secs(5);
        let mut agg = UtilizationAggregator::new(hb, window);
        let mut reused = ClusterSnapshot::default();
        let ids: Vec<PodId> = specs
            .into_iter()
            .map(|s| {
                eager.submit(s.clone(), SimTime::ZERO);
                lazy.submit(s, SimTime::ZERO)
            })
            .collect();
        let pod = |p: usize| ids[p % ids.len()];
        let state = |c: &Cluster, db: &TimeSeriesDb| {
            (
                serde_json::to_string(&c.snapshot_state()).unwrap(),
                serde_json::to_string(&db.snapshot_state()).unwrap(),
            )
        };
        for op in ops {
            for c in [&mut eager, &mut lazy] {
                // Errors are fine; both clusters must make the same ones.
                let _ = match op {
                    NodeOp::Pod(Op::Place(p, n)) => c.place(pod(p), NodeId(n)),
                    NodeOp::Pod(Op::Resize(p, m)) => c.resize(pod(p), m),
                    NodeOp::Pod(Op::Preempt(p)) => c.preempt(pod(p)),
                    NodeOp::Pod(Op::Resume(p, n)) => c.resume(pod(p), NodeId(n)),
                    NodeOp::Migrate(p, n) => c.migrate(pod(p), NodeId(n)),
                    NodeOp::Sleep(n) => c.sleep_node(NodeId(n)),
                    NodeOp::Wake(n) => c.wake_node(NodeId(n)),
                    NodeOp::Fail(n) => c.fail_node(NodeId(n)).map(|_| ()),
                    NodeOp::Recover(n) => c.recover_node(NodeId(n)),
                    NodeOp::Degrade(n, f) => c.degrade_node(NodeId(n), f),
                    NodeOp::Pod(Op::Step) | NodeOp::Settle => Ok(()),
                };
            }
            match op {
                NodeOp::Pod(Op::Step) => {
                    eager.step(hb);
                    probe::sample_cluster_with(&eager, &eager_db, |_, s| Some(s));
                    lazy.step_active(hb);
                    probe::sample_active(&mut lazy, &lazy_db);
                }
                NodeOp::Settle => {
                    probe::settle_idle(&mut lazy, &lazy_db);
                    prop_assert_eq!(state(&eager, &eager_db), state(&lazy, &lazy_db));
                }
                _ => {}
            }
            for n in eager.nodes() {
                let (a, b) = (n.last_sample(), lazy.node_sample(n.id()));
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "node {} sample", n.id().0);
            }
            agg.query_into(&lazy, &mut reused);
            let fresh = agg.query(&eager);
            prop_assert_eq!(
                serde_json::to_string(&reused).unwrap(),
                serde_json::to_string(&fresh).unwrap()
            );
        }
        probe::settle_idle(&mut lazy, &lazy_db);
        prop_assert_eq!(state(&eager, &eager_db), state(&lazy, &lazy_db));
    }
}
