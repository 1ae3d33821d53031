//! The benchmark's own checks: every workload runs at a tiny size with the
//! fidelity gate passing, a perturbed reference fails the gate, layer self
//! times add up to the traced wall time, and every metric the benchmark
//! prints is declared in `BENCHMARK.json`.

use knots_core::experiment::{run_mix, scheduler_by_name, ExperimentConfig};
use perfbench::workload::{run_untraced, Input, Size, Workload, DEFAULT_SEED};
use perfbench::{check_reference, per_layer_names, run, Reference, END_TO_END};

/// A seed no reference digest covers.
const HELD_OUT: u64 = 7;

fn metric(o: &perfbench::Outcome, name: &str) -> f64 {
    o.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v).expect("metric is printed")
}

/// Failures other than the missing reference: tiny runs have no pinned
/// digests, and unseeded legs are checked against one on every seed.
fn unexpected(o: &perfbench::Outcome) -> Vec<&String> {
    o.failures.iter().filter(|f| !f.ends_with("no reference digest")).collect()
}

#[test]
fn tiny_runs_of_every_workload_pass_the_fidelity_gate() {
    for w in Workload::ALL {
        let untraced = run(w, HELD_OUT, 0.0, false, Size::Tiny, &Reference::new());
        assert!(unexpected(&untraced).is_empty(), "{w:?}: {:?}", untraced.failures);
        assert_eq!(untraced.metrics.len(), END_TO_END.len());
        for (name, v, _) in &untraced.metrics {
            assert!(*v > 0.0, "{w:?}: {name} = {v}");
        }
        let traced = run(w, HELD_OUT, 0.0, true, Size::Tiny, &Reference::new());
        assert!(unexpected(&traced).is_empty(), "{w:?}: {:?}", traced.failures);
        assert_eq!(traced.metrics.len(), per_layer_names().len());
    }
}

#[test]
fn untraced_legs_match_the_packaged_runner() {
    let legs = Workload::Testbed10.legs(HELD_OUT, Size::Tiny);
    let leg = legs.iter().find(|l| l.label == "CBP+PP/Mix2").expect("leg exists");
    let Input::Mix { mix, cfg } = leg.input else { panic!("testbed legs are app-mix legs") };
    let ecfg = ExperimentConfig {
        nodes: cfg.nodes,
        duration: cfg.duration,
        seed: cfg.seed,
        ..Default::default()
    };
    let packaged = run_mix(scheduler_by_name("CBP+PP").expect("known"), mix, &ecfg);
    let ours = run_untraced(leg, false).expect("leg runs");
    assert_eq!(ours.report_digest, knots_analyzer::report_digest(&packaged));
}

#[test]
fn a_perturbed_reference_digest_fails_the_gate() {
    // Record a tiny run's default-seed digests as the reference...
    let w = Workload::Testbed10;
    let first = run(w, DEFAULT_SEED, 0.0, false, Size::Tiny, &reference_of(w, &[]));
    let digests = first.digests.clone();
    assert!(!digests.is_empty());
    let exact = reference_of(w, &digests);
    assert!(run(w, DEFAULT_SEED, 0.0, false, Size::Tiny, &exact).failures.is_empty());

    // ...then flip one bit: the run must fail.
    let mut bad = digests.clone();
    bad[0].1 ^= 1;
    let perturbed = reference_of(w, &bad);
    let o = run(w, DEFAULT_SEED, 0.0, false, Size::Tiny, &perturbed);
    assert_eq!(o.failures.len(), 1, "{:?}", o.failures);
    assert!(!perfbench::result_json(&o).contains("\"correct\": true"));

    // A held-out seed has no reference for seeded legs...
    let legs = w.legs(HELD_OUT, Size::Tiny);
    assert!(check_reference(w, HELD_OUT, &legs, &bad, &perturbed).is_ok());
    // ...but unseeded legs are checked on every seed.
    let legs = Workload::Recovery4.legs(HELD_OUT, Size::Tiny);
    let digests: Vec<(String, u64)> = legs.iter().map(|l| (l.label.clone(), 1)).collect();
    let r = reference_of(Workload::Recovery4, &digests);
    assert!(check_reference(Workload::Recovery4, HELD_OUT, &legs, &digests, &r).is_ok());
    let mut off = digests.clone();
    off[2].1 = 2;
    assert!(check_reference(Workload::Recovery4, HELD_OUT, &legs, &off, &r).is_err());
}

fn reference_of(w: Workload, digests: &[(String, u64)]) -> Reference {
    let mut r = Reference::new();
    r.insert(w.name().to_string(), digests.iter().cloned().collect());
    r
}

#[test]
fn layer_self_times_and_the_remainder_add_up_to_the_traced_wall() {
    for w in Workload::ALL {
        let o = run(w, HELD_OUT, 0.0, true, Size::Tiny, &Reference::new());
        let wall = metric(&o, "trace.wall_s");
        let self_sum: f64 =
            o.metrics.iter().filter(|(n, _, _)| n.ends_with(".self_s")).map(|(_, v, _)| *v).sum();
        let unattributed = metric(&o, "trace.unattributed_share") * wall;
        assert!(wall > 0.0);
        assert!(unattributed >= 0.0, "{w:?}: negative remainder {unattributed}");
        assert!(
            (self_sum + unattributed - wall).abs() <= 1e-9 * wall.max(1.0),
            "{w:?}: {self_sum} + {unattributed} != {wall}"
        );
        assert!(
            unattributed / wall < 0.05,
            "{w:?}: {:.1}% of traced wall time unattributed",
            100.0 * unattributed / wall
        );
    }
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|a| a.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s =
                    |k: &str| m.get(k).and_then(|x| x.as_str()).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(declared("end_to_end"), e2e);
    let per_layer: Vec<(String, String)> =
        per_layer_names().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(declared("per_layer"), per_layer);
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(|a| a.as_array())
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name").to_string())
        .collect();
    assert_eq!(workloads, Workload::ALL.iter().map(|w| w.name().to_string()).collect::<Vec<_>>());

    // And a run prints exactly the declared names, in order.
    let o = run(Workload::Recovery4, HELD_OUT, 0.0, false, Size::Tiny, &Reference::new());
    let printed: Vec<(String, String)> =
        o.metrics.iter().map(|(n, _, u)| (n.clone(), u.to_string())).collect();
    assert_eq!(printed, e2e);
}
