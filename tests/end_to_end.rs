//! Cross-crate integration tests: full orchestrated runs through every
//! scheduler, checking the invariants every run must satisfy and the
//! qualitative orderings the paper reports.

use kube_knots::core::experiment::{
    run_mix, scheduler_by_name, ExperimentConfig, CLUSTER_SCHEDULERS,
};
use kube_knots::core::metrics::RunReport;
use kube_knots::sim::time::SimDuration;
use kube_knots::workloads::AppMix;

fn short_cfg(secs: u64) -> ExperimentConfig {
    ExperimentConfig { duration: SimDuration::from_secs(secs), seed: 1234, ..Default::default() }
}

fn check_invariants(r: &RunReport) {
    assert!(r.completed <= r.submitted, "{}: completed > submitted", r.scheduler);
    assert!(r.energy_joules > 0.0, "{}: no energy recorded", r.scheduler);
    assert_eq!(r.node_util_series.len(), 10, "{}: ten nodes expected", r.scheduler);
    for s in &r.node_util_series {
        assert!(
            s.iter().all(|&u| (0.0..=100.0).contains(&u)),
            "{}: util out of range",
            r.scheduler
        );
    }
    assert!(
        r.lc_violations <= r.lc_completed + (r.submitted - r.completed),
        "{}: more violations than queries",
        r.scheduler
    );
    // JCT stats are internally consistent.
    for jct in [&r.batch_jct, &r.lc_latency, &r.all_jct] {
        if jct.count > 0 {
            assert!(jct.median <= jct.p99 + 1e-9 && jct.p99 <= jct.max + 1e-9);
            assert!(jct.avg <= jct.max + 1e-9);
        }
    }
}

#[test]
fn every_scheduler_completes_a_light_mix() {
    for name in CLUSTER_SCHEDULERS {
        let r = run_mix(scheduler_by_name(name).unwrap(), AppMix::Mix3, &short_cfg(45));
        check_invariants(&r);
        assert!(r.completed > 0, "{name}: nothing completed");
        assert_eq!(r.scheduler, name);
    }
}

#[test]
fn gpu_aware_schedulers_beat_res_ag_on_qos() {
    // The paper's headline QoS ordering on the loaded mix (Fig. 10a).
    let cfg = short_cfg(90);
    let resag = run_mix(scheduler_by_name("Res-Ag").unwrap(), AppMix::Mix1, &cfg);
    let cbp = run_mix(scheduler_by_name("CBP").unwrap(), AppMix::Mix1, &cfg);
    let pp = run_mix(scheduler_by_name("CBP+PP").unwrap(), AppMix::Mix1, &cfg);
    check_invariants(&resag);
    check_invariants(&cbp);
    check_invariants(&pp);
    assert!(
        resag.violations_per_kilo() > 5.0 * cbp.violations_per_kilo().max(1.0),
        "Res-Ag {} vs CBP {}",
        resag.violations_per_kilo(),
        cbp.violations_per_kilo()
    );
    assert!(
        resag.violations_per_kilo() > 5.0 * pp.violations_per_kilo().max(1.0),
        "Res-Ag {} vs PP {}",
        resag.violations_per_kilo(),
        pp.violations_per_kilo()
    );
    // Res-Ag crashes; the Knots-aware policies must not.
    assert!(resag.crashes > 0, "Res-Ag should exhibit capacity violations");
    assert_eq!(cbp.crashes, 0, "CBP must be crash-free");
    assert_eq!(pp.crashes, 0, "CBP+PP must be crash-free");
}

#[test]
fn consolidation_saves_energy_vs_uniform() {
    // Fig. 11a: CBP+PP draws less energy than the exclusive baseline.
    let cfg = short_cfg(90);
    let uniform = run_mix(scheduler_by_name("Uniform").unwrap(), AppMix::Mix1, &cfg);
    let pp = run_mix(scheduler_by_name("CBP+PP").unwrap(), AppMix::Mix1, &cfg);
    assert!(
        pp.energy_joules < uniform.energy_joules,
        "PP {} J vs Uniform {} J",
        pp.energy_joules,
        uniform.energy_joules
    );
}

#[test]
fn pp_consolidation_raises_active_utilization() {
    // Fig. 9: per-active-GPU utilization under CBP+PP exceeds Uniform's.
    let cfg = short_cfg(90);
    let uniform = run_mix(scheduler_by_name("Uniform").unwrap(), AppMix::Mix1, &cfg);
    let pp = run_mix(scheduler_by_name("CBP+PP").unwrap(), AppMix::Mix1, &cfg);
    assert!(
        pp.mean_active_util() > uniform.mean_active_util(),
        "PP {:.1}% vs Uniform {:.1}%",
        pp.mean_active_util(),
        uniform.mean_active_util()
    );
}

#[test]
fn different_seeds_differ() {
    let a = run_mix(scheduler_by_name("Res-Ag").unwrap(), AppMix::Mix2, &short_cfg(30));
    let mut cfg2 = short_cfg(30);
    cfg2.seed = 99;
    let b = run_mix(scheduler_by_name("Res-Ag").unwrap(), AppMix::Mix2, &cfg2);
    assert_ne!(a.submitted, b.submitted, "different seeds should draw different workloads");
}
