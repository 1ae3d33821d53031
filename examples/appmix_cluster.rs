//! Run all four cluster schedulers over the Table I application mixes on
//! the ten-node P100 testbed and print the paper's headline comparison:
//! per-scheduler utilization percentiles, QoS violations per kilo-query,
//! crashes and normalized energy.
//!
//! ```sh
//! cargo run --release --example appmix_cluster [duration_secs] [mix]
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::expect_used,
    clippy::disallowed_types,
    reason = "an example is a program, not library code"
)]

use kube_knots::core::experiment::{
    run_mix, scheduler_by_name, ExperimentConfig, CLUSTER_SCHEDULERS,
};
use kube_knots::core::metrics::RunReport;
use kube_knots::sim::time::SimDuration;
use kube_knots::workloads::AppMix;

fn main() {
    let mut args = std::env::args().skip(1);
    let secs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let only_mix: Option<usize> = args.next().and_then(|a| a.parse().ok());

    let cfg = ExperimentConfig { duration: SimDuration::from_secs(secs), ..Default::default() };

    for mix in AppMix::ALL {
        if only_mix.is_some_and(|m| m != mix.id()) {
            continue;
        }
        println!("== {mix} ({}s window, seed {}) ==", secs, cfg.seed);
        let mut reports: Vec<RunReport> = Vec::new();
        for name in CLUSTER_SCHEDULERS {
            let sched = scheduler_by_name(name).expect("known scheduler");
            let t0 = std::time::Instant::now();
            let report = run_mix(sched, mix, &cfg);
            eprintln!("   [{name} done in {:.1?}]", t0.elapsed());
            reports.push(report);
        }
        let base_energy = reports
            .iter()
            .find(|r| r.scheduler == "Uniform")
            .map(|r| r.energy_joules)
            .unwrap_or(1.0);

        println!(
            "{:<9} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>9} {:>8}",
            "sched",
            "subm",
            "done",
            "a50%",
            "a90%",
            "a99%",
            "avg%",
            "viol/k",
            "crash",
            "energy",
            "lc_p99ms",
            "batchJCT"
        );
        for r in &reports {
            let (p50, p90, p99, _max) = r.active_quartet();
            println!(
                "{:<9} {:>6} {:>6} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>8.1} {:>7} {:>7.2} {:>9.0} {:>8.1}",
                r.scheduler,
                r.submitted,
                r.completed,
                p50,
                p90,
                p99,
                r.mean_active_util(),
                r.violations_per_kilo(),
                r.crashes,
                r.energy_joules / base_energy,
                r.lc_latency.p99 * 1000.0,
                r.batch_jct.avg,
            );
        }
        println!();
    }
}
