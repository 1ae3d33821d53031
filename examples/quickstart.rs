//! Quickstart: build a ten-node GPU cluster, generate a Table I workload
//! mix, schedule it with the full Kube-Knots policy (CBP+PP), and print the
//! headline numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout, reason = "an example is a program, not library code")]

use kube_knots::core::prelude::*;

fn main() {
    // 1. A workload: App-Mix-2 (medium load, medium burstiness) over two
    //    simulated minutes, deterministic under the seed.
    let cfg =
        ExperimentConfig { duration: SimDuration::from_secs(120), seed: 7, ..Default::default() };

    // 2. The scheduler under test: CBP+PP, the paper's full policy
    //    (80th-percentile harvesting + Spearman anti-co-location + AR(1)
    //    peak prediction + consolidation).
    let report = run_mix(Box::new(CbpPp::new()), AppMix::Mix2, &cfg);

    // 3. What happened.
    println!("scheduler        : {}", report.scheduler);
    println!("pods submitted   : {}", report.submitted);
    println!("pods completed   : {}", report.completed);
    println!("OOM crashes      : {}", report.crashes);
    let (p50, p90, p99, max) = report.active_quartet();
    println!("active GPU util  : p50 {p50:.0}%  p90 {p90:.0}%  p99 {p99:.0}%  max {max:.0}%");
    println!(
        "inference QoS    : {} violations in {} queries ({:.1} per kilo)",
        report.lc_violations,
        report.lc_completed,
        report.violations_per_kilo()
    );
    println!(
        "batch JCT        : avg {:.1}s  median {:.1}s  p99 {:.1}s",
        report.batch_jct.avg, report.batch_jct.median, report.batch_jct.p99
    );
    println!("GPU energy       : {:.1} Wh", report.energy_joules / 3600.0);

    assert!(report.completed > 0, "the run must make progress");
}
