//! The §V-C deep-learning comparison: schedule 520 DL-training + 1400
//! DL-inference tasks on a 256-GPU simulated cluster under Res-Ag,
//! Gandiva, Tiresias and CBP+PP, and print the Fig. 12 / Table IV rows
//! (JCTs normalized to CBP+PP, DLI QoS violations per hour).
//!
//! ```sh
//! cargo run --release --example dnn_schedulers [--smoke]
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::expect_used,
    clippy::disallowed_types,
    reason = "an example is a program, not library code"
)]

use kube_knots::core::experiment::{run_dnn, scheduler_by_name, DNN_SCHEDULERS};
use kube_knots::core::metrics::RunReport;
use kube_knots::workloads::dnn::DnnWorkloadConfig;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workload = if smoke { DnnWorkloadConfig::smoke() } else { DnnWorkloadConfig::compressed() };
    println!(
        "DNN workload: {} DLT + {} DLI over {:.0}s (time scale {:.4})",
        workload.dlt_jobs,
        workload.dli_tasks,
        workload.duration.as_secs_f64(),
        workload.time_scale
    );

    let mut reports: Vec<RunReport> = Vec::new();
    for name in DNN_SCHEDULERS {
        let t0 = std::time::Instant::now();
        let report = run_dnn(scheduler_by_name(name).expect("known"), &workload);
        eprintln!("   [{name} done in {:.1?}]", t0.elapsed());
        reports.push(report);
    }
    let base = reports.iter().find(|r| r.scheduler == "CBP+PP").expect("CBP+PP present").clone();
    let hours = base.duration.as_secs_f64() / 3600.0 / workload.time_scale;

    println!("\nTable IV — JCT normalized to CBP+PP (avg / median / p99):");
    for r in &reports {
        let (avg, med, p99) = r.all_jct.normalized_to(&base.all_jct);
        println!(
            "{:<9} {:>5.2}x {:>5.2}x {:>5.2}x   (done {}/{}, preempt {}, migr {}, crash {})",
            r.scheduler,
            avg,
            med,
            p99,
            r.completed,
            r.submitted,
            r.preemptions,
            r.migrations,
            r.crashes
        );
    }
    println!("\nFig. 12b — DLI QoS violations per (uncompressed) hour:");
    for r in &reports {
        println!(
            "{:<9} {:>7.1} viol/hr  ({} of {} queries; p99 latency {:.0} ms)",
            r.scheduler,
            r.lc_violations as f64 / hours,
            r.lc_violations,
            r.lc_completed,
            r.lc_latency.p99 * 1000.0
        );
    }
}
