//! Heterogeneous pool demo: the Knots design figure (Fig. 5) shows a mixed
//! P100 / M40 / V100 / K80 fleet behind one head node. This example runs
//! App-Mix-2 under CBP+PP on such a pool and reports per-device-model
//! throughput — faster devices complete more work per unit of occupancy.
//!
//! ```sh
//! cargo run --release --example heterogeneous
//! ```

#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::disallowed_types,
    reason = "an example is a program, not library code"
)]

use kube_knots::core::prelude::*;
use kube_knots::workloads::loadgen::{LoadGenConfig, LoadGenerator};
use std::collections::HashMap;

fn main() {
    let duration = SimDuration::from_secs(120);
    let schedule = LoadGenerator::generate(AppMix::Mix2, &LoadGenConfig::new(duration, 21));

    let mut cluster_cfg = ClusterConfig::heterogeneous(10);
    cluster_cfg.prewarm_images = AppMix::Mix2.lc_services().iter().map(|s| s.image()).collect();
    let mut knots =
        KubeKnots::new(cluster_cfg, Box::new(CbpPp::new()), OrchestratorConfig::default());
    let report = knots.run_schedule(&schedule);

    // Per-model completion accounting from the event log.
    let mut per_model: HashMap<String, (usize, f64)> = HashMap::new(); // (completions, busy-samples)
    for e in knots.cluster().events() {
        if let kube_knots::sim::events::EventKind::Completed { node } = e.kind {
            let model = knots.cluster().node(node).unwrap().gpu().spec().model.to_string();
            per_model.entry(model).or_default().0 += 1;
        }
    }
    for node in knots.cluster().nodes() {
        let model = node.gpu().spec().model.to_string();
        per_model.entry(model).or_default().1 += node.energy().joules();
    }

    println!("pods completed: {}/{}", report.completed, report.submitted);
    println!("QoS violations: {:.1} per kilo query", report.violations_per_kilo());
    println!("\nper device model:");
    let mut models: Vec<_> = per_model.iter().collect();
    models.sort_by_key(|(m, _)| m.to_string());
    for (model, (completions, joules)) in models {
        println!(
            "  {model:<5} completions {completions:>5}   energy {:>8.1} kJ   ({:.2} completions/kJ)",
            joules / 1000.0,
            *completions as f64 / (joules / 1000.0).max(1e-9)
        );
    }

    assert!(report.completed > 0);
}
