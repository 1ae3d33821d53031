//! Harvesting up close: a single GPU node, one over-provisioned batch pod,
//! and the CBP resize loop reclaiming the spare memory so an inference
//! query can co-locate — the core Kube-Knots mechanism (§IV-C) on the
//! smallest possible stage.
//!
//! The demo drives the orchestrator manually so every resize and placement
//! is visible tick by tick.
//!
//! ```sh
//! cargo run --release --example harvest_demo
//! ```

#![allow(clippy::print_stdout, reason = "an example is a program, not library code")]

use kube_knots::core::prelude::*;
use kube_knots::sim::events::EventKind;
use kube_knots::workloads::djinn::InferenceService;
use kube_knots::workloads::rodinia::RodiniaApp;

fn main() {
    // One P100 node, orchestrated by CBP+PP.
    let mut cluster_cfg = ClusterConfig::homogeneous(1, GpuModel::P100);
    cluster_cfg.prewarm_images =
        vec![RodiniaApp::MummerGpu.image(), InferenceService::Face.image()];
    let mut knots =
        KubeKnots::new(cluster_cfg, Box::new(CbpPp::new()), OrchestratorConfig::default());

    // A stream of mummergpu jobs that *request* far more than they use
    // (80% overstatement), plus face-recognition queries arriving behind
    // them. Without harvesting, the requests alone would exhaust the GPU.
    let mut schedule = Vec::new();
    for i in 0..6 {
        let mut spec = RodiniaApp::MummerGpu.pod_spec(0.6, 0.8);
        spec.name = format!("mummergpu-{i}");
        schedule.push(kube_knots::workloads::ScheduledPod { at: SimTime::from_secs(i * 8), spec });
    }
    for i in 0..40 {
        let mut spec = InferenceService::Face.pod_spec(1, true);
        spec.name = "face".to_string();
        let _ = i;
        schedule.push(kube_knots::workloads::ScheduledPod {
            at: SimTime::from_millis(2_000 + i * 900),
            spec,
        });
    }
    schedule.sort_by_key(|s| s.at);

    let report = knots.run_schedule(&schedule);

    // Narrate the interesting events.
    let mut resizes_down = 0usize;
    let mut resizes_up = 0usize;
    let mut growth_configs = 0usize;
    for e in knots.cluster().events() {
        match e.kind {
            EventKind::Resized { from_mb, to_mb } if to_mb < from_mb => {
                if resizes_down < 5 {
                    println!(
                        "[{:>8}] harvest: {} {:.0} MB -> {:.0} MB",
                        e.at,
                        e.pod.map(|p| p.to_string()).unwrap_or_default(),
                        from_mb,
                        to_mb
                    );
                }
                resizes_down += 1;
            }
            EventKind::Resized { .. } => resizes_up += 1,
            _ => {}
        }
        if matches!(e.kind, EventKind::Submitted) {
            // count growth configurations separately below
        }
    }
    for id in knots.cluster().completed_pods().map(|(id, _)| id) {
        if knots.cluster().pod(id).is_some_and(|p| p.spec().allow_growth) {
            growth_configs += 1;
        }
    }

    println!("---");
    println!("pods completed          : {}/{}", report.completed, report.submitted);
    println!("harvest resizes (down)  : {resizes_down}");
    println!("grow-back resizes (up)  : {resizes_up}");
    println!("TF pods set allow_growth: {growth_configs}");
    println!("OOM crashes             : {}", report.crashes);
    println!(
        "face query latency      : median {:.0} ms, p99 {:.0} ms ({} violations)",
        report.lc_latency.median * 1000.0,
        report.lc_latency.p99 * 1000.0,
        report.lc_violations
    );

    assert!(resizes_down > 0, "harvesting must have fired");
    assert!(growth_configs > 0, "greedy queries must have been configured");
}
