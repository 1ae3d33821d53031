//! Scale sweep: 32 → 1,024 nodes.
//!
//! Not a paper figure — the paper stops at a 10-node testbed and a 256-GPU
//! simulation. For each node count the sweep runs one seeded CBP+PP Mix2
//! window and records wall time, the heartbeat-round tail latency and the
//! report digest. `experiments scale --json DIR` writes the table as JSON.

use crate::render::{f, Table};
use knots_core::experiment::{mix_inputs, scheduler_by_name, ExperimentConfig};
use knots_core::{report_digest, KubeKnots};
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;
use std::time::Instant;

/// One node-count point of the sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Worker-node count of this point.
    pub nodes: usize,
    /// Wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// Heartbeat-round tail: the p99 of the loop's
    /// `knots_heartbeat_latency_us` histogram (snapshot + decide + apply of
    /// one built scheduling round), microseconds. CBP+PP builds every
    /// round, so this counts every heartbeat of the run.
    pub round_p99_us: f64,
    /// Report digest of the run.
    pub digest: u64,
}

/// Run one node-count point.
pub fn run_point(nodes: usize, secs: u64, seed: u64) -> ScalePoint {
    let cfg = ExperimentConfig {
        nodes,
        duration: SimDuration::from_secs(secs),
        seed,
        ..Default::default()
    };
    let t0 = Instant::now();
    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg);
    let mut k = KubeKnots::new(
        cluster_cfg,
        scheduler_by_name("CBP+PP").expect("known scheduler"),
        cfg.orch,
    );
    let report = k.run_schedule(&schedule);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let round_p99_us = k
        .obs()
        .metrics
        .histogram("knots_heartbeat_latency_us", &[])
        .and_then(|h| h.percentile(0.99))
        .unwrap_or(0.0);
    ScalePoint { nodes, wall_ms, round_p99_us, digest: report_digest(&report) }
}

/// Sweep the node axis. Points run in order (the 1,024-node point is the
/// long pole; running it last keeps early feedback flowing).
pub fn run(node_counts: &[usize], secs: u64, seed: u64) -> Vec<ScalePoint> {
    node_counts.iter().map(|&n| run_point(n, secs, seed)).collect()
}

/// Render the sweep.
pub fn table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "Scale sweep — serial stepping, wall time and heartbeat-round p99",
        &["nodes", "wall ms", "rnd p99 us", "digest"],
    );
    for p in points {
        t.row(vec![
            p.nodes.to_string(),
            f(p.wall_ms, 0),
            f(p.round_p99_us, 0),
            format!("{:#018x}", p.digest),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_keeps_its_digest_and_is_timed() {
        // The first point of `experiments scale --quick` (32 nodes, 20 s,
        // seed 42), with its digest pinned.
        let p = run_point(32, 20, 42);
        assert_eq!(p.digest, 0x236f_9f63_bdbc_45fd, "32-node digest drifted");
        assert!(p.wall_ms > 0.0);
        assert!(p.round_p99_us > 0.0, "heartbeat-latency histogram missing");
        assert!(table(&[p]).render().contains("0x236f9f63bdbc45fd"));
    }
}
