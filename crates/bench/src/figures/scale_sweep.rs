//! Scale sweep: one shard vs k shards, 32 → 1,024 nodes.
//!
//! Sharding partitions the TSDB locks and the schedulers' candidate sort
//! along contiguous node ranges; nodes always step serially. The sweep
//! checks that this costs nothing in fidelity and records what it costs in
//! time: for each node count it runs the same seeded CBP+PP mix twice —
//! once single-shard, once k-sharded — and records wall time,
//! heartbeat-round tail latency and whether the two report digests match.
//! They must, because candidate orders are k-way merges of per-shard
//! sorted runs and every cross-shard join is by index. `experiments scale
//! --json DIR` writes the table as JSON.

use crate::render::{f, Table};
use knots_analyzer::report_digest;
use knots_core::experiment::{mix_inputs, scheduler_by_name, ExperimentConfig};
use knots_core::metrics::RunReport;
use knots_core::KubeKnots;
use knots_obs::Obs;
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;
use std::time::Instant;

/// One node-count point of the sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Worker-node count of this point.
    pub nodes: usize,
    /// Shard count of the sharded leg (the serial leg runs one shard).
    pub shards: usize,
    /// Single-shard leg wall time, milliseconds.
    pub serial_wall_ms: f64,
    /// Sharded leg wall time, milliseconds.
    pub sharded_wall_ms: f64,
    /// `serial_wall_ms / sharded_wall_ms`.
    pub speedup: f64,
    /// Serial heartbeat-round tail: the p99 of the loop's
    /// `knots_heartbeat_latency_us` histogram (snapshot + decide + apply of
    /// one scheduling round), microseconds.
    pub serial_round_p99_us: f64,
    /// The same round tail for the sharded leg.
    pub sharded_round_p99_us: f64,
    /// Report digest of the serial leg.
    pub digest: u64,
    /// Whether the sharded digest matched the single-shard digest.
    pub digest_match: bool,
}

/// One leg: its report, wall time (ms) and heartbeat-round p99 (µs).
fn leg(nodes: usize, shards: usize, secs: u64, seed: u64) -> (RunReport, f64, f64) {
    let cfg = ExperimentConfig {
        nodes,
        duration: SimDuration::from_secs(secs),
        seed,
        shards: Some(shards),
        ..Default::default()
    };
    let obs = Obs::disabled();
    let t0 = Instant::now();
    let (schedule, cluster_cfg) = mix_inputs(AppMix::Mix2, &cfg);
    let report = KubeKnots::new(
        cluster_cfg,
        scheduler_by_name("CBP+PP").expect("known scheduler"),
        cfg.orch,
    )
    .with_obs(obs.clone())
    .run_schedule(&schedule);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let round_p99_us = obs
        .metrics
        .histogram("knots_heartbeat_latency_us", &[])
        .and_then(|h| h.percentile(0.99))
        .unwrap_or(0.0);
    (report, wall_ms, round_p99_us)
}

/// Run one node-count point: the single-shard baseline, then the sharded
/// leg over the identical seeded workload, then compare digests.
pub fn run_point(nodes: usize, shards: usize, secs: u64, seed: u64) -> ScalePoint {
    let (serial, serial_wall_ms, serial_round_p99_us) = leg(nodes, 1, secs, seed);
    let (sharded, sharded_wall_ms, sharded_round_p99_us) = leg(nodes, shards, secs, seed);
    let digest = report_digest(&serial);
    ScalePoint {
        nodes,
        shards,
        serial_wall_ms,
        sharded_wall_ms,
        speedup: serial_wall_ms / sharded_wall_ms.max(1e-9),
        serial_round_p99_us,
        sharded_round_p99_us,
        digest,
        digest_match: report_digest(&sharded) == digest,
    }
}

/// Sweep the node axis. Points run in order (the serial 1,024-node leg is
/// the long pole; running it last keeps early feedback flowing).
pub fn run(node_counts: &[usize], shards: usize, secs: u64, seed: u64) -> Vec<ScalePoint> {
    node_counts.iter().map(|&n| run_point(n, shards, secs, seed)).collect()
}

/// `true` when every point's sharded digest matched its single-shard
/// baseline — the property the CI smoke job asserts.
pub fn all_match(points: &[ScalePoint]) -> bool {
    points.iter().all(|p| p.digest_match)
}

/// Render the sweep.
pub fn table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "Scale sweep — one shard vs k shards, serial stepping (digest-checked)",
        &[
            "nodes",
            "shards",
            "serial ms",
            "sharded ms",
            "speedup",
            "serial rnd p99 us",
            "sharded rnd p99 us",
            "digest match",
        ],
    );
    for p in points {
        t.row(vec![
            p.nodes.to_string(),
            p.shards.to_string(),
            f(p.serial_wall_ms, 0),
            f(p.sharded_wall_ms, 0),
            f(p.speedup, 2),
            f(p.serial_round_p99_us, 0),
            f(p.sharded_round_p99_us, 0),
            if p.digest_match { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_point_is_bit_identical_and_timed() {
        let p = run_point(33, 4, 20, 42);
        assert!(p.digest_match, "sharded leg diverged from one shard at 33 nodes");
        assert!(p.serial_wall_ms > 0.0 && p.sharded_wall_ms > 0.0);
        assert!(p.serial_round_p99_us > 0.0, "heartbeat-latency histogram missing");
        assert!(table(&[p]).render().contains("digest match"));
    }
}
