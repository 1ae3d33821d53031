//! Scale sweep: one shard vs k shards, 32 → 1,024 nodes.
//!
//! Sharding partitions the TSDB locks and the schedulers' candidate sort
//! along contiguous node ranges; nodes always step serially. The sweep
//! checks that this costs nothing in fidelity and records what it costs in
//! time: for each node count it runs the same seeded CBP+PP mix twice —
//! once single-shard, once k-sharded — and records wall time,
//! schedule-round tail latency and whether the two report digests match.
//! They must, because candidate orders are k-way merges of per-shard
//! sorted runs and every cross-shard join is by index. The results land in
//! `BENCH_7.json`.

use crate::render::{f, Table};
use knots_analyzer::report_digest;
use knots_core::experiment::{run_mix_with_obs, scheduler_by_name, ExperimentConfig};
use knots_core::metrics::RunReport;
use knots_sim::time::SimDuration;
use knots_workloads::AppMix;
use serde::Serialize;
use std::time::Instant;

/// One node-count point of the sweep.
#[derive(Debug, Clone, Serialize)]
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
    /// Serial schedule-round tail: the sum of the p99s of the `snapshot`,
    /// `decide` and `apply` phases, microseconds (a compositional upper
    /// bound on the round tail, comparable across legs).
    pub serial_round_p99_us: f64,
    /// The same tail bound for the sharded leg.
    pub sharded_round_p99_us: f64,
    /// Report digest of the serial leg.
    pub digest: u64,
    /// Whether the sharded digest matched the single-shard digest.
    pub digest_match: bool,
}

fn round_p99_us(r: &RunReport) -> f64 {
    ["snapshot", "decide", "apply"]
        .iter()
        .map(|phase| {
            r.phase_timings.iter().find(|t| t.phase == *phase).map(|t| t.p99_us).unwrap_or(0.0)
        })
        .sum()
}

fn leg(nodes: usize, shards: usize, secs: u64, seed: u64) -> (RunReport, f64) {
    let cfg = ExperimentConfig {
        nodes,
        duration: SimDuration::from_secs(secs),
        seed,
        shards: Some(shards),
        ..Default::default()
    };
    let t0 = Instant::now();
    let report = run_mix_with_obs(
        scheduler_by_name("CBP+PP").expect("known scheduler"),
        AppMix::Mix2,
        &cfg,
        knots_obs::Obs::disabled(),
    );
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

/// Run one node-count point: the single-shard baseline, then the sharded
/// leg over the identical seeded workload, then compare digests.
pub fn run_point(nodes: usize, shards: usize, secs: u64, seed: u64) -> ScalePoint {
    let (serial, serial_wall_ms) = leg(nodes, 1, secs, seed);
    let (sharded, sharded_wall_ms) = leg(nodes, shards, secs, seed);
    let digest = report_digest(&serial);
    ScalePoint {
        nodes,
        shards,
        serial_wall_ms,
        sharded_wall_ms,
        speedup: serial_wall_ms / sharded_wall_ms.max(1e-9),
        serial_round_p99_us: round_p99_us(&serial),
        sharded_round_p99_us: round_p99_us(&sharded),
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

/// The full `BENCH_7.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleReport {
    /// `true` when `--quick` shrank the sweep.
    pub quick: bool,
    /// Seed the workloads were generated from.
    pub seed: u64,
    /// Simulated seconds per leg.
    pub secs: u64,
    /// `std::thread::available_parallelism()` on the measuring host
    /// (1 when unknown).
    pub available_parallelism: usize,
    /// The sweep points, in node-count order.
    pub points: Vec<ScalePoint>,
}

impl ScaleReport {
    /// Did every point keep its digest across the 1 → k shard flip?
    pub fn ok(&self) -> bool {
        all_match(&self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_point_is_bit_identical_and_timed() {
        let p = run_point(33, 4, 20, 42);
        assert!(p.digest_match, "sharded leg diverged from one shard at 33 nodes");
        assert!(p.serial_wall_ms > 0.0 && p.sharded_wall_ms > 0.0);
        assert!(p.serial_round_p99_us > 0.0, "obs phase timings missing");
        assert!(table(&[p]).render().contains("digest match"));
    }
}
