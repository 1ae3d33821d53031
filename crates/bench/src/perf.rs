//! The `experiments perf` harness — a deterministic performance benchmark
//! of the decision loop and the figure sweeps.
//!
//! Three sections, serialized to `BENCH_<pr>.json` at the repo root:
//!
//! 1. **Microbenchmarks** — pairwise Spearman matrices, one-pass vs naive
//!    ACF, cache-mediated vs direct Spearman, and a full `schedule_round`
//!    (via a short `run_mix`, whose per-phase timings come from the obs
//!    layer's `PhaseTimers`).
//! 2. **Sweep wall times** — the cluster and DNN figure studies at one
//!    worker thread (the serial baseline) and at `--threads N`, with the
//!    combined report digest of each leg recorded so the JSON itself proves
//!    the parallel sweep made the *same decisions*.
//! 3. **Loop A/B** (`events`) — the same run under the naive per-tick
//!    oracle and the continuous-time event queue; both digests must match
//!    bit for bit, and the recorded speedup quantifies what skipping dead
//!    ticks buys.
//! 4. **Self-check digests** — the analyzer's dynamic determinism legs
//!    (`knots-analyzer check --self-check`), replayed here so a BENCH file
//!    from before an optimization can be diffed against one from after.
//! 5. **Analyzer wall time** — one full scope-aware `check_root` over the
//!    workspace, recording file count, diagnostic count (0 on a clean
//!    tree) and wall milliseconds, so lint-pass regressions show up in the
//!    same report as decision-loop regressions.
//!
//! All input series are seeded-LCG generated; nothing in the report depends
//! on host entropy. Wall-clock numbers of course vary by machine — the
//! `host` block records the core count they were taken on.

use crate::figures::fig06_09_cluster::ClusterStudy;
use crate::figures::fig12_dnn::DnnStudy;
use knots_analyzer::selfcheck::{self, report_digest, Fnv};
use knots_core::experiment::{scheduler_by_name, ExperimentConfig};
use knots_forecast::autocorr::{acf, autocorrelation};
use knots_forecast::spearman::{correlation_matrix, spearman};
use knots_obs::Obs;
use knots_sched::StatsCache;
use knots_sim::ids::PodId;
use knots_sim::time::SimDuration;
use knots_workloads::dnn::DnnWorkloadConfig;
use knots_workloads::AppMix;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Shrink iteration counts and sweep durations for CI smoke runs.
    pub quick: bool,
    /// Worker threads for the parallel sweep legs.
    pub threads: usize,
    /// Seed for the sweep workloads.
    pub seed: u64,
}

/// Machine metadata the wall-clock numbers were taken on.
#[derive(Debug, Clone, Serialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism()` (1 when unknown).
    pub available_parallelism: usize,
}

/// One microbenchmark result.
#[derive(Debug, Clone, Serialize)]
pub struct MicroBench {
    /// Benchmark label.
    pub name: String,
    /// Iterations timed.
    pub iters: u64,
    /// Mean microseconds per iteration.
    pub per_iter_us: f64,
    /// What one iteration does.
    pub note: String,
}

/// Wall time of one figure sweep at one thread count.
#[derive(Debug, Clone, Serialize)]
pub struct SweepTiming {
    /// Sweep label (`cluster` / `dnn`).
    pub name: String,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
    /// Combined FNV digest (hex) of every leg's report digest, in grid
    /// order — equal across thread counts iff the decisions were identical.
    pub digest: String,
    /// Speedup vs the serial (threads = 1) leg of the same sweep; `None`
    /// for the serial leg itself.
    pub speedup_vs_serial: Option<f64>,
}

/// Loop A/B: the same run under the naive per-tick oracle and the
/// continuous-time event queue. Both report digests must agree bit for
/// bit: the speedup is only real if the decisions are unchanged.
#[derive(Debug, Clone, Serialize)]
pub struct EventsBench {
    /// Leg label (scheduler + timing shape).
    pub name: String,
    /// Wall time with `naive_ticking: true`, milliseconds.
    pub naive_wall_ms: f64,
    /// Wall time with the event queue (the default loop).
    pub event_wall_ms: f64,
    /// `naive_wall_ms / event_wall_ms`.
    pub event_speedup: f64,
    /// Control-loop iterations the event queue executed (its "step"
    /// phase count).
    pub steps_taken: u64,
    /// Ticks the oracle iterated (the naive leg's "step" phase count).
    pub ticks_total: u64,
    /// Dead iterations the event queue never ran: `ticks_total -
    /// steps_taken`.
    pub ticks_skipped: u64,
    /// Calendar events the event-queue leg popped and handled.
    pub events_processed: u64,
    /// Both report digests agreed bit for bit.
    pub digests_match: bool,
}

/// One analyzer self-check leg with its digests rendered as hex.
#[derive(Debug, Clone, Serialize)]
pub struct SelfCheckLeg {
    /// Scheduler label.
    pub scheduler: String,
    /// First pinned run.
    pub digest_a: String,
    /// Identically-seeded second run.
    pub digest_b: String,
    /// Run with observability attached.
    pub digest_obs: String,
    /// All three agreed.
    pub ok: bool,
}

/// One full analyzer pass over the workspace, timed.
#[derive(Debug, Clone, Serialize)]
pub struct AnalyzeBench {
    /// Rust files discovered and scanned.
    pub files: usize,
    /// Diagnostics produced (0 on a clean tree).
    pub diagnostics: usize,
    /// Wall time of `check_root` (lex, scope parse, guard tracking,
    /// workspace lock graph, suppression), milliseconds.
    pub wall_ms: f64,
}

/// The full `BENCH_*.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// `true` when `--quick` shrank the workloads.
    pub quick: bool,
    /// `--threads` used for the parallel sweep legs.
    pub threads: usize,
    /// Machine metadata.
    pub host: HostInfo,
    /// Decision-loop microbenchmarks.
    pub micro: Vec<MicroBench>,
    /// Figure-sweep wall times, serial and parallel.
    pub sweeps: Vec<SweepTiming>,
    /// Whether every sweep's parallel digest matched its serial digest.
    pub sweep_digests_match: bool,
    /// Three-way loop-mode A/B legs: naive vs calendar vs event queue.
    pub events: Vec<EventsBench>,
    /// Analyzer self-check legs.
    pub self_check: Vec<SelfCheckLeg>,
    /// Timed analyzer pass over the workspace.
    pub analyze: AnalyzeBench,
}

impl PerfReport {
    /// Did every determinism assertion in the report hold?
    pub fn ok(&self) -> bool {
        self.sweep_digests_match
            && self.events.iter().all(|c| c.digests_match)
            && self.self_check.iter().all(|l| l.ok)
            && self.analyze.diagnostics == 0
    }
}

struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn series(&mut self, len: usize, scale: f64) -> Vec<f64> {
        (0..len).map(|_| self.next_f64() * scale).collect()
    }
}

fn time_per_iter_us<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn micro_benches(cfg: &PerfConfig) -> Vec<MicroBench> {
    let iters = if cfg.quick { 20 } else { 200 };
    let mut rng = Lcg(cfg.seed ^ 0x5045_5246); // ^ "PERF"
    let mut out = Vec::new();

    // Pairwise Spearman matrix — the Fig. 2 heat-map inner loop.
    let series: Vec<Vec<f64>> = (0..24).map(|_| rng.series(64, 4_000.0)).collect();
    out.push(MicroBench {
        name: "spearman_pairwise_matrix".into(),
        iters,
        per_iter_us: time_per_iter_us(iters, || correlation_matrix(&series)),
        note: "24x24 Spearman matrix over 64-sample series".into(),
    });

    // One-pass ACF vs the naive per-lag recompute it replaced.
    let ys = rng.series(512, 16_000.0);
    out.push(MicroBench {
        name: "acf_one_pass".into(),
        iters,
        per_iter_us: time_per_iter_us(iters, || acf(&ys, 128)),
        note: "acf(512 samples, 128 lags), mean/denominator hoisted".into(),
    });
    out.push(MicroBench {
        name: "acf_naive_per_lag".into(),
        iters,
        per_iter_us: time_per_iter_us(iters, || {
            (1..=128).map(|k| autocorrelation(&ys, k)).collect::<Vec<f64>>()
        }),
        note: "the same 128 lags via per-lag autocorrelation() calls".into(),
    });

    // Cache-mediated vs direct Spearman over repeated (app, pod) pairs —
    // the CBP correlation-gate access pattern within one round.
    let reference = rng.series(64, 4_000.0);
    let pods: Vec<Vec<f64>> = (0..16).map(|_| rng.series(64, 4_000.0)).collect();
    out.push(MicroBench {
        name: "spearman_gate_uncached".into(),
        iters,
        per_iter_us: time_per_iter_us(iters, || {
            let mut acc = 0.0;
            for _ in 0..8 {
                for s in &pods {
                    acc += spearman(&reference, s);
                }
            }
            acc
        }),
        note: "16 resident pods x 8 candidate probes, full recompute".into(),
    });
    out.push(MicroBench {
        name: "spearman_gate_cached".into(),
        iters,
        per_iter_us: time_per_iter_us(iters, || {
            let cache = StatsCache::new();
            let mut acc = 0.0;
            for _ in 0..8 {
                for (i, s) in pods.iter().enumerate() {
                    acc += cache.spearman_suffix("app", &reference, PodId(i as u64), s);
                }
            }
            acc
        }),
        note: "same pattern through one round's StatsCache".into(),
    });

    // A full control loop: short run_mix, per-phase timings from the obs
    // layer fold the decide/snapshot/apply costs into the report.
    let run_cfg = ExperimentConfig {
        duration: SimDuration::from_secs(if cfg.quick { 20 } else { 60 }),
        seed: cfg.seed,
        ..Default::default()
    };
    let t0 = Instant::now();
    let report = knots_core::experiment::run_mix_with_obs(
        scheduler_by_name("CBP+PP").expect("known scheduler"),
        AppMix::Mix2,
        &run_cfg,
        Obs::disabled(),
    );
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let rounds: u64 = report
        .phase_timings
        .iter()
        .find(|p| p.phase == "decide")
        .map(|p| p.count)
        .unwrap_or(1)
        .max(1);
    out.push(MicroBench {
        name: "schedule_round_full_mix".into(),
        iters: rounds,
        per_iter_us: wall_us / rounds as f64,
        note: format!(
            "CBP+PP over Mix2, {}s sim; wall time / heartbeats",
            run_cfg.duration.as_secs_f64()
        ),
    });
    for p in &report.phase_timings {
        out.push(MicroBench {
            name: format!("phase_{}", p.phase),
            iters: p.count,
            per_iter_us: p.mean_us,
            note: format!("obs PhaseTimers mean (p99 {:.1} us)", p.p99_us),
        });
    }
    out
}

/// Fold every leg digest of a study into one hex string, in grid order.
fn combined_digest<'a>(
    reports: impl Iterator<Item = &'a knots_core::metrics::RunReport>,
) -> String {
    let mut h = Fnv::new();
    for r in reports {
        let d = report_digest(r);
        h.write(&d.to_le_bytes());
    }
    format!("{:016x}", h.finish())
}

fn sweep_benches(cfg: &PerfConfig) -> (Vec<SweepTiming>, bool) {
    let cluster_cfg = ExperimentConfig {
        duration: SimDuration::from_secs(if cfg.quick { 20 } else { 60 }),
        seed: cfg.seed,
        ..Default::default()
    };
    let dnn_cfg = if cfg.quick {
        DnnWorkloadConfig::smoke()
    } else {
        DnnWorkloadConfig {
            dlt_jobs: 60,
            dli_tasks: 150,
            duration: SimDuration::from_secs(120),
            time_scale: 1.0 / 240.0,
            seed: cfg.seed,
        }
    };

    let mut sweeps = Vec::new();
    let mut all_match = true;

    // Cluster study: serial baseline, then --threads.
    let t0 = Instant::now();
    let serial = ClusterStudy::run_with_obs_threads(&cluster_cfg, &Obs::disabled(), 1);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let serial_digest = combined_digest(serial.reports.iter().flatten());
    sweeps.push(SweepTiming {
        name: "cluster".into(),
        threads: 1,
        wall_ms: serial_ms,
        digest: serial_digest.clone(),
        speedup_vs_serial: None,
    });
    let t0 = Instant::now();
    let par = ClusterStudy::run_with_obs_threads(&cluster_cfg, &Obs::disabled(), cfg.threads);
    let par_ms = t0.elapsed().as_secs_f64() * 1e3;
    let par_digest = combined_digest(par.reports.iter().flatten());
    all_match &= par_digest == serial_digest;
    sweeps.push(SweepTiming {
        name: "cluster".into(),
        threads: cfg.threads,
        wall_ms: par_ms,
        digest: par_digest,
        speedup_vs_serial: Some(serial_ms / par_ms.max(1e-9)),
    });

    // DNN study: same protocol.
    let t0 = Instant::now();
    let serial = DnnStudy::run_threads(&dnn_cfg, 1);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let serial_digest = combined_digest(serial.reports.iter());
    sweeps.push(SweepTiming {
        name: "dnn".into(),
        threads: 1,
        wall_ms: serial_ms,
        digest: serial_digest.clone(),
        speedup_vs_serial: None,
    });
    let t0 = Instant::now();
    let par = DnnStudy::run_threads(&dnn_cfg, cfg.threads);
    let par_ms = t0.elapsed().as_secs_f64() * 1e3;
    let par_digest = combined_digest(par.reports.iter());
    all_match &= par_digest == serial_digest;
    sweeps.push(SweepTiming {
        name: "dnn".into(),
        threads: cfg.threads,
        wall_ms: par_ms,
        digest: par_digest,
        speedup_vs_serial: Some(serial_ms / par_ms.max(1e-9)),
    });

    (sweeps, all_match)
}

fn events_benches(cfg: &PerfConfig) -> Vec<EventsBench> {
    // Heartbeat at 5× the tick: between scheduling rounds every tick is
    // dead at the orchestrator level — the event queue's best case, and
    // the shape where a correctness bug (a span jumping over a trigger, a
    // handler firing off-grid) would immediately shift decisions and
    // split the digests.
    let mut run_cfg = ExperimentConfig {
        duration: SimDuration::from_secs(if cfg.quick { 20 } else { 60 }),
        seed: cfg.seed,
        ..Default::default()
    };
    run_cfg.orch.heartbeat = SimDuration::from_millis(50);
    let phase_count = |r: &knots_core::metrics::RunReport, phase: &str| {
        r.phase_timings.iter().find(|t| t.phase == phase).map(|t| t.count).unwrap_or(0)
    };
    let mut out = Vec::new();
    for name in ["Res-Ag", "CBP+PP"] {
        let mut walls = [0.0f64; 2];
        let mut reports = Vec::with_capacity(2);
        for (i, naive) in [true, false].into_iter().enumerate() {
            let mut leg_cfg = run_cfg;
            leg_cfg.orch.naive_ticking = naive;
            let t0 = Instant::now();
            let r = knots_core::experiment::run_mix(
                scheduler_by_name(name).expect("known scheduler"),
                AppMix::Mix2,
                &leg_cfg,
            );
            walls[i] = t0.elapsed().as_secs_f64() * 1e3;
            reports.push(r);
        }
        let d0 = report_digest(&reports[0]);
        let steps_taken = phase_count(&reports[1], "step");
        let ticks_total = phase_count(&reports[0], "step");
        out.push(EventsBench {
            name: format!("{name}_mix2_hb50ms"),
            naive_wall_ms: walls[0],
            event_wall_ms: walls[1],
            event_speedup: walls[0] / walls[1].max(1e-9),
            steps_taken,
            ticks_total,
            ticks_skipped: ticks_total.saturating_sub(steps_taken),
            events_processed: reports[1].events_processed,
            digests_match: report_digest(&reports[1]) == d0,
        });
    }
    out
}

fn self_check_legs() -> Vec<SelfCheckLeg> {
    selfcheck::run()
        .into_iter()
        .map(|l| SelfCheckLeg {
            scheduler: l.scheduler.to_string(),
            digest_a: format!("{:016x}", l.digest_a),
            digest_b: format!("{:016x}", l.digest_b),
            digest_obs: format!("{:016x}", l.digest_obs),
            ok: l.ok(),
        })
        .collect()
}

fn analyze_bench() -> AnalyzeBench {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = knots_analyzer::engine::discover(&root).map(|f| f.len()).unwrap_or(0);
    let t0 = Instant::now();
    let diagnostics = knots_analyzer::check_root(&root).map(|d| d.len()).unwrap_or(usize::MAX);
    AnalyzeBench { files, diagnostics, wall_ms: t0.elapsed().as_secs_f64() * 1e3 }
}

/// Run the whole harness.
pub fn run(cfg: &PerfConfig) -> PerfReport {
    eprintln!("[perf: microbenchmarks ...]");
    let micro = micro_benches(cfg);
    eprintln!("[perf: figure sweeps at 1 and {} thread(s) ...]", cfg.threads);
    let (sweeps, sweep_digests_match) = sweep_benches(cfg);
    eprintln!("[perf: naive vs event-queue A/B ...]");
    let events = events_benches(cfg);
    eprintln!("[perf: analyzer self-check legs ...]");
    let self_check = self_check_legs();
    eprintln!("[perf: analyzer workspace pass ...]");
    let analyze = analyze_bench();
    PerfReport {
        quick: cfg.quick,
        threads: cfg.threads,
        host: HostInfo { available_parallelism: crate::parallel::default_threads() },
        micro,
        sweeps,
        sweep_digests_match,
        events,
        self_check,
        analyze,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_is_deterministic_and_green() {
        let cfg = PerfConfig { quick: true, threads: 2, seed: 42 };
        let (sweeps, digests_match) = sweep_benches(&cfg);
        assert!(digests_match, "parallel sweeps must reproduce serial digests: {sweeps:?}");
        assert_eq!(sweeps.len(), 4);
        assert!(sweeps.iter().all(|s| s.wall_ms > 0.0));
        // Serial and parallel legs of the same sweep share a digest string.
        assert_eq!(sweeps[0].digest, sweeps[1].digest);
        assert_eq!(sweeps[2].digest, sweeps[3].digest);
    }

    #[test]
    fn events_legs_skip_ticks_and_keep_digests() {
        let cfg = PerfConfig { quick: true, threads: 1, seed: 42 };
        let legs = events_benches(&cfg);
        assert_eq!(legs.len(), 2);
        for leg in &legs {
            assert!(leg.digests_match, "{}: the event queue diverged from naive ticking", leg.name);
            assert!(
                leg.ticks_skipped > 0,
                "{}: a 50 ms heartbeat over a 10 ms tick must skip dead iterations \
                 ({} steps over {} ticks)",
                leg.name,
                leg.steps_taken,
                leg.ticks_total
            );
            assert!(
                leg.events_processed > 0,
                "{}: the event-queue leg must pop calendar events",
                leg.name
            );
            assert!(leg.naive_wall_ms > 0.0 && leg.event_wall_ms > 0.0);
        }
    }

    #[test]
    fn analyze_bench_scans_a_clean_workspace() {
        let a = analyze_bench();
        assert!(a.files > 40, "workspace discovery came up short: {a:?}");
        assert_eq!(a.diagnostics, 0, "workspace must be analyzer-clean: {a:?}");
        assert!(a.wall_ms > 0.0);
    }

    #[test]
    fn micro_benches_produce_positive_timings() {
        let cfg = PerfConfig { quick: true, threads: 1, seed: 7 };
        let micro = micro_benches(&cfg);
        assert!(micro.iter().any(|m| m.name == "acf_one_pass"));
        assert!(micro.iter().any(|m| m.name == "spearman_gate_cached"));
        assert!(micro.iter().any(|m| m.name == "schedule_round_full_mix"));
        for m in &micro {
            assert!(m.per_iter_us >= 0.0, "{}: {}", m.name, m.per_iter_us);
            assert!(m.iters > 0, "{}", m.name);
        }
    }
}
