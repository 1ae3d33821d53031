//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments <command> [--quick] [--seed N] [--secs N] [--json DIR]
//!                       [--threads N] [--out FILE]
//!                       [--trace FILE.jsonl] [--metrics FILE.prom]
//!
//! commands:
//!   fig1      energy efficiency vs utilization (GPU vs CPUs)
//!   fig2      Alibaba trace analysis (correlations + CDFs)
//!   fig3      Rodinia resource consumption on one node
//!   fig4      DNN inference memory vs batch size (incl. TF bar)
//!   cluster   the ten-node study: Figs. 6, 7, 8, 9, 10a, 11a, 11b
//!   fig10b    prediction accuracy vs heartbeat interval
//!   dnn       the 256-GPU DL study: Fig. 12a, Fig. 12b, Table IV
//!   trace     the DNN bake-off with causal tracing ± a seeded fault plan:
//!             Chrome traces per leg + per-stage latency breakdown + digest
//!   chaos     fault-intensity sweep: QoS / throughput / crashes (DESIGN.md §10)
//!   recovery  controller-crash density sweep: checkpoint/WAL recovery cost
//!             with per-leg bit-identity checks (DESIGN.md §15)
//!   perf      decision-loop microbenchmarks + sweep timings -> BENCH_6.json
//!   scale     32 -> 1,024-node sweep: one shard vs k shards (serial stepping),
//!             wall time + schedule-round p99, digest-checked -> BENCH_7.json
//!   all       everything above except trace, chaos, recovery, perf and scale
//! ```
//!
//! `--quick` shrinks run lengths for smoke testing; the defaults match the
//! numbers recorded in EXPERIMENTS.md.
//!
//! `--threads` bounds the worker pool for the cluster/dnn sweeps and the
//! parallel legs of `perf` (default: the host's available parallelism).
//! `--out` overrides where `perf` writes its JSON report.
//!
//! `--trace` (cluster command) writes the scheduler-decision audit trail as
//! JSONL; `--metrics` writes the control-loop counters and histograms in
//! Prometheus text exposition format.
//!
//! Unknown flags are an error: the run aborts with usage on stderr and a
//! non-zero exit so a typo cannot silently fall back to defaults.

use knots_bench::figures::*;
use knots_bench::render::Table;
use knots_core::experiment::ExperimentConfig;
use knots_sim::time::SimDuration;
use knots_workloads::dnn::DnnWorkloadConfig;
use std::io::Write as _;

const USAGE: &str =
    "usage: experiments <fig1|fig2|fig3|fig4|cluster|fig10b|dnn|trace|ablation|chaos|recovery|perf|scale|all> \
     [--quick] [--seed N] [--secs N] [--json DIR] [--threads N] [--out FILE] \
     [--trace FILE.jsonl] [--metrics FILE.prom]";

struct Opts {
    quick: bool,
    seed: u64,
    secs: Option<u64>,
    json_dir: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    threads: usize,
    out: Option<String>,
}

/// Parse everything after the command word. Returns `Err` with a message for
/// unknown flags or malformed values; the caller prints it plus usage and
/// exits non-zero.
fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        quick: false,
        seed: 42,
        secs: None,
        json_dir: None,
        trace: None,
        metrics: None,
        threads: knots_bench::parallel::default_threads(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match a.as_str() {
            "--quick" => o.quick = true,
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|_| format!("--seed: not an integer: {v:?}"))?;
            }
            "--secs" => {
                let v = value("--secs")?;
                o.secs = Some(v.parse().map_err(|_| format!("--secs: not an integer: {v:?}"))?);
            }
            "--threads" => {
                let v = value("--threads")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--threads: not an integer: {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be >= 1".into());
                }
                o.threads = n;
            }
            "--json" => o.json_dir = Some(value("--json")?),
            "--out" => o.out = Some(value("--out")?),
            "--trace" => o.trace = Some(value("--trace")?),
            "--metrics" => o.metrics = Some(value("--metrics")?),
            other => return Err(format!("unknown flag: {other:?}")),
        }
    }
    Ok(o)
}

fn emit(opts: &Opts, name: &str, tables: &[Table]) {
    for t in tables {
        println!("{}", t.render());
    }
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{name}.json");
        let mut f = std::fs::File::create(&path).expect("create json file");
        let payload = serde_json::to_string_pretty(tables).expect("serialize tables");
        f.write_all(payload.as_bytes()).expect("write json");
        eprintln!("[wrote {path}]");
    }
}

fn cluster_cfg(opts: &Opts) -> ExperimentConfig {
    let secs = opts.secs.unwrap_or(if opts.quick { 60 } else { 300 });
    ExperimentConfig {
        duration: SimDuration::from_secs(secs),
        seed: opts.seed,
        ..Default::default()
    }
}

fn run_fig1(opts: &Opts) {
    let rows = fig01_energy_efficiency::run();
    emit(opts, "fig1", &[fig01_energy_efficiency::table(&rows)]);
}

fn run_fig2(opts: &Opts) {
    let fig = fig02_alibaba::run(opts.seed);
    emit(opts, "fig2", &fig02_alibaba::tables(&fig));
}

fn run_fig3(opts: &Opts) {
    let scale = if opts.quick { 0.3 } else { 1.0 };
    let fig = fig03_rodinia::run(scale, 500);
    emit(opts, "fig3", &[fig03_rodinia::table(&fig, 40)]);
}

fn run_fig4(opts: &Opts) {
    let rows = fig04_djinn_memory::run();
    emit(opts, "fig4", &[fig04_djinn_memory::table(&rows)]);
}

fn run_cluster(opts: &Opts) {
    let cfg = cluster_cfg(opts);
    eprintln!(
        "[cluster study: 4 schedulers x 3 mixes, {}s window each, {} thread(s) ...]",
        cfg.duration.as_secs_f64(),
        opts.threads
    );
    // Event recording is only paid for when a trace sink was requested;
    // the metrics registry is always live (counters are cheap).
    let obs = if opts.trace.is_some() {
        knots_obs::Obs::with_trace_capacity(1 << 20)
    } else {
        knots_obs::Obs::disabled()
    };
    let t0 = std::time::Instant::now();
    let study = fig06_09_cluster::ClusterStudy::run_with_obs_threads(&cfg, &obs, opts.threads);
    eprintln!("[cluster study done in {:.1?}]", t0.elapsed());
    if let Some(path) = &opts.trace {
        obs.recorder.write_jsonl(std::path::Path::new(path)).expect("write trace jsonl");
        eprintln!("[wrote {path}: {} events]", obs.recorder.len());
    }
    if let Some(path) = &opts.metrics {
        std::fs::write(path, obs.metrics.to_prometheus()).expect("write metrics");
        eprintln!("[wrote {path}]");
    }

    let mut tables = Vec::new();
    for m in 0..3 {
        tables.push(fig06_09_cluster::per_node_table(&study, m, "Res-Ag", "Fig. 6"));
    }
    tables.push(fig06_09_cluster::fig7_table(&study));
    for m in 0..3 {
        tables.push(fig06_09_cluster::per_node_table(&study, m, "CBP+PP", "Fig. 8"));
    }
    for m in 0..3 {
        tables.push(fig06_09_cluster::fig9_table(&study, m));
    }
    tables.push(fig10a_qos::table(&fig10a_qos::run(&study)));
    tables.push(fig11_power::table(&fig11_power::run(&study)));
    tables.push(fig06_09_cluster::fig11b_table(&study, 0));
    emit(opts, "cluster", &tables);
}

fn run_fig10b(opts: &Opts) {
    let mut cfg = fig10b_accuracy::Fig10bConfig { seed: opts.seed, ..Default::default() };
    if opts.quick {
        cfg.evaluations = 40;
    }
    eprintln!("[fig10b sweep ...]");
    let t0 = std::time::Instant::now();
    let points = fig10b_accuracy::run(&cfg);
    eprintln!("[fig10b done in {:.1?}]", t0.elapsed());
    emit(opts, "fig10b", &[fig10b_accuracy::table(&points)]);
}

fn run_dnn(opts: &Opts) {
    let workload = if opts.quick {
        DnnWorkloadConfig::smoke()
    } else {
        DnnWorkloadConfig { seed: opts.seed, ..DnnWorkloadConfig::compressed() }
    };
    eprintln!(
        "[dnn study: 4 schedulers, {} DLT + {} DLI, 256 GPUs, {} thread(s) ...]",
        workload.dlt_jobs, workload.dli_tasks, opts.threads
    );
    let t0 = std::time::Instant::now();
    let study = fig12_dnn::DnnStudy::run_threads(&workload, opts.threads);
    eprintln!("[dnn study done in {:.1?}]", t0.elapsed());
    emit(
        opts,
        "dnn",
        &[
            fig12_dnn::fig12a_table(&study, 12),
            fig12_dnn::fig12b_table(&study),
            fig12_dnn::table4(&study),
        ],
    );
}

fn run_trace(opts: &Opts) {
    let workload = if opts.quick {
        DnnWorkloadConfig::smoke()
    } else {
        DnnWorkloadConfig { seed: opts.seed, ..DnnWorkloadConfig::compressed() }
    };
    eprintln!(
        "[trace study: 4 schedulers x (clean, faulted), {} DLT + {} DLI, {} thread(s) ...]",
        workload.dlt_jobs, workload.dli_tasks, opts.threads
    );
    let t0 = std::time::Instant::now();
    let study = trace_study::TraceStudy::run_threads(&workload, opts.seed, opts.threads);
    eprintln!("[trace study done in {:.1?}]", t0.elapsed());
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        for leg in &study.legs {
            let path = format!("{dir}/{}.json", trace_study::leg_slug(leg));
            std::fs::write(&path, &leg.chrome_json).expect("write chrome trace");
            eprintln!("[wrote {path}: {} spans]", leg.spans);
        }
    }
    emit(opts, "trace", &[trace_study::breakdown_table(&study), trace_study::spans_table(&study)]);
    println!("trace digest: {}", trace_study::digest(&study));
}

fn run_ablations(opts: &Opts) {
    let mut cfg = cluster_cfg(opts);
    if opts.secs.is_none() {
        cfg.duration = SimDuration::from_secs(if opts.quick { 30 } else { 120 });
    }
    eprintln!("[ablation sweeps over App-Mix-1, {}s each ...]", cfg.duration.as_secs_f64());
    let tables = vec![
        ablations::table(
            "Ablation — CBP resize percentile (paper: p80)",
            &ablations::resize_percentile(&cfg),
        ),
        ablations::table(
            "Ablation — Spearman co-location threshold (Algorithm 1: 0.5)",
            &ablations::correlation_threshold(&cfg),
        ),
        ablations::table(
            "Ablation — sliding window d (paper: 5 s)",
            &ablations::window_length(&cfg),
        ),
        ablations::table(
            "Ablation — Res-Ag bin-packing strategy (paper: first-fit decreasing)",
            &ablations::pack_strategy(&cfg),
        ),
    ];
    emit(opts, "ablations", &tables);
}

fn run_chaos(opts: &Opts) {
    let mut cfg = cluster_cfg(opts);
    if opts.secs.is_none() {
        cfg.duration = SimDuration::from_secs(if opts.quick { 45 } else { 180 });
    }
    let intensities: &[f64] =
        if opts.quick { &[0.0, 5.0, 20.0] } else { &[0.0, 2.0, 5.0, 10.0, 20.0] };
    eprintln!(
        "[chaos sweep: {} schedulers x {} intensities, {}s window each, {} thread(s) ...]",
        chaos_sweep::CHAOS_SCHEDULERS.len(),
        intensities.len(),
        cfg.duration.as_secs_f64(),
        opts.threads
    );
    let t0 = std::time::Instant::now();
    let rows = chaos_sweep::run(&cfg, intensities, opts.threads);
    eprintln!("[chaos sweep done in {:.1?}]", t0.elapsed());
    emit(opts, "chaos", &[chaos_sweep::table(&rows)]);
}

fn run_recovery(opts: &Opts) {
    let mut cfg = cluster_cfg(opts);
    cfg.nodes = 4;
    if opts.secs.is_none() {
        cfg.duration = SimDuration::from_secs(if opts.quick { 45 } else { 180 });
    }
    let densities: &[f64] = if opts.quick { &[0.0, 4.0] } else { &[0.0, 1.0, 3.0, 6.0] };
    eprintln!(
        "[recovery sweep: {} schedulers x {} crash densities, {}s window each, {} thread(s) ...]",
        knots_core::experiment::DNN_SCHEDULERS.len(),
        densities.len(),
        cfg.duration.as_secs_f64(),
        opts.threads
    );
    let t0 = std::time::Instant::now();
    let rows = recovery_sweep::run(&cfg, densities, opts.threads);
    eprintln!("[recovery sweep done in {:.1?}]", t0.elapsed());
    emit(opts, "recovery", &[recovery_sweep::table(&rows)]);
    // Stable per-leg digest lines: CI runs the sweep twice and diffs these
    // (wall-clock columns in the table above legitimately differ).
    for r in &rows {
        println!(
            "recovery-digest {} cpm={} {:#018x}",
            r.scheduler, r.crashes_per_minute, r.digest
        );
    }
    if !recovery_sweep::all_match(&rows) {
        eprintln!("[recovery: BIT-IDENTITY CHECK FAILED — a recovered leg diverged]");
        std::process::exit(1);
    }
    eprintln!("[recovery: every recovered leg matches its uninterrupted baseline]");
}

fn run_perf(opts: &Opts) {
    let cfg =
        knots_bench::perf::PerfConfig { quick: opts.quick, threads: opts.threads, seed: opts.seed };
    let report = knots_bench::perf::run(&cfg);
    let path = opts.out.as_deref().unwrap_or("BENCH_6.json");
    let payload = serde_json::to_string_pretty(&report).expect("serialize perf report");
    std::fs::write(path, payload).expect("write perf report");
    eprintln!("[wrote {path}]");
    for s in &report.sweeps {
        match s.speedup_vs_serial {
            Some(x) => eprintln!(
                "[{} x{} threads: {:.0} ms, {:.2}x vs serial]",
                s.name, s.threads, s.wall_ms, x
            ),
            None => eprintln!("[{} serial baseline: {:.0} ms]", s.name, s.wall_ms),
        }
    }
    if !report.ok() {
        eprintln!("[perf: DETERMINISM CHECK FAILED — see {path}]");
        std::process::exit(1);
    }
    eprintln!("[perf: all determinism digests match]");
}

fn run_scale(opts: &Opts) {
    let nodes: &[usize] =
        if opts.quick { &[32, 64, 128] } else { &[32, 64, 128, 256, 512, 1024] };
    let shards = if opts.quick { 2 } else { 8 };
    let secs = opts.secs.unwrap_or(if opts.quick { 20 } else { 60 });
    eprintln!(
        "[scale sweep: {} node counts up to {}, 1 vs {} shard(s), {}s window each ...]",
        nodes.len(),
        nodes.last().copied().unwrap_or(0),
        shards,
        secs
    );
    let t0 = std::time::Instant::now();
    let points = scale_sweep::run(nodes, shards, secs, opts.seed);
    eprintln!("[scale sweep done in {:.1?}]", t0.elapsed());
    emit(opts, "scale", &[scale_sweep::table(&points)]);
    // Stable per-point digest lines: CI runs the sweep twice and diffs
    // these (the wall-clock columns above legitimately differ).
    for p in &points {
        println!("scale-digest nodes={} shards={} {:#018x}", p.nodes, p.shards, p.digest);
    }
    let report = scale_sweep::ScaleReport {
        quick: opts.quick,
        seed: opts.seed,
        secs,
        available_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        points,
    };
    let path = opts.out.as_deref().unwrap_or("BENCH_7.json");
    let payload = serde_json::to_string_pretty(&report).expect("serialize scale report");
    std::fs::write(path, payload).expect("write scale report");
    eprintln!("[wrote {path}]");
    if !report.ok() {
        eprintln!("[scale: BIT-IDENTITY CHECK FAILED — a sharded leg diverged]");
        std::process::exit(1);
    }
    eprintln!("[scale: every sharded leg matches its single-shard baseline]");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    let opts = match parse_opts(args.get(1..).unwrap_or(&[])) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match cmd {
        "fig1" => run_fig1(&opts),
        "fig2" => run_fig2(&opts),
        "fig3" => run_fig3(&opts),
        "fig4" => run_fig4(&opts),
        "cluster" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10a" | "fig11a" | "fig11b" => {
            run_cluster(&opts)
        }
        "fig10b" => run_fig10b(&opts),
        "dnn" | "fig12a" | "fig12b" | "table4" => run_dnn(&opts),
        "trace" => run_trace(&opts),
        "ablation" | "ablations" => run_ablations(&opts),
        "chaos" => run_chaos(&opts),
        "recovery" => run_recovery(&opts),
        "perf" => run_perf(&opts),
        "scale" => run_scale(&opts),
        "all" => {
            run_fig1(&opts);
            run_fig2(&opts);
            run_fig3(&opts);
            run_fig4(&opts);
            run_cluster(&opts);
            run_fig10b(&opts);
            run_dnn(&opts);
            run_ablations(&opts);
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
