//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments <command> [--quick] [--seed N] [--secs N] [--json DIR]
//!                       [--threads N]
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
//!   ablation  App-Mix-1 ablations: resize percentile, Spearman threshold,
//!             window d, Res-Ag bin-packing strategy
//!   trace     the DNN bake-off with causal tracing ± a seeded fault plan:
//!             Chrome traces per leg + per-stage latency breakdown + digest
//!   chaos     fault-intensity sweep: QoS / throughput / crashes (DESIGN.md §10)
//!   recovery  controller-crash density sweep: checkpoint/WAL recovery cost
//!             with per-leg bit-identity checks (DESIGN.md §15)
//!   scale     32 -> 1,024-node sweep: wall time, heartbeat-round p99 and
//!             report digest per node count
//!   all       everything above except trace, chaos, recovery and scale
//! ```
//!
//! `--quick` shrinks run lengths for smoke testing; the defaults match the
//! numbers recorded in EXPERIMENTS.md.
//!
//! `--secs` overrides the simulated window of each run; it must be >= 1.
//!
//! `--threads` bounds the worker pool of the sweeps that fan legs out
//! (cluster, dnn, trace, chaos, recovery; default: the host's available
//! parallelism). `--json DIR` writes each command's tables as JSON into
//! DIR (for `scale`: `scale.json`). Timing the program is `perfbench/`'s job, not this binary's.
//!
//! `--trace` writes the scheduler-decision audit trail as JSONL; `--metrics`
//! writes the control-loop counters and histograms in Prometheus text
//! exposition format. Only `cluster` (and its figure aliases) and `all`
//! take them; any other command exits 2 rather than drop the sink.
//!
//! Unknown flags are an error: the run aborts with usage on stderr and a
//! non-zero exit so a typo cannot silently fall back to defaults. So is an
//! output destination (`--json`, `--trace`, `--metrics`) that cannot be
//! created: it is checked before any run starts, so a finished study is
//! never lost to a bad path.

use knots_bench::figures::*;
use knots_bench::render::Table;
use knots_core::experiment::ExperimentConfig;
use knots_sim::time::SimDuration;
use knots_workloads::dnn::DnnWorkloadConfig;

const USAGE: &str =
    "usage: experiments <fig1|fig2|fig3|fig4|cluster|fig10b|dnn|trace|ablation|chaos|recovery|scale|all> \
     [--quick] [--seed N] [--secs N] [--json DIR] [--threads N] \
     [--trace FILE.jsonl] [--metrics FILE.prom]";

struct Opts {
    quick: bool,
    seed: u64,
    secs: Option<u64>,
    json_dir: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    threads: usize,
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
        threads: knots_sim::pool::default_threads(),
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
                let n: u64 = v.parse().map_err(|_| format!("--secs: not an integer: {v:?}"))?;
                if n == 0 {
                    return Err("--secs must be >= 1".into());
                }
                o.secs = Some(n);
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
            "--trace" => o.trace = Some(value("--trace")?),
            "--metrics" => o.metrics = Some(value("--metrics")?),
            other => return Err(format!("unknown flag: {other:?}")),
        }
    }
    Ok(o)
}

/// Commands that write the `--trace` / `--metrics` sinks: the cluster
/// study, its figure aliases, and `all` (which runs it).
const SINK_COMMANDS: [&str; 9] =
    ["cluster", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig11a", "fig11b", "all"];

/// Refuse `--trace` / `--metrics` on a command that would ignore them, so
/// a sink that was asked for cannot silently go unwritten.
fn check_sinks(cmd: &str, o: &Opts) -> Result<(), String> {
    let flag = match (&o.trace, &o.metrics) {
        _ if SINK_COMMANDS.contains(&cmd) => return Ok(()),
        (Some(_), _) => "--trace",
        (None, Some(_)) => "--metrics",
        (None, None) => return Ok(()),
    };
    Err(format!(
        "{flag} is only written by the cluster study (cluster, fig6..fig11b, all), \
         not by {cmd:?}"
    ))
}

/// Create every requested output destination before any run starts: the
/// `--json` directory, and the `--trace` / `--metrics` files (an existing
/// file is opened for appending, not truncated; the run overwrites it).
fn check_destinations(o: &Opts) -> Result<(), String> {
    if let Some(dir) = &o.json_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--json {dir}: {e}"))?;
    }
    for (flag, path) in [("--trace", &o.trace), ("--metrics", &o.metrics)] {
        if let Some(path) = path {
            let probe = std::fs::OpenOptions::new().append(true).create(true).open(path);
            probe.map_err(|e| format!("{flag} {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Unwrap the result of writing `path`, or exit 1 with the path and the OS
/// error: a write can still fail after `check_destinations` (a full disk,
/// a directory removed mid-run).
fn written<T>(path: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1)
    })
}

fn emit(opts: &Opts, name: &str, tables: &[Table]) {
    for t in tables {
        println!("{}", t.render());
    }
    if let Some(dir) = &opts.json_dir {
        let path = format!("{dir}/{name}.json");
        let payload = serde_json::to_string_pretty(tables).expect("serialize tables");
        written(&path, std::fs::write(&path, payload));
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
    let study = fig06_09_cluster::ClusterStudy::run(&cfg, &obs, opts.threads);
    eprintln!("[cluster study done in {:.1?}]", t0.elapsed());
    if let Some(path) = &opts.trace {
        written(path, obs.recorder.write_jsonl(std::path::Path::new(path)));
        eprintln!("[wrote {path}: {} events]", obs.recorder.len());
    }
    if let Some(path) = &opts.metrics {
        written(path, std::fs::write(path, obs.metrics.to_prometheus()));
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
    let study = fig12_dnn::DnnStudy::run(&workload, opts.threads);
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
    let study = trace_study::TraceStudy::run(&workload, opts.seed, opts.threads);
    eprintln!("[trace study done in {:.1?}]", t0.elapsed());
    if let Some(dir) = &opts.json_dir {
        for leg in &study.legs {
            let path = format!("{dir}/{}.json", trace_study::leg_slug(leg));
            written(&path, std::fs::write(&path, &leg.chrome_json));
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
        println!("recovery-digest {} cpm={} {:#018x}", r.scheduler, r.crashes_per_minute, r.digest);
    }
    if !recovery_sweep::all_match(&rows) {
        eprintln!("[recovery: BIT-IDENTITY CHECK FAILED — a recovered leg diverged]");
        std::process::exit(1);
    }
    eprintln!("[recovery: every recovered leg matches its uninterrupted baseline]");
}

fn run_scale(opts: &Opts) {
    let nodes: &[usize] = if opts.quick { &[32, 64, 128] } else { &[32, 64, 128, 256, 512, 1024] };
    let secs = opts.secs.unwrap_or(if opts.quick { 20 } else { 60 });
    eprintln!(
        "[scale sweep: {} node counts up to {}, {}s window each ...]",
        nodes.len(),
        nodes.last().copied().unwrap_or(0),
        secs
    );
    let t0 = std::time::Instant::now();
    let points = scale_sweep::run(nodes, secs, opts.seed);
    eprintln!("[scale sweep done in {:.1?}]", t0.elapsed());
    emit(opts, "scale", &[scale_sweep::table(&points)]);
    // Stable per-point digest lines: CI runs the sweep twice and diffs
    // these (the wall-clock columns above legitimately differ).
    for p in &points {
        println!("scale-digest nodes={} {:#018x}", p.nodes, p.digest);
    }
}

fn run_all(opts: &Opts) {
    run_fig1(opts);
    run_fig2(opts);
    run_fig3(opts);
    run_fig4(opts);
    run_cluster(opts);
    run_fig10b(opts);
    run_dnn(opts);
    run_ablations(opts);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    // Resolve the command first, so an unknown one creates no destination.
    let run: fn(&Opts) = match cmd {
        "fig1" => run_fig1,
        "fig2" => run_fig2,
        "fig3" => run_fig3,
        "fig4" => run_fig4,
        "cluster" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10a" | "fig11a" | "fig11b" => {
            run_cluster
        }
        "fig10b" => run_fig10b,
        "dnn" | "fig12a" | "fig12b" | "table4" => run_dnn,
        "trace" => run_trace,
        "ablation" | "ablations" => run_ablations,
        "chaos" => run_chaos,
        "recovery" => run_recovery,
        "scale" => run_scale,
        "all" => run_all,
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let opts = match parse_opts(args.get(1..).unwrap_or(&[])).and_then(|o| {
        check_sinks(cmd, &o)?;
        check_destinations(&o)?;
        Ok(o)
    }) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    run(&opts);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_opts(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn error(args: &[&str]) -> String {
        parse(args).err().expect("parse must fail")
    }

    #[test]
    fn flags_parse_into_opts() {
        let o = parse(&["--quick", "--seed", "7", "--secs", "5", "--threads", "3", "--json", "d"])
            .expect("valid flags");
        assert!(o.quick);
        assert_eq!((o.seed, o.secs, o.threads), (7, Some(5), 3));
        assert_eq!(o.json_dir.as_deref(), Some("d"));
        let d = parse(&[]).expect("no flags");
        assert_eq!((d.quick, d.seed, d.secs, d.json_dir), (false, 42, None, None));
        assert!(d.threads >= 1);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(error(&["--quik"]).contains("unknown flag"));
    }

    #[test]
    fn flag_without_its_value_is_rejected() {
        assert_eq!(error(&["--seed"]), "--seed requires a value");
        assert_eq!(error(&["--quick", "--json"]), "--json requires a value");
    }

    #[test]
    fn non_integer_values_are_rejected() {
        assert!(error(&["--secs", "ten"]).contains("not an integer"));
        assert!(error(&["--threads", "-1"]).contains("not an integer"));
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert_eq!(error(&["--threads", "0"]), "--threads must be >= 1");
    }

    #[test]
    fn sinks_are_refused_on_commands_that_ignore_them() {
        // `dnn --quick --metrics m.prom` used to exit 0 having written nothing.
        let metrics = parse(&["--quick", "--metrics", "m.prom"]).expect("valid flags");
        let err = check_sinks("dnn", &metrics).expect_err("dnn writes no metrics");
        assert!(err.starts_with("--metrics is only written by the cluster study"), "{err}");
        let both = parse(&["--trace", "t.jsonl", "--metrics", "m.prom"]).expect("valid flags");
        assert!(check_sinks("scale", &both).expect_err("refused").starts_with("--trace"));
        for cmd in ["fig1", "fig10b", "trace", "chaos", "recovery", "ablation"] {
            assert!(check_sinks(cmd, &both).is_err(), "{cmd} must refuse the sinks");
        }
        for cmd in SINK_COMMANDS {
            assert_eq!(check_sinks(cmd, &both), Ok(()), "{cmd} writes the sinks");
        }
        assert_eq!(check_sinks("dnn", &parse(&["--quick"]).expect("no sinks")), Ok(()));
    }

    #[test]
    fn uncreatable_destinations_are_refused_before_any_run() {
        // Nothing can be created under a regular file: refused before the
        // run, not after it.
        let under_file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
        for flag in ["--json", "--trace", "--metrics"] {
            let o = parse(&[flag, under_file]).expect("valid flags");
            let err = check_destinations(&o).expect_err("cannot be created");
            assert!(err.starts_with(&format!("{flag} {under_file}: ")), "{err}");
        }
        assert_eq!(check_destinations(&parse(&["--quick"]).expect("no sinks")), Ok(()));
    }

    #[test]
    fn zero_secs_is_rejected() {
        // A zero-length window runs nothing, yet every command would print
        // its pass line; refuse it up front instead.
        assert_eq!(error(&["--secs", "0"]), "--secs must be >= 1");
    }
}
