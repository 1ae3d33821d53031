//! The Kube-Knots benchmark: two workloads run through the real program,
//! end-to-end host-time metrics from untraced runs, and per-layer metrics
//! from a traced driver that times calls into each layer from outside.
//!
//! Correctness is a fidelity gate, not a metric: every leg's report digest
//! must repeat across passes and, on the default seed, match
//! `reference.json`; every traced leg must end in the same cluster + TSDB
//! state as the orchestrator's own run of that leg.

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod driver;
pub mod prof;
pub mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use prof::{Counter, Layer, Profile};
use workload::{LegSpec, Size, Workload};

/// The reference digests, compiled in.
pub const REFERENCE_JSON: &str = include_str!("../reference.json");

/// End-to-end metric names and units (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metric names and units (`--trace 1`).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 38] = [
        ("core.calendar.self_s", "s"),
        ("core.calendar.events", "count"),
        ("core.calendar.ns_per_event", "ns"),
        ("sim.step.self_s", "s"),
        ("sim.step.node_ticks", "count"),
        ("sim.step.quiet_node_ticks", "count"),
        ("sim.step.ns_per_node_tick", "ns"),
        ("telemetry.probe.self_s", "s"),
        ("telemetry.probe.samples", "count"),
        ("telemetry.probe.ns_per_sample", "ns"),
        ("telemetry.snapshot.self_s", "s"),
        ("telemetry.snapshot.calls", "count"),
        ("telemetry.snapshot.us_per_call", "us"),
        ("sched.decide.self_s", "s"),
        ("sched.decide.calls", "count"),
        ("sched.decide.us_per_call", "us"),
        ("sched.decide.p99_us", "us"),
        ("sched.decide.cache_hit_ratio", "ratio"),
        ("sim.apply.self_s", "s"),
        ("sim.apply.actions", "count"),
        ("sim.apply.applied_ratio", "ratio"),
        ("core.round.p50_us", "us"),
        ("core.round.p99_us", "us"),
        ("core.gc.self_s", "s"),
        ("chaos.inject.self_s", "s"),
        ("chaos.inject.actions", "count"),
        ("recovery.capture.self_s", "s"),
        ("recovery.capture.count", "count"),
        ("recovery.capture.bytes", "bytes"),
        ("recovery.restore.self_s", "s"),
        ("recovery.replay.self_s", "s"),
        ("recovery.replay.records", "count"),
        ("bench.handoff.self_s", "s"),
        ("alloc.bytes", "bytes"),
        ("alloc.count", "count"),
        ("alloc.bytes_per_pod", "bytes"),
        ("trace.unattributed_share", "ratio"),
        ("trace.overhead_share", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    out.push(("trace.wall_s".to_string(), "s"));
    for l in Layer::ALL {
        out.push((format!("alloc.{}.bytes", l.name()), "bytes"));
        out.push((format!("alloc.{}.count", l.name()), "count"));
    }
    out
}

/// Reference report digests, per workload and leg, for the default seed.
pub type Reference = BTreeMap<String, BTreeMap<String, u64>>;

/// Parse the `digests` table of a reference file.
pub fn parse_reference(text: &str) -> Result<Reference, String> {
    let v: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let digests =
        v.get("digests").and_then(|d| d.as_object()).ok_or("reference has no digests table")?;
    let mut out = Reference::new();
    for (workload, legs) in digests {
        let legs = legs.as_object().ok_or("a workload's digests must be an object")?;
        let mut m = BTreeMap::new();
        for (leg, hex) in legs {
            let hex = hex.as_str().ok_or("digests are hex strings")?;
            let d =
                u64::from_str_radix(hex.trim_start_matches("0x"), 16).map_err(|e| e.to_string())?;
            m.insert(leg.clone(), d);
        }
        out.insert(workload.clone(), m);
    }
    Ok(out)
}

/// The reference half of the fidelity gate: every leg whose report does
/// not depend on the seed, and on the default seed every leg, must match
/// its pinned digest. Seeded legs on other seeds have no reference.
pub fn check_reference(
    workload: Workload,
    seed: u64,
    legs: &[LegSpec],
    digests: &[(String, u64)],
    reference: &Reference,
) -> Result<(), String> {
    for (leg, (label, d)) in legs.iter().zip(digests) {
        if leg.seeded && seed != workload::DEFAULT_SEED {
            continue;
        }
        let want = reference
            .get(workload.name())
            .and_then(|pinned| pinned.get(label))
            .ok_or(format!("{label}: no reference digest"))?;
        if want != d {
            return Err(format!("{label}: report digest {d:#018x} != reference {want:#018x}"));
        }
    }
    Ok(())
}

/// What the host and build looked like.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `Cluster::workers()` the workload's clusters resolve to.
    pub workers: usize,
    /// `Cluster::shards()` of the workload's clusters.
    pub shards: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Provenance {
    /// Probe the host and the workload's first leg.
    pub fn probe(leg: &LegSpec) -> Provenance {
        let cluster = knots_sim::cluster::Cluster::new(leg.prepare().cluster_cfg);
        Provenance {
            nproc: nproc(),
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            workers: cluster.workers(),
            shards: cluster.shards(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }
}

/// Count the CPUs in this process's affinity mask (`Cpus_allowed_list`).
fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return 0;
    };
    list.trim()
        .split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// One run's result.
pub struct Outcome {
    /// Legs executed.
    pub attempted: u64,
    /// Legs that failed the fidelity gate (first failures, for the log).
    pub failures: Vec<String>,
    /// Metric name → (value, unit), in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-leg report digests of the first pass.
    pub digests: Vec<(String, u64)>,
    /// Per-leg untraced run seconds, one sample per pass.
    pub leg_walls: Vec<Vec<f64>>,
    /// Untraced pass wall seconds, in run order.
    pub pass_walls: Vec<f64>,
    /// Traced pass wall seconds, in run order.
    pub traced_walls: Vec<f64>,
    /// Host and build.
    pub provenance: Provenance,
}

/// Sum over legs of each leg's fastest sample.
///
/// Host interference only ever adds time, and on a shared 2-vCPU VM it comes in
/// phases of seconds to minutes that can cover most of a run (the same
/// leg reads up to 1.6x slower with identical page faults and no system
/// time). The fastest sample of each leg is its least-disturbed cost; a
/// median over passes reports whichever phase dominated the run.
fn sum_of_minimums(per_leg: &[Vec<f64>]) -> f64 {
    per_leg.iter().map(|v| fastest(v)).sum()
}

/// The smallest sample.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Extra set-ups per leg per untraced pass, so `setup_s` is taken over
/// enough samples even when passes are few. They are spread over the run
/// like the leg runs, not bunched at its start.
const SETUP_SAMPLES: usize = 5;

/// Run `workload` for about `seconds` of measured passes (at least one).
///
/// Untraced (`trace == false`): repeat untraced passes over all legs and
/// report each end-to-end metric as the sum over legs of the leg's fastest
/// pass (peak RSS: the process's peak). Traced: alternate
/// an untraced pass (which also digests final states) with a traced pass,
/// and report the per-layer metrics per traced pass.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    reference: &Reference,
) -> Outcome {
    let legs = workload.legs(seed, size);
    let provenance = Provenance::probe(&legs[0]);
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // Per-leg samples over passes. Each end-to-end metric is the sum over
    // legs of the leg's fastest sample, so a burst of host noise costs one
    // sample of the legs it overlaps instead of a whole pass.
    let t0 = Instant::now();
    let mut setups = vec![Vec::new(); legs.len()];
    let (mut runs, mut cpus) = (vec![Vec::new(); legs.len()], vec![Vec::new(); legs.len()]);

    let mut first: Option<Vec<(String, u64)>> = None;
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut profile = Profile::default();
    loop {
        // Untraced pass.
        let mut wall = 0.0;
        let mut digests = Vec::new();
        let mut states = Vec::new();
        for (i, leg) in legs.iter().enumerate() {
            if !trace {
                for _ in 0..SETUP_SAMPLES {
                    setups[i].push(workload::setup_only(leg));
                }
            }
            attempted += 1;
            match workload::run_untraced(leg, trace) {
                Ok(r) => {
                    wall += r.run_s;
                    runs[i].push(r.run_s);
                    cpus[i].push(r.cpu_s);
                    setups[i].push(r.setup_s);
                    digests.push((leg.label.clone(), r.report_digest));
                    states.push(r.state_digest);
                }
                Err(e) => {
                    failures.push(e);
                    digests.push((leg.label.clone(), 0));
                    states.push(None);
                }
            }
        }
        walls.push(wall);
        match &first {
            None => {
                if let Err(e) = check_reference(workload, seed, &legs, &digests, reference) {
                    failures.push(e);
                }
                first = Some(digests);
            }
            Some(f) => {
                for ((leg, a), (_, b)) in f.iter().zip(digests.iter()) {
                    if a != b {
                        failures.push(format!("{leg}: report digest changed between passes"));
                    }
                }
            }
        }

        // Traced pass.
        if trace {
            let mut traced_wall = 0.0;
            for (leg, want) in legs.iter().zip(states.iter()) {
                attempted += 1;
                let p = leg.prepare();
                prof::reset();
                prof::set_alloc_counting(true);
                let result = driver::run_traced(leg, &p);
                prof::set_alloc_counting(false);
                let (d, leg_wall) = match result {
                    Ok(x) => x,
                    Err(e) => {
                        failures.push(e);
                        continue;
                    }
                };
                traced_wall += leg_wall;
                profile.merge(&prof::take());
                if Some(workload::state_digest(d.cluster(), d.tsdb())) != *want {
                    failures.push(format!(
                        "{}: traced driver's final state differs from the orchestrator's",
                        leg.label
                    ));
                }
            }
            traced_walls.push(traced_wall);
        }
        // Stop before a pass that would end past the budget, so a run
        // takes about `seconds` whatever the pass length.
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / walls.len() as f64 > seconds {
            break;
        }
    }

    let metrics = if trace {
        per_layer_metrics(&profile, &traced_walls, &walls)
    } else {
        vec![
            ("wall_s".to_string(), sum_of_minimums(&runs), "s"),
            ("cpu_s".to_string(), sum_of_minimums(&cpus), "s"),
            ("setup_s".to_string(), sum_of_minimums(&setups), "s"),
            ("peak_rss_mb".to_string(), prof::peak_rss_mb(), "MiB"),
        ]
    };
    Outcome {
        attempted,
        failures,
        metrics,
        digests: first.unwrap_or_default(),
        leg_walls: runs,
        pass_walls: walls,
        traced_walls,
        provenance,
    }
}

/// Per-traced-pass layer metrics.
fn per_layer_metrics(
    total: &Profile,
    traced_walls: &[f64],
    walls: &[f64],
) -> Vec<(String, f64, &'static str)> {
    let n = traced_walls.len().max(1) as f64;
    let c = |k: Counter| total.get(k) as f64 / n;
    let s = |l: Layer| total.self_s(l) / n;
    let per = |num: f64, den: f64, scale: f64| if den > 0.0 { num / den * scale } else { 0.0 };
    let wall = traced_walls.iter().sum::<f64>() / n;
    let alloc_bytes = total.alloc_bytes.iter().sum::<u64>() as f64 / n;
    let alloc_count = total.alloc_count.iter().sum::<u64>() as f64 / n;
    let hits = c(Counter::CacheHits);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    put("core.calendar.self_s", s(Layer::Calendar));
    put("core.calendar.events", c(Counter::Events));
    put("core.calendar.ns_per_event", per(s(Layer::Calendar), c(Counter::Events), 1e9));
    put("sim.step.self_s", s(Layer::Step));
    put("sim.step.node_ticks", c(Counter::NodeTicks));
    put("sim.step.quiet_node_ticks", c(Counter::QuietNodeTicks));
    put("sim.step.ns_per_node_tick", per(s(Layer::Step), c(Counter::NodeTicks), 1e9));
    put("telemetry.probe.self_s", s(Layer::Probe));
    put("telemetry.probe.samples", c(Counter::Samples));
    put("telemetry.probe.ns_per_sample", per(s(Layer::Probe), c(Counter::Samples), 1e9));
    put("telemetry.snapshot.self_s", s(Layer::Snapshot));
    put("telemetry.snapshot.calls", c(Counter::Snapshots));
    put("telemetry.snapshot.us_per_call", per(s(Layer::Snapshot), c(Counter::Snapshots), 1e6));
    put("sched.decide.self_s", s(Layer::Decide));
    put("sched.decide.calls", total.decide.count() as f64 / n);
    put("sched.decide.us_per_call", per(s(Layer::Decide), total.decide.count() as f64 / n, 1e6));
    put("sched.decide.p99_us", total.decide.quantile_us(0.99));
    put("sched.decide.cache_hit_ratio", per(hits, hits + c(Counter::CacheMisses), 1.0));
    put("sim.apply.self_s", s(Layer::Apply));
    put("sim.apply.actions", c(Counter::Actions));
    put("sim.apply.applied_ratio", per(c(Counter::Applied), c(Counter::Actions), 1.0));
    put("core.round.p50_us", total.round.quantile_us(0.50));
    put("core.round.p99_us", total.round.quantile_us(0.99));
    put("core.gc.self_s", s(Layer::Gc));
    put("chaos.inject.self_s", s(Layer::Chaos));
    put("chaos.inject.actions", c(Counter::ChaosActions));
    put("recovery.capture.self_s", s(Layer::Capture));
    put("recovery.capture.count", c(Counter::Captures));
    put("recovery.capture.bytes", c(Counter::CaptureBytes));
    put("recovery.restore.self_s", s(Layer::Restore));
    put("recovery.replay.self_s", s(Layer::Replay));
    put("recovery.replay.records", c(Counter::ReplayedRecords));
    put("bench.handoff.self_s", s(Layer::Handoff));
    put("alloc.bytes", alloc_bytes);
    put("alloc.count", alloc_count);
    put("alloc.bytes_per_pod", per(alloc_bytes, c(Counter::Pods), 1.0));
    put("trace.unattributed_share", per(wall - total.total_self_s() / n, wall, 1.0));
    put("trace.overhead_share", per(fastest(traced_walls), fastest(walls), 1.0) - 1.0);
    put("trace.wall_s", wall);
    for l in Layer::ALL {
        put(&format!("alloc.{}.bytes", l.name()), total.alloc_bytes[l as usize] as f64 / n);
        put(&format!("alloc.{}.count", l.name()), total.alloc_count[l as usize] as f64 / n);
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v =
                values.get(&name).copied().expect("every declared per-layer metric is computed");
            (name, v, unit)
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted,
        o.failures.len(),
        metrics.join(", ")
    )
}

/// The provenance line printed before the result.
pub fn provenance_json(
    o: &Outcome,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> String {
    let p = &o.provenance;
    let digests: Vec<String> =
        o.digests.iter().map(|(l, d)| format!("\"{l}\": \"{d:#018x}\"")).collect();
    let list = |xs: &[f64]| xs.iter().map(|w| json_num(*w)).collect::<Vec<_>>().join(", ");
    let walls: Vec<String> = o
        .digests
        .iter()
        .zip(&o.leg_walls)
        .map(|((l, _), w)| format!("\"{l}\": [{}]", list(w)))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"workers\": {}, \"shards\": {}, \"profile\": \"{}\", \
         \"pass_wall_s\": [{}], \"traced_pass_wall_s\": [{}], \"digests\": {{{}}}, \"leg_wall_s\": {{{}}}}}}}",
        workload.name(),
        json_num(seconds),
        u8::from(trace),
        p.nproc,
        p.available_parallelism,
        p.workers,
        p.shards,
        p.profile,
        list(&o.pass_walls),
        list(&o.traced_walls),
        digests.join(", "),
        walls.join(", ")
    )
}

/// A JSON number with all its digits. Every metric is a ratio guarded
/// against a zero base, so a non-finite value is a benchmark bug.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}
