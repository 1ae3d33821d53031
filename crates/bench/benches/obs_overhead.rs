//! Observability overhead: a scheduler round with no recorder, a disabled
//! recorder, and a live recorder, plus raw event-record and span-record
//! throughput. The acceptance bar is that a disabled recorder/tracer costs
//! <5% — tracing must be free when nobody asked for it (the wall-time form
//! of that bar is asserted in `tests/trace_overhead.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use knots_obs::{Event, FieldValue, Recorder, Tracer, Track};
use knots_sched::context::{app_key, PendingPodView, SchedContext};
use knots_sched::{cbp::Cbp, pp::CbpPp, Scheduler};
use knots_sim::ids::{NodeId, PodId};
use knots_sim::metrics::GpuSample;
use knots_sim::pod::QosClass;
use knots_sim::resources::{GpuModel, Usage};
use knots_sim::time::{SimDuration, SimTime};
use knots_telemetry::{ClusterSnapshot, NodeView, PodView, TimeSeriesDb};

fn snapshot(nodes: usize, pods_per_node: usize) -> ClusterSnapshot {
    let node_views = (0..nodes)
        .map(|i| {
            let pods: Vec<PodView> = (0..pods_per_node)
                .map(|j| PodView {
                    id: PodId((i * 100 + j) as u64),
                    name: format!("app{}-{}", j % 4, j),
                    qos: QosClass::Batch,
                    limit_mb: 2_000.0,
                    request_mb: 3_000.0,
                    usage: Usage::new(0.2, 1_800.0, 0.0, 0.0),
                    pulling: false,
                    attained_service_secs: (j * 40) as f64,
                })
                .collect();
            let used = pods.iter().map(|p| p.usage.mem_mb).sum::<f64>();
            NodeView {
                id: NodeId(i),
                model: GpuModel::P100,
                capacity_mb: 16_384.0,
                free_measured_mb: 16_384.0 - used,
                free_provision_mb: 16_384.0 - pods.len() as f64 * 2_000.0,
                sample: GpuSample { sm_util: 0.3, mem_used_mb: used, ..Default::default() },
                pods,
                asleep: false,
                waking: false,
            }
        })
        .collect();
    ClusterSnapshot { at: SimTime::from_secs(10), nodes: node_views }
}

fn pending(n: usize) -> Vec<PendingPodView> {
    (0..n)
        .map(|i| PendingPodView {
            id: PodId(10_000 + i as u64),
            name: format!("app{}-{i}", i % 4),
            app: app_key(&format!("app{}-{i}", i % 4)),
            qos: if i % 3 == 0 { QosClass::latency_critical() } else { QosClass::Batch },
            request_mb: 1_000.0 + (i % 8) as f64 * 500.0,
            limit_mb: 1_000.0 + (i % 8) as f64 * 500.0,
            greedy_memory: i % 3 == 0,
            allow_growth: false,
            arrival: SimTime::ZERO,
            crashes: 0,
        })
        .collect()
}

fn seeded_tsdb(nodes: usize, pods_per_node: usize) -> TimeSeriesDb {
    let db = TimeSeriesDb::default();
    for i in 0..nodes {
        for t in 0..500u64 {
            db.push_node(
                NodeId(i),
                GpuSample {
                    at: SimTime::from_millis(t * 10),
                    sm_util: 0.3,
                    mem_used_mb: 3_000.0 + (t % 50) as f64 * 20.0,
                    ..Default::default()
                },
            );
            for j in 0..pods_per_node {
                db.push_pod(
                    PodId((i * 100 + j) as u64),
                    SimTime::from_millis(t * 10),
                    Usage::new(0.2, 1_500.0 + ((t + j as u64) % 40) as f64 * 25.0, 0.0, 0.0),
                );
            }
        }
    }
    db
}

fn bench_decide_with_recorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("decide_obs");
    let (nodes, queue) = (64usize, 64usize);
    let snap = snapshot(nodes, 2);
    let pend = pending(queue);
    let db = seeded_tsdb(nodes, 2);
    let disabled = Recorder::disabled();
    let live = Recorder::bounded(1 << 16);
    let modes: [(&str, Option<&Recorder>); 3] =
        [("none", None), ("disabled", Some(&disabled)), ("enabled", Some(&live))];
    for (label, recorder) in modes {
        let ctx = || SchedContext {
            now: snap.at,
            snapshot: &snap,
            pending: &pend,
            suspended: &[],
            tsdb: &db,
            window: SimDuration::from_secs(5),
            recorder,
            cache: Default::default(),
            freshness: None,
            shards: 1,
        };
        group.bench_with_input(BenchmarkId::new("cbp", label), &(), |b, _| {
            let mut s = Cbp::new();
            b.iter(|| s.decide(&ctx()));
        });
        group.bench_with_input(BenchmarkId::new("cbp_pp", label), &(), |b, _| {
            let mut s = CbpPp::new();
            b.iter(|| s.decide(&ctx()));
        });
    }
    group.finish();
}

fn bench_record_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("record");
    let disabled = Recorder::disabled();
    let live = Recorder::bounded(1 << 16);
    let modes: [(&str, &Recorder); 2] = [("disabled", &disabled), ("enabled", &live)];
    for (label, rec) in modes {
        group.bench_with_input(BenchmarkId::new("event", label), &(), |b, _| {
            b.iter(|| {
                rec.record(
                    Event::new("bench", "sched.correlation")
                        .at(1_000_000)
                        .node(3)
                        .str("scheduler", "CBP")
                        .f64("spearman_rho", 0.73)
                        .bool("admitted", false),
                );
            });
        });
    }
    group.finish();
}

fn bench_trace_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    let disabled = Tracer::disabled();
    let live = Tracer::bounded(1 << 16);
    let modes: [(&str, &Tracer); 2] = [("disabled", &disabled), ("enabled", &live)];
    for (label, tracer) in modes {
        // The guarded form the orchestrator uses: the disabled mode should
        // collapse to one branch and never build the args vector.
        group.bench_with_input(BenchmarkId::new("span_guarded", label), &(), |b, _| {
            b.iter(|| {
                if tracer.enabled() {
                    tracer.record_complete(
                        Track::Pod(7),
                        "sched.round",
                        1_000,
                        2_000,
                        None,
                        vec![
                            ("scheduler", FieldValue::Str("CBP+PP".into())),
                            ("kind", FieldValue::U64(1)),
                        ],
                    );
                }
            });
        });
        // The unguarded API cost, args included.
        group.bench_with_input(BenchmarkId::new("span_instant", label), &(), |b, _| {
            b.iter(|| {
                tracer.record_instant(
                    Track::Control,
                    "probe.round",
                    1_000,
                    None,
                    vec![("nodes", FieldValue::U64(10))],
                );
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decide_with_recorder,
    bench_record_throughput,
    bench_trace_throughput
);
criterion_main!(benches);
