//! Simulator stepping throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use knots_sim::prelude::*;

fn loaded_cluster(nodes: usize) -> Cluster {
    let mut cfg = ClusterConfig::homogeneous(nodes, GpuModel::P100);
    cfg.overheads.cold_start_pull = SimDuration::ZERO;
    let mut cluster = Cluster::new(cfg);
    for i in 0..nodes * 2 {
        let profile = ResourceProfile::constant(0.3 + (i % 5) as f64 / 10.0, 1_500.0, 3_600.0);
        let id = cluster.submit(PodSpec::batch(format!("b-{i}"), profile), SimTime::ZERO);
        cluster.place(id, NodeId(i % nodes)).expect("place");
    }
    cluster
}

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_step");
    for &nodes in &[10usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("serial", nodes), &nodes, |b, &n| {
            let mut cluster = loaded_cluster(n);
            b.iter(|| cluster.step(SimDuration::from_millis(10)));
        });
    }
    group.finish();
}

fn bench_place_evict(c: &mut Criterion) {
    c.bench_function("place_preempt_resume_cycle", |b| {
        let mut cfg = ClusterConfig::homogeneous(4, GpuModel::P100);
        cfg.overheads.cold_start_pull = SimDuration::ZERO;
        cfg.overheads.resume_overhead = SimDuration::ZERO;
        let mut cluster = Cluster::new(cfg);
        let id = cluster.submit(
            PodSpec::batch("x", ResourceProfile::constant(0.5, 1_000.0, 3_600.0)),
            SimTime::ZERO,
        );
        cluster.place(id, NodeId(0)).expect("place");
        let mut target = 1usize;
        b.iter(|| {
            cluster.preempt(id).expect("preempt");
            cluster.resume(id, NodeId(target % 4)).expect("resume");
            target += 1;
        });
    });
}

criterion_group!(benches, bench_step, bench_place_evict);
criterion_main!(benches);
