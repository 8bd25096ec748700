//! Criterion micro-benchmarks for the store prototype: request handling
//! under both schedules — the per-request cost behind Figure 6 — driven
//! through the serving runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piggyback_bench::flickr_dataset;
use piggyback_core::baseline::hybrid_schedule;
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::scheduler::Hybrid;
use piggyback_serve::{run_harness, Arrival, HarnessConfig, RpcMode, ServeConfig, ServeRuntime};
use piggyback_store::tuple::EventTuple;
use piggyback_store::view::View;
use piggyback_workload::OpTrace;
use std::hint::black_box;
use std::time::Duration;

fn bench_view_insert(c: &mut Criterion) {
    c.bench_function("view_insert_trimmed_128", |b| {
        b.iter(|| {
            let mut v = View::with_capacity(128);
            for i in 0..1000u64 {
                v.insert(EventTuple::new((i % 50) as u32, i, i));
            }
            black_box(v.len())
        });
    });
}

fn bench_request_mix(c: &mut Criterion) {
    let d = flickr_dataset(2000, 1);
    let ff = hybrid_schedule(&d.graph, &d.rates);
    let pn = ParallelNosy {
        max_iterations: 10,
        ..ParallelNosy::default()
    }
    .run(&d.graph, &d.rates)
    .schedule;
    // One caller-runs client replaying the same 10k share/query requests:
    // deterministic, single-threaded, every batch executed inline.
    let mut group = c.benchmark_group("simulate_10k_requests_200_servers");
    group.sample_size(10);
    for (name, sched) in [("hybrid", &ff), ("parallelnosy", &pn)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), sched, |b, sched| {
            b.iter(|| {
                let runtime = ServeRuntime::start(
                    d.graph.clone(),
                    d.rates.clone(),
                    sched.clone(),
                    Box::new(Hybrid),
                    ServeConfig {
                        shards: 200,
                        rpc: RpcMode::Direct,
                        ..Default::default()
                    },
                );
                let mut client = runtime.client();
                let messages = client.replay(OpTrace::new(&d.rates, 0.0, 9).take(10_000));
                drop(client);
                runtime.shutdown();
                black_box(messages)
            });
        });
    }
    group.finish();
}

fn bench_concurrent_cluster(c: &mut Criterion) {
    let d = flickr_dataset(1000, 1);
    let pn = ParallelNosy {
        max_iterations: 10,
        ..ParallelNosy::default()
    }
    .run(&d.graph, &d.rates)
    .schedule;
    let mut group = c.benchmark_group("concurrent_cluster");
    group.sample_size(10);
    group.bench_function("4_clients_x_100ms", |b| {
        b.iter(|| {
            let report = run_harness(
                &d.graph,
                &d.rates,
                pn.clone(),
                Box::new(Hybrid),
                ServeConfig {
                    shards: 64,
                    ..Default::default()
                },
                &HarnessConfig {
                    clients: 4,
                    duration: Duration::from_millis(100),
                    churn_ratio: 0.0,
                    arrival: Arrival::Closed,
                    seed: 3,
                    ..Default::default()
                },
            );
            black_box(report.ops)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_view_insert,
    bench_request_mix,
    bench_concurrent_cluster
);
criterion_main!(benches);
