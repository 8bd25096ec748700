//! Prototype saturation behaviour: per-request latency percentiles as the
//! offered load (client threads) grows.
//!
//! §4.3: "Since queries involve only simple processing of in-memory data
//! structures, the latency per request is very low unless the system
//! becomes saturated." Expected shape: p50/p99 flat while throughput scales
//! with clients, then climbing sharply once the shard workers saturate.
//!
//! Each row is one closed-loop load-harness run of the serving runtime
//! with churn off (64 shards, 2 shard workers).
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin prototype_latency -- [nodes]
//! ```

use std::time::Duration;

use piggyback_bench::{
    flickr_dataset, nodes_from_args, print_dataset_banner, print_header, print_row,
};
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::scheduler::{Hybrid, Instance, Scheduler};
use piggyback_serve::{run_harness, Arrival, HarnessConfig, ServeConfig};

fn main() {
    let nodes = if std::env::args().nth(1).is_some() {
        nodes_from_args()
    } else {
        2000
    };
    let d = flickr_dataset(nodes, 42);
    print_dataset_banner(&d);
    println!("# Prototype latency vs offered load (workers fixed at 2)");

    let scheduler: &dyn Scheduler = &ParallelNosy {
        max_iterations: 15,
        ..ParallelNosy::default()
    };
    let pn = scheduler
        .schedule(&Instance::new(&d.graph, &d.rates))
        .schedule;

    print_header(&["clients", "total_req_per_sec", "p50_us", "p99_us", "max_ms"]);
    for clients in [1usize, 2, 4, 8, 16, 32] {
        let report = run_harness(
            &d.graph,
            &d.rates,
            pn.clone(),
            Box::new(Hybrid),
            ServeConfig {
                shards: 64,
                workers: 2,
                ..Default::default()
            },
            &HarnessConfig {
                clients,
                duration: Duration::from_millis(300),
                churn_ratio: 0.0,
                arrival: Arrival::Closed,
                seed: 5,
                ..Default::default()
            },
        );
        print_row(&[
            clients.to_string(),
            format!("{:.0}", report.throughput()),
            format!("{:.1}", report.latency.quantile_ns(0.5) as f64 / 1_000.0),
            format!("{:.1}", report.latency.quantile_ns(0.99) as f64 / 1_000.0),
            format!("{:.2}", report.latency.max_ns() as f64 / 1_000_000.0),
        ]);
    }
}
