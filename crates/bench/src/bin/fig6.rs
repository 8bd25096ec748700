//! Figure 6: *actual* per-client throughput of the store prototype as the
//! number of data-store servers grows, PARALLELNOSY vs FEEDINGFRENZY.
//!
//! Paper shape: absolute per-client throughput falls with more servers
//! (each request touches more distinct servers); the PN/FF ratio is ≈1 (FF
//! sometimes slightly ahead) in small systems and grows past a crossover
//! around 200 servers, reaching ≈1.2 at 500 and ≈1.35 at 1000.
//!
//! Uses the serving runtime through the closed-loop load harness with
//! churn off: shard workers behind channels, client threads replaying a
//! rate-faithful trace back-to-back, every message carrying the 24-byte
//! wire encoding. Wall-clock requests/second over a fixed run length,
//! averaged over trials (random placement makes single runs irregular —
//! §4.3 notes the same).
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin fig6 -- [nodes]
//! ```

use std::time::Duration;

use piggyback_bench::{
    flickr_dataset, nodes_from_args, print_dataset_banner, print_header, print_row,
};
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::{Hybrid, Instance, Scheduler};
use piggyback_graph::CsrGraph;
use piggyback_serve::{run_harness, Arrival, HarnessConfig, ServeConfig};
use piggyback_workload::Rates;

const TRIALS: u64 = 3;
/// Wall-clock length of one measured run.
const RUN: Duration = Duration::from_millis(300);

fn measure(
    g: &CsrGraph,
    rates: &Rates,
    sched: &Schedule,
    servers: usize,
    clients: usize,
    workers: usize,
) -> (f64, f64) {
    let (mut rps, mut msgs) = (0.0, 0.0);
    for trial in 0..TRIALS {
        let report = run_harness(
            g,
            rates,
            sched.clone(),
            Box::new(Hybrid),
            ServeConfig {
                shards: servers,
                workers,
                placement_seed: trial,
                ..Default::default()
            },
            &HarnessConfig {
                clients,
                duration: RUN,
                churn_ratio: 0.0,
                arrival: Arrival::Closed,
                seed: 17 + trial,
                ..Default::default()
            },
        );
        rps += report.throughput() / clients as f64;
        msgs += report.messages as f64 / report.ops.max(1) as f64;
    }
    (rps / TRIALS as f64, msgs / TRIALS as f64)
}

fn main() {
    let nodes = nodes_from_args();
    let d = flickr_dataset(nodes, 42);
    print_dataset_banner(&d);
    println!("# Figure 6: actual per-client throughput (req/s) vs number of servers");

    let inst = Instance::new(&d.graph, &d.rates);
    let schedulers: [&dyn Scheduler; 2] = [
        &ParallelNosy {
            max_iterations: 20,
            ..ParallelNosy::default()
        },
        &Hybrid,
    ];
    let [pn, ff] = schedulers.map(|s| s.schedule(&inst).schedule);

    let clients = 4;
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);

    print_header(&[
        "servers",
        "pn_req_per_sec",
        "ff_req_per_sec",
        "actual_improvement_ratio",
        "pn_msgs_per_req",
        "ff_msgs_per_req",
    ]);
    for servers in [1usize, 4, 16, 64, 200, 500, 1000] {
        let (pn_rps, pn_msgs) = measure(&d.graph, &d.rates, &pn, servers, clients, workers);
        let (ff_rps, ff_msgs) = measure(&d.graph, &d.rates, &ff, servers, clients, workers);
        print_row(&[
            servers.to_string(),
            format!("{pn_rps:.0}"),
            format!("{ff_rps:.0}"),
            format!("{:.3}", pn_rps / ff_rps),
            format!("{pn_msgs:.3}"),
            format!("{ff_msgs:.3}"),
        ]);
    }
}
