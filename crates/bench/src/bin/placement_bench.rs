//! Placement benchmark: the wire message rate of every registered
//! partitioner under one optimized schedule, as JSON.
//!
//! Batching folds every view a request touches on one server into one
//! message (§4.3), so a partitioner is judged by the rate of messages the
//! wire actually carries: `PlacementCost::cost`, the distinct servers
//! each share and query reaches, weighted by rates. The headline is
//! `msgs_reduction_vs_hash`, LDG's saving over the paper's hash baseline;
//! `max_shard_wire` is the rate the hottest shard receives, since a total
//! saving can still concentrate load on one server.
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin placement_bench -- [--smoke] \
//!     [--nodes <n>] [--servers <n>] [--algorithm <scheduler>] [--seed <s>] \
//!     [--out <file>]
//! ```
//!
//! `--smoke` shrinks the graph for CI; the default configuration runs the
//! acceptance setting (100k-node flickr stand-in, 16 shards).

use std::time::Instant;

use piggyback_bench::{machine_json, REFERENCE_RW_RATIO};
use piggyback_core::scheduler::{by_name, Instance};
use piggyback_graph::gen;
use piggyback_store::placement::PlacementCost;
use piggyback_store::topology::{edges_cut, partitioners, PartitionRequest};
use piggyback_workload::Rates;

struct Args {
    smoke: bool,
    nodes: usize,
    servers: usize,
    algorithm: String,
    seed: u64,
    out: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let (mut nodes, mut servers) = (None, None);
    let mut algorithm = "parallelnosy".to_string();
    let mut seed = 42u64;
    let mut out = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--nodes" => {
                nodes = Some(argv[i + 1].parse().expect("--nodes"));
                i += 2;
            }
            "--servers" => {
                servers = Some(argv[i + 1].parse().expect("--servers"));
                i += 2;
            }
            "--algorithm" => {
                algorithm = argv[i + 1].clone();
                i += 2;
            }
            "--seed" => {
                seed = argv[i + 1].parse().expect("--seed");
                i += 2;
            }
            "--out" => {
                out = Some(argv[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    // Explicit flags win over the smoke/full presets, regardless of order.
    Args {
        smoke,
        nodes: nodes.unwrap_or(if smoke { 5000 } else { 100_000 }),
        servers: servers.unwrap_or(16),
        algorithm,
        seed,
        out,
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "# placement_bench: {} nodes, {} servers, schedule {}{}",
        args.nodes,
        args.servers,
        args.algorithm,
        if args.smoke { " (smoke)" } else { "" }
    );
    let g = gen::flickr_like(args.nodes, args.seed);
    let rates = Rates::log_degree(&g, REFERENCE_RW_RATIO);
    let opt = by_name(&args.algorithm).expect("registered scheduler");
    let t0 = Instant::now();
    let outcome = opt.schedule(&Instance::new(&g, &rates));
    eprintln!(
        "#   schedule cost {:.1} ({:.1}s to optimize)",
        outcome.stats.cost,
        t0.elapsed().as_secs_f64()
    );
    let req = PartitionRequest {
        graph: &g,
        rates: &rates,
        servers: args.servers,
        seed: args.seed,
        domains: None,
    };
    let pc = PlacementCost::new(&g, &rates, &outcome.schedule);
    let mut rows = Vec::new();
    let mut wire_by_name: Vec<(String, f64)> = Vec::new();
    for p in partitioners() {
        let t0 = Instant::now();
        let topology = p.partition(&req);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let wire = pc.cost(&topology);
        let hottest = pc
            .per_server_load(&topology)
            .into_iter()
            .fold(0.0, f64::max);
        let sizes = topology.shard_sizes();
        let cut = edges_cut(&g, &topology);
        eprintln!(
            "#   {:<6} wire {:>14.1}  hottest shard {:>12.1}  cut {:>8} edges  wall {:>8.1}ms",
            p.name(),
            wire,
            hottest,
            cut,
            wall_ms
        );
        wire_by_name.push((p.name().to_string(), wire));
        rows.push(format!(
            concat!(
                "    {{\"partitioner\": \"{}\", \"wire_cost\": {:.1}, ",
                "\"max_shard_wire\": {:.1}, \"edges_cut\": {}, ",
                "\"min_shard_users\": {}, \"max_shard_users\": {}, ",
                "\"wall_ms\": {:.1}}}"
            ),
            p.name(),
            wire,
            hottest,
            cut,
            sizes.iter().min().unwrap(),
            sizes.iter().max().unwrap(),
            wall_ms
        ));
    }
    let wire_of = |name: &str| {
        wire_by_name
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, c)| c)
            .unwrap_or_else(|| panic!("{name} partitioner registered"))
    };
    let reduction = 1.0 - wire_of("ldg") / wire_of("hash");
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"placement\",\n  \"machine\": {},\n  \"smoke\": {},\n",
            "  \"nodes\": {},\n  \"edges\": {},\n  \"servers\": {},\n",
            "  \"schedule_algorithm\": \"{}\",\n  \"schedule_cost\": {:.1},\n",
            "  \"seed\": {},\n",
            "  \"msgs_reduction_vs_hash\": {:.4},\n",
            "  \"results\": [\n{}\n  ]\n}}"
        ),
        machine_json(),
        args.smoke,
        g.node_count(),
        g.edge_count(),
        args.servers,
        args.algorithm,
        outcome.stats.cost,
        args.seed,
        reduction,
        rows.join(",\n")
    );
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).expect("write --out file");
        eprintln!("# wrote {path}");
    }
    eprintln!("# LDG cuts wire messages {:.1}% vs hash", reduction * 100.0);
}
