//! Optimizer benchmark suite: wall-clock, oracle-call, and memory accounting
//! for every schedule optimizer across graph models, sizes, and thread
//! counts, emitting machine-readable JSON (`BENCH_opt.json`).
//!
//! Per world it runs the hybrid baseline, batch `chitchat`, streaming
//! `chitchat-stream` and `parallelnosy`, each at every requested thread
//! count; thread-sweep rows differ only in wall time (every optimizer is
//! deterministic across thread counts). Speedups are measured A/B against
//! the merge-base binary, not against an in-tree baseline; the
//! pre-optimization greedy lives on as the differential test oracle in
//! `crates/core/tests/chitchat_reference.rs`.
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin opt_bench -- [--smoke] \
//!     [--nodes <n>[,<n>...]] [--threads <t>[,<t>...]] [--out <file>]
//! ```
//!
//! **Every row runs in its own subprocess** (the binary re-execs itself
//! with `--one <model> <nodes> <algorithm> <threads>`): Linux's `VmHWM` is
//! a process-lifetime high-water mark, so measuring rows in one process
//! makes every row after the largest read the same stale peak. One process
//! per row gives each measurement its own accurate peak — `peak_rss_kb`
//! is the true footprint of generating that world and running that
//! algorithm, nothing else.
//!
//! The JSON records the machine it ran on (`nproc`, CPU model). `--smoke`
//! shrinks everything for CI (a couple of seconds: 2000-node worlds,
//! threads 1 and 2). The default sweep runs Flickr-like worlds of 10k,
//! 100k, 2.2M and 10M nodes plus a denser Twitter-like world at the
//! smallest size. Past 50k nodes only the endpoint thread counts run, and
//! past 1M nodes only the hybrid baseline and `chitchat-stream` (a batch
//! row at that size would run for hours). Where both run, the streaming
//! cost must land within 5% of batch CHITCHAT: a violation is listed under
//! `gate_failures` in the JSON and fails the run once every row has run.

use std::process::Command;
use std::time::Instant;

use piggyback_bench::{machine_json, REFERENCE_RW_RATIO};
use piggyback_core::scheduler::{by_name_with_threads, Instance};
use piggyback_graph::gen;
use piggyback_workload::Rates;

/// Above this node count only the endpoint thread counts run (the scaling
/// curve's interior adds hours without information).
const FULL_MATRIX_MAX_NODES: usize = 50_000;

/// Above this node count only the hybrid baseline and the streaming
/// CHITCHAT run: the batch optimizers' wall time at 2.2M+ nodes is exactly
/// the cost the streaming path exists to avoid.
const BATCH_MAX_NODES: usize = 1_000_000;

struct Args {
    smoke: bool,
    /// Node counts for the Flickr-like sweep (the Twitter-like instance
    /// uses the smallest entry: denser graphs, same edge ballpark).
    nodes: Vec<usize>,
    threads: Vec<usize>,
    out: Option<String>,
}

fn parse_list(v: &str, flag: &str) -> Vec<usize> {
    v.split(',')
        .map(|x| {
            x.parse()
                .unwrap_or_else(|_| panic!("invalid {flag}: {x:?}"))
        })
        .collect()
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let (mut nodes, mut threads, mut out) = (None, None, None);
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--nodes" => {
                nodes = Some(parse_list(&argv[i + 1], "--nodes"));
                i += 2;
            }
            "--threads" => {
                threads = Some(parse_list(&argv[i + 1], "--threads"));
                i += 2;
            }
            "--out" => {
                out = Some(argv[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    Args {
        smoke,
        nodes: nodes.unwrap_or(if smoke {
            vec![2_000]
        } else {
            vec![10_000, 100_000, 2_200_000, 10_000_000]
        }),
        threads: threads.unwrap_or(if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] }),
        out,
    }
}

/// The process peak-RSS high-water mark from /proc (kB), 0 where
/// unavailable. Meaningful because each row runs in its own process.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

#[derive(Clone)]
struct Row {
    model: String,
    nodes: usize,
    edges: usize,
    algorithm: String,
    threads: usize,
    wall_ms: f64,
    cost: f64,
    vs_hybrid: f64,
    oracle_calls: usize,
    iterations: usize,
    hubs: usize,
    peak_rss_kb: u64,
    fanout_busy_ms: f64,
    fanout_capacity_ms: f64,
}

impl Row {
    /// Fraction of fan-out capacity spent busy; 1.0 for rows without any
    /// fan-out sections (the per-thread utilization the CI gate checks).
    fn busy_frac(&self) -> f64 {
        if self.fanout_capacity_ms <= 0.0 {
            1.0
        } else {
            (self.fanout_busy_ms / self.fanout_capacity_ms).min(1.0)
        }
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"model\": \"{}\", \"nodes\": {}, \"edges\": {}, ",
                "\"algorithm\": \"{}\", \"threads\": {}, \"wall_ms\": {:.1}, ",
                "\"cost\": {:.2}, \"vs_hybrid\": {:.4}, \"oracle_calls\": {}, ",
                "\"iterations\": {}, \"hubs\": {}, \"peak_rss_kb\": {}, ",
                "\"fanout_busy_ms\": {:.1}, \"fanout_capacity_ms\": {:.1}, ",
                "\"busy_frac\": {:.3}}}"
            ),
            self.model,
            self.nodes,
            self.edges,
            self.algorithm,
            self.threads,
            self.wall_ms,
            self.cost,
            self.vs_hybrid,
            self.oracle_calls,
            self.iterations,
            self.hubs,
            self.peak_rss_kb,
            self.fanout_busy_ms,
            self.fanout_capacity_ms,
            self.busy_frac(),
        )
    }

    /// The child → parent wire format: one `key=value` per line. Avoids a
    /// JSON parser dependency; the parent re-serializes.
    fn to_wire(&self) -> String {
        format!(
            "model={}\nnodes={}\nedges={}\nalgorithm={}\nthreads={}\nwall_ms={}\ncost={}\nvs_hybrid={}\noracle_calls={}\niterations={}\nhubs={}\npeak_rss_kb={}\nfanout_busy_ms={}\nfanout_capacity_ms={}\n",
            self.model,
            self.nodes,
            self.edges,
            self.algorithm,
            self.threads,
            self.wall_ms,
            self.cost,
            self.vs_hybrid,
            self.oracle_calls,
            self.iterations,
            self.hubs,
            self.peak_rss_kb,
            self.fanout_busy_ms,
            self.fanout_capacity_ms,
        )
    }

    fn from_wire(text: &str) -> Row {
        let get = |key: &str| -> &str {
            text.lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .unwrap_or_else(|| panic!("child row missing {key:?} in {text:?}"))
        };
        Row {
            model: get("model").to_string(),
            nodes: get("nodes").parse().unwrap(),
            edges: get("edges").parse().unwrap(),
            algorithm: get("algorithm").to_string(),
            threads: get("threads").parse().unwrap(),
            wall_ms: get("wall_ms").parse().unwrap(),
            cost: get("cost").parse().unwrap(),
            vs_hybrid: get("vs_hybrid").parse().unwrap(),
            oracle_calls: get("oracle_calls").parse().unwrap(),
            iterations: get("iterations").parse().unwrap(),
            hubs: get("hubs").parse().unwrap(),
            peak_rss_kb: get("peak_rss_kb").parse().unwrap(),
            fanout_busy_ms: get("fanout_busy_ms").parse().unwrap(),
            fanout_capacity_ms: get("fanout_capacity_ms").parse().unwrap(),
        }
    }
}

fn build_world(model: &str, n: usize) -> (piggyback_graph::CsrGraph, Rates) {
    let g = match model {
        "flickr" => gen::flickr_like(n, 42),
        "twitter" => gen::twitter_like(n, 42),
        other => panic!("unknown model {other:?}"),
    };
    let rates = Rates::log_degree(&g, REFERENCE_RW_RATIO);
    (g, rates)
}

/// Child mode: generate the world, run one algorithm, print the row in
/// wire format. Runs in a process of its own so `peak_rss_kb` is exact.
fn run_child(model: &str, n: usize, algorithm: &str, threads: usize) {
    let (g, rates) = build_world(model, n);
    let inst = Instance::new(&g, &rates);

    // The hybrid baseline cost, computed inline: O(m), negligible next to
    // any optimizer, and it keeps the child self-contained.
    let hybrid_cost = {
        let sched = piggyback_core::hybrid_schedule(&g, &rates);
        piggyback_core::schedule_cost(&g, &rates, &sched)
    };

    let (wall_ms, cost, oracle_calls, iterations, hubs, busy_ms, capacity_ms) =
        if algorithm == "hybrid" {
            let start = Instant::now();
            let sched = piggyback_core::hybrid_schedule(&g, &rates);
            let wall = start.elapsed().as_secs_f64() * 1e3;
            let cost = piggyback_core::schedule_cost(&g, &rates, &sched);
            (wall, cost, 0, 0, 0, 0.0, 0.0)
        } else {
            let opt = by_name_with_threads(algorithm, threads).expect("registered scheduler");
            let out = opt.schedule(&inst);
            (
                out.stats.wall_time.as_secs_f64() * 1e3,
                out.stats.cost,
                out.stats.oracle_calls,
                out.stats.iterations,
                out.stats.hubs_applied,
                out.stats.fanout_busy_ms,
                out.stats.fanout_capacity_ms,
            )
        };

    let row = Row {
        model: model.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        algorithm: algorithm.to_string(),
        threads,
        wall_ms,
        cost,
        vs_hybrid: hybrid_cost / cost,
        oracle_calls,
        iterations,
        hubs,
        peak_rss_kb: peak_rss_kb(),
        fanout_busy_ms: busy_ms,
        fanout_capacity_ms: capacity_ms,
    };
    print!("{}", row.to_wire());
}

/// Parent side: re-exec ourselves for one row and parse the result.
fn spawn_row(model: &str, n: usize, algorithm: &str, threads: usize) -> Row {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args([
            "--one",
            model,
            &n.to_string(),
            algorithm,
            &threads.to_string(),
        ])
        .output()
        .expect("spawn benchmark child");
    assert!(
        out.status.success(),
        "child {model}/{n}/{algorithm}/t{threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let row = Row::from_wire(&String::from_utf8_lossy(&out.stdout));
    eprintln!(
        "#   {:<16} t={:<2} {:>10.1} ms  cost {:>12.1}  ({:.3}x vs hybrid)  rss {} kB  busy {:.2}",
        row.algorithm,
        row.threads,
        row.wall_ms,
        row.cost,
        row.vs_hybrid,
        row.peak_rss_kb,
        row.busy_frac(),
    );
    row
}

fn main() {
    // Child mode: `--one <model> <nodes> <algorithm> <threads>`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--one") {
        assert_eq!(argv.len(), 5, "--one <model> <nodes> <algorithm> <threads>");
        run_child(
            &argv[1],
            argv[2].parse().expect("nodes"),
            &argv[3],
            argv[4].parse().expect("threads"),
        );
        return;
    }

    let args = parse_args();
    let mut rows: Vec<Row> = Vec::new();
    // Gate violations fail the run only after every row ran and the JSON
    // (which lists them) is written, so a failing sweep still leaves its
    // evidence behind.
    let mut gate_failures: Vec<String> = Vec::new();
    let mut worlds: Vec<(&'static str, usize)> =
        args.nodes.iter().map(|&n| ("flickr", n)).collect();
    // One denser Twitter-like instance at the smallest size (its edge count
    // roughly doubles the Flickr preset's).
    worlds.push(("twitter", args.nodes[0]));

    for (model, n) in worlds {
        eprintln!("# opt_bench: {model} {n} nodes");
        let batch = n <= BATCH_MAX_NODES;
        // Past the full-matrix limit, only the endpoint thread counts run.
        let threads: Vec<usize> = if n <= FULL_MATRIX_MAX_NODES {
            args.threads.clone()
        } else {
            let lo = args.threads.iter().copied().min().unwrap_or(1);
            let hi = args.threads.iter().copied().max().unwrap_or(1);
            if lo == hi {
                vec![lo]
            } else {
                vec![lo, hi]
            }
        };

        rows.push(spawn_row(model, n, "hybrid", 1));

        let mut batch_chitchat_cost = None;
        if batch {
            for &t in &threads {
                let row = spawn_row(model, n, "chitchat", t);
                batch_chitchat_cost = Some(row.cost);
                rows.push(row);
            }
        }
        for &t in &threads {
            let row = spawn_row(model, n, "chitchat-stream", t);
            if let Some(cb) = batch_chitchat_cost {
                // The streaming differential gate: one ordered sweep plus
                // short refinement must land within 5% of the batch greedy.
                if row.cost > cb * 1.05 {
                    gate_failures.push(format!(
                        "{model}/{n} t={t}: chitchat-stream cost {:.2} more than 5% above batch {cb:.2}",
                        row.cost
                    ));
                }
            }
            rows.push(row);
        }
        if batch {
            for &t in &threads {
                rows.push(spawn_row(model, n, "parallelnosy", t));
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"opt\",\n  \"machine\": {},\n  \"smoke\": {},\n  \"rw_ratio\": {},\n  \"seed\": 42,\n  \"gate_failures\": [{}],\n  \"results\": [\n{}\n  ]\n}}",
        machine_json(),
        args.smoke,
        REFERENCE_RW_RATIO,
        gate_failures
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n")
    );
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).expect("write --out file");
        eprintln!("# wrote {path}");
    }

    // Thread-scaling table per world: batch chitchat wall by threads.
    let mut seen: Vec<(String, usize)> = Vec::new();
    for r in rows.iter().filter(|r| r.algorithm == "chitchat") {
        let key = (r.model.clone(), r.nodes);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let series: Vec<String> = rows
            .iter()
            .filter(|x| x.algorithm == "chitchat" && x.model == r.model && x.nodes == r.nodes)
            .map(|x| format!("t{}={:.0}ms", x.threads, x.wall_ms))
            .collect();
        eprintln!(
            "# scaling {}/{}: {} (busy {:.2})",
            r.model,
            r.nodes,
            series.join(" "),
            r.busy_frac()
        );
    }
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("# GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
