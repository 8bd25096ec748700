//! Property tests for the topology subsystem: the bounds of the wire cost
//! model, and determinism of every partitioner.
//!
//! Seeded-RNG style (no proptest in the offline build): each property is
//! exercised across a grid of graphs, schedules, server counts and seeds.

use piggyback_core::baseline::{hybrid_schedule, push_all_schedule};
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::schedule::Schedule;
use piggyback_graph::gen::{copying, erdos_renyi, CopyingConfig};
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_store::placement::PlacementCost;
use piggyback_store::topology::{partitioners, PartitionRequest, Topology};
use piggyback_workload::Rates;

fn instances() -> Vec<(&'static str, CsrGraph, Rates)> {
    let mut out = Vec::new();
    for seed in [3u64, 17] {
        let g = copying(CopyingConfig {
            nodes: 250,
            follows_per_node: 5,
            copy_prob: 0.75,
            seed,
        });
        let r = Rates::log_degree(&g, 5.0);
        out.push(("copying", g, r));
        let g = erdos_renyi(200, 900, seed);
        let r = Rates::log_degree(&g, 2.0);
        out.push(("erdos-renyi", g, r));
    }
    out
}

fn schedules(g: &CsrGraph, r: &Rates) -> Vec<(&'static str, Schedule)> {
    vec![
        ("push-all", push_all_schedule(g)),
        ("hybrid", hybrid_schedule(g, r)),
        ("parallelnosy", ParallelNosy::default().run(g, r).schedule),
    ]
}

/// Wire-cost bounds: every request sends at least one message (its own
/// view) and at most one per target view, so
/// `Σ(rp+rc) ≤ cost ≤ Σ rp(u)(|h[u]|+1) + rc(u)(|l[u]|+1)`, with equality
/// on the left at one server. Holds for every partitioner, schedule and
/// server count.
#[test]
fn wire_cost_lies_between_one_message_and_one_per_view() {
    for (gname, g, r) in &instances() {
        let users = 0..g.node_count() as NodeId;
        let floor: f64 = users.clone().map(|u| r.rp(u) + r.rc(u)).sum();
        for (sname, s) in &schedules(g, r) {
            let ceiling: f64 = users
                .clone()
                .map(|u| {
                    r.rp(u) * (s.push_set_of(g, u).len() + 1) as f64
                        + r.rc(u) * (s.pull_set_of(g, u).len() + 1) as f64
                })
                .sum();
            let pc = PlacementCost::new(g, r, s);
            for servers in [1usize, 2, 7, 16, 64] {
                for p in partitioners() {
                    let t = p.partition(&PartitionRequest {
                        graph: g,
                        rates: r,
                        servers,
                        seed: 11,
                        domains: None,
                    });
                    let cost = pc.cost(&t);
                    let ctx = format!("{gname}/{sname}/{} @{servers} servers", p.name());
                    assert!(cost >= floor - 1e-6, "{ctx}: cost {cost} < floor {floor}");
                    assert!(
                        cost <= ceiling + 1e-6,
                        "{ctx}: cost {cost} > ceiling {ceiling}"
                    );
                    // One server: every request is exactly one message.
                    if servers == 1 {
                        assert!((cost - floor).abs() < 1e-6, "{ctx}: {cost} != {floor}");
                    }
                }
            }
        }
    }
}

/// Determinism: every partitioner is a pure function of its request — the
/// same seed reproduces the identical topology, call after call.
#[test]
fn every_partitioner_is_stable_under_a_fixed_seed() {
    for (gname, g, r) in &instances() {
        for seed in [0u64, 42, 9999] {
            let req = PartitionRequest {
                graph: g,
                rates: r,
                servers: 12,
                seed,
                domains: None,
            };
            for p in partitioners() {
                let a = p.partition(&req);
                let b = p.partition(&req);
                assert_eq!(
                    a.assignment(),
                    b.assignment(),
                    "{gname}/{} not deterministic at seed {seed}",
                    p.name()
                );
                assert_eq!(a.servers(), 12);
                assert!(a.assignment().iter().all(|&sh| (sh as usize) < 12));
            }
        }
    }
}

/// Migration bookkeeping: `moved_users` is symmetric in size, empty for
/// identical topologies, and covers exactly the disagreeing users.
#[test]
fn moved_users_matches_assignment_diff() {
    let a = Topology::hash(500, 16, 1);
    let b = Topology::hash(500, 16, 2);
    assert!(a.moved_users(&a).is_empty());
    let moved = a.moved_users(&b);
    assert_eq!(moved.len(), b.moved_users(&a).len());
    for u in 0..500u32 {
        let differs = a.server_of(u) != b.server_of(u);
        assert_eq!(moved.contains(&u), differs, "user {u}");
    }
}
