//! Differential test of `ChitChat::run` against the pre-optimization
//! CHITCHAT greedy.
//!
//! [`reference_chitchat`] is Algorithm 1 as first implemented, on the
//! public API only: exact seeding with one allocating `densest_hub_graph`
//! call per node, lazy pop-and-recompute selection, a strict recompute of
//! the affected hub after every selection, and per-probe
//! `hybrid_edge_cost` singleton prices. The optimized run replaces each of
//! those with a cheaper equivalent (closed-form bound seeding, batched
//! parallel re-validation, skipped or deferred recomputes, precomputed edge
//! costs) around the same argmin greedy. Exact ties between equally-priced
//! candidates may resolve differently, so costs must agree to
//! tie-breaking noise — and the optimized run must never make more oracle
//! calls.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

use piggyback_core::bitset::BitSet;
use piggyback_core::cost::{hybrid_edge_cost, schedule_cost};
use piggyback_core::densest::{densest_hub_graph, HubSelection};
use piggyback_core::validate::validate_bounded_staleness;
use piggyback_core::{ChitChat, Schedule};
use piggyback_graph::gen::{copying, erdos_renyi, flickr_like, twitter_like, CopyingConfig};
use piggyback_graph::{CsrGraph, EdgeId, GraphBuilder, NodeId};
use piggyback_workload::Rates;

/// Total order over the (never NaN) cost-per-element keys.
#[derive(Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("NaN key")
    }
}

struct Reference {
    schedule: Schedule,
    oracle_calls: usize,
}

/// The pre-optimization CHITCHAT greedy. Each step takes the argmin of
/// `(exact cost-per-element, node id)` over the hub candidates, unless the
/// cheapest uncovered singleton is at least as cheap.
fn reference_chitchat(g: &CsrGraph, rates: &Rates, cross_cap: usize) -> Reference {
    let n = g.node_count();
    let m = g.edge_count();
    let mut sched = Schedule::for_graph(g);
    let mut z = BitSet::new(m);
    for e in 0..m as EdgeId {
        z.insert(e);
    }
    let mut oracle_calls = 0usize;
    let mut stamp = vec![0u32; n];
    let mut verified = vec![0u32; n];
    let mut heap: BinaryHeap<Reverse<(Key, NodeId, u32)>> = BinaryHeap::new();

    // Exact seeding: one oracle call per node.
    for w in 0..n as NodeId {
        oracle_calls += 1;
        if let Some(sel) = densest_hub_graph(g, rates, w, &sched, &z, cross_cap) {
            heap.push(Reverse((Key(sel.cost_per_element()), w, 0)));
        }
    }

    let single_cost = |e: EdgeId| {
        let (u, v) = g.edge_endpoints(e);
        hybrid_edge_cost(rates, u, v)
    };
    let mut singles: Vec<EdgeId> = (0..m as EdgeId).collect();
    singles.sort_unstable_by_key(|&e| Key(single_cost(e)));
    let mut single_ptr = 0usize;

    let mut round = 0u32;
    while !z.is_empty() {
        while !z.contains(singles[single_ptr]) {
            single_ptr += 1;
        }
        let single_cpe = single_cost(singles[single_ptr]);

        // Lazy pop-and-recompute: an entry recomputed this round is exact,
        // and every other key is a lower bound, so a recomputed entry that
        // surfaces again is the argmin.
        round += 1;
        let mut fresh: HashMap<NodeId, HubSelection> = HashMap::new();
        let selected = loop {
            let Some(&Reverse((key, w, st))) = heap.peek() else {
                break None;
            };
            if st != stamp[w as usize] {
                heap.pop();
                continue;
            }
            if key.0 >= single_cpe {
                break None;
            }
            heap.pop();
            if verified[w as usize] == round {
                break fresh.remove(&w);
            }
            stamp[w as usize] += 1;
            oracle_calls += 1;
            if let Some(sel) = densest_hub_graph(g, rates, w, &sched, &z, cross_cap) {
                verified[w as usize] = round;
                heap.push(Reverse((Key(sel.cost_per_element()), w, stamp[w as usize])));
                fresh.insert(w, sel);
            }
        };

        // Apply the selection; paying a leg changes only one hub-graph's
        // weights, which is recomputed strictly.
        let hub = match selected {
            Some(sel) => {
                for &(_, e) in &sel.xs {
                    sched.set_push(e);
                    z.remove(e);
                }
                for &(_, e) in &sel.ys {
                    sched.set_pull(e);
                    z.remove(e);
                }
                for &e in &sel.cross {
                    sched.set_covered(e, sel.hub);
                    z.remove(e);
                }
                sel.hub
            }
            None => {
                let e = singles[single_ptr];
                let (u, v) = g.edge_endpoints(e);
                z.remove(e);
                if rates.rp(u) <= rates.rc(v) {
                    sched.set_push(e);
                    v
                } else {
                    sched.set_pull(e);
                    u
                }
            }
        };
        stamp[hub as usize] += 1;
        oracle_calls += 1;
        if let Some(sel) = densest_hub_graph(g, rates, hub, &sched, &z, cross_cap) {
            heap.push(Reverse((
                Key(sel.cost_per_element()),
                hub,
                stamp[hub as usize],
            )));
        }
    }

    Reference {
        schedule: sched,
        oracle_calls,
    }
}

/// Runs both executions on one world and checks feasibility, cost within
/// `tolerance` (relative) and the oracle-call ordering.
fn assert_matches_reference(name: &str, g: &CsrGraph, r: &Rates, tolerance: f64) {
    let cc = ChitChat::default();
    let fast = cc.run(g, r);
    let reference = reference_chitchat(g, r, cc.cross_cap);
    validate_bounded_staleness(g, &fast.schedule).unwrap();
    validate_bounded_staleness(g, &reference.schedule).unwrap();
    let cf = schedule_cost(g, r, &fast.schedule);
    let cr = schedule_cost(g, r, &reference.schedule);
    assert!(
        (cf - cr).abs() <= tolerance * cr.max(1.0),
        "{name}: fast cost {cf} vs reference cost {cr}"
    );
    // Bound seeding and the inert skip only ever *save* calls.
    assert!(
        fast.oracle_calls <= reference.oracle_calls,
        "{name}: fast made more oracle calls ({} > {})",
        fast.oracle_calls,
        reference.oracle_calls
    );
}

fn log_degree(g: CsrGraph) -> (CsrGraph, Rates) {
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

#[test]
fn matches_reference_implementation() {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1); // Art -> Charlie
    b.add_edge(1, 2); // Charlie -> Billie
    b.add_edge(0, 2); // Art -> Billie
    let worlds = [
        ("fig2", (b.build(), Rates::uniform(3, 1.0, 5.0))),
        ("er-80", log_degree(erdos_renyi(80, 400, 11))),
        (
            "copying-300",
            log_degree(copying(CopyingConfig {
                nodes: 300,
                follows_per_node: 6,
                copy_prob: 0.9,
                seed: 6,
            })),
        ),
    ];
    for (name, (g, r)) in &worlds {
        assert_matches_reference(name, g, r, 1e-2);
    }
}

// The benchmark-sized worlds, at the 0.5% bound. Release builds only: the
// reference greedy is slow unoptimized.

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn matches_reference_on_flickr_2000() {
    let (g, r) = log_degree(flickr_like(2000, 42));
    assert_matches_reference("flickr-2000", &g, &r, 5e-3);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn matches_reference_on_twitter_2000() {
    let (g, r) = log_degree(twitter_like(2000, 42));
    assert_matches_reference("twitter-2000", &g, &r, 5e-3);
}
