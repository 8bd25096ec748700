//! Placement-aware predicted cost (§4.3, Figures 7–8) — the one
//! multi-server cost model, priced exactly as the batched wire pays.
//!
//! Batching makes co-located views free: a request touching five views on
//! two servers costs two messages. A share writes every replica slot of
//! every target view; a query reads one slot per view, the primary while
//! nothing is faulted (the client's `fan_out` in [`crate::worker`]). The
//! predicted cost of a schedule under a topology is therefore
//!
//! ```text
//! c = Σ_u rp(u) · |slots({u} ∪ h[u])|  +  rc(u) · |primaries({u} ∪ l[u])|
//! ```
//!
//! where `slots(X)` is the set of servers holding any replica of a view in
//! `X` and `primaries(X)` the set of home servers. At replication 1 both
//! are the distinct home servers. With one server every request costs
//! exactly one message regardless of the schedule (both algorithms tie);
//! as servers multiply, co-location vanishes and the cost converges to the
//! placement-free model of §2.1 — reproducing the crossover and
//! convergence of Figure 7.

use piggyback_core::schedule::Schedule;
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::Rates;

use crate::topology::Topology;

/// Placement-aware cost and load computations for a schedule.
#[derive(Clone, Debug)]
pub struct PlacementCost<'a> {
    g: &'a CsrGraph,
    rates: &'a Rates,
    /// `{u} ∪ h[u]` per user.
    update_targets: Vec<Vec<NodeId>>,
    /// `{u} ∪ l[u]` per user.
    query_targets: Vec<Vec<NodeId>>,
}

impl<'a> PlacementCost<'a> {
    /// Precompiles the per-user view target sets of a schedule.
    pub fn new(g: &'a CsrGraph, rates: &'a Rates, schedule: &Schedule) -> Self {
        assert_eq!(g.edge_count(), schedule.edge_count());
        let n = g.node_count();
        let mut update_targets = Vec::with_capacity(n);
        let mut query_targets = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            let mut h = schedule.push_set_of(g, u);
            h.push(u);
            update_targets.push(h);
            let mut l = schedule.pull_set_of(g, u);
            l.push(u);
            query_targets.push(l);
        }
        PlacementCost {
            g,
            rates,
            update_targets,
            query_targets,
        }
    }

    /// Fills `out` with the servers one share by `u` sends to: the
    /// distinct servers over every replica slot of `{u} ∪ h[u]`.
    fn share_servers(&self, topology: &Topology, u: NodeId, out: &mut Vec<usize>) {
        out.clear();
        for &v in &self.update_targets[u as usize] {
            out.extend(topology.replica_slots(v));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Fills `out` with the servers one query by `u` sends to: the
    /// distinct home servers of `{u} ∪ l[u]` (reads go to the primary slot
    /// while nothing is faulted).
    fn query_servers(&self, topology: &Topology, u: NodeId, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.query_targets[u as usize]
                .iter()
                .map(|&v| topology.server_of(v)),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Messages one share by `u` sends under `topology`.
    pub fn share_messages(&self, topology: &Topology, u: NodeId) -> usize {
        let mut servers = Vec::new();
        self.share_servers(topology, u, &mut servers);
        servers.len()
    }

    /// Messages one query by `u` sends under `topology`.
    pub fn query_messages(&self, topology: &Topology, u: NodeId) -> usize {
        let mut servers = Vec::new();
        self.query_servers(topology, u, &mut servers);
        servers.len()
    }

    /// Total message rate under `topology` (lower is better).
    pub fn cost(&self, topology: &Topology) -> f64 {
        let mut servers = Vec::new();
        let mut total = 0.0;
        for u in 0..self.g.node_count() as NodeId {
            self.share_servers(topology, u, &mut servers);
            let up = servers.len();
            self.query_servers(topology, u, &mut servers);
            total += self.rates.rp(u) * up as f64 + self.rates.rc(u) * servers.len() as f64;
        }
        total
    }

    /// Message rate arriving at each server, shares and queries alike:
    /// `out[s]` sums `rp(u)` over the shares and `rc(u)` over the queries
    /// that send a message to `s`. Sums to [`cost`](PlacementCost::cost).
    pub fn per_server_load(&self, topology: &Topology) -> Vec<f64> {
        self.tally(topology, true)
    }

    /// Predicted throughput (inverse cost) normalized by the single-server
    /// optimum, where every request is exactly one message — the y-axis of
    /// Figure 7.
    pub fn normalized_throughput(&self, topology: &Topology) -> f64 {
        let one_server: f64 = (0..self.g.node_count())
            .map(|u| self.rates.rp(u as NodeId) + self.rates.rc(u as NodeId))
            .sum();
        let c = self.cost(topology);
        if c == 0.0 {
            return 1.0;
        }
        one_server / c
    }

    /// Query-message rate arriving at each server — Figure 8's load metric.
    /// `out[s]` is the rate of query messages server `s` receives.
    pub fn per_server_query_load(&self, topology: &Topology) -> Vec<f64> {
        self.tally(topology, false)
    }

    /// Per-server message rate of every query, plus every share when
    /// `shares` is set.
    fn tally(&self, topology: &Topology, shares: bool) -> Vec<f64> {
        let mut load = vec![0.0; topology.servers()];
        let mut servers = Vec::new();
        for u in 0..self.g.node_count() as NodeId {
            if shares {
                self.share_servers(topology, u, &mut servers);
                for &s in &servers {
                    load[s] += self.rates.rp(u);
                }
            }
            self.query_servers(topology, u, &mut servers);
            for &s in &servers {
                load[s] += self.rates.rc(u);
            }
        }
        load
    }

    /// `(mean, variance)` of the normalized per-server query load: each
    /// server's share of the total query-message rate.
    pub fn load_balance(&self, topology: &Topology) -> (f64, f64) {
        let load = self.per_server_query_load(topology);
        let total: f64 = load.iter().sum();
        if total == 0.0 {
            return (0.0, 0.0);
        }
        let norm: Vec<f64> = load.iter().map(|l| l / total).collect();
        let mean = norm.iter().sum::<f64>() / norm.len() as f64;
        let var = norm.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / norm.len() as f64;
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::baseline::hybrid_schedule;
    use piggyback_core::parallelnosy::ParallelNosy;
    use piggyback_graph::gen::{copying, CopyingConfig};

    fn world() -> (CsrGraph, Rates) {
        let g = copying(CopyingConfig {
            nodes: 300,
            follows_per_node: 6,
            copy_prob: 0.8,
            seed: 14,
        });
        let r = Rates::log_degree(&g, 5.0);
        (g, r)
    }

    #[test]
    fn one_server_cost_is_total_rate() {
        let (g, r) = world();
        let s = hybrid_schedule(&g, &r);
        let pc = PlacementCost::new(&g, &r, &s);
        let topology = Topology::single_server(g.node_count());
        let expect: f64 = (0..g.node_count())
            .map(|u| r.rp(u as u32) + r.rc(u as u32))
            .sum();
        assert!((pc.cost(&topology) - expect).abs() < 1e-9);
        assert!((pc.normalized_throughput(&topology) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_decreases_with_servers() {
        let (g, r) = world();
        let s = hybrid_schedule(&g, &r);
        let pc = PlacementCost::new(&g, &r, &s);
        let t1 = pc.normalized_throughput(&Topology::single_server(300));
        let t10 = pc.normalized_throughput(&Topology::hash(300, 10, 0));
        let t1000 = pc.normalized_throughput(&Topology::hash(300, 1000, 0));
        assert!(t1 >= t10 && t10 >= t1000, "{t1} {t10} {t1000}");
    }

    #[test]
    fn pn_wins_at_scale_but_not_tiny_systems() {
        let (g, r) = world();
        let ff = hybrid_schedule(&g, &r);
        let pn = ParallelNosy::default().run(&g, &r).schedule;
        let pc_ff = PlacementCost::new(&g, &r, &ff);
        let pc_pn = PlacementCost::new(&g, &r, &pn);
        // Tiny system: costs are equal (both = one message per request).
        let one = Topology::single_server(300);
        assert!((pc_ff.cost(&one) - pc_pn.cost(&one)).abs() < 1e-9);
        // Large system: piggybacking pulls ahead (Figure 7's crossover).
        let big = Topology::hash(300, 2000, 0);
        assert!(
            pc_pn.cost(&big) < pc_ff.cost(&big),
            "PN should win at scale: {} vs {}",
            pc_pn.cost(&big),
            pc_ff.cost(&big)
        );
    }

    #[test]
    fn converges_to_placement_free_cost() {
        use piggyback_core::cost::schedule_cost;
        let (g, r) = world();
        let pn = ParallelNosy::default().run(&g, &r).schedule;
        let pc = PlacementCost::new(&g, &r, &pn);
        // With servers >> views-per-request, every view lands on its own
        // server: cost = placement-free cost + one self-view message per
        // request (the own-view access the §2.1 model treats as implicit).
        let huge = Topology::hash(300, 1_000_000, 3);
        let implicit: f64 = (0..g.node_count())
            .map(|u| r.rp(u as u32) + r.rc(u as u32))
            .sum();
        let expect = schedule_cost(&g, &r, &pn) + implicit;
        let got = pc.cost(&huge);
        assert!(
            (got - expect).abs() / expect < 0.02,
            "expected ≈{expect}, got {got}"
        );
    }

    #[test]
    fn load_concentrates_on_fewer_servers() {
        let (g, r) = world();
        let s = hybrid_schedule(&g, &r);
        let pc = PlacementCost::new(&g, &r, &s);
        let load4 = pc.per_server_query_load(&Topology::hash(300, 4, 0));
        let load64 = pc.per_server_query_load(&Topology::hash(300, 64, 0));
        let avg4 = load4.iter().sum::<f64>() / 4.0;
        let avg64 = load64.iter().sum::<f64>() / 64.0;
        assert!(avg4 > avg64, "per-server load must fall with more servers");
    }

    #[test]
    fn load_balance_mean_is_uniform_share() {
        let (g, r) = world();
        let s = hybrid_schedule(&g, &r);
        let pc = PlacementCost::new(&g, &r, &s);
        let (mean, var) = pc.load_balance(&Topology::hash(300, 32, 1));
        assert!((mean - 1.0 / 32.0).abs() < 1e-12);
        assert!(var < 1e-3, "hash placement should balance well: {var}");
    }

    #[test]
    fn replication_amplifies_shares_but_not_queries() {
        let (g, r) = world();
        let pn = ParallelNosy::default().run(&g, &r).schedule;
        let pc = PlacementCost::new(&g, &r, &pn);
        let one = Topology::hash(300, 8, 2);
        let two = Topology::hash(300, 8, 2).with_replication(2);
        let spread = Topology::hash(300, 8, 2)
            .with_domains(Topology::block_domains(8, 2))
            .with_replication(2);
        for u in 0..300u32 {
            let base = pc.share_messages(&one, u);
            for t in [&two, &spread] {
                // Every target's second slot may land on a new server, but
                // never on fewer than the primaries and never on more than
                // two per target.
                let k = pc.share_messages(t, u);
                assert!(k >= base && k <= 2 * base, "user {u}: {k} vs {base}");
                assert_eq!(pc.query_messages(t, u), pc.query_messages(&one, u));
            }
        }
        assert!(pc.cost(&two) > pc.cost(&one));
    }

    #[test]
    fn per_server_load_sums_to_cost() {
        let (g, r) = world();
        let pn = ParallelNosy::default().run(&g, &r).schedule;
        let pc = PlacementCost::new(&g, &r, &pn);
        for t in [
            Topology::hash(300, 7, 1),
            Topology::hash(300, 6, 1).with_replication(3),
        ] {
            let load: f64 = pc.per_server_load(&t).iter().sum();
            assert!((load - pc.cost(&t)).abs() < 1e-6 * pc.cost(&t));
        }
    }

    #[test]
    fn ldg_sends_fewer_messages_than_hash() {
        use crate::topology::{HashPartitioner, LdgPartitioner, PartitionRequest, Partitioner};
        let (g, r) = world();
        let pn = ParallelNosy::default().run(&g, &r).schedule;
        let pc = PlacementCost::new(&g, &r, &pn);
        let req = PartitionRequest {
            graph: &g,
            rates: &r,
            servers: 8,
            seed: 3,
            domains: None,
        };
        let (hash, ldg) = (
            pc.cost(&HashPartitioner.partition(&req)),
            pc.cost(&LdgPartitioner.partition(&req)),
        );
        assert!(ldg < hash, "LDG {ldg} vs hash {hash}");
    }
}
