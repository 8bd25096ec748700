//! Inputs: the social graph, its rates and the op sequence, all made from
//! the workload seed. The program under test receives only these.

use std::collections::HashSet;

use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::{Op, Rates};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The graph families the benchmark generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// `gen::flickr_like`: reciprocal, clustered.
    Flickr,
    /// `gen::twitter_like`: heavy-tailed follower counts.
    Twitter,
}

/// Generates an `n`-node graph of `model` from `seed`.
pub fn graph(model: Model, n: usize, seed: u64) -> CsrGraph {
    match model {
        Model::Flickr => piggyback_graph::gen::flickr_like(n, seed),
        Model::Twitter => piggyback_graph::gen::twitter_like(n, seed),
    }
}

/// Per-user rates `Rates::log_degree` with the given read/write ratio.
pub fn rates(g: &CsrGraph, read_write_ratio: f64) -> Rates {
    Rates::log_degree(g, read_write_ratio)
}

/// Samples users in proportion to a non-negative weight.
struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    fn new(weights: &[f64]) -> Self {
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w.max(0.0);
                acc
            })
            .collect();
        Weighted { cumulative }
    }

    fn total(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    fn sample(&self, rng: &mut StdRng) -> NodeId {
        let x = rng.random() * self.total();
        let i = self.cumulative.partition_point(|&c| c <= x);
        i.min(self.cumulative.len() - 1) as NodeId
    }
}

/// The op sequence of one run: shares and queries drawn from the rates
/// (user `u` shares with weight `rp(u)` and reads with weight `rc(u)`),
/// and with probability `churn` a follow or unfollow instead.
///
/// Follows name a pair that is not an edge at that point of the
/// sequence and unfollows an edge that is, so every churn op must be
/// applied: a refusal is a failure of the program, not of the input.
/// With `unfollow_any` an unfollow drops any live edge, so hub legs of
/// the initial graph go too; otherwise it retracts a follow issued
/// earlier in the sequence.
pub fn ops(
    g: &CsrGraph,
    rates: &Rates,
    churn: f64,
    unfollow_any: bool,
    count: usize,
    seed: u64,
) -> Vec<Op> {
    let n = g.node_count();
    assert!(n >= 2, "churn needs two users");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F0B_5EED_0F0B);
    let shares = Weighted::new(rates.rp_slice());
    let queries = Weighted::new(rates.rc_slice());
    let p_share = shares.total() / (shares.total() + queries.total());
    let mut live: Vec<(NodeId, NodeId)> = Vec::new();
    let mut live_set: HashSet<(NodeId, NodeId)> = HashSet::new();
    if churn > 0.0 {
        // Follows must avoid every existing edge; only unfollows that may
        // drop initial edges start from them.
        live_set = g.edges().map(|(_, u, v)| (u, v)).collect();
        if unfollow_any {
            live = g.edges().map(|(_, u, v)| (u, v)).collect();
        }
    }
    (0..count)
        .map(|_| {
            if churn > 0.0 && rng.random_bool(churn) {
                if rng.random_bool(0.5) && !live.is_empty() {
                    let (u, v) = live.swap_remove(rng.random_range(0..live.len()));
                    live_set.remove(&(u, v));
                    return Op::Unfollow(u, v);
                }
                loop {
                    let u = rng.random_range(0..n) as NodeId;
                    let v = rng.random_range(0..n) as NodeId;
                    if u != v && live_set.insert((u, v)) {
                        live.push((u, v));
                        return Op::Follow(u, v);
                    }
                }
            }
            if rng.random_bool(p_share) {
                Op::Share(shares.sample(&mut rng))
            } else {
                Op::Query(queries.sample(&mut rng))
            }
        })
        .collect()
}

/// Who may appear in a reader's feed: the producers it follows in the
/// initial graph, those it followed at any point of the run, and itself.
pub struct FeedOracle<'g> {
    g: &'g CsrGraph,
    followed: HashSet<(NodeId, NodeId)>,
}

impl<'g> FeedOracle<'g> {
    /// Oracle over the initial graph.
    pub fn new(g: &'g CsrGraph) -> Self {
        FeedOracle {
            g,
            followed: HashSet::new(),
        }
    }

    /// `v` followed `u` during the run.
    pub fn follow(&mut self, u: NodeId, v: NodeId) {
        self.followed.insert((u, v));
    }

    /// Whether an event of `producer` may appear in `reader`'s feed.
    pub fn allowed(&self, producer: NodeId, reader: NodeId) -> bool {
        producer == reader
            || self.g.has_edge(producer, reader)
            || self.followed.contains(&(producer, reader))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_repeat_per_seed_and_churn_is_applicable() {
        let g = graph(Model::Flickr, 300, 3);
        let r = rates(&g, 5.0);
        let initial: HashSet<(NodeId, NodeId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        let retract_only = ops(&g, &r, 0.2, false, 5_000, 11);
        let mut followed = HashSet::new();
        for op in &retract_only {
            match *op {
                Op::Follow(u, v) => assert!(!initial.contains(&(u, v)) && followed.insert((u, v))),
                Op::Unfollow(u, v) => assert!(followed.remove(&(u, v)), "retracted a non-follow"),
                _ => {}
            }
        }
        let a = ops(&g, &r, 0.2, true, 5_000, 11);
        assert_eq!(a, ops(&g, &r, 0.2, true, 5_000, 11));
        assert_ne!(a, ops(&g, &r, 0.2, true, 5_000, 12));
        let mut edges = initial.clone();
        let mut dropped_initial = 0;
        let (mut reads, mut writes, mut churn) = (0, 0, 0);
        for op in &a {
            match *op {
                Op::Follow(u, v) => {
                    assert!(u != v && edges.insert((u, v)), "follow of an edge");
                    churn += 1;
                }
                Op::Unfollow(u, v) => {
                    assert!(edges.remove(&(u, v)), "unfollow of a non-edge");
                    dropped_initial += usize::from(initial.contains(&(u, v)));
                    churn += 1;
                }
                Op::Share(_) => writes += 1,
                Op::Query(_) => reads += 1,
            }
        }
        assert!((800..1200).contains(&churn), "churn {churn}");
        assert!(dropped_initial > 0, "no initial edge unfollowed");
        let rw = reads as f64 / writes as f64;
        assert!((4.0..6.0).contains(&rw), "read/write {rw}");
    }

    #[test]
    fn feed_oracle_allows_followed_producers_only() {
        let g = graph(Model::Flickr, 200, 1);
        let (_, u, v) = g.edges().next().unwrap();
        let stranger = (0..200).find(|&x| x != v && !g.has_edge(x, v)).unwrap();
        let mut o = FeedOracle::new(&g);
        assert!(o.allowed(u, v) && o.allowed(v, v));
        assert!(!o.allowed(stranger, v));
        o.follow(stranger, v);
        assert!(o.allowed(stranger, v));
    }
}
