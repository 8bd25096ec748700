//! The throughput cost model of §2.1.
//!
//! ```text
//! c(H, L) = Σ_{u→v ∈ H} rp(u)  +  Σ_{u→v ∈ L} rc(v)
//! ```
//!
//! Predicted throughput is the inverse of cost (§4.2); the *predicted
//! improvement ratio* of algorithm A over a baseline B is
//! `t_A / t_B = c_B / c_A`.
//!
//! The model charges every scheduled message the same. Once views are
//! spread over servers, batching folds every view a request touches on
//! one server into one message; that multi-server price lives with the
//! topology, in `piggyback_store::placement::PlacementCost`.

use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::Rates;

use crate::schedule::Schedule;

/// Cost of serving edge `u → v` directly under the hybrid policy of
/// Silberstein et al.: the cheaper of a push and a pull,
/// `c*(u → v) = min(rp(u), rc(v))`.
#[inline]
pub fn hybrid_edge_cost(rates: &Rates, u: NodeId, v: NodeId) -> f64 {
    rates.rp(u).min(rates.rc(v))
}

/// Total cost `c(H, L)` of a schedule (§2.1).
///
/// Covered edges cost nothing — that is the whole point of piggybacking.
/// Unassigned edges also contribute nothing; callers who want a *feasible*
/// cost should validate the schedule first (see [`crate::validate`]).
pub fn schedule_cost(g: &CsrGraph, rates: &Rates, s: &Schedule) -> f64 {
    assert_eq!(
        g.edge_count(),
        s.edge_count(),
        "schedule sized for a different graph"
    );
    let mut cost = 0.0;
    for e in s.push_edges() {
        let (u, _) = g.edge_endpoints(e);
        cost += rates.rp(u);
    }
    for e in s.pull_edges() {
        let (_, v) = g.edge_endpoints(e);
        cost += rates.rc(v);
    }
    cost
}

/// Predicted throughput `t = 1 / c` (§4.2). Infinite for zero-cost
/// schedules (empty graphs).
pub fn predicted_throughput(g: &CsrGraph, rates: &Rates, s: &Schedule) -> f64 {
    let c = schedule_cost(g, rates, s);
    if c == 0.0 {
        f64::INFINITY
    } else {
        1.0 / c
    }
}

/// Predicted improvement ratio `t_A / t_B = c_B / c_A` of schedule `a` over
/// baseline `b`. Greater than 1 means `a` outperforms `b`.
pub fn predicted_improvement(g: &CsrGraph, rates: &Rates, a: &Schedule, b: &Schedule) -> f64 {
    let ca = schedule_cost(g, rates, a);
    let cb = schedule_cost(g, rates, b);
    if ca == 0.0 {
        if cb == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cb / ca
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_graph::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1); // e0
        b.add_edge(0, 2); // e1
        b.add_edge(1, 2); // e2
        b.build()
    }

    fn rates() -> Rates {
        Rates::from_vecs(vec![2.0, 3.0, 5.0], vec![7.0, 11.0, 13.0])
    }

    #[test]
    fn cost_sums_push_rp_and_pull_rc() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0); // push 0->1 : rp(0) = 2
        s.set_pull(2); // pull 1->2 : rc(2) = 13
        s.set_covered(1, 1); // covered: free
        assert!((schedule_cost(&g, &r, &s) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn push_and_pull_pays_both() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0);
        s.set_pull(0); // rp(0) + rc(1) = 2 + 11
        assert!((schedule_cost(&g, &r, &s) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn hybrid_cost_picks_min() {
        let r = rates();
        assert_eq!(hybrid_edge_cost(&r, 0, 1), 2.0); // min(rp0=2, rc1=11)
        assert_eq!(hybrid_edge_cost(&r, 2, 0), 5.0); // min(rp2=5, rc0=7)
    }

    #[test]
    fn throughput_is_inverse_cost() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0);
        assert!((predicted_throughput(&g, &r, &s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_ratio() {
        let g = triangle();
        let r = rates();
        let mut cheap = Schedule::for_graph(&g);
        cheap.set_push(0); // cost 2
        let mut dear = Schedule::for_graph(&g);
        dear.set_pull(0); // cost 11
        let ratio = predicted_improvement(&g, &r, &cheap, &dear);
        assert!((ratio - 5.5).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_is_free() {
        let g = triangle();
        let r = rates();
        let s = Schedule::for_graph(&g);
        assert_eq!(schedule_cost(&g, &r, &s), 0.0);
        assert!(predicted_throughput(&g, &r, &s).is_infinite());
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn size_mismatch_panics() {
        let g = triangle();
        let r = rates();
        let s = Schedule::new(99);
        schedule_cost(&g, &r, &s);
    }
}
