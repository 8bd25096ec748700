//! Cross-crate integration tests: graph → workload → scheduling → store
//! → serving runtime, exercising the public facade the way an application
//! would.

use social_piggybacking::core::validate::coverage_report;
use social_piggybacking::prelude::*;
use social_piggybacking::serve::RpcMode;

fn world(nodes: usize, seed: u64) -> (CsrGraph, Rates) {
    let g = gen::flickr_like(nodes, seed);
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

/// Boots the serving runtime on `schedule` with one caller-runs client —
/// Algorithm 3's application server on the deterministic plane: no worker
/// threads, and with no churn the schedule never changes.
fn serve(
    g: &CsrGraph,
    r: &Rates,
    schedule: Schedule,
    config: ServeConfig,
) -> (ServeRuntime, ServeClient) {
    let rt = ServeRuntime::start(
        g.clone(),
        r.clone(),
        schedule,
        Box::new(Hybrid),
        ServeConfig {
            rpc: RpcMode::Direct,
            ..config
        },
    );
    let client = rt.client();
    (rt, client)
}

/// Drops the client and shuts the runtime down, checking the end-of-run
/// bounded-staleness validation.
fn finish(rt: ServeRuntime, client: ServeClient) {
    drop(client);
    assert!(rt.shutdown().churn.zero_violations());
}

/// Share/query requests only: the rate-faithful trace of §4.3.
fn requests(r: &Rates, seed: u64, count: usize) -> impl Iterator<Item = Op> {
    OpTrace::new(r, 0.0, seed).take(count)
}

/// Figure 2's triangle: Art (0) → Charlie (1) → Billie (2) plus the
/// direct edge 0 → 2, with rates that make Charlie a piggybacking hub.
fn fig2_world() -> (CsrGraph, Rates, Schedule) {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    let g = b.build();
    let r = Rates::from_vecs(vec![1.0, 5.0, 5.0], vec![5.0, 5.0, 1.8]);
    let s = ParallelNosy::default().run(&g, &r).schedule;
    (g, r, s)
}

fn copying_world(
    nodes: usize,
    follows_per_node: usize,
    copy_prob: f64,
    seed: u64,
) -> (CsrGraph, Rates) {
    let g = gen::copying(gen::CopyingConfig {
        nodes,
        follows_per_node,
        copy_prob,
        seed,
    });
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

#[test]
fn full_pipeline_produces_feasible_improving_schedule() {
    let (g, r) = world(1500, 3);
    let ff = hybrid_schedule(&g, &r);
    let pn = ParallelNosy::default().run(&g, &r);
    validate_bounded_staleness(&g, &pn.schedule).unwrap();
    let imp = predicted_improvement(&g, &r, &pn.schedule, &ff);
    assert!(
        imp > 1.3,
        "piggybacking should clearly beat hybrid on a clustered graph: {imp}"
    );
    let report = coverage_report(&g, &pn.schedule);
    assert_eq!(report.unserved, 0);
    assert!(report.covered > 0, "no edges piggybacked");
}

#[test]
fn schedule_drives_store_and_events_flow() {
    let (g, r) = world(600, 9);
    let pn = ParallelNosy::default().run(&g, &r).schedule;
    // Delivery-semantics check: disable the top-k filter and view trimming
    // so no event can be legitimately aged out (hub views aggregate many
    // producers, so even a small-fan-in consumer's events can fall outside
    // a top-10 window).
    let (rt, mut client) = serve(
        &g,
        &r,
        pn,
        ServeConfig {
            shards: 16,
            top_k: usize::MAX,
            view_capacity: 0,
            ..Default::default()
        },
    );
    // Every user shares once, then every consumer must see all producers.
    for u in g.nodes() {
        client.share(u);
    }
    for v in g.nodes() {
        if g.in_degree(v) == 0 {
            continue;
        }
        let (events, _) = client.query(v);
        for &p in g.in_neighbors(v) {
            assert!(
                events.iter().any(|e| e.user == p),
                "user {v} missing event from followed producer {p}"
            );
        }
    }
    finish(rt, client);
}

#[test]
fn chitchat_and_parallelnosy_both_beat_hybrid_on_samples() {
    let (g, _r) = world(1200, 5);
    let sampled = sample::bfs_sample(&g, g.edge_count() / 4, 2);
    let sr = Rates::log_degree(&sampled.graph, 5.0);
    let ff = hybrid_schedule(&sampled.graph, &sr);
    let cc = ChitChat::default().run(&sampled.graph, &sr);
    let pn = ParallelNosy::default().run(&sampled.graph, &sr);
    validate_bounded_staleness(&sampled.graph, &cc.schedule).unwrap();
    validate_bounded_staleness(&sampled.graph, &pn.schedule).unwrap();
    let imp_cc = predicted_improvement(&sampled.graph, &sr, &cc.schedule, &ff);
    let imp_pn = predicted_improvement(&sampled.graph, &sr, &pn.schedule, &ff);
    assert!(imp_cc >= 1.0 && imp_pn >= 1.0);
    assert!(imp_cc > 1.2, "chitchat gain too small: {imp_cc}");
}

#[test]
fn incremental_updates_preserve_feasibility_and_bound() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let (g, r) = world(800, 7);
    let pn = ParallelNosy::default().run(&g, &r).schedule;
    let n = g.node_count();
    let mut inc = IncrementalScheduler::new(g, r.clone(), pn);
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..2000 {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u == v {
            continue;
        }
        if rng.random_bool(0.65) {
            inc.add_edge(u, v);
        } else {
            inc.remove_edge(u, v);
        }
    }
    inc.validate().unwrap();
    // Incremental schedule never exceeds all-hybrid on the current graph.
    let frozen = inc.freeze_graph();
    let ff = hybrid_schedule(&frozen, &r);
    assert!(inc.cost() <= schedule_cost(&frozen, &r, &ff) + 1e-6);
}

#[test]
fn mapreduce_and_threaded_runs_agree_via_facade() {
    let (g, r) = world(500, 13);
    let pn = ParallelNosy {
        max_iterations: 5,
        ..ParallelNosy::default()
    };
    let a = pn.run(&g, &r);
    let engine = social_piggybacking::mapreduce::MapReduce::new(3);
    let b = pn.run_on_mapreduce(&g, &r, &engine);
    assert_eq!(a.cost_history, b.cost_history);
}

#[test]
fn timed_trace_respects_bounded_staleness_semantically() {
    use social_piggybacking::core::staleness::{check_semantic_staleness, Action};
    let (g, r) = world(400, 31);
    let sched = ParallelNosy::default().run(&g, &r).schedule;
    // Build a timed workload and feed it to the delivery simulator.
    let mut trace = RequestTrace::new(&r, 8);
    let actions: Vec<Action> = trace
        .timed(3_000, 7)
        .into_iter()
        .map(|tr| match tr.request {
            RequestKind::Share(u) => Action::Post {
                user: u,
                time: tr.time,
            },
            RequestKind::Query(u) => Action::Query {
                user: u,
                time: tr.time,
            },
        })
        .collect();
    check_semantic_staleness(&g, &sched, &actions, 3)
        .expect("schedule must satisfy bounded staleness on a realistic trace");
}

#[test]
fn placement_model_matches_simulated_messages() {
    // The wire cost model, checked exactly: for every share and query of a
    // replayed trace, PlacementCost predicts the message count the runtime
    // returns, and the per-op predictions sum to the runtime's
    // `serve.store_messages` counter. Replication 2 over two failure
    // domains exercises the replica-aware share path.
    let (g, r) = world(400, 21);
    let pn = ParallelNosy::default().run(&g, &r).schedule;
    let pc = PlacementCost::new(&g, &r, &pn);
    for (replication, domains) in [(1, 0), (2, 2)] {
        let (rt, mut client) = serve(
            &g,
            &r,
            pn.clone(),
            ServeConfig {
                shards: 32,
                replication,
                domains,
                ..Default::default()
            },
        );
        let topology = rt.snapshot().topology().clone();
        assert_eq!(topology.replication(), replication);
        let mut predicted_total = 0u64;
        for op in requests(&r, 17, 5000) {
            let predicted = match op {
                Op::Share(u) => pc.share_messages(&topology, u),
                Op::Query(u) => pc.query_messages(&topology, u),
                Op::Follow(..) | Op::Unfollow(..) => unreachable!("churn-free trace"),
            } as u64;
            assert_eq!(
                client.apply_op(op),
                predicted,
                "replication {replication}: {op:?}"
            );
            predicted_total += predicted;
        }
        assert_eq!(
            rt.stats_snapshot().counter("serve.store_messages"),
            predicted_total,
            "replication {replication}"
        );
        finish(rt, client);
    }
}

#[test]
fn piggybacked_event_reaches_consumer() {
    let (g, r, s) = fig2_world();
    // Covered edge 0->2 through hub 1: Art's event must reach Billie.
    assert!(s.is_covered(g.edge_id(0, 2)));
    let (rt, mut client) = serve(&g, &r, s, ServeConfig::default());
    client.share(0); // Art shares
    let (events, _) = client.query(2); // Billie queries
    assert!(
        events.iter().any(|e| e.user == 0),
        "piggybacked event missing: {events:?}"
    );
    finish(rt, client);
}

#[test]
fn every_edge_delivers_under_hybrid_and_parallelnosy() {
    let (g, r) = copying_world(120, 5, 0.7, 2);
    for sched in [
        hybrid_schedule(&g, &r),
        ParallelNosy::default().run(&g, &r).schedule,
    ] {
        // Unfiltered configuration: delivery must be complete, so turn off
        // the top-k window and view trimming (hub views aggregate many
        // producers and would otherwise age events out).
        let (rt, mut client) = serve(
            &g,
            &r,
            sched,
            ServeConfig {
                shards: 7,
                top_k: usize::MAX,
                view_capacity: 0,
                ..Default::default()
            },
        );
        for u in g.nodes() {
            client.share(u);
        }
        for v in g.nodes().take(30) {
            let (events, _) = client.query(v);
            for &p in g.in_neighbors(v) {
                assert!(
                    events.iter().any(|e| e.user == p),
                    "consumer {v} missing producer {p}'s event"
                );
            }
        }
        finish(rt, client);
    }
}

#[test]
fn piggybacking_sends_fewer_messages_than_hybrid() {
    let (g, r) = copying_world(400, 6, 0.8, 4);
    let messages = |sched: Schedule| {
        let config = ServeConfig {
            shards: 200,
            ..Default::default()
        };
        let (rt, mut client) = serve(&g, &r, sched, config);
        let sent = client.replay(requests(&r, 99, 20_000));
        finish(rt, client);
        sent
    };
    let ff = messages(hybrid_schedule(&g, &r));
    let pn = messages(ParallelNosy::default().run(&g, &r).schedule);
    assert!(pn < ff, "PN {pn} vs FF {ff} messages");
}

#[test]
fn one_server_means_one_message_per_request() {
    // With one server every request is exactly one message under any
    // schedule — piggybacking cannot help (left edge of Figure 6).
    let (g, r, pn) = fig2_world();
    for sched in [pn, hybrid_schedule(&g, &r)] {
        let config = ServeConfig {
            shards: 1,
            ..Default::default()
        };
        let (rt, mut client) = serve(&g, &r, sched, config);
        assert_eq!(client.replay(requests(&r, 5, 2000)), 2000);
        finish(rt, client);
    }
}

#[test]
fn replay_is_deterministic() {
    let (g, r, s) = fig2_world();
    let run = || {
        let (rt, mut client) = serve(&g, &r, s.clone(), ServeConfig::default());
        let per_op: Vec<u64> = requests(&r, 3, 1000)
            .map(|op| client.apply_op(op))
            .collect();
        let stream = client.query(2).0;
        finish(rt, client);
        (per_op, stream)
    };
    assert_eq!(run(), run());
}

#[test]
fn each_request_sends_one_message_per_distinct_server() {
    // Algorithm 3's batching, checked exactly: a share or query sends one
    // message to every server holding one of its target views, no more.
    let (g, r) = copying_world(300, 5, 0.7, 8);
    let pn = ParallelNosy::default().run(&g, &r).schedule;
    let config = ServeConfig {
        shards: 16,
        ..Default::default()
    };
    let (rt, mut client) = serve(&g, &r, pn, config);
    let snap = rt.snapshot();
    let mut targets = Vec::new();
    for op in requests(&r, 41, 5000) {
        match op {
            Op::Share(u) => snap.collect_push_targets(u, &mut targets),
            Op::Query(u) => snap.collect_pull_sources(u, &mut targets),
            Op::Follow(..) | Op::Unfollow(..) => unreachable!("churn-free trace"),
        }
        let expected = snap.topology().distinct_servers(targets.iter().copied());
        assert_eq!(client.apply_op(op), expected as u64, "{op:?}");
    }
    finish(rt, client);
}
