//! The traced replay: a recorded slice of the live op sequence, run again
//! through each layer's public entry point in call order, with a span
//! around every call.
//!
//! `EpochHandle::load` → `collect_*` → `Topology::group_by_server_with`
//! → `ShardClient` over the worker transport and over the caller-runs
//! transport → `StoreServer` on a detached shard array →
//! `ReplyMerger::merge_into`. The replay owns its shard arrays, so its
//! stores start empty; message counts depend only on the schedule and
//! the topology and must equal what the runtime returned for the same op.

use std::sync::Arc;

use bytes::BytesMut;
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use piggyback_graph::NodeId;
use piggyback_serve::{EpochHandle, ServingSchedule};
use piggyback_store::merge::ReplyMerger;
use piggyback_store::server::{QueryScratch, StoreServer};
use piggyback_store::topology::GroupScratch;
use piggyback_store::worker::{worker_loop, BufferPool, ShardClient, Transport};
use piggyback_store::EventTuple;

use crate::spans::{self_times, Tracer};
use crate::stats::Samples;

/// One share or query of the live run, as the replay needs it.
pub struct Recorded {
    /// Op id in the live sequence.
    pub op: u64,
    /// The acting user.
    pub user: NodeId,
    /// Share (`true`) or query.
    pub share: bool,
    /// The schedule snapshot the runtime published just before the op.
    pub snapshot: Arc<ServingSchedule>,
    /// Store messages the runtime reported for the op.
    pub messages: u64,
    /// No epoch was published while the op ran, so `snapshot` is the one
    /// it used and its message count must be reproduced exactly.
    pub stable: bool,
}

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    /// Ops replayed.
    pub ops: u64,
    /// Ops whose replayed message counts disagreed with the runtime or
    /// with each other across transports.
    pub mismatches: u64,
    /// `(layer, metric value)` pairs for the report.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Per-call samples of every replayed layer.
#[derive(Default)]
struct LayerSamples {
    lookup: Samples,
    group: Samples,
    worker_update: Samples,
    worker_query: Samples,
    direct_update: Samples,
    direct_query: Samples,
    server_update: Samples,
    server_query: Samples,
    merge: Samples,
    push_fanout: u64,
    shares: u64,
    pull_fanin: u64,
    queries: u64,
    batches: u64,
    views: u64,
    replies: u64,
}

/// Replays `slice` through detached copies of every layer. Spans go to
/// `tracer`, under one root span per op.
pub fn replay(
    slice: &[Recorded],
    shards: usize,
    view_capacity: usize,
    top_k: usize,
    tracer: &mut Tracer,
) -> Replay {
    let Some(first) = slice.first() else {
        return Replay::default();
    };
    let detached = || {
        Arc::new(
            (0..shards)
                .map(|_| Mutex::new(StoreServer::new(view_capacity)))
                .collect::<Vec<_>>(),
        )
    };
    let worker_shards = detached();
    let direct_shards = detached();
    let mut servers: Vec<StoreServer> = (0..shards)
        .map(|_| StoreServer::new(view_capacity))
        .collect();
    let pool = Arc::new(BufferPool::new());
    let (tx, rx) = unbounded();
    let handle = EpochHandle::new((*first.snapshot).clone());
    let mut s = LayerSamples::default();
    let mut out = Replay::default();
    let first_span = tracer.spans().len();

    std::thread::scope(|scope| {
        let worker = {
            let (shards, pool) = (Arc::clone(&worker_shards), Arc::clone(&pool));
            scope.spawn(move || worker_loop(&shards, &pool, &rx))
        };
        let mut via_worker =
            ShardClient::new(Transport::Workers(Arc::new(vec![tx])), Arc::clone(&pool));
        let mut via_direct = ShardClient::new(
            Transport::Direct(Arc::clone(&direct_shards)),
            Arc::clone(&pool),
        );
        let (mut targets, mut group, mut scratch) =
            (Vec::new(), GroupScratch::default(), QueryScratch::new());
        let (mut batches, mut flat): (Vec<(usize, usize, usize)>, Vec<NodeId>) =
            (Vec::new(), Vec::new());
        let (mut replies, mut merged, mut merger) =
            (Vec::<BytesMut>::new(), Vec::new(), ReplyMerger::new());

        for rec in slice {
            if handle.epoch() != rec.snapshot.epoch() {
                handle.swap((*rec.snapshot).clone());
            }
            let op = rec.op;
            let root = tracer.begin(op, None, "replay.op");
            let (snap, took) = tracer.span(op, Some(root), "serve.epoch", || {
                let snap = handle.load();
                if rec.share {
                    snap.collect_push_targets(rec.user, &mut targets);
                } else {
                    snap.collect_pull_sources(rec.user, &mut targets);
                }
                snap
            });
            s.lookup.push(took);
            let topology = snap.topology();
            let (_, took) = tracer.span(op, Some(root), "store.topology", || {
                batches.clear();
                flat.clear();
                topology.group_by_server_with(&targets, &mut group, |shard, views| {
                    batches.push((shard, flat.len(), views.len()));
                    flat.extend_from_slice(views);
                });
            });
            s.group.push(took);
            let event = EventTuple::new(rec.user, op, op);
            let (via_w, via_d);
            if rec.share {
                let payload = event.to_wire();
                let (m, took) = tracer.span(op, Some(root), "store.worker", || {
                    via_worker.update(topology, &targets, payload)
                });
                s.worker_update.push(took);
                via_w = m;
                let (m, took) = tracer.span(op, Some(root), "store.direct", || {
                    via_direct.update(topology, &targets, payload)
                });
                s.direct_update.push(took);
                via_d = m;
                for &(shard, at, len) in &batches {
                    let views = &flat[at..at + len];
                    let (_, took) = tracer.span(op, Some(root), "store.server", || {
                        servers[shard].update(views, event)
                    });
                    s.server_update.push(took);
                }
                s.push_fanout += targets.len() as u64 - 1;
                s.shares += 1;
            } else {
                let (m, took) = tracer.span(op, Some(root), "store.worker", || {
                    via_worker.query(topology, &targets, top_k, &mut merged)
                });
                s.worker_query.push(took);
                via_w = m;
                let (m, took) = tracer.span(op, Some(root), "store.direct", || {
                    via_direct.query(topology, &targets, top_k, &mut merged)
                });
                s.direct_query.push(took);
                via_d = m;
                for reply in replies.drain(..) {
                    pool.put_buf(reply);
                }
                for &(shard, at, len) in &batches {
                    let views = &flat[at..at + len];
                    let (reply, took) = tracer.span(op, Some(root), "store.server", || {
                        let mut buf = pool.get_buf();
                        EventTuple::encode_all(
                            servers[shard].query_with(views, top_k, &mut scratch),
                            &mut buf,
                        );
                        buf
                    });
                    s.server_query.push(took);
                    replies.push(reply);
                }
                let (_, took) = tracer.span(op, Some(root), "store.merge", || {
                    merger.merge_into(&mut replies, top_k, &mut merged)
                });
                s.merge.push(took);
                s.pull_fanin += targets.len() as u64 - 1;
                s.queries += 1;
                s.replies += batches.len() as u64;
            }
            tracer.end(root);
            s.batches += batches.len() as u64;
            s.views += targets.len() as u64;
            let grouped = batches.len() as u64;
            if via_w != via_d || via_w != grouped || (rec.stable && via_w != rec.messages) {
                out.mismatches += 1;
            }
            out.ops += 1;
        }
        drop(via_worker);
        worker.join().expect("replay shard worker panicked");
    });

    // Self time per layer, averaged over replayed ops.
    let own = &self_times(tracer.spans())[first_span..];
    let spans = &tracer.spans()[first_span..];
    let per_op = |layer: &str| {
        let total: u64 = spans
            .iter()
            .zip(own)
            .filter(|(sp, _)| sp.layer == layer)
            .map(|(_, t)| t)
            .sum();
        total as f64 / out.ops.max(1) as f64
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let med = |x: &Samples| x.median_ns() as f64;
    let hop = (med(&s.worker_update) + med(&s.worker_query)) / 2.0
        - (med(&s.direct_update) + med(&s.direct_query)) / 2.0;
    out.metrics = vec![
        ("serve.epoch.lookup_ns", med(&s.lookup)),
        ("serve.epoch.push_fanout", ratio(s.push_fanout, s.shares)),
        ("serve.epoch.pull_fanin", ratio(s.pull_fanin, s.queries)),
        ("store.topology.group_ns", med(&s.group)),
        ("store.topology.servers_per_op", ratio(s.batches, out.ops)),
        ("store.worker.update_ns", med(&s.worker_update)),
        ("store.worker.query_ns", med(&s.worker_query)),
        ("store.worker.direct_update_ns", med(&s.direct_update)),
        ("store.worker.direct_query_ns", med(&s.direct_query)),
        ("store.worker.hop_ns", hop),
        ("store.server.update_ns", med(&s.server_update)),
        ("store.server.query_ns", med(&s.server_query)),
        ("store.server.views_per_batch", ratio(s.views, s.batches)),
        ("store.merge.ns", med(&s.merge)),
        ("store.merge.replies_per_query", ratio(s.replies, s.queries)),
        ("replay.ops", out.ops as f64),
        ("replay.mismatches", out.mismatches as f64),
        ("replay.op.self_ns", per_op("replay.op")),
        ("serve.epoch.self_ns", per_op("serve.epoch")),
        ("store.topology.self_ns", per_op("store.topology")),
        ("store.worker.self_ns", per_op("store.worker")),
        ("store.direct.self_ns", per_op("store.direct")),
        ("store.server.self_ns", per_op("store.server")),
        ("store.merge.self_ns", per_op("store.merge")),
    ];
    out
}
