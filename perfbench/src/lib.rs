//! The repository's benchmark: one pipeline, run per workload in its own
//! process, driving the system only through its public API.
//!
//! A run has five stages, and every workload runs all of them so each
//! reports every end-to-end metric:
//!
//! 1. **optimize** — batch CHITCHAT on a Twitter-like graph and
//!    `chitchat-stream` on a Flickr-like one, runs interleaved; their
//!    median times (`chitchat_s`, `stream_s`) and the §4.2 cost gain of
//!    CHITCHAT over hybrid.
//! 2. **set-up**, repeated — world generation, the initial
//!    `chitchat-stream` optimization of the serving world and the
//!    runtime boot, up to the first op (`setup_s`; `stream_gain` is this
//!    schedule's gain over hybrid).
//! 3. **serve** — a closed loop of one client over the generated op
//!    sequence, with every call timed and every feed checked.
//! 4. **verify** — untimed: message accounting against the shards'
//!    counters, freshness probes per edge kind, live staleness.
//! 5. **hybrid** — the same op prefix under the `hybrid` schedule, for
//!    the §4.3 message gain.
//!
//! With tracing on, a sixth stage replays a slice of the live ops
//! through each layer ([`layers`]) and times the remaining layer entry
//! points one by one.

pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod world;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use piggyback_core::bitset::BitSet;
use piggyback_core::cost::schedule_cost;
use piggyback_core::densest::densest_hub_graph;
use piggyback_core::scheduler::{Hybrid, Instance, ScheduleOutcome, Scheduler};
use piggyback_core::validate::validate_bounded_staleness;
use piggyback_core::{hybrid_schedule, ChitChat, ChitChatStream, IncrementalScheduler, Schedule};
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_serve::{EpochHandle, ServeConfig, ServeRuntime, ServingSchedule};
use piggyback_workload::{Op, Rates};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::Recorded;
use crate::spans::Tracer;
use crate::stats::{median, Samples};
use crate::world::{FeedOracle, Model};

/// Seed of the generated graphs. The graphs stand in for the paper's
/// fixed datasets, so every run optimizes and serves the same worlds;
/// the run seed draws the op sequence and the sampled probes.
pub const WORLD_SEED: u64 = 42;

/// One workload: the serving world and its traffic mix, plus the sizes
/// of the stages every workload shares.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Why it exists: the layer it loads and the one it bypasses.
    pub why: &'static str,
    /// Nodes of the Flickr-like serving world.
    pub nodes: usize,
    /// Data-store shards.
    pub shards: usize,
    /// Reads per write in the rates (`Rates::log_degree`).
    pub read_write: f64,
    /// Fraction of ops that are follows or unfollows.
    pub churn: f64,
    /// Unfollows may retract any live edge, hub legs of the initial graph
    /// included (`true`), or only follows issued earlier in the run.
    pub unfollow_any: bool,
    /// Ops served per requested second (the op count is fixed by
    /// `--seconds`, so counts repeat across runs).
    pub ops_per_second: usize,
    /// Fewest latency samples of each op type (share, query, churn) the
    /// op count must give, so every p99 has at least this many.
    pub min_samples: usize,
    /// Nodes of the Twitter-like graph batch CHITCHAT optimizes.
    pub chitchat_nodes: usize,
    /// Nodes of the Flickr-like graph `chitchat-stream` optimizes.
    pub stream_nodes: usize,
    /// Runs of each optimizer, interleaved (medians reported).
    pub opt_runs: usize,
    /// Set-ups per run (median reported).
    pub setups: usize,
    /// Leading ops replayed under the `hybrid` schedule.
    pub hybrid_prefix: usize,
    /// Live shares/queries recorded for the traced replay.
    pub replay_ops: usize,
    /// Freshness probes per edge kind.
    pub probes: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: &[Workload] = &[FEED, STORM];

/// The paper's §4.3 mix: reads 5× writes in the many-server regime
/// (1000 shards), where batching stops hiding fan-out. The read path
/// does most of the work; the optimizer runs only in set-up. Churn is
/// light: follows of new pairs, and unfollows that retract them. It is
/// 5% of the ops so that one run gives three slices of 10⁴ churn
/// samples each.
pub const FEED: Workload = Workload {
    name: "feed",
    why: "read-heavy mix (reads 5x writes, 5% churn) on 1000 shards: epoch lookup, grouping, worker hop, shard query, merge",
    nodes: 30_000,
    shards: 1000,
    read_write: 5.0,
    churn: 0.05,
    unfollow_any: false,
    ops_per_second: 30_000,
    min_samples: 10_000,
    chitchat_nodes: 2_000,
    stream_nodes: 10_000,
    opt_runs: 9,
    setups: 3,
    hybrid_prefix: 50_000,
    replay_ops: 4_000,
    probes: 64,
};

/// Write-heavy (5× as many shares as queries) with 20% follow/unfollow,
/// where an unfollow may drop any live edge, hub legs included: the same
/// store layers on the write side, plus the churn path (incremental
/// scheduler and its re-serving of orphaned piggybacked edges, epoch
/// publish, override compaction). A smaller world keeps the run short.
pub const STORM: Workload = Workload {
    name: "storm",
    why: "write-heavy (reads 0.2x writes), 20% follow/unfollow incl. hub legs: update path, incremental scheduler, epoch publish",
    read_write: 0.2,
    churn: 0.2,
    unfollow_any: true,
    nodes: 10_000,
    ops_per_second: 15_000,
    ..FEED
};

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// A copy small enough for a test to run in seconds, keeping the mix.
    pub fn tiny(self) -> Workload {
        Workload {
            nodes: 1_500,
            shards: 32,
            ops_per_second: 6_000,
            min_samples: 0,
            chitchat_nodes: 300,
            stream_nodes: 600,
            opt_runs: 2,
            setups: 2,
            hybrid_prefix: 2_000,
            replay_ops: 500,
            probes: 16,
            ..self
        }
    }

    /// Ops one run serves: `seconds × ops_per_second`, raised until the
    /// rarest op type expects `min_samples` samples (plus 10%).
    pub fn op_count(&self, seconds: u64, rates: &Rates) -> usize {
        let rp: f64 = rates.rp_slice().iter().sum();
        let rc: f64 = rates.rc_slice().iter().sum();
        let share = (1.0 - self.churn) * rp / (rp + rc);
        let rarest = self.churn.min(share).min(1.0 - self.churn - share);
        let needed = if rarest > 0.0 {
            1.1 * self.min_samples as f64 / rarest
        } else {
            0.0
        };
        (seconds as usize * self.ops_per_second)
            .max(needed.ceil() as usize)
            .max(1)
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            shards: self.shards,
            // One client thread plus one worker stays within two cores.
            workers: 1,
            ..ServeConfig::default()
        }
    }
}

/// What one run produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Ops attempted in the serve stage.
    pub attempted: u64,
    /// Ops refused or answered with a feed holding a producer the
    /// reader never followed.
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Informational lines (tail percentiles, sample counts).
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Checks an optimizer's output: bounded staleness holds and the
/// reported cost is the schedule's cost.
fn check_schedule(
    checks: &mut Checks,
    what: &str,
    g: &CsrGraph,
    rates: &Rates,
    out: &ScheduleOutcome,
) {
    if let Err(v) = validate_bounded_staleness(g, &out.schedule) {
        checks.0.push(format!(
            "{what}: schedule violates bounded staleness: {v:?}"
        ));
    }
    let cost = schedule_cost(g, rates, &out.schedule);
    checks.require(
        (cost - out.stats.cost).abs() <= 1e-9 * cost.abs().max(1.0),
        || {
            format!(
                "{what}: reported cost {} != schedule_cost {cost}",
                out.stats.cost
            )
        },
    );
}

/// Runs `w` once with `seed`, serving `seconds × ops_per_second` ops.
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut checks = Checks(Vec::new());
    let mut tracer = trace.then(Tracer::default);
    let mut notes = Vec::new();
    let mut e2e: Vec<(&'static str, f64)> = Vec::new();
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    let mut root_op = 0u64;
    let mut timed_call = |tracer: &mut Option<Tracer>, layer: &'static str, f: &mut dyn FnMut()| {
        root_op += 1;
        let t0 = Instant::now();
        match tracer {
            Some(t) => {
                t.span(root_op, None, layer, f);
            }
            None => f(),
        }
        t0.elapsed()
    };

    // Stage 1: both optimizers, runs interleaved so drift in machine
    // speed reaches both alike.
    let tw = world::graph(Model::Twitter, w.chitchat_nodes, WORLD_SEED);
    let tw_rates = world::rates(&tw, 5.0);
    let fl = world::graph(Model::Flickr, w.stream_nodes, WORLD_SEED);
    let fl_rates = world::rates(&fl, 5.0);
    let (tw_inst, fl_inst) = (Instance::new(&tw, &tw_rates), Instance::new(&fl, &fl_rates));
    let chitchat = ChitChat {
        threads: threads(),
        ..ChitChat::default()
    };
    let stream = ChitChatStream {
        threads: threads(),
        ..ChitChatStream::default()
    };
    let (mut chitchat_times, mut stream_times) = (Vec::new(), Vec::new());
    let (mut chitchat_out, mut fl_out) = (None, None);
    for _ in 0..w.opt_runs {
        let d = timed_call(&mut tracer, "core.chitchat", &mut || {
            chitchat_out = Some(chitchat.schedule(&tw_inst))
        });
        chitchat_times.push(d.as_secs_f64());
        let d = timed_call(&mut tracer, "core.chitchat_stream", &mut || {
            fl_out = Some(stream.schedule(&fl_inst))
        });
        stream_times.push(d.as_secs_f64());
    }
    let chitchat_out = chitchat_out.expect("at least one optimizer run");
    check_schedule(&mut checks, "chitchat", &tw, &tw_rates, &chitchat_out);
    check_schedule(
        &mut checks,
        "chitchat-stream",
        &fl,
        &fl_rates,
        &fl_out.expect("at least one optimizer run"),
    );
    let tw_hybrid = schedule_cost(&tw, &tw_rates, &hybrid_schedule(&tw, &tw_rates));

    // Stage 2: set-up, repeated; the last runtime serves.
    let (mut setup_times, mut build_ms) = (Vec::new(), Vec::new());
    let mut world = None;
    for i in 0..w.setups {
        let t0 = Instant::now();
        let g = world::graph(Model::Flickr, w.nodes, WORLD_SEED);
        let rates = world::rates(&g, w.read_write);
        let built = t0.elapsed();
        let mut out = None;
        let opt = timed_call(&mut tracer, "core.chitchat_stream", &mut || {
            out = Some(stream.schedule(&Instance::new(&g, &rates)))
        });
        let out = out.expect("set-up optimization ran");
        let (g2, r2, s2) = (g.clone(), rates.clone(), out.schedule.clone());
        let t1 = Instant::now();
        // The background re-optimizer takes one core, not every core.
        let reopt = ChitChatStream {
            threads: 1,
            ..stream
        };
        let rt = ServeRuntime::start(g2, r2, s2, Box::new(reopt), w.config());
        let boot = t1.elapsed();
        setup_times.push((built + opt + boot).as_secs_f64());
        build_ms.push(built.as_secs_f64() * 1e3);
        if i + 1 < w.setups {
            rt.shutdown();
        } else {
            world = Some((g, rates, out, rt));
        }
    }
    let (g, rates, stream_out, rt) = world.expect("at least one set-up");
    check_schedule(&mut checks, "chitchat-stream", &g, &rates, &stream_out);
    let hybrid = hybrid_schedule(&g, &rates);
    let hybrid_cost = schedule_cost(&g, &rates, &hybrid);

    // Stage 3: serve.
    let count = w.op_count(seconds, &rates);
    let ops = world::ops(&g, &rates, w.churn, w.unfollow_any, count, seed);
    let record = if trace { w.replay_ops } else { 0 };
    if let Some(t) = tracer.as_mut() {
        // One root span per live op, then the replay's spans.
        t.reserve(ops.len() + 12 * record);
    }
    let served = serve(&rt, &g, &ops, w.hybrid_prefix, tracer.as_mut(), record);

    // Stage 4: verify.
    let shard_batches: u64 = rt.shard_stats().iter().map(|s| s.batches).sum();
    checks.require(shard_batches == served.messages, || {
        format!(
            "client messages {} != shard batches {shard_batches}",
            served.messages
        )
    });
    probe_freshness(&rt, &g, &served.unfollowed, w.probes, seed, &mut checks);
    let report = rt.shutdown();
    let churn = &report.churn;
    checks.require(churn.live_staleness_violations == 0, || {
        format!(
            "{} live staleness violations",
            churn.live_staleness_violations
        )
    });
    checks.require(churn.staleness_violation.is_none(), || {
        format!(
            "staleness violation at shutdown: {:?}",
            churn.staleness_violation
        )
    });
    let reopt_ms = report
        .metrics
        .as_ref()
        .map_or(0, |m| m.counter("reopt.budget_spent_ms")) as f64;

    // Stage 5: the same prefix under hybrid.
    let prefix = &ops[..w.hybrid_prefix.min(ops.len())];
    let hyb_rt = ServeRuntime::start(
        g.clone(),
        rates.clone(),
        hybrid,
        Box::new(Hybrid),
        w.config(),
    );
    let hyb = serve(&hyb_rt, &g, prefix, prefix.len(), None, 0);
    hyb_rt.shutdown();

    for (name, samples) in [
        ("query", &served.query),
        ("share", &served.share),
        ("churn", &served.churn),
    ] {
        let sum = samples.summary();
        if sum.n < w.min_samples {
            notes.push(format!("{name}: p99 from only {} samples", sum.n));
        }
        notes.push(format!(
            "{name}: n={} p50={:.3}us p99={:.3}us p{}={:.3}us max={:.3}us (all samples)",
            sum.n,
            sum.p50_us,
            sum.p99_us,
            sum.tail_q * 100.0,
            sum.tail_us,
            sum.max_us
        ));
    }
    let lat = |s: &Samples, q: f64| s.chunked_quantile_us(q, w.min_samples, CHUNKS);
    let reads_writes = served.shares + served.queries;
    e2e.extend([
        ("setup_s", median(&setup_times)),
        ("chitchat_s", median(&chitchat_times)),
        ("stream_s", median(&stream_times)),
        ("chitchat_gain", tw_hybrid / chitchat_out.stats.cost),
        ("stream_gain", hybrid_cost / stream_out.stats.cost),
        ("ops_per_s", median(&served.chunk_rates)),
        ("query_p50_us", lat(&served.query, 0.5)),
        ("share_p50_us", lat(&served.share, 0.5)),
        ("churn_p50_us", lat(&served.churn, 0.5)),
        (
            "msgs_per_op",
            served.messages as f64 / reads_writes.max(1) as f64,
        ),
        (
            "msgs_gain",
            hyb.messages as f64 / served.prefix_messages.max(1) as f64,
        ),
    ]);
    let failed = served.refused + served.foreign_queries;

    if let Some(t) = tracer.as_mut() {
        let busy = |s: &piggyback_core::ScheduleStats| {
            s.fanout_busy_ms / s.fanout_capacity_ms.max(f64::MIN_POSITIVE)
        };
        let (cs, ss) = (&chitchat_out.stats, &stream_out.stats);
        layer.extend([
            ("serve.client.query_p99_us", lat(&served.query, 0.99)),
            ("serve.client.share_p99_us", lat(&served.share, 0.99)),
            ("serve.client.churn_p99_us", lat(&served.churn, 0.99)),
            ("graph.build_ms", median(&build_ms)),
            ("graph.edges", g.edge_count() as f64),
            ("core.chitchat.oracle_calls", cs.oracle_calls as f64),
            ("core.chitchat.hubs", cs.hubs_applied as f64),
            ("core.chitchat.busy_frac", busy(cs)),
            (
                "core.chitchat.idle_ms",
                cs.fanout_capacity_ms - cs.fanout_busy_ms,
            ),
            ("core.densest.peel_us", peel_us(&g, &rates, seed)),
            ("core.stream.oracle_calls", ss.oracle_calls as f64),
            ("core.stream.hubs", ss.hubs_applied as f64),
            ("core.stream.evicted", ss.hubs_evicted as f64),
            ("core.stream.busy_frac", busy(ss)),
            ("serve.runtime.epochs", report.final_epoch as f64),
            ("serve.runtime.reopts", churn.reopts as f64),
            ("serve.runtime.reopt_ms", reopt_ms),
            (
                "serve.runtime.staleness_violations",
                churn.live_staleness_violations as f64,
            ),
            ("serve.runtime.foreign_events", served.foreign_events as f64),
            ("serve.runtime.refused", served.refused as f64),
            ("serve.hybrid.foreign_events", hyb.foreign_events as f64),
            ("failed_frac", failed as f64 / ops.len() as f64),
        ]);
        layer.extend(incremental(&g, &rates, &stream_out.schedule, &ops));
        layer.extend(epoch_calls(&g, &stream_out.schedule, &served, seed));
        let cfg = w.config();
        let replay = layers::replay(&served.recorded, w.shards, cfg.view_capacity, cfg.top_k, t);
        checks.require(replay.mismatches == 0, || {
            format!(
                "{} of {} replayed ops disagree with the runtime's message counts",
                replay.mismatches, replay.ops
            )
        });
        layer.extend(replay.metrics);
    }
    e2e.push(("peak_rss_mb", report::peak_rss_mb()));

    Outcome {
        correct: checks.0.is_empty(),
        failures: checks.0,
        attempted: ops.len() as u64,
        failed,
        end_to_end: e2e,
        per_layer: layer,
        notes,
        tracer,
    }
}

/// Slices a serve stage's latencies and throughput are reported over
/// (the median across slices).
pub const CHUNKS: usize = 10;

/// What a serve loop saw.
#[derive(Default)]
struct Served {
    share: Samples,
    query: Samples,
    churn: Samples,
    shares: u64,
    queries: u64,
    messages: u64,
    prefix_messages: u64,
    refused: u64,
    foreign_queries: u64,
    foreign_events: u64,
    /// Ops per second in each of [`CHUNKS`] consecutive slices of the
    /// sequence.
    chunk_rates: Vec<f64>,
    unfollowed: HashSet<(NodeId, NodeId)>,
    recorded: Vec<Recorded>,
}

/// Serves `ops` on one client in a closed loop, timing only each call.
/// The first `record` shares/queries keep the snapshot they ran under,
/// for the replay; with a tracer every call is also a root span.
fn serve(
    rt: &ServeRuntime,
    g: &CsrGraph,
    ops: &[Op],
    prefix: usize,
    mut tracer: Option<&mut Tracer>,
    record: usize,
) -> Served {
    let mut client = rt.client();
    let mut oracle = FeedOracle::new(g);
    let mut s = Served::default();
    let mut chunk_start = (0, Instant::now());
    for (i, &op) in ops.iter().enumerate() {
        let before =
            (s.recorded.len() < record && !op.is_churn()).then(|| (rt.snapshot(), rt.epoch()));
        let span = tracer
            .as_mut()
            .map(|t| t.begin(i as u64, None, op_layer(op)));
        let mut messages = 0;
        match op {
            Op::Share(u) => {
                let t0 = Instant::now();
                messages = client.share(u);
                s.share.push(t0.elapsed());
                s.shares += 1;
                s.refused += u64::from(messages == 0);
            }
            Op::Query(u) => {
                let t0 = Instant::now();
                let (events, m) = client.query(u);
                s.query.push(t0.elapsed());
                messages = m;
                s.queries += 1;
                s.refused += u64::from(messages == 0);
                let foreign = events.iter().filter(|e| !oracle.allowed(e.user, u)).count() as u64;
                s.foreign_events += foreign;
                s.foreign_queries += u64::from(foreign > 0);
            }
            Op::Follow(u, v) => {
                let t0 = Instant::now();
                let ok = client.follow(u, v);
                s.churn.push(t0.elapsed());
                s.refused += u64::from(!ok);
                oracle.follow(u, v);
                s.unfollowed.remove(&(u, v));
            }
            Op::Unfollow(u, v) => {
                let t0 = Instant::now();
                let ok = client.unfollow(u, v);
                s.churn.push(t0.elapsed());
                s.refused += u64::from(!ok);
                s.unfollowed.insert((u, v));
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.end(id);
        }
        s.messages += messages;
        if i + 1 == prefix {
            s.prefix_messages = s.messages;
        }
        if (i + 1) * CHUNKS / ops.len() > chunk_start.0 * CHUNKS / ops.len() || i + 1 == ops.len() {
            let done = i + 1 - chunk_start.0;
            s.chunk_rates
                .push(done as f64 / chunk_start.1.elapsed().as_secs_f64());
            chunk_start = (i + 1, Instant::now());
        }
        if let Some((snapshot, epoch)) = before {
            let (share, user) = match op {
                Op::Share(u) => (true, u),
                Op::Query(u) => (false, u),
                _ => unreachable!("churn ops are not recorded"),
            };
            s.recorded.push(Recorded {
                op: i as u64,
                user,
                share,
                snapshot,
                messages,
                stable: rt.epoch() == epoch,
            });
        }
    }
    s
}

fn op_layer(op: Op) -> &'static str {
    match op {
        Op::Share(_) => "serve.client.share",
        Op::Query(_) => "serve.client.query",
        Op::Follow(..) => "serve.client.follow",
        Op::Unfollow(..) => "serve.client.unfollow",
    }
}

/// Untimed freshness probes: for sampled live edges `u → v` of each kind
/// under the live schedule (push, pull, piggybacked), `u` shares and the
/// new event must come first in `v`'s feed.
fn probe_freshness(
    rt: &ServeRuntime,
    g: &CsrGraph,
    unfollowed: &HashSet<(NodeId, NodeId)>,
    per_kind: usize,
    seed: u64,
    checks: &mut Checks,
) {
    let snap = rt.snapshot();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF2E5_4000);
    let mut client = rt.client();
    let mut found = [0usize; 3];
    let kinds = ["push", "pull", "piggybacked"];
    for _ in 0..per_kind * 2_000 {
        if found.iter().all(|&f| f >= per_kind) {
            break;
        }
        let e = rng.random_range(0..g.edge_count());
        let (u, v) = g.edge_endpoints(e as piggyback_graph::EdgeId);
        if unfollowed.contains(&(u, v)) {
            continue;
        }
        let kind = if snap.push_targets(u).contains(&v) {
            0
        } else if snap.pull_sources(v).contains(&u) {
            1
        } else {
            2
        };
        if found[kind] >= per_kind {
            continue;
        }
        found[kind] += 1;
        client.share(u);
        // `u`'s own view always receives its share, so the newest event
        // of its own feed is the one just shared.
        let (own, _) = client.query(u);
        let shared = own.first().map(|e| (e.user, e.event_id));
        let (events, _) = client.query(v);
        let first = events.first().map(|e| (e.user, e.event_id));
        checks.require(shared.is_some_and(|(p, _)| p == u) && first == shared, || {
            format!("{} edge {u}->{v}: the share {shared:?} is not first in the reader's feed (first: {first:?})", kinds[kind])
        });
    }
    for (kind, &n) in kinds.iter().zip(&found) {
        checks.require(n > 0, || format!("no {kind} edge found to probe"));
    }
}

/// Median time of `densest_hub_graph` over a fixed sample of candidate
/// hubs, every edge uncovered.
fn peel_us(g: &CsrGraph, rates: &Rates, seed: u64) -> f64 {
    let mut z = BitSet::new(g.edge_count());
    for e in 0..g.edge_count() {
        z.insert(e as u32);
    }
    let sched = Schedule::for_graph(g);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE45_5E57);
    let mut samples = Samples::default();
    let mut tried = 0;
    while samples.len() < 200 && tried < 20_000 {
        tried += 1;
        let w = rng.random_range(0..g.node_count()) as NodeId;
        if g.in_degree(w) == 0 || g.out_degree(w) == 0 {
            continue;
        }
        let t0 = Instant::now();
        std::hint::black_box(densest_hub_graph(
            g,
            rates,
            w,
            &sched,
            &z,
            ChitChat::default().cross_cap,
        ));
        samples.push(t0.elapsed());
    }
    samples.median_ns() as f64 / 1e3
}

/// The run's churn replayed through `IncrementalScheduler`.
fn incremental(g: &CsrGraph, rates: &Rates, s: &Schedule, ops: &[Op]) -> Vec<(&'static str, f64)> {
    let mut inc = IncrementalScheduler::new(g.clone(), rates.clone(), s.clone());
    let mut apply = Samples::default();
    for &op in ops {
        let t0 = Instant::now();
        match op {
            Op::Follow(u, v) => {
                inc.add_edge(u, v);
            }
            Op::Unfollow(u, v) => {
                inc.remove_edge(u, v);
            }
            _ => continue,
        }
        apply.push(t0.elapsed());
    }
    vec![
        (
            "core.incremental.apply_p50_us",
            apply.quantile_ns(0.5) as f64 / 1e3,
        ),
        (
            "core.incremental.apply_p99_us",
            apply.quantile_ns(0.99) as f64 / 1e3,
        ),
        (
            "core.incremental.cost_drift",
            inc.cost() / inc.base_cost() - 1.0,
        ),
    ]
}

/// `ServingSchedule::compile` and the churn publish (`with_updates` +
/// `EpochHandle::swap`) timed on the serving world.
fn epoch_calls(g: &CsrGraph, s: &Schedule, served: &Served, seed: u64) -> Vec<(&'static str, f64)> {
    let topology = match served.recorded.first() {
        Some(r) => Arc::clone(r.snapshot.topology()),
        None => return Vec::new(),
    };
    let mut compile = Vec::new();
    let mut compiled = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        compiled = Some(ServingSchedule::compile(g, s, Arc::clone(&topology), 0));
        compile.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let handle = EpochHandle::new(compiled.expect("compiled"));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9B11_5400);
    let mut publish = Samples::default();
    for _ in 0..2_000 {
        let u = rng.random_range(0..g.node_count()) as NodeId;
        let t0 = Instant::now();
        let cur = handle.load();
        let push = cur.push_targets(u).to_vec();
        handle.swap(cur.with_updates([(u, push)], []));
        publish.push(t0.elapsed());
    }
    vec![
        ("serve.epoch.compile_ms", median(&compile)),
        ("serve.epoch.publish_us", publish.median_ns() as f64 / 1e3),
    ]
}
