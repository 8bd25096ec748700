//! Metric catalogue, the machine descriptor and the result line.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue: what it is, and for a per-layer metric,
/// which end-to-end metric it should move on which workload and where it
/// should stay flat.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metric(s) and workload(s) a change here should move.
    pub moves: &'static str,
    /// Workload(s) where it should not move.
    pub flat: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    flat: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
        flat,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, printed by every untraced run. The p99
/// latencies are not among them: on a shared two-core VM they moved by
/// up to 2× between runs of the same code, far past any bound a gate
/// could use, so they are reported per layer (`serve.client.*_p99_us`)
/// and in every run's log instead.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "", ""),
    m("peak_rss_mb", "MB", Lower, "", ""),
    m("chitchat_s", "s", Lower, "", ""),
    m("stream_s", "s", Lower, "", ""),
    m("chitchat_gain", "ratio", Higher, "", ""),
    m("stream_gain", "ratio", Higher, "", ""),
    m("ops_per_s", "1/s", Higher, "", ""),
    m("query_p50_us", "us", Lower, "", ""),
    m("share_p50_us", "us", Lower, "", ""),
    m("churn_p50_us", "us", Lower, "", ""),
    m("msgs_per_op", "msgs", Lower, "", ""),
    m("msgs_gain", "ratio", Higher, "", ""),
];

/// The per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "serve.client.query_p99_us",
        "us",
        Lower,
        "tail of query_p50_us, all (traced run)",
        "",
    ),
    m(
        "serve.client.share_p99_us",
        "us",
        Lower,
        "tail of share_p50_us, all (traced run)",
        "",
    ),
    m(
        "serve.client.churn_p99_us",
        "us",
        Lower,
        "tail of churn_p50_us, all (traced run)",
        "",
    ),
    m("graph.build_ms", "ms", Lower, "setup_s, all", ""),
    m(
        "graph.edges",
        "count",
        Lower,
        "setup_s, all (input size)",
        "",
    ),
    m(
        "core.chitchat.oracle_calls",
        "count",
        Lower,
        "chitchat_s, all",
        "ops_per_s, all",
    ),
    m(
        "core.chitchat.hubs",
        "count",
        Higher,
        "chitchat_gain, all",
        "ops_per_s, all",
    ),
    m(
        "core.chitchat.busy_frac",
        "ratio",
        Higher,
        "chitchat_s, all",
        "ops_per_s, all",
    ),
    m(
        "core.chitchat.idle_ms",
        "ms",
        Lower,
        "chitchat_s, all",
        "ops_per_s, all",
    ),
    m(
        "core.densest.peel_us",
        "us",
        Lower,
        "chitchat_s and stream_s, all; setup_s, all",
        "ops_per_s, feed",
    ),
    m(
        "core.stream.oracle_calls",
        "count",
        Lower,
        "stream_s and setup_s, all",
        "query_p50_us, feed",
    ),
    m(
        "core.stream.hubs",
        "count",
        Higher,
        "stream_gain and msgs_gain, all",
        "query_p50_us, feed",
    ),
    m(
        "core.stream.evicted",
        "count",
        Lower,
        "stream_gain, all",
        "query_p50_us, feed",
    ),
    m(
        "core.stream.busy_frac",
        "ratio",
        Higher,
        "stream_s, all; ops_per_s and churn_p99_us, storm",
        "query_p50_us, feed",
    ),
    m(
        "core.incremental.apply_p50_us",
        "us",
        Lower,
        "churn_p50_us, storm",
        "chitchat_s, all",
    ),
    m(
        "core.incremental.apply_p99_us",
        "us",
        Lower,
        "churn_p99_us, storm",
        "chitchat_s, all",
    ),
    m(
        "core.incremental.cost_drift",
        "ratio",
        Lower,
        "msgs_per_op, storm",
        "chitchat_s, all",
    ),
    m(
        "serve.epoch.compile_ms",
        "ms",
        Lower,
        "setup_s, all; churn_p99_us, storm",
        "chitchat_s, all",
    ),
    m(
        "serve.epoch.publish_us",
        "us",
        Lower,
        "churn_p50_us, storm",
        "chitchat_s, all",
    ),
    m(
        "serve.epoch.lookup_ns",
        "ns",
        Lower,
        "share_p50_us and query_p50_us, feed",
        "chitchat_s, all",
    ),
    m(
        "serve.epoch.push_fanout",
        "views",
        Lower,
        "msgs_per_op, share_p50_us, all",
        "chitchat_s, all",
    ),
    m(
        "serve.epoch.pull_fanin",
        "views",
        Lower,
        "msgs_per_op, query_p50_us, all",
        "chitchat_s, all",
    ),
    m(
        "serve.runtime.epochs",
        "count",
        Lower,
        "churn_p50_us, storm",
        "",
    ),
    m(
        "serve.runtime.reopts",
        "count",
        Lower,
        "ops_per_s and churn_p99_us, storm (0 below the 20% degradation threshold)",
        "",
    ),
    m(
        "serve.runtime.reopt_ms",
        "ms",
        Lower,
        "ops_per_s and churn_p99_us, storm (0 below the 20% degradation threshold)",
        "",
    ),
    m(
        "serve.runtime.staleness_violations",
        "count",
        Lower,
        "correct, all",
        "",
    ),
    m(
        "serve.runtime.foreign_events",
        "count",
        Lower,
        "failed, feed and storm",
        "",
    ),
    m("serve.runtime.refused", "count", Lower, "failed, all", ""),
    m(
        "serve.hybrid.foreign_events",
        "count",
        Lower,
        "msgs_gain baseline, feed and storm",
        "",
    ),
    m("failed_frac", "ratio", Lower, "failed, all", ""),
    m(
        "store.topology.group_ns",
        "ns",
        Lower,
        "share_p50_us and query_p50_us, feed and storm",
        "chitchat_s, all",
    ),
    m(
        "store.topology.servers_per_op",
        "count",
        Lower,
        "msgs_per_op, feed and storm",
        "chitchat_s, all",
    ),
    m(
        "store.worker.update_ns",
        "ns",
        Lower,
        "share_p50_us, storm",
        "chitchat_s, all",
    ),
    m(
        "store.worker.query_ns",
        "ns",
        Lower,
        "query_p50_us, feed",
        "chitchat_s, all",
    ),
    m(
        "store.worker.direct_update_ns",
        "ns",
        Lower,
        "share_p50_us, storm",
        "chitchat_s, all",
    ),
    m(
        "store.worker.direct_query_ns",
        "ns",
        Lower,
        "query_p50_us, feed",
        "chitchat_s, all",
    ),
    m(
        "store.worker.hop_ns",
        "ns",
        Lower,
        "every *_p50_us, feed and storm",
        "chitchat_s, all",
    ),
    m(
        "store.server.update_ns",
        "ns",
        Lower,
        "share_p50_us, storm",
        "chitchat_s, all",
    ),
    m(
        "store.server.query_ns",
        "ns",
        Lower,
        "query_p50_us, feed",
        "chitchat_s, all",
    ),
    m(
        "store.server.views_per_batch",
        "views",
        Lower,
        "share_p50_us and query_p50_us, feed and storm",
        "chitchat_s, all",
    ),
    m(
        "store.merge.ns",
        "ns",
        Lower,
        "query_p50_us, feed",
        "share_p50_us, storm",
    ),
    m(
        "store.merge.replies_per_query",
        "count",
        Lower,
        "query_p50_us, feed",
        "share_p50_us, storm",
    ),
    m("replay.ops", "count", Higher, "", ""),
    m(
        "replay.mismatches",
        "count",
        Lower,
        "correct, all (must be 0)",
        "",
    ),
    m("replay.op.self_ns", "ns", Lower, "", ""),
    m(
        "serve.epoch.self_ns",
        "ns",
        Lower,
        "share_p50_us and query_p50_us, feed",
        "",
    ),
    m(
        "store.topology.self_ns",
        "ns",
        Lower,
        "share_p50_us and query_p50_us, feed and storm",
        "",
    ),
    m(
        "store.worker.self_ns",
        "ns",
        Lower,
        "every *_p50_us, feed and storm",
        "",
    ),
    m("store.direct.self_ns", "ns", Lower, "", ""),
    m(
        "store.server.self_ns",
        "ns",
        Lower,
        "share_p50_us and query_p50_us, feed and storm",
        "",
    ),
    m("store.merge.self_ns", "ns", Lower, "query_p50_us, feed", ""),
];

/// Looks a metric up in either catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (all digits Rust's shortest round-trip form
/// gives); non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `(name, value)` pairs,
/// units taken from the catalogue.
pub fn metrics_json(values: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|&(name, v)| {
            let unit = def(name).map_or("count", |d| d.unit);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&'static str, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(values)
    )
}

/// The machine a run measured on: `nproc`, CPU model, rustc version,
/// commit and seed. The toolchain and commit come from the launcher
/// (`PERFBENCH_RUSTC`, `PERFBENCH_COMMIT`) and read `unknown` without it.
pub fn machine_json(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"machine\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}}}}}",
        json_str(&cpu),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(workload)
    )
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_fit_the_charset() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for bad in ["", "_x", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "accepted {bad:?}");
        }
        assert!(valid_name("store.worker.hop_ns") && valid_name("9-a_b.c"));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        // The benchmark definition sits at the repository root.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        for w in crate::WORKLOADS {
            assert!(
                names.contains(&w.name),
                "BENCHMARK.json lacks workload {}",
                w.name
            );
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                d.better.name()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metric_count = names.len() - crate::WORKLOADS.len();
        assert_eq!(metric_count, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 1, &[("setup_s", 1.5), ("ops_per_s", 2e4)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 20000.0, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
