//! Tiny-world run of every workload, traced, with every output check.

use perfbench::report::{END_TO_END, PER_LAYER};

#[test]
fn every_workload_passes_its_checks_on_a_tiny_world() {
    for w in perfbench::WORKLOADS {
        let out = perfbench::run(&w.tiny(), 3, 1, true);
        assert!(out.correct, "{}: {:?}", w.name, out.failures);
        assert!(out.attempted > 0 && out.failed <= out.attempted);
        for d in END_TO_END {
            let v = out
                .end_to_end
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|&(_, v)| v);
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {} = {v:?}",
                w.name,
                d.name
            );
        }
        for d in PER_LAYER {
            let v = out
                .per_layer
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|&(_, v)| v);
            assert!(
                v.is_some_and(f64::is_finite),
                "{}: {} = {v:?}",
                w.name,
                d.name
            );
        }
        let get = |name: &str| out.per_layer.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("replay.ops") > 0.0);
        assert_eq!(get("replay.mismatches"), 0.0);
        assert_eq!(get("serve.runtime.staleness_violations"), 0.0);
        let tracer = out.tracer.expect("traced run keeps its spans");
        assert!(tracer.spans().iter().any(|s| s.layer == "store.merge"));
    }
}
