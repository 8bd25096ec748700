#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

From the repository root:

    python3 perfbench/run.py --workload feed --seed 1 --seconds 20 --trace 0
        One run of one workload. The last line of standard output is one
        JSON object: correct, attempted, failed and metrics (end-to-end
        metrics; with --trace 1 the per-layer ones, and the spans go to
        perfbench/out/). Exits non-zero if a correctness check fails.

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]
        Every workload, each in its own process, untraced and then traced.
        Prints every end-to-end metric with its unit, the tracing overhead
        per metric and the per-layer metrics with what each should move,
        and writes perfbench/out/report.json.

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) built
against the crates of the checkout; CARGO_TARGET_DIR defaults to
.bench_build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["feed", "storm"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def tool_output(cmd):
    # Keep git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest]
    # Build output must not reach standard output: its last line is the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def environment():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = tool_output(["git", "rev-parse", "HEAD"])
    return env


def run_one(binary, env, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    return done.returncode, (done.stdout or "")


def last_json(stdout, key=None):
    for line in reversed(stdout.strip().splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if key is None or key in obj:
            return obj
    return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(binary, env, seed, seconds):
    spec = load_spec()
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            code, out = run_one(binary, env, w, seed, seconds, trace, capture=True)
            result = last_json(out)
            if result is None:
                log(f"{w}: no result (exit {code})")
                sys.exit(1)
            entry["machine"] = last_json(out, "machine")["machine"]
            entry["trace" if trace else "untraced"] = result
            if trace:
                entry["traced_end_to_end"] = last_json(out, "traced_end_to_end")["traced_end_to_end"]
            ok = ok and code == 0 and result["correct"]
        report["workloads"][w] = entry

    print(f"\nend-to-end metrics (seed {seed}, {seconds} s per run; overhead = traced - untraced)")
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{w:>14}{'overhead':>11}" for w in WORKLOADS))
    for m in spec["end_to_end"]:
        row = f"{m['name']:<16}{m['unit']:<7}"
        for w in WORKLOADS:
            e = report["workloads"][w]
            v = e["untraced"]["metrics"][m["name"]]["value"]
            t = e["traced_end_to_end"][m["name"]]["value"]
            e.setdefault("overhead", {})[m["name"]] = t - v
            row += f"{v:>14.4g}{t - v:>+11.3g}"
        print(row)
    row = f"{'failed_frac':<16}{'ratio':<7}"
    for w in WORKLOADS:
        r = report["workloads"][w]["untraced"]
        row += f"{r['failed'] / r['attempted']:>14.4g}{'':>11}"
    print(row + "   (failed / attempted; not gated)")

    moves = layer_moves(binary, env)
    report["per_layer_moves"] = moves
    print("\nper-layer metrics (traced runs); moves -> the end-to-end metric and workload it should move")
    print(f"{'metric':<38}{'unit':<7}" + "".join(f"{w:>12}" for w in WORKLOADS) + "  moves")
    for m in spec["per_layer"]:
        name = m["name"]
        vals = "".join(f"{report['workloads'][w]['trace']['metrics'][name]['value']:>12.4g}" for w in WORKLOADS)
        print(f"{name:<38}{m['unit']:<7}{vals}  {moves[name]['moves']}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "report.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    log(f"wrote {path}")
    sys.exit(0 if ok else 1)


def layer_moves(binary, env):
    done = subprocess.run([binary, "--catalogue"], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    a = p.parse_args()
    if not a.all and a.workload is None:
        p.error("give --workload or --all")
    env = environment()
    binary = build(env)
    if a.all:
        run_all(binary, env, a.seed, a.seconds)
    code, _ = run_one(binary, env, a.workload, a.seed, a.seconds, a.trace, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
