//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload once and prints, last, one JSON line with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Exits 1 when an output check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{json_str, machine_json, metrics_json, result_line};

struct Args {
    workload: perfbench::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20u64, false);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(perfbench::workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The per-layer catalogue as JSON: unit, direction, and which
/// end-to-end metric on which workload each should move or leave flat.
fn catalogue_json() -> String {
    let rows: Vec<String> = perfbench::report::PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"unit\": {}, \"better\": {}, \"moves\": {}, \"flat\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.name()),
                json_str(d.moves),
                json_str(d.flat)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--catalogue") {
        println!("{}", catalogue_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name;
    println!("{}", machine_json(name, args.seed, args.trace));
    let outcome = perfbench::run(&args.workload, args.seed, args.seconds, args.trace);
    for note in &outcome.notes {
        eprintln!("perfbench: {name}: {note}");
    }
    for f in &outcome.failures {
        eprintln!("perfbench: {name}: CHECK FAILED: {f}");
    }
    if let Some(t) = &outcome.tracer {
        let path = args.out.join(format!("{name}-seed{}-spans.tsv", args.seed));
        let written = std::fs::create_dir_all(&args.out).and_then(|()| t.write_tsv(&path));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!(
            "perfbench: {name}: {} spans written to {}",
            t.spans().len(),
            path.display()
        );
        // The traced run's own end-to-end numbers, for the overhead.
        println!(
            "{{\"traced_end_to_end\": {}}}",
            metrics_json(&outcome.end_to_end)
        );
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
