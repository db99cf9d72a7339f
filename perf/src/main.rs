//! `cv-perf`: the repository's benchmark.
//!
//! ```text
//! cv-perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke 0|1] [--out DIR]
//! cv-perf workloads
//! cv-perf compare <baseline-dir> <change-dir>
//! cv-perf check <results-dir>
//! ```
//!
//! `run` measures one workload in this process and prints every metric
//! `BENCHMARK.json` declares for the mode (`--trace 0`: end-to-end,
//! `--trace 1`: per-layer) by name with its unit, then one JSON object on
//! the last line. `perf/run.sh` builds this binary and calls it.

mod check;
mod compare;
mod host;
mod ledger;
mod probe;
mod report;
mod scan;
mod service;
mod spec;
mod stats;
mod timed_store;

use cv_common::json::{json, Json, JsonMap};
use report::{Report, RunArgs};
use spec::Spec;
use std::process::ExitCode;

/// Where result files go unless `--out` says otherwise; also holds the
/// durable store while `durable_reuse` runs. Ignored by git.
pub const RESULTS_DIR: &str = "perf/results";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(raw) => raw.parse().map_err(|_| format!("{name}: cannot read `{raw}`")),
        None => Ok(default),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load()?;
    let workload = flag(args, "--workload").ok_or("run: --workload <name> is required")?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!("unknown workload `{workload}`; known: {}", spec.workloads.join(", ")));
    }
    let run_args = RunArgs {
        seed: parsed(args, "--seed", 7)?,
        seconds: parsed(args, "--seconds", spec.run_seconds)?,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        smoke: parsed::<u8>(args, "--smoke", 0)? != 0,
        workers: host::WORKERS,
    };
    let build_s: f64 = parsed(args, "--build-seconds", 0.0)?;

    let efficiency = host::parallel_efficiency();
    let out_dir = flag(args, "--out").unwrap_or(RESULTS_DIR);
    for dir in [RESULTS_DIR, out_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }
    let measured = match service::Kind::parse(workload) {
        Some(kind) => service::run(kind, &run_args),
        None => scan::run(&run_args),
    };
    let mut report: Report = measured.map_err(|e| format!("{workload}: {e}"))?;
    report.set("peak_rss_mb", host::peak_rss_mib());
    report.set("service.host_parallel_efficiency", efficiency);
    report.set("harness.build_s", build_s);

    let declared = if run_args.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = JsonMap::new();
    println!("workload {workload}  seed {}  trace {}", run_args.seed, u8::from(run_args.trace));
    for m in declared {
        // A layer a workload bypasses has nothing to measure: it prints as
        // n/a and reads as zero. Every end-to-end metric must exist.
        let value = match report.values.get(&m.name) {
            Some(value) => *value,
            None if run_args.trace => {
                println!("{:<42}{:>16} {}", m.name, "n/a", m.unit);
                metrics.insert(m.name.as_str(), json!({ "value": 0.0, "unit": m.unit.as_str() }));
                continue;
            }
            None => return Err(format!("{workload}: `{}` was not measured", m.name)),
        };
        match report.summaries.get(&m.name).filter(|s| s.q3 > s.q1) {
            Some(s) => println!(
                "{:<42}{value:>16.6} {:<8} q1 {:.6} q3 {:.6} mad {:.6} n {}",
                m.name, m.unit, s.q1, s.q3, s.mad, s.n
            ),
            None => println!("{:<42}{value:>16.6} {}", m.name, m.unit),
        }
        metrics.insert(m.name.as_str(), json!({ "value": value, "unit": m.unit.as_str() }));
    }
    for line in &report.ledger {
        println!("{line}");
    }
    println!("checked {} outputs, {} wrong", report.attempted, report.failed);

    let correct = report.failed == 0;
    let result = json!({
        "correct": correct,
        "attempted": report.attempted.max(1),
        "failed": report.failed,
        "metrics": Json::Obj(metrics),
    });
    let mut summaries = JsonMap::new();
    for (name, s) in &report.summaries {
        summaries.insert(name.as_str(), s.to_json());
    }
    let mut values = JsonMap::new();
    for (name, v) in &report.values {
        values.insert(name.as_str(), *v);
    }
    let file = json!({
        "workload": workload,
        "trace": run_args.trace,
        "smoke": run_args.smoke,
        "run_seconds": run_args.seconds,
        "host": host::describe(run_args.seed, efficiency),
        "result": result.clone(),
        "values": Json::Obj(values),
        "spread": Json::Obj(summaries),
    });
    let suffix = if run_args.trace { "-trace" } else { "" };
    let path = format!("{out_dir}/{workload}{suffix}.json");
    std::fs::write(&path, file.to_string_pretty()).map_err(|e| format!("{path}: {e}"))?;

    println!("{}", result.to_string_compact());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("workloads") => Spec::load().map(|spec| {
            spec.workloads.iter().for_each(|w| println!("{w}"));
            true
        }),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("check") if args.len() == 2 => check::check(&args[1]),
        _ => Err("usage: cv-perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                  [--smoke 0|1] [--out DIR] | workloads | compare <baseline-dir> <change-dir> \
                  | check <results-dir>"
            .to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cv-perf: {message}");
            ExitCode::from(2)
        }
    }
}
