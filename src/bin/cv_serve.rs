//! `cv-serve` — run a multi-day workload through the concurrent query
//! service and check the run against the sequential driver.
//!
//! Two runs of the same workload: the sequential driver on the in-memory
//! store at the default chunk size (the reference), then the service with
//! `--workers N` on the chosen backend — the in-memory store, or the
//! durable (disk-backed) store when `--store-dir` is given — at
//! `--chunk-size`. The self-check is what every knob must leave alone:
//!
//! * **Determinism** — per-job result digests are byte-identical to the
//!   reference, for any seed, worker count, chunk size and backend.
//! * **Single flight** — the duplicate-materialization counter is 0.
//! * **No lost jobs** — every job completes under concurrency.
//!
//! The report gives throughput (jobs/sec of parallel-phase wall), latency
//! percentiles, the phase walls, and the pipelining ledger: realized
//! concurrent-reuse savings next to the Fig. 9 `pipelining_savings_bound`
//! opportunity. These are one run's numbers on a small workload — the
//! benchmark (`perf/`) is where performance is measured and compared.
//!
//! `--trace` writes a Chrome trace (`chrome://tracing` / Perfetto) merging
//! the service spans (pid 1) with the simulated-cluster timeline (pid 2);
//! `--metrics` writes the cv-obs metrics dump of the same run.
//!
//! Exit code: 0 when the self-check holds, 1 when it fails or the run
//! errors, 2 on a bad argument. A `--store-dir` must be absent or empty;
//! the store written there is left in place.
//!
//! Usage:
//!   cv-serve [--days N] [--scale F] [--seed N] [--analytics N]
//!            [--workers N] [--shards N] [--chunk-size N]
//!            [--mode closed|open] [--store-dir PATH]
//!            [--json PATH] [--trace PATH] [--metrics PATH]

use cv_common::json::{json, Json};
use cv_common::Sig128;
use cv_obs::chrome_trace;
use cv_workload::{
    generate_workload, run_workload, run_workload_service_obs, DriverConfig, ServiceConfig,
    ServiceObs, StoreBackend, WorkloadConfig,
};
use std::process::ExitCode;

struct Args {
    days: u32,
    scale: f64,
    seed: u64,
    analytics: usize,
    workers: usize,
    shards: usize,
    chunk_size: usize,
    open_loop: bool,
    store_dir: Option<String>,
    json_path: Option<String>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
}

const HELP: &str = "cv-serve: run a workload through the concurrent query service and check \
it against the sequential driver

options:
  --days N             simulated days (default 4)
  --scale F            workload data scale (default 0.05)
  --seed N             workload seed (default 7)
  --analytics N        analytics templates (default 24)
  --workers N          service worker threads (default 8)
  --shards N           view-store lock stripes (default 16)
  --chunk-size N       rows per execution chunk (default 2048; results are
                       byte-identical at any value)
  --mode M             closed|open load generation (default closed)
  --store-dir P        run on the durable view store in P (must be absent or
                       empty; default: the in-memory store)
  --json PATH          write the full JSON report to PATH
  --trace PATH         write a Chrome trace of the run to PATH
  --metrics PATH       write the cv-obs metrics dump to PATH";

/// The value after `flag`, parsed.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        days: 4,
        scale: 0.05,
        seed: 7,
        analytics: 24,
        workers: 8,
        shards: 16,
        chunk_size: cv_data::chunk::DEFAULT_CHUNK_SIZE,
        open_loop: false,
        store_dir: None,
        json_path: None,
        trace_path: None,
        metrics_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--days" => args.days = value(&mut it, flag)?,
            "--scale" => args.scale = value(&mut it, flag)?,
            "--seed" => args.seed = value(&mut it, flag)?,
            "--analytics" => args.analytics = value(&mut it, flag)?,
            "--workers" => args.workers = value(&mut it, flag)?,
            "--shards" => args.shards = value(&mut it, flag)?,
            "--chunk-size" => args.chunk_size = value(&mut it, flag)?,
            "--mode" => {
                args.open_loop = match value::<String>(&mut it, flag)?.as_str() {
                    "closed" => false,
                    "open" => true,
                    other => return Err(format!("bad --mode value `{other}`")),
                }
            }
            "--store-dir" => {
                let dir: String = value(&mut it, flag)?;
                // The directory the user names is never cleared to make room.
                if std::fs::read_dir(&dir).is_ok_and(|mut entries| entries.next().is_some()) {
                    return Err(format!("--store-dir `{dir}` exists and is not empty"));
                }
                args.store_dir = Some(dir);
            }
            "--json" => args.json_path = Some(value(&mut it, flag)?),
            "--trace" => args.trace_path = Some(value(&mut it, flag)?),
            "--metrics" => args.metrics_path = Some(value(&mut it, flag)?),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if args.chunk_size == 0 {
        return Err("--chunk-size must be at least 1".to_string());
    }
    Ok(args)
}

/// Order-insensitive checksum over every per-job digest, for the report.
fn digest_checksum(digests: &std::collections::BTreeMap<cv_common::ids::JobId, Sig128>) -> String {
    let mut h = cv_common::hash::StableHasher::with_domain("digest-checksum");
    for (job, sig) in digests {
        h.write_u64(job.0);
        h.write_u128(sig.0);
    }
    format!("{:032x}", h.finish128().0)
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Both runs, the report and the self-check: `Ok(false)` when a contract is
/// violated, `Err` when a run or a report file fails.
fn run(args: &Args) -> Result<bool, String> {
    let workload = generate_workload(WorkloadConfig {
        seed: args.seed,
        scale: args.scale,
        n_analytics: args.analytics,
        ..WorkloadConfig::default()
    });
    let mut reference_cfg = DriverConfig::enabled(args.days);
    reference_cfg.cluster.total_containers = 200;
    let mut cfg = reference_cfg.clone();
    cfg.chunk_size = args.chunk_size;
    if let Some(dir) = &args.store_dir {
        cfg.store = StoreBackend::Durable(dir.into());
    }
    let svc = ServiceConfig {
        workers: args.workers,
        store_shards: args.shards,
        pacing_us_per_sim_hour: if args.open_loop { 200 } else { 0 },
    };
    let mode = if args.open_loop { "open" } else { "closed" };
    println!(
        "cv-serve: {} day(s) at scale {}, seed {}, {} workers, {} shards, {mode} loop, {} store",
        args.days,
        args.scale,
        args.seed,
        args.workers,
        args.shards,
        if args.store_dir.is_some() { "durable" } else { "in-memory" }
    );

    let obs = (args.trace_path.is_some() || args.metrics_path.is_some()).then(ServiceObs::new);
    let out = run_workload_service_obs(&workload, &cfg, &svc, obs.as_ref())
        .map_err(|e| format!("service run: {e}"))?;
    let sequential =
        run_workload(&workload, &reference_cfg).map_err(|e| format!("sequential run: {e}"))?;

    let s = &out.service;
    let mut problems: Vec<String> = Vec::new();
    let digests_match = out.result_digests == sequential.result_digests;
    if !digests_match {
        problems.push("service digests diverge from the sequential driver".to_string());
    }
    if out.failed_jobs > 0 {
        let why: String =
            out.failures.iter().map(|(job, e)| format!("\n    job {job}: {e}")).collect();
        problems.push(format!("{} job(s) failed{why}", out.failed_jobs));
    }
    if s.duplicate_materializations > 0 {
        problems.push(format!(
            "{} duplicate materialization(s) — single flight failed",
            s.duplicate_materializations
        ));
    }
    if obs.as_ref().is_some_and(|o| o.tracer.unbalanced_ends() > 0) {
        problems.push("unbalanced span begin/end pairs in the tracer".to_string());
    }

    // Throughput over the parallel-phase wall: batch epoch → last task
    // completion, without worker spawn and teardown.
    let wall = s.parallel_wall_seconds;
    let jps = if wall > 0.0 { out.ledger.len() as f64 / wall } else { 0.0 };
    let bound = out.repo.pipelining_savings_bound(out.ledger.records());
    let mut latencies: Vec<f64> = s.latencies_ms.iter().map(|(_, ms)| *ms).collect();
    let [p50, p95, p99] =
        [50.0, 95.0, 99.0].map(|p| cv_cluster::metrics::percentile(&mut latencies, p));
    let checksum = digest_checksum(&out.result_digests);
    println!(
        "\n  jobs                        {}\n  \
         phase wall                  compile {:.3}s / execute {:.3}s / commit {:.3}s (pool overhead {:.3}s)\n  \
         jobs/sec                    {jps:.2}\n  \
         latency p50/p95/p99         {p50:.2} / {p95:.2} / {p99:.2} ms\n  \
         pipelined jobs / reads      {} / {}\n  flight waits                {}\n  \
         duplicate materializations  {}\n  realized pipelining savings {:.3} work units\n  \
         opportunity bound (Fig. 9)  {bound:.3} work units\n  \
         steals / deferrals          {} / {}\n  max inflight / queue depth  {} / {}",
        out.ledger.len(),
        s.compile_wall_seconds,
        s.parallel_wall_seconds,
        s.commit_wall_seconds,
        s.pool_overhead_seconds,
        s.pipelined_jobs,
        s.pipelined_reads,
        s.flight_waits,
        s.duplicate_materializations,
        s.realized_pipelining_savings,
        s.steals,
        s.admission_deferrals,
        s.max_inflight,
        s.max_queue_depth
    );
    println!(
        "  digest checksum             {checksum} ({})",
        if digests_match { "matches sequential" } else { "DIVERGES from sequential" }
    );

    let mut report = out.report_json();
    if let Json::Obj(map) = &mut report {
        map.insert(
            "workload",
            json!({
                "days": args.days,
                "scale": args.scale,
                "seed": args.seed,
                "analytics": args.analytics,
                "mode": mode,
            }),
        );
        map.insert("chunk_size", args.chunk_size);
        map.insert("jobs_per_sec", jps);
        map.insert("latency_ms", json!({ "p50": p50, "p95": p95, "p99": p99 }));
        map.insert("pipelining_opportunity_bound", bound);
        map.insert("digest_checksum", checksum);
        map.insert("digests_match_sequential", digests_match);
        map.insert(
            "host_parallelism",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        );
    }
    match &args.json_path {
        Some(path) => {
            write_file(path, &report.to_string_pretty())?;
            println!("\n[json report] {path}");
        }
        None => println!("\n{}", report.to_string_compact()),
    }

    if let Some(obs) = &obs {
        if let Some(path) = &args.trace_path {
            // pid 1 = the live service run, pid 2 = the simulated cluster
            // replay, merged into one Chrome trace file.
            let mut events = obs.tracer.chrome_events(1);
            let results: Vec<_> = out.ledger.records().iter().map(|r| r.result.clone()).collect();
            events.extend(cv_cluster::timeline::chrome_events(&results, 2));
            let n_events = events.len();
            let trace = chrome_trace(events);
            let text = trace.to_string_pretty();
            if Json::parse(&text).ok().as_ref() != Some(&trace) {
                return Err("trace JSON failed the parse-back self-check".to_string());
            }
            write_file(path, &text)?;
            println!("[chrome trace] {path} ({n_events} events)");
        }
        if let Some(path) = &args.metrics_path {
            write_file(path, &obs.metrics.to_json().to_string_pretty())?;
            println!("[metrics] {path}");
        }
    }

    for p in &problems {
        eprintln!("cv-serve: VIOLATION: {p}");
    }
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cv-serve: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => {
            println!("\ncv-serve: self-check holds — digests identical to the sequential driver");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cv-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
