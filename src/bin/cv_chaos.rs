//! `cv-chaos` — replay the workload templates under a matrix of injected
//! fault plans and assert graceful degradation end to end.
//!
//! For every sweep the driver runs the same multi-day workload the other
//! experiments use, but with a seeded [`FaultPlan`] installed across the
//! view store, the cluster simulator, and the metadata path. The contract
//! checked here is the tentpole guarantee: **faults may cost time, never
//! correctness** — every job completes and produces a result byte-identical
//! to the fault-free run, while the robustness counters show the faults
//! actually fired and were absorbed (fallback recompute, quarantine, stage
//! retries, metadata-outage degradation).
//!
//! Exit code is non-zero iff any sweep diverges from the fault-free
//! baseline, fails a job, or (for fault sweeps) absorbs zero faults — wire
//! it into CI next to `cv-analyze`.
//!
//! A second matrix, `--crash`, targets the durable view store: the same
//! workload runs against the disk-backed WAL + page store while a byte
//! budget kills the store mid-write at swept offsets (`CrashAt`), plus a
//! torn-WAL-record sweep (`WalTornWrite`). After every kill the driver
//! recovers in place (checkpoint + WAL replay) and the run must finish with
//! per-job digests byte-identical to the fault-free in-memory baseline.
//!
//! Usage:
//!   cv-chaos [--days N] [--scale F] [--seed N] [--json PATH] [--trace PATH]
//!            [--crash] [--store-dir PATH]

use cv_common::json::{json, Json};
use cv_common::{FaultPlan, FaultPoint, SimDuration};
use cv_obs::Tracer;
use cv_workload::{
    generate_workload, run_workload, DriverConfig, StoreBackend, Workload, WorkloadConfig,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    days: u32,
    scale: f64,
    seed: u64,
    json_path: Option<String>,
    trace_path: Option<String>,
    /// Run the durable-store crash-recovery matrix instead of the fault
    /// sweeps.
    crash: bool,
    /// Root directory for the crash matrix's store instances (a temp dir
    /// by default; each sweep uses its own subdirectory). A directory named
    /// here must be absent or empty and is never removed.
    store_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        days: 4,
        scale: 0.05,
        seed: 1,
        json_path: None,
        trace_path: None,
        crash: false,
        store_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--days" => {
                let v = it.next().ok_or("--days needs a value")?;
                args.days = v.parse().map_err(|_| format!("bad --days value `{v}`"))?;
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad --scale value `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--json" => args.json_path = Some(it.next().ok_or("--json needs a path")?),
            "--trace" => args.trace_path = Some(it.next().ok_or("--trace needs a path")?),
            "--crash" => args.crash = true,
            "--store-dir" => {
                let dir = it.next().ok_or("--store-dir needs a path")?;
                // The directory the user names is never cleared to make room.
                if std::fs::read_dir(&dir).is_ok_and(|mut entries| entries.next().is_some()) {
                    return Err(format!("--store-dir `{dir}` exists and is not empty"));
                }
                args.store_dir = Some(dir);
            }
            "--help" | "-h" => {
                println!(
                    "cv-chaos: fault-injection sweep over the workload templates\n\n\
                     options:\n  --days N        simulated days per sweep (default 4)\n  \
                     --scale F       workload data scale (default 0.05)\n  \
                     --seed N        fault-plan seed (default 1)\n  \
                     --json PATH     also write the JSON report to PATH\n  \
                     --trace PATH    write a Chrome trace (one span per sweep) to PATH\n  \
                     --crash         run the durable-store crash-recovery matrix\n  \
                     --store-dir P   root directory for --crash store instances; must be\n                  \
                     absent or empty and is left in place (default: a fresh\n                  \
                     temp directory, removed afterwards)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One entry of the fault matrix.
struct Sweep {
    name: &'static str,
    plan: FaultPlan,
    /// Counters that must be non-zero for the sweep to count as having
    /// exercised its fault points (name, extractor).
    must_fire: Vec<(&'static str, fn(&cv_cluster::metrics::RobustnessStats) -> u64)>,
}

fn fault_matrix(seed: u64) -> Vec<Sweep> {
    vec![
        Sweep { name: "fault-free", plan: FaultPlan::none(), must_fire: vec![] },
        Sweep {
            name: "view-faults",
            plan: FaultPlan::seeded(seed)
                .with_rate(FaultPoint::ViewRead, 0.2)
                .with_rate(FaultPoint::ViewWrite, 0.1)
                .with_rate(FaultPoint::ViewCorrupt, 0.1)
                .with_rate(FaultPoint::ViewExpiryRace, 0.05),
            must_fire: vec![
                ("fallbacks_recompute", |r| r.fallbacks_recompute),
                ("views_quarantined", |r| r.views_quarantined),
            ],
        },
        Sweep {
            name: "cluster-faults",
            plan: FaultPlan::seeded(seed)
                .with_rate(FaultPoint::StageFail, 0.1)
                .with_rate(FaultPoint::BonusPreempt, 0.2),
            must_fire: vec![("stage_retries", |r| r.stage_retries)],
        },
        Sweep {
            name: "metadata-outages",
            plan: FaultPlan::seeded(seed).with_metadata_outages(
                SimDuration::from_secs(3.0 * 3600.0),
                SimDuration::from_secs(3600.0),
            ),
            must_fire: vec![("metadata_outage_jobs", |r| r.metadata_outage_jobs)],
        },
        Sweep {
            name: "aggressive",
            plan: FaultPlan::seeded(seed)
                .with_rate(FaultPoint::ViewRead, 0.2)
                .with_rate(FaultPoint::ViewWrite, 0.1)
                .with_rate(FaultPoint::ViewCorrupt, 0.1)
                .with_rate(FaultPoint::ViewExpiryRace, 0.05)
                .with_rate(FaultPoint::StageFail, 0.1)
                .with_rate(FaultPoint::BonusPreempt, 0.1)
                .with_metadata_outages(
                    SimDuration::from_secs(4.0 * 3600.0),
                    SimDuration::from_secs(3600.0),
                ),
            must_fire: vec![
                ("fallbacks_recompute", |r| r.fallbacks_recompute),
                ("views_quarantined", |r| r.views_quarantined),
                ("stage_retries", |r| r.stage_retries),
            ],
        },
    ]
}

fn chaos_config(days: u32, plan: FaultPlan) -> DriverConfig {
    let mut cfg = DriverConfig::enabled(days);
    cfg.cluster.total_containers = 200;
    cfg.faults = plan;
    cfg
}

fn run_matrix(workload: &Workload, args: &Args, tracer: Option<&Tracer>) -> (Vec<Json>, usize) {
    let mut reports = Vec::new();
    let mut violations = 0usize;

    println!("cv-chaos: {} day(s) at scale {}, fault seed {}", args.days, args.scale, args.seed);

    if let Some(t) = tracer {
        t.begin(0, "baseline");
    }
    let baseline = run_workload(workload, &chaos_config(args.days, FaultPlan::none()))
        .expect("fault-free run");
    if let Some(t) = tracer {
        t.end_with(0, &[("jobs", baseline.ledger.len() as u64)]);
    }

    for sweep in fault_matrix(args.seed) {
        if let Some(t) = tracer {
            t.begin(0, sweep.name);
        }
        let out = run_workload(workload, &chaos_config(args.days, sweep.plan.clone()))
            .expect("faulty run must not error out");
        if let Some(t) = tracer {
            t.end_with(
                0,
                &[
                    ("jobs", out.ledger.len() as u64),
                    ("fallbacks_recompute", out.robustness.fallbacks_recompute),
                    ("stage_retries", out.robustness.stage_retries),
                    ("metadata_outage_jobs", out.robustness.metadata_outage_jobs),
                ],
            );
        }
        let mut problems: Vec<String> = Vec::new();

        if out.failed_jobs > 0 {
            problems.push(format!("{} job(s) failed", out.failed_jobs));
        }
        if out.result_digests.len() != baseline.result_digests.len() {
            problems.push(format!(
                "job count diverged: {} vs {} fault-free",
                out.result_digests.len(),
                baseline.result_digests.len()
            ));
        }
        let diverged = baseline
            .result_digests
            .iter()
            .filter(|(job, digest)| out.result_digests.get(job) != Some(digest))
            .count();
        if diverged > 0 {
            problems.push(format!("{diverged} job result(s) diverged from fault-free run"));
        }
        for (counter, get) in &sweep.must_fire {
            if get(&out.robustness) == 0 {
                problems.push(format!("expected non-zero {counter}"));
            }
        }

        let r = &out.robustness;
        println!(
            "\n=== {} ===\n  jobs                 {}\n  fallbacks_recompute  {}\n  \
             views_quarantined    {}\n  view_read_failures   {}\n  \
             view_corruptions     {}\n  view_expiry_races    {}\n  \
             view_write_failures  {}\n  stage_retries        {}\n  \
             preemptions          {}\n  backoff_seconds      {:.1}\n  \
             job_restarts         {}\n  metadata_outage_jobs {}",
            sweep.name,
            out.ledger.len(),
            r.fallbacks_recompute,
            r.views_quarantined,
            r.view_read_failures,
            r.view_corruptions,
            r.view_expiry_races,
            r.view_write_failures,
            r.stage_retries,
            r.preemptions,
            r.backoff_seconds,
            r.job_restarts,
            r.metadata_outage_jobs
        );
        let ok = problems.is_empty();
        if ok {
            println!("  result: OK — all results byte-identical to fault-free run");
        } else {
            violations += problems.len();
            for p in &problems {
                println!("  VIOLATION: {p}");
            }
        }

        let mut report = match out.report_json() {
            Json::Obj(map) => map,
            other => {
                let mut m = cv_common::json::JsonMap::new();
                m.insert("report", other);
                m
            }
        };
        report.insert("sweep", sweep.name);
        report.insert("ok", ok);
        report.insert(
            "violations",
            Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
        );
        reports.push(Json::Obj(report));
    }

    (reports, violations)
}

fn durable_config(days: u32, dir: &Path, plan: FaultPlan) -> DriverConfig {
    let mut cfg = chaos_config(days, plan);
    cfg.store = StoreBackend::Durable(dir.to_path_buf());
    cfg
}

fn count_divergences(
    baseline: &cv_workload::DriverOutcome,
    out: &cv_workload::DriverOutcome,
) -> usize {
    baseline
        .result_digests
        .iter()
        .filter(|(job, digest)| out.result_digests.get(job) != Some(digest))
        .count()
        + baseline.result_digests.len().abs_diff(out.result_digests.len())
}

/// The durable-store crash-recovery matrix (`--crash`).
///
/// 1. fault-free in-memory baseline → the reference per-job digests;
/// 2. fault-free durable run → digest parity plus the total durable byte
///    budget that calibrates the kill offsets;
/// 3. torn-WAL sweep: commit records damaged in flight, then a second run
///    over the same directory that must replay around the torn records;
/// 4. `CrashAt` sweep: the store is killed mid-write at several byte
///    offsets; each run recovers in place and must finish byte-identical.
fn run_crash_matrix(workload: &Workload, args: &Args) -> (Json, usize) {
    let (store_root, ephemeral) = match &args.store_dir {
        Some(dir) => (PathBuf::from(dir), false),
        None => (std::env::temp_dir().join(format!("cv-chaos-crash-{}", std::process::id())), true),
    };
    if ephemeral {
        let _ = std::fs::remove_dir_all(&store_root);
    }
    let mut violations: Vec<String> = Vec::new();

    println!(
        "cv-chaos --crash: {} day(s) at scale {}, seed {}, store root {}",
        args.days,
        args.scale,
        args.seed,
        store_root.display()
    );

    // 1. In-memory fault-free baseline: the reference digests.
    let mem = run_workload(workload, &chaos_config(args.days, FaultPlan::none()))
        .expect("fault-free in-memory run");

    // 2. Durable fault-free baseline: parity + byte budget.
    let base_dir = store_root.join("baseline");
    let base = run_workload(workload, &durable_config(args.days, &base_dir, FaultPlan::none()))
        .expect("fault-free durable run");
    let base_io = base.store_io.clone().expect("durable run reports io stats");
    let budget = base_io.bytes_written_durably;
    let d = count_divergences(&mem, &base);
    if d > 0 {
        violations.push(format!("durable baseline diverged from memory baseline: {d} job(s)"));
    }
    if budget == 0 {
        violations.push("durable baseline wrote zero bytes — nothing to crash".into());
    }
    println!(
        "  baseline: {} jobs, {} durable bytes, {} wal records, cache hit rate {:.2}",
        base.ledger.len(),
        budget,
        base_io.wal_records_written,
        base_io.page_cache_hit_rate()
    );

    // 3. Torn WAL commits. A torn record is invisible while the process
    // lives (the view stays indexed in memory) and a checkpoint heals it,
    // so the only window that exercises it is a crash *before* the next
    // checkpoint: replay must skip the torn commit, drop the view, and the
    // driver must recompute it without changing any result. Tear every
    // commit and kill late in the run so the replayed tail is non-trivial.
    let torn_dir = store_root.join("torn");
    let torn_kill = ((budget as f64 * 0.85) as u64) | 1;
    let torn_plan = FaultPlan::seeded(args.seed)
        .with_rate(FaultPoint::WalTornWrite, 1.0)
        .with_crash_after_bytes(torn_kill);
    let torn = run_workload(workload, &durable_config(args.days, &torn_dir, torn_plan))
        .expect("torn-wal crash run");
    let torn_io = torn.store_io.clone().expect("durable run reports io stats");
    let d = count_divergences(&mem, &torn);
    if d > 0 {
        violations.push(format!("torn-wal crash run diverged: {d} job(s)"));
    }
    if torn.robustness.store_crashes != 1 {
        violations.push(format!(
            "torn-wal run: expected exactly 1 crash, saw {}",
            torn.robustness.store_crashes
        ));
    }
    if torn_io.wal_records_skipped == 0 {
        violations.push("torn-wal replay skipped zero records".into());
    }
    // The healed directory must reopen clean and still agree.
    let torn2 = run_workload(workload, &durable_config(args.days, &torn_dir, FaultPlan::none()))
        .expect("post-torn restart run");
    let d = count_divergences(&mem, &torn2);
    if d > 0 {
        violations.push(format!("post-torn restart diverged: {d} job(s)"));
    }
    println!(
        "  torn-wal: kill@{torn_kill}, {} torn record(s) skipped on replay, {} replayed",
        torn_io.wal_records_skipped, torn_io.wal_records_replayed
    );

    // 4. Crash-at-byte-offset sweep. Odd jitter keeps kills off page/record
    // boundaries so prefixes tear mid-structure.
    let fractions = [0.08, 0.23, 0.41, 0.58, 0.76, 0.93];
    let mut crashes = 0u64;
    let mut recoveries = 0u64;
    let mut replayed = 0u64;
    let mut skipped = 0u64;
    let mut offsets: Vec<Json> = Vec::new();
    for (i, frac) in fractions.iter().enumerate() {
        let kill_at = ((budget as f64 * frac) as u64) | 1;
        let dir = store_root.join(format!("crash-{i}"));
        let plan = FaultPlan::seeded(args.seed).with_crash_after_bytes(kill_at);
        let out = run_workload(workload, &durable_config(args.days, &dir, plan))
            .expect("crash-budget run must recover, not error out");
        let io = out.store_io.clone().expect("durable run reports io stats");
        let diverged = count_divergences(&mem, &out);
        if out.robustness.store_crashes != 1 {
            violations.push(format!(
                "kill@{kill_at}: expected exactly 1 crash, saw {}",
                out.robustness.store_crashes
            ));
        }
        if out.robustness.store_recoveries == 0 {
            violations.push(format!("kill@{kill_at}: no recovery recorded"));
        }
        if diverged > 0 {
            violations.push(format!("kill@{kill_at}: {diverged} job result(s) diverged"));
        }
        if out.failed_jobs > 0 {
            violations.push(format!("kill@{kill_at}: {} job(s) failed", out.failed_jobs));
        }
        crashes += out.robustness.store_crashes;
        recoveries += out.robustness.store_recoveries;
        replayed += io.wal_records_replayed;
        skipped += io.wal_records_skipped;
        println!(
            "  kill@{kill_at:>9}: crashes {}, recoveries {}, replayed {:>4}, diverged {}",
            out.robustness.store_crashes,
            out.robustness.store_recoveries,
            io.wal_records_replayed,
            diverged
        );
        offsets.push(json!({
            "kill_at_bytes": kill_at,
            "store_crashes": out.robustness.store_crashes,
            "store_recoveries": out.robustness.store_recoveries,
            "wal_records_replayed": io.wal_records_replayed,
            "digest_divergences": diverged as u64,
        }));
    }
    if replayed == 0 {
        violations.push("crash sweep replayed zero WAL records in aggregate".into());
    }

    if ephemeral {
        let _ = std::fs::remove_dir_all(&store_root);
    }

    let report = json!({
        "days": args.days,
        "scale": args.scale,
        "seed": args.seed,
        "durable_bytes_budget": budget,
        "baseline_store": json!({
            "wal_records_written": base_io.wal_records_written,
            "wal_fsyncs": base_io.wal_fsyncs,
            "checkpoints": base_io.checkpoints,
            "page_cache_hit_rate": base_io.page_cache_hit_rate(),
        }),
        "torn": json!({
            "kill_at_bytes": torn_kill,
            "wal_records_skipped": torn_io.wal_records_skipped,
            "wal_records_replayed": torn_io.wal_records_replayed,
        }),
        "crash_offsets": Json::Arr(offsets),
        "store_crashes": crashes + torn.robustness.store_crashes,
        "recoveries": recoveries + torn.robustness.store_recoveries,
        "wal_records_replayed": replayed + torn_io.wal_records_replayed,
        "wal_records_skipped": skipped + torn_io.wal_records_skipped,
        "digest_divergences": violations.iter().filter(|v| v.contains("diverged")).count() as u64,
        "violations": Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect()),
    });
    (report, violations.len())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cv-chaos: {e}");
            return ExitCode::from(2);
        }
    };

    let workload = generate_workload(WorkloadConfig {
        scale: args.scale,
        n_analytics: 24,
        ..WorkloadConfig::default()
    });
    if args.crash {
        let (report_json, violations) = run_crash_matrix(&workload, &args);
        if let Some(path) = &args.json_path {
            if let Err(e) = std::fs::write(path, report_json.to_string_pretty()) {
                eprintln!("cv-chaos: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("\n[json report] {path}");
        } else {
            println!("\n{}", report_json.to_string_compact());
        }
        return if violations > 0 {
            eprintln!("cv-chaos: {violations} crash-recovery violation(s)");
            ExitCode::FAILURE
        } else {
            println!("\ncv-chaos: every crash recovered to a byte-identical state");
            ExitCode::SUCCESS
        };
    }

    let tracer = args.trace_path.as_ref().map(|_| Tracer::new());
    let (sweeps, violations) = run_matrix(&workload, &args, tracer.as_ref());

    if let (Some(path), Some(t)) = (&args.trace_path, &tracer) {
        if let Err(e) = std::fs::write(path, t.to_chrome_json().to_string_pretty()) {
            eprintln!("cv-chaos: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n[chrome trace] {path} ({} spans)", t.span_count());
    }

    let report_json = json!({
        "days": args.days,
        "scale": args.scale,
        "seed": args.seed,
        "sweeps": sweeps,
        "violations": violations as u64,
    });
    if let Some(path) = &args.json_path {
        if let Err(e) = std::fs::write(path, report_json.to_string_pretty()) {
            eprintln!("cv-chaos: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n[json report] {path}");
    } else {
        println!("\n{}", report_json.to_string_compact());
    }

    if violations > 0 {
        eprintln!("cv-chaos: {violations} violation(s) — degradation was not graceful");
        ExitCode::FAILURE
    } else {
        println!("\ncv-chaos: every sweep degraded gracefully");
        ExitCode::SUCCESS
    }
}
