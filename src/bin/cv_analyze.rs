//! `cv-analyze` — sweep the synthetic workload's job templates through the
//! optimizer under several reuse configurations and report every CV0xx
//! diagnostic the plan analyzer finds.
//!
//! This is the offline counterpart of the in-optimizer verification hook:
//! instead of failing one job, it audits the whole template population
//! (baseline / build-only / full feedback loop) and prints an aggregate
//! report in text and JSON. Exit code is non-zero iff any error-severity
//! diagnostic fired — wire it into CI next to the test suite.
//!
//! Usage:
//!   cv-analyze [--days N] [--scale F] [--json PATH] [--verbose] [--trace PATH]
//!   cv-analyze --containment [--days N] [--scale F] [--seed N] [--json PATH]
//!
//! `--containment` switches to the semantic-reuse audit: the seeded Zipf
//! workload is driven twice through the concurrent service — once with the
//! widened (containment-certified) view-match cascade, once with exact
//! signatures only — and the report compares per-job result digests
//! (which must be byte-identical), splits the reuse hit rate into exact
//! vs. compensated, and breaks the prover cascade down into
//! considered / proven / vetoed-per-CV06x-code counters.

use cv_analyzer::{Analyzer, Diagnostic, Report, Severity};
use cv_common::hash::Sig128;
use cv_common::ids::JobId;
use cv_common::json::{json, Json, JsonMap, ToJson};
use cv_common::rng::DetRng;
use cv_common::SimDay;
use cv_engine::engine::QueryEngine;
use cv_engine::optimizer::{AlwaysGrant, OptimizerConfig, ReuseContext, ViewMeta};
use cv_obs::Tracer;
use cv_workload::schemas::raw_specs;
use cv_workload::{
    generate_workload, ivm_stats_json, run_workload, run_workload_service_obs, DriverConfig,
    IvmMode, ServiceConfig, ServiceObs, StoreBackend, TemplateKind, WorkloadConfig,
};
use std::collections::{HashMap, HashSet};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug)]
struct SweepConfig {
    name: &'static str,
    match_views: bool,
    build_views: bool,
}

const SWEEPS: &[SweepConfig] = &[
    SweepConfig { name: "baseline", match_views: false, build_views: false },
    SweepConfig { name: "build-only", match_views: false, build_views: true },
    SweepConfig { name: "match+build", match_views: true, build_views: true },
];

#[derive(Debug, Default)]
struct SweepOutcome {
    jobs: u64,
    compile_failures: u64,
    views_matched: u64,
    views_built: u64,
    diagnostics: Vec<Diagnostic>,
}

struct Args {
    days: u32,
    scale: f64,
    seed: u64,
    json_path: Option<String>,
    verbose: bool,
    trace_path: Option<String>,
    containment: bool,
    ivm: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        days: 4,
        scale: 0.15,
        seed: 42,
        json_path: None,
        verbose: false,
        trace_path: None,
        containment: false,
        ivm: false,
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
            "--verbose" | "-v" => args.verbose = true,
            "--trace" => args.trace_path = Some(it.next().ok_or("--trace needs a path")?),
            "--containment" => args.containment = true,
            "--ivm" => args.ivm = true,
            "--help" | "-h" => {
                println!(
                    "cv-analyze: audit optimizer output over the workload templates\n\n\
                     options:\n  --days N      simulated days to sweep (default 4)\n  \
                     --scale F     workload data scale (default 0.15)\n  \
                     --seed N      workload seed (default 42, --containment only)\n  \
                     --json PATH   also write the JSON report to PATH\n  \
                     --verbose     print every diagnostic as it fires\n  \
                     --trace PATH  write a Chrome trace (spans per template x config) to PATH\n  \
                     --containment run the semantic-reuse audit (on/off digest parity,\n                \
                     exact vs. compensated hit rates, prover cascade counters)\n  \
                     --ivm         run the incremental-maintenance audit (maintain vs.\n                \
                     ingest-only digest parity, rows-touched savings, CV07x vetoes)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Compile-and-run one reuse configuration over the whole template
/// population for `days` days, auditing every optimized plan.
///
/// With a tracer, every template compile gets a span on `track` (one track
/// per sweep configuration) with the template id and match/build counters.
fn run_sweep(
    sweep: SweepConfig,
    args: &Args,
    analyzer: &Analyzer,
    tracer: Option<&Tracer>,
    track: u64,
) -> SweepOutcome {
    let mut out = SweepOutcome::default();
    let workload = generate_workload(WorkloadConfig::default());

    let mut cfg = OptimizerConfig::default();
    cfg.enable_view_match = sweep.match_views;
    cfg.enable_view_build = sweep.build_views;
    // The CLI inspects reports itself; the in-engine hook would turn the
    // first error into a compile failure and hide the rest.
    cfg.verify_plans = false;
    let mut engine = QueryEngine::with_config(cfg);

    // Raw data, refreshed on each dataset's own cadence (guid rotation).
    let mut rng = DetRng::seed(7);
    let mut dataset_ids = HashMap::new();
    let mut sig_counts: HashMap<Sig128, u32> = HashMap::new();
    let mut job_seq = 0u64;

    for day_idx in 0..args.days {
        let day = SimDay(day_idx);
        let now = day.start();
        for spec in raw_specs() {
            if day_idx % spec.update_every_days != 0 {
                continue;
            }
            let table = spec.generate(&mut rng, args.scale, day);
            match dataset_ids.get(spec.name) {
                None => {
                    let id = engine
                        .catalog
                        .register(spec.name, table, now)
                        .expect("register raw dataset");
                    dataset_ids.insert(spec.name, id);
                }
                Some(&id) => {
                    engine.catalog.bulk_update(id, table, now).expect("refresh raw dataset");
                }
            }
        }

        // Cooking first: analytics templates read the cooked outputs.
        let mut due: Vec<_> = workload.templates.iter().filter(|t| t.due_on(day)).collect();
        due.sort_by_key(|t| matches!(t.kind, TemplateKind::Analytics));

        for template in due {
            if let Some(t) = tracer {
                t.begin(track, "template");
            }
            let plan = match template.build_plan(&engine, day) {
                Ok(p) => p,
                Err(_) => {
                    // Analytics over a dataset not cooked yet this sweep.
                    out.compile_failures += 1;
                    if let Some(t) = tracer {
                        t.end_with(track, &[("template", template.id.0), ("failed", 1)]);
                    }
                    continue;
                }
            };
            out.jobs += 1;
            let signed = match engine.sign(&plan) {
                Ok(s) => s,
                Err(_) => {
                    out.compile_failures += 1;
                    if let Some(t) = tracer {
                        t.end_with(track, &[("template", template.id.0), ("failed", 1)]);
                    }
                    continue;
                }
            };

            // Reuse annotations for this job, as the insights service
            // would serve them: live views + recurring build candidates.
            let mut reuse = ReuseContext::empty();
            let live: HashSet<Sig128> =
                engine.views.iter().filter(|v| v.expires > now).map(|v| v.strict_sig).collect();
            if sweep.match_views {
                for view in engine.views.iter().filter(|v| v.expires > now) {
                    reuse
                        .available
                        .insert(view.strict_sig, ViewMeta::hot(view.rows as u64, view.bytes));
                }
            }
            if sweep.build_views {
                for sub in signed.subexprs.iter().filter(|s| !s.is_root && s.node_count > 1) {
                    let count = sig_counts.entry(sub.strict).or_insert(0);
                    *count += 1;
                    if *count >= 2 && !reuse.available.contains_key(&sub.strict) {
                        reuse.to_build.insert(sub.strict);
                    }
                }
            }

            let outcome = match engine.optimize_signed(&signed, &reuse, &mut AlwaysGrant) {
                Ok(c) => c,
                Err(_) => {
                    out.compile_failures += 1;
                    if let Some(t) = tracer {
                        t.end_with(track, &[("template", template.id.0), ("failed", 1)]);
                    }
                    continue;
                }
            };
            out.views_matched += outcome.matched_views.len() as u64;
            out.views_built += outcome.built_views.len() as u64;

            let report = analyzer.analyze_outcome(&signed.plan, &outcome, &reuse, Some(&live));
            if let Some(t) = tracer {
                t.end_with(
                    track,
                    &[
                        ("template", template.id.0),
                        ("matched", outcome.matched_views.len() as u64),
                        ("built", outcome.built_views.len() as u64),
                        ("diagnostics", report.diagnostics.len() as u64),
                    ],
                );
            }
            if args.verbose {
                for d in &report.diagnostics {
                    println!("  [{}] {}", sweep.name, d);
                }
            }
            out.diagnostics.extend(report.diagnostics);

            // Execute + seal so later jobs can match this job's views, and
            // register cooked outputs for downstream analytics.
            job_seq += 1;
            let exec = engine.execute(&outcome.physical, now).expect("execute swept job");
            engine
                .seal_views(&exec.pending_views, JobId(job_seq), template.vc, now)
                .expect("seal swept job's views");
            if let Some(output) = template.output_dataset() {
                match dataset_ids.get(output) {
                    None => {
                        let id = engine
                            .catalog
                            .register(output, exec.table.clone(), now)
                            .expect("register cooked dataset");
                        dataset_ids
                            .insert(Box::leak(output.to_string().into_boxed_str()) as &str, id);
                    }
                    Some(&id) => {
                        engine
                            .catalog
                            .bulk_update(id, exec.table.clone(), now)
                            .expect("refresh cooked dataset");
                    }
                }
            }
        }
    }
    out
}

/// The `--containment` audit: drive the same seeded Zipf workload through
/// the concurrent service twice — semantic matching on (with the cascade
/// counters recorded) and off — then require byte-identical per-job result
/// digests and report the exact vs. compensated reuse split.
fn run_containment(args: &Args) -> ExitCode {
    let wl_cfg = WorkloadConfig { seed: args.seed, scale: args.scale, ..WorkloadConfig::default() };
    let workload = generate_workload(wl_cfg);
    let svc = ServiceConfig::default();
    println!(
        "cv-analyze --containment: seed {} | {} day(s) | scale {} | {} worker(s)",
        args.seed, args.days, args.scale, svc.workers
    );

    let cfg_on = DriverConfig::enabled(args.days);
    let obs = ServiceObs::new();
    let on = match run_workload_service_obs(&workload, &cfg_on, &svc, Some(&obs)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cv-analyze: semantic-on run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg_off = DriverConfig::enabled(args.days);
    cfg_off.optimizer.enable_semantic_match = false;
    let off = match run_workload_service_obs(&workload, &cfg_off, &svc, None) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cv-analyze: semantic-off run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Durable-store leg: the same semantic-on configuration through the
    // sequential driver on the disk-backed store. Moving the view store to
    // disk must not move a single result digest.
    let store_dir = std::env::temp_dir().join(format!("cv-analyze-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut cfg_durable = DriverConfig::enabled(args.days);
    cfg_durable.store = StoreBackend::Durable(store_dir.clone());
    let durable = match run_workload(&workload, &cfg_durable) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cv-analyze: durable-store run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_io = durable.store_io.clone().expect("durable run reports io stats");
    let durable_digests_match = durable.result_digests == on.result_digests;

    let digests_match = on.result_digests == off.result_digests;
    let totals = on.ledger.totals();
    let off_totals = off.ledger.totals();
    let exact = totals.views_reused - totals.views_reused_semantic;
    let jobs = totals.jobs.max(1) as f64;
    let exact_rate = exact as f64 / jobs;
    let compensated_rate = totals.views_reused_semantic as f64 / jobs;

    // Prover cascade counters, as the optimizer sink recorded them.
    let metric_values = obs.metrics.deterministic_values();
    let considered = metric_values.get("optimizer.semantic_considered").copied().unwrap_or(0);
    let proven = metric_values.get("optimizer.semantic_proven").copied().unwrap_or(0);
    let mut vetoes = JsonMap::new();
    let mut vetoed_total = 0u64;
    for (name, value) in &metric_values {
        if let Some(code) = name.strip_prefix("optimizer.semantic_veto.") {
            vetoes.insert(code, *value);
            vetoed_total += value;
        }
    }

    println!("\n=== semantic on ===");
    println!("  jobs                 {}", totals.jobs);
    println!("  views reused         {}", totals.views_reused);
    println!("    exact              {exact}  ({:.4} per job)", exact_rate);
    println!(
        "    compensated        {}  ({:.4} per job)",
        totals.views_reused_semantic, compensated_rate
    );
    println!(
        "  prover cascade       {considered} considered / {proven} proven / {vetoed_total} vetoed"
    );
    for (code, count) in vetoes.iter() {
        println!("    veto {code}        {count}");
    }
    println!("=== semantic off ===");
    println!("  jobs                 {}", off_totals.jobs);
    println!("  views reused         {} (all exact)", off_totals.views_reused);
    println!(
        "=== digest parity ===\n  {} per-job digests, byte-identical: {}",
        on.result_digests.len(),
        digests_match
    );
    println!(
        "=== durable store ===\n  {} WAL records / {} fsyncs / {} checkpoints, \
         cache hit rate {:.2}, digests match service run: {}",
        store_io.wal_records_written,
        store_io.wal_fsyncs,
        store_io.checkpoints,
        store_io.page_cache_hit_rate(),
        durable_digests_match
    );

    let report = json!({
        "mode": "containment",
        "seed": args.seed,
        "days": args.days,
        "scale": args.scale,
        "workers": svc.workers as u64,
        "jobs": totals.jobs,
        "failed_jobs": on.failed_jobs + off.failed_jobs,
        "digests_match": digests_match,
        "views_reused": totals.views_reused,
        "views_reused_exact": exact,
        "views_reused_semantic": totals.views_reused_semantic,
        "exact_hit_rate": exact_rate,
        "compensated_hit_rate": compensated_rate,
        "baseline_views_reused": off_totals.views_reused,
        "semantic_considered": considered,
        "semantic_proven": proven,
        "semantic_vetoed": vetoed_total,
        "vetoes_by_code": Json::Obj(vetoes),
        "durable_digests_match": durable_digests_match,
        "store": json!({
            "page_cache_hits": store_io.page_cache_hits,
            "page_cache_misses": store_io.page_cache_misses,
            "page_cache_hit_rate": store_io.page_cache_hit_rate(),
            "pages_evicted": store_io.pages_evicted,
            "wal_fsyncs": store_io.wal_fsyncs,
            "wal_records_written": store_io.wal_records_written,
            "wal_records_replayed": store_io.wal_records_replayed,
            "recoveries": store_io.recoveries,
            "checkpoints": store_io.checkpoints,
            "bytes_written_durably": store_io.bytes_written_durably,
        }),
    });
    if let Some(path) = &args.json_path {
        if let Err(e) = std::fs::write(path, report.to_string_pretty()) {
            eprintln!("cv-analyze: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n[json report] {path}");
    } else {
        println!("\n{}", report.to_string_compact());
    }

    if !digests_match {
        eprintln!("cv-analyze: FAIL — semantic matching changed at least one result digest");
        return ExitCode::FAILURE;
    }
    if !durable_digests_match {
        eprintln!("cv-analyze: FAIL — the durable store changed at least one result digest");
        return ExitCode::FAILURE;
    }
    if on.failed_jobs + off.failed_jobs > 0 {
        eprintln!("cv-analyze: FAIL — {} job(s) failed", on.failed_jobs + off.failed_jobs);
        return ExitCode::FAILURE;
    }
    println!("cv-analyze: digests identical across semantic on/off");
    ExitCode::SUCCESS
}

/// The `--ivm` audit: replay the same seeded workload twice under
/// delta-producing ingestion — once with incremental maintenance of
/// certified recurring views, once executing every job in full — then
/// require byte-identical per-job result digests and report the
/// rows-touched savings plus the CV07x veto and fallback breakdowns.
fn run_ivm(args: &Args) -> ExitCode {
    let wl_cfg = WorkloadConfig { seed: args.seed, scale: args.scale, ..WorkloadConfig::default() };
    let workload = generate_workload(wl_cfg);
    println!("cv-analyze --ivm: seed {} | {} day(s) | scale {}", args.seed, args.days, args.scale);

    let mut cfg_on = DriverConfig::enabled(args.days);
    cfg_on.ivm = IvmMode::Maintain;
    let mut cfg_off = cfg_on.clone();
    cfg_off.ivm = IvmMode::Ingest;

    let on = match run_workload(&workload, &cfg_on) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cv-analyze: ivm-maintain run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let off = match run_workload(&workload, &cfg_off) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cv-analyze: ingest-only run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stats = on.ivm.clone().expect("maintain mode reports ivm stats");
    // Counters also land in an obs metrics registry, exactly as a service
    // deployment would export them (`ivm.maintained`, `ivm.veto.CV07x`...).
    let obs = ServiceObs::new();
    obs.record_ivm(&stats);

    let digests_match = on.result_digests == off.result_digests;
    let rows_touched = stats.rows_maintained + stats.rows_bootstrap;
    let savings_ratio = if stats.rows_rebuild_baseline > 0 {
        stats.rows_maintained as f64 / stats.rows_rebuild_baseline as f64
    } else {
        1.0
    };

    println!("\n=== maintenance ===");
    println!("  views maintained     {}", stats.maintained);
    println!("  fallback rebuilds    {}", stats.rebuilt);
    for (reason, n) in &stats.rebuild_reasons {
        println!("    {reason:<18} {n}");
    }
    println!("  CV07x refusals       {}", stats.refused);
    for (code, n) in &stats.vetoes {
        println!("    veto {code}         {n}");
    }
    println!("=== rows touched ===");
    println!("  maintenance          {}", stats.rows_maintained);
    println!("  state bootstrap      {}", stats.rows_bootstrap);
    println!("  rebuild baseline     {}", stats.rows_rebuild_baseline);
    println!("  maintenance / rebuild ratio  {savings_ratio:.4}");
    println!(
        "=== digest parity ===\n  {} per-job digests, byte-identical: {}",
        off.result_digests.len(),
        digests_match
    );

    let report = json!({
        "mode": "ivm",
        "seed": args.seed,
        "days": args.days,
        "scale": args.scale,
        "jobs": off.result_digests.len() as u64,
        "failed_jobs": on.failed_jobs + off.failed_jobs,
        "digests_match": digests_match,
        "ivm": ivm_stats_json(&stats),
        "rows_touched_total": rows_touched,
        "savings_ratio": savings_ratio,
        "obs_counters": json!({
            "ivm.maintained": obs.metrics.deterministic_values().get("ivm.maintained").copied().unwrap_or(0),
            "ivm.rebuilt": obs.metrics.deterministic_values().get("ivm.rebuilt").copied().unwrap_or(0),
            "ivm.refused": obs.metrics.deterministic_values().get("ivm.refused").copied().unwrap_or(0),
        }),
    });
    if let Some(path) = &args.json_path {
        if let Err(e) = std::fs::write(path, report.to_string_pretty()) {
            eprintln!("cv-analyze: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n[json report] {path}");
    } else {
        println!("\n{}", report.to_string_compact());
    }

    if !digests_match {
        eprintln!("cv-analyze: FAIL — incremental maintenance changed at least one result digest");
        return ExitCode::FAILURE;
    }
    if on.failed_jobs + off.failed_jobs > 0 {
        eprintln!("cv-analyze: FAIL — {} job(s) failed", on.failed_jobs + off.failed_jobs);
        return ExitCode::FAILURE;
    }
    if stats.maintained == 0 {
        eprintln!("cv-analyze: FAIL — no views were maintained incrementally");
        return ExitCode::FAILURE;
    }
    if stats.rows_maintained >= stats.rows_rebuild_baseline {
        eprintln!(
            "cv-analyze: FAIL — maintenance rows {} did not beat the rebuild baseline {}",
            stats.rows_maintained, stats.rows_rebuild_baseline
        );
        return ExitCode::FAILURE;
    }
    println!("cv-analyze: digests identical across maintain/ingest-only");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cv-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if args.containment {
        return run_containment(&args);
    }
    if args.ivm {
        return run_ivm(&args);
    }

    let analyzer = Analyzer::new(&OptimizerConfig::default());
    println!(
        "cv-analyze: sweeping workload templates over {} day(s) at scale {} \
         under {} reuse configuration(s)",
        args.days,
        args.scale,
        SWEEPS.len()
    );
    println!("checks:");
    for check in analyzer.registry().checks() {
        println!("  {} {:<24} {}", check.family(), check.name(), check.description());
    }

    let tracer = args.trace_path.as_ref().map(|_| Tracer::new());
    let mut sweeps = Vec::new();
    let mut total_errors = 0usize;
    for (track, &sweep) in SWEEPS.iter().enumerate() {
        let track = track as u64;
        if let Some(t) = &tracer {
            t.begin(track, sweep.name);
        }
        let outcome = run_sweep(sweep, &args, &analyzer, tracer.as_ref(), track);
        if let Some(t) = &tracer {
            t.end_with(
                track,
                &[
                    ("jobs", outcome.jobs),
                    ("views_matched", outcome.views_matched),
                    ("views_built", outcome.views_built),
                ],
            );
        }
        let report = Report { diagnostics: outcome.diagnostics.clone() };
        let errors = report.errors().count();
        let warnings =
            report.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count();
        total_errors += errors;
        println!(
            "\n=== {} ===\n  jobs optimized     {}\n  compile failures   {}\n  \
             views matched      {}\n  views built        {}\n  \
             diagnostics        {} error(s), {} warning(s)",
            sweep.name,
            outcome.jobs,
            outcome.compile_failures,
            outcome.views_matched,
            outcome.views_built,
            errors,
            warnings
        );
        if !report.is_clean() && !args.verbose {
            print!("{}", report.to_text());
        }
        sweeps.push(json!({
            "config": sweep.name,
            "jobs": outcome.jobs,
            "compile_failures": outcome.compile_failures,
            "views_matched": outcome.views_matched,
            "views_built": outcome.views_built,
            "errors": errors as u64,
            "warnings": warnings as u64,
            "diagnostics": report.to_json().get("diagnostics").cloned().unwrap_or(Json::Null),
        }));
    }

    let report_json = json!({
        "days": args.days,
        "scale": args.scale,
        "sweeps": sweeps,
        "total_errors": total_errors as u64,
    });
    if let Some(path) = &args.json_path {
        if let Err(e) = std::fs::write(path, report_json.to_string_pretty()) {
            eprintln!("cv-analyze: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n[json report] {path}");
    } else {
        println!("\n{}", report_json.to_string_compact());
    }
    if let (Some(path), Some(t)) = (&args.trace_path, &tracer) {
        if let Err(e) = std::fs::write(path, t.to_chrome_json().to_string_pretty()) {
            eprintln!("cv-analyze: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[chrome trace] {path} ({} spans)", t.span_count());
    }

    if total_errors > 0 {
        eprintln!("cv-analyze: {total_errors} error-severity diagnostic(s)");
        ExitCode::FAILURE
    } else {
        println!("\ncv-analyze: all plans clean");
        ExitCode::SUCCESS
    }
}
