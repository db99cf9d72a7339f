//! The three service-altitude workloads: the whole CloudViews loop, the same
//! inputs with the loop off, and the loop on a durable store smaller than
//! its working set.
//!
//! All three replay one generated workload through the concurrent service
//! driver with the program's default configuration. What differs is the
//! reuse toggle and the store backend, so the difference between two of them
//! is the cost or saving of exactly one mechanism.

use crate::ledger;
use crate::probe::{self, Samples};
use crate::report::{Report, RunArgs};
use crate::stats;
use crate::timed_store::StoreTimings;
use cv_common::ids::JobId;
use cv_common::{CvError, Result, Sig128, SimDay};
use cv_core::insights::UsageKind;
use cv_data::sharded::ShardedViewStore;
use cv_data::store_api::SharedViewStore;
use cv_data::viewstore::{table_checksum, ViewSource};
use cv_store::{DurableStoreOptions, ShardedDurableViewStore};
use cv_workload::schemas::raw_specs;
use cv_workload::{
    generate_workload, run_workload, run_workload_service_with_store, DriverConfig, ServiceConfig,
    ServiceObs, ServiceOutcome, Workload, WorkloadConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DailyReuse,
    DailyNoreuse,
    DurableReuse,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "daily_reuse" => Some(Kind::DailyReuse),
            "daily_noreuse" => Some(Kind::DailyNoreuse),
            "durable_reuse" => Some(Kind::DurableReuse),
            _ => None,
        }
    }
}

/// The template set is drawn once, from this seed; `--seed` drives every
/// table's contents. Which queries exist and who shares what with whom moves
/// the job path by ±15 % from draw to draw — a property of the draw, not of
/// the program — so runs on different seeds would not be comparable if the
/// seed redrew the templates too.
const TEMPLATE_SEED: u64 = 7;

/// Buffer-pool pages per shard for `durable_reuse`: 16 shards × 4 pages ×
/// 8 KiB = 512 KiB, about half the live view set, so reads miss and evict.
const DURABLE_CACHE_PAGES: usize = 4;

struct Sizes {
    scale: f64,
    days: u32,
    n_analytics: usize,
}

impl Sizes {
    /// Scale 2.0 puts every dimension above the 64-row loop-join threshold;
    /// 14 days cover two TTL and analysis windows; 96 analytics templates
    /// give about 1.1k jobs a repetition.
    fn full() -> Sizes {
        Sizes { scale: 2.0, days: 14, n_analytics: 96 }
    }

    fn smoke() -> Sizes {
        Sizes { scale: 0.3, days: 3, n_analytics: 16 }
    }
}

struct Bench {
    kind: Kind,
    workload: Workload,
    cfg: DriverConfig,
    svc: ServiceConfig,
    /// Per-job result digests of the sequential no-reuse driver.
    reference: BTreeMap<JobId, Sig128>,
    /// Where `durable_reuse` keeps its store between open and reopen.
    scratch: PathBuf,
    ingest_rows: u64,
}

fn set_up(kind: Kind, args: &RunArgs) -> Result<Bench> {
    let sizes = if args.smoke { Sizes::smoke() } else { Sizes::full() };
    let mut workload = generate_workload(WorkloadConfig {
        seed: TEMPLATE_SEED,
        scale: sizes.scale,
        n_analytics: sizes.n_analytics,
        ..WorkloadConfig::default()
    });
    workload.config.seed = args.seed;
    let cfg = match kind {
        Kind::DailyNoreuse => DriverConfig::baseline(sizes.days),
        Kind::DailyReuse | Kind::DurableReuse => DriverConfig::enabled(sizes.days),
    };
    let svc = ServiceConfig { workers: args.workers, ..ServiceConfig::default() };
    let reference = run_workload(&workload, &DriverConfig::baseline(sizes.days))?;
    if reference.failed_jobs > 0 {
        return Err(CvError::internal(format!(
            "reference run failed {} jobs",
            reference.failed_jobs
        )));
    }
    let ingest_rows = (0..sizes.days)
        .flat_map(|day| raw_specs().into_iter().filter(move |s| day % s.update_every_days == 0))
        .map(|s| ((s.base_rows as f64 * sizes.scale) as u64).max(8))
        .sum();
    let scratch = PathBuf::from(format!("{}/store-{}", crate::RESULTS_DIR, std::process::id()));
    Ok(Bench {
        kind,
        workload,
        cfg,
        svc,
        reference: reference.result_digests,
        scratch,
        ingest_rows,
    })
}

/// One run of the driver plus everything checked about it.
struct Rep {
    wall_s: f64,
    outcome: ServiceOutcome,
    /// Jobs failed or differing from the reference, plus stored views lost
    /// or altered across the durable reopen.
    failed: u64,
    attempted: u64,
    checkpoint_ms: f64,
    reopen_ms: f64,
}

impl Rep {
    /// Compile + pool + commit: the run without ingest and analysis.
    fn job_path_s(&self) -> f64 {
        let s = &self.outcome.service;
        s.compile_wall_seconds + s.exec_wall_seconds + s.commit_wall_seconds
    }

    fn jobs(&self) -> f64 {
        self.outcome.ledger.totals().jobs as f64
    }
}

/// `(signature, rows, checksum)` of every view the run built that is still
/// readable at `now`.
fn live_views(
    store: &dyn ViewSource,
    built: &BTreeSet<Sig128>,
    now: cv_common::SimTime,
) -> BTreeMap<Sig128, (usize, u64)> {
    built
        .iter()
        .filter_map(|sig| match store.read_view(*sig, now) {
            Ok(Some(table)) => Some((*sig, (table.num_rows(), table_checksum(&table)))),
            _ => None,
        })
        .collect()
}

fn repetition(
    bench: &Bench,
    cfg: &DriverConfig,
    obs: Option<&ServiceObs>,
    timings: Option<&StoreTimings>,
) -> Result<Rep> {
    let run = |store: &dyn SharedViewStore| match timings {
        Some(t) => {
            run_workload_service_with_store(&bench.workload, cfg, &bench.svc, &t.around(store), obs)
        }
        None => run_workload_service_with_store(&bench.workload, cfg, &bench.svc, store, obs),
    };
    let started = Instant::now();
    let mut rep = if bench.kind == Kind::DurableReuse {
        let open = || {
            ShardedDurableViewStore::open(
                &bench.scratch,
                cfg.view_ttl,
                bench.svc.store_shards,
                DurableStoreOptions {
                    cache_pages: DURABLE_CACHE_PAGES,
                    ..DurableStoreOptions::default()
                },
            )
        };
        let _ = std::fs::remove_dir_all(&bench.scratch);
        let store = open()?;
        let outcome = run(&store)?;
        let wall_s = started.elapsed().as_secs_f64();

        // Durability: what was readable before the store was dropped must
        // be readable, row for row, after it is reopened from disk.
        let now = SimDay(cfg.days).start();
        let built: BTreeSet<Sig128> =
            outcome.usage.iter().filter(|u| u.kind == UsageKind::Built).map(|u| u.sig).collect();
        let before = live_views(&store, &built, now);
        let t = Instant::now();
        store.checkpoint_now()?;
        let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(store);
        let t = Instant::now();
        let reopened = open()?;
        let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = live_views(&reopened, &built, now);
        drop(reopened);
        std::fs::remove_dir_all(&bench.scratch)
            .map_err(|e| CvError::internal(format!("removing {:?}: {e}", bench.scratch)))?;
        let lost = before.iter().filter(|(sig, view)| after.get(*sig) != Some(*view)).count();
        Rep {
            wall_s,
            outcome,
            failed: lost as u64,
            attempted: before.len() as u64,
            checkpoint_ms,
            reopen_ms,
        }
    } else {
        let store = ShardedViewStore::new(cfg.view_ttl, bench.svc.store_shards);
        let outcome = run(&store)?;
        let wall_s = started.elapsed().as_secs_f64();
        Rep { wall_s, outcome, failed: 0, attempted: 0, checkpoint_ms: 0.0, reopen_ms: 0.0 }
    };

    let wrong = bench
        .reference
        .iter()
        .filter(|(job, digest)| rep.outcome.result_digests.get(*job) != Some(*digest))
        .count();
    rep.attempted += bench.reference.len() as u64;
    rep.failed += wrong as u64;
    Ok(rep)
}

pub fn run(kind: Kind, args: &RunArgs) -> Result<Report> {
    let mut report = Report::default();
    let bench = report.timed_set_up(|| set_up(kind, args))?;

    let warm_up_s = repetition(&bench, &bench.cfg, None, None)?.wall_s; // discarded
    if args.trace {
        trace_rounds(&mut report, &bench, args, warm_up_s)?;
        return Ok(report);
    }

    let mut reps = Vec::new();
    let budget = Instant::now();
    let mut estimate = warm_up_s;
    while reps.len() < 3 || budget.elapsed().as_secs_f64() + estimate <= args.seconds {
        let t = Instant::now();
        reps.push(repetition(&bench, &bench.cfg, None, None)?);
        estimate = t.elapsed().as_secs_f64();
    }
    for rep in &reps {
        report.attempted += rep.attempted;
        report.failed += rep.failed;
    }
    end_to_end(&mut report, &reps);
    Ok(report)
}

fn end_to_end(report: &mut Report, reps: &[Rep]) {
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let per_s: Vec<f64> = reps.iter().map(|r| r.jobs() / r.job_path_s()).collect();
    // Percentile within each repetition (1.1k jobs: 57 beyond p95), then
    // the median across repetitions, so one disturbed repetition cannot
    // move the tail.
    let percentile = |q: f64| -> Vec<f64> {
        reps.iter()
            .map(|r| {
                let ms: Vec<f64> = r.outcome.service.latencies_ms.iter().map(|l| l.1).collect();
                stats::quantile(&ms, q)
            })
            .collect()
    };
    report.set_samples("run_wall_s", &walls);
    report.set_samples("jobs_per_s", &per_s);
    report.set_samples("job_ms_p50", &percentile(0.50));
    report.set_samples("job_ms_p95", &percentile(0.95));
}

/// Layer lines of one traced repetition, pushed under their metric names.
type Lines = BTreeMap<String, Vec<f64>>;

fn push(lines: &mut Lines, name: &str, value: f64) {
    lines.entry(name.to_string()).or_default().push(value);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: for the reuse workloads one no-reuse repetition to price
/// the loop against, then rounds of (plain repetition, traced repetition)
/// until the time is used, then the engine-altitude probe on the last
/// round's history.
fn trace_rounds(report: &mut Report, bench: &Bench, args: &RunArgs, warm_up_s: f64) -> Result<()> {
    let budget = Instant::now();
    let baseline = match bench.cfg.cloudviews {
        Some(_) => {
            let rep = repetition(bench, &DriverConfig::baseline(bench.cfg.days), None, None)?;
            report.attempted += rep.attempted;
            report.failed += rep.failed;
            Some(rep)
        }
        None => None,
    };
    let mut lines = Lines::new();
    let mut last_traced = None;
    let mut round_estimate = 2.1 * warm_up_s;
    while last_traced.is_none() || budget.elapsed().as_secs_f64() + round_estimate <= args.seconds {
        let round = Instant::now();
        let plain = repetition(bench, &bench.cfg, None, None)?;
        let obs = ServiceObs::new();
        let timings = StoreTimings::default();
        let traced = repetition(bench, &bench.cfg, Some(&obs), Some(&timings))?;
        report.attempted += plain.attempted + traced.attempted;
        report.failed += plain.failed + traced.failed;
        push(&mut lines, "obs.trace_overhead_share", traced.wall_s / plain.wall_s - 1.0);
        let (wall_saving, sim_saving) = match &baseline {
            Some(base) => (
                1.0 - plain.job_path_s() / base.job_path_s(),
                1.0 - ratio(
                    plain.outcome.ledger.totals().processing_seconds,
                    base.outcome.ledger.totals().processing_seconds,
                ),
            ),
            None => (0.0, 0.0),
        };
        push(&mut lines, "reuse.wall_saving_share", wall_saving);
        push(&mut lines, "reuse.sim_processing_saving_share", sim_saving);
        layer_lines(&mut lines, bench, &traced, &obs, &timings);
        last_traced = Some(traced);
        round_estimate = round.elapsed().as_secs_f64();
    }
    for (name, samples) in &lines {
        report.set_samples(name, samples);
    }

    let traced = last_traced.expect("at least one round ran");
    let mut samples = Samples::default();
    let counts =
        probe::replay_last_day(&bench.workload, &bench.cfg, &traced.outcome.repo, &mut samples)?;
    samples.report(report);
    report.set("core.analysis_ms", counts.analysis_ms);
    report.set("core.selected_views", counts.selected_views as f64);
    report.set("data.catalog_register_ms", counts.catalog_register_ms);
    reconcile(report, bench.kind);
    Ok(())
}

fn layer_lines(
    lines: &mut Lines,
    bench: &Bench,
    rep: &Rep,
    obs: &ServiceObs,
    timings: &StoreTimings,
) {
    let o = &rep.outcome;
    let s = &o.service;
    let spans = obs.tracer.spans();
    let totals = o.ledger.totals();
    let counter = |name: &str| obs.metrics.counter(name).get() as f64;

    let ingest_s = ledger::span_seconds(&spans, 0, "ingest");
    let analysis_s = ledger::span_seconds(&spans, 0, "analysis");
    let accounted = ingest_s
        + s.compile_wall_seconds
        + s.parallel_wall_seconds
        + s.pool_overhead_seconds
        + s.commit_wall_seconds
        + analysis_s;
    for (name, value) in [
        ("workload.run_wall_s", rep.wall_s),
        ("workload.ingest_s", ingest_s),
        ("workload.ingest_rows_per_s", ratio(bench.ingest_rows as f64, ingest_s)),
        ("workload.compile_phase_s", s.compile_wall_seconds),
        ("workload.execute_phase_s", s.parallel_wall_seconds),
        ("workload.pool_overhead_s", s.pool_overhead_seconds),
        ("workload.commit_phase_s", s.commit_wall_seconds),
        ("workload.analysis_s", analysis_s),
        ("workload.residue_s", rep.wall_s - accounted),
        ("workload.jobs", totals.jobs as f64),
        ("optimizer.views_matched", counter("optimizer.views_matched")),
        ("optimizer.views_built", counter("optimizer.view_builds")),
        ("optimizer.semantic_considered", counter("optimizer.semantic_considered")),
        ("optimizer.semantic_proven", counter("optimizer.semantic_proven")),
        (
            "analyzer.vetoes",
            counter("optimizer.semantic_considered") - counter("optimizer.semantic_proven"),
        ),
        ("data.views_created", o.view_store_stats.views_created as f64),
        ("data.views_reused", o.view_store_stats.views_reused as f64),
        ("data.bytes_written", o.view_store_stats.bytes_written as f64),
        ("data.bytes_served", o.view_store_stats.bytes_served as f64),
        ("data.read_misses", o.view_store_stats.read_misses as f64),
        (
            "service.worker_busy_share",
            ratio(s.worker_busy_seconds.iter().sum(), s.parallel_wall_seconds * s.workers as f64),
        ),
        ("service.steals", s.steals as f64),
        ("service.admission_deferrals", s.admission_deferrals as f64),
        ("service.max_queue_depth", s.max_queue_depth as f64),
        ("service.pipelined_reads", s.pipelined_reads as f64),
        ("service.flight_waits", s.flight_waits as f64),
        ("service.duplicate_materializations", s.duplicate_materializations as f64),
        ("service.realized_pipelining_savings", s.realized_pipelining_savings),
        ("service.op_state_hits", s.op_state.hits as f64),
        ("service.op_state_hit_rate", s.op_state.hit_rate()),
        ("service.op_state_build_wall_avoided_s", s.op_state.build_wall_avoided),
        ("core.repo_records", o.repo.len() as f64),
        ("cluster.sim_latency_s", totals.latency_seconds),
        ("cluster.sim_processing_s", totals.processing_seconds),
        ("cluster.sim_containers", totals.containers as f64),
        ("cluster.queue_length_avg", ratio(totals.queue_length_sum as f64, totals.jobs as f64)),
        ("cluster.bonus_s", totals.bonus_seconds),
        ("cluster.input_bytes", totals.input_bytes as f64),
        ("cluster.data_read_bytes", totals.data_read_bytes as f64),
        ("reuse.views_reused_exact", (totals.views_reused - totals.views_reused_semantic) as f64),
        ("reuse.views_reused_semantic", totals.views_reused_semantic as f64),
        (
            "reuse.hit_share",
            ratio(totals.views_reused as f64, (totals.views_reused + totals.views_built) as f64),
        ),
        ("obs.spans", spans.len() as f64),
    ] {
        push(lines, name, value);
    }

    let ops = ledger::operator_totals(&spans);
    let (mut op_seconds, mut op_rows) = (0.0, 0.0);
    for (_, stem) in ledger::OPERATORS {
        let t = ops.get(stem).copied().unwrap_or_default();
        push(lines, &format!("exec.{stem}_self_s"), t.self_seconds);
        push(lines, &format!("exec.{stem}_rows"), t.rows as f64);
        op_seconds += t.self_seconds;
        op_rows += t.rows as f64;
    }
    push(lines, "exec.rows_per_s", ratio(op_rows, op_seconds));

    // The same clock-around-the-call timings feed the in-memory store's
    // lines or the durable store's; the other backend's stay unmeasured.
    let (insert_us, hot_us, cold_us) = timings.medians_us();
    let Some(io) = &o.store_io else {
        push(lines, "data.memstore_insert_us_p50", insert_us);
        push(lines, "data.memstore_get_us_p50", hot_us);
        return;
    };
    for (name, value) in [
        ("store.insert_ms_p50", insert_us / 1e3),
        ("store.get_hot_us_p50", hot_us),
        ("store.get_cold_ms_p50", cold_us / 1e3),
        ("store.checkpoint_ms", rep.checkpoint_ms),
        ("store.reopen_ms", rep.reopen_ms),
        ("store.wal_fsyncs", io.wal_fsyncs as f64),
        ("store.wal_records", io.wal_records_written as f64),
        ("store.bytes_written_durably", io.bytes_written_durably as f64),
        ("store.page_cache_hit_rate", io.page_cache_hit_rate()),
        ("store.pages_evicted", io.pages_evicted as f64),
        ("store.checkpoints", io.checkpoints as f64),
        (
            "store.durable_bytes_per_view_byte",
            ratio(io.bytes_written_durably as f64, o.view_store_stats.bytes_written as f64),
        ),
    ] {
        push(lines, name, value);
    }
}

/// Print the ledger: the layer lines against the wall they must add up to,
/// each layer's share of the job path, and the dominance each workload was
/// chosen for.
fn reconcile(report: &mut Report, kind: Kind) {
    let v = |name: &str| report.values.get(name).copied().unwrap_or(0.0);
    let wall = v("workload.run_wall_s");
    let parts = [
        ("ingest", v("workload.ingest_s")),
        ("compile", v("workload.compile_phase_s")),
        ("execute", v("workload.execute_phase_s")),
        ("pool overhead", v("workload.pool_overhead_s")),
        ("commit", v("workload.commit_phase_s")),
        ("analysis", v("workload.analysis_s")),
        ("residue", v("workload.residue_s")),
    ];
    let mut out = vec![format!("traced run wall {wall:.4} s =")];
    for (name, seconds) in parts {
        out.push(format!("  {name:<14}{seconds:>9.4} s {:>6.1} %", 100.0 * ratio(seconds, wall)));
    }
    let residue = v("workload.residue_s");
    if residue.abs() > 0.10 * wall {
        out.push(format!("FLAG: residue {residue:.4} s exceeds 10 % of the run wall"));
    }

    let job_path = v("workload.compile_phase_s")
        + v("workload.execute_phase_s")
        + v("workload.pool_overhead_s")
        + v("workload.commit_phase_s");
    out.push(format!("job path {job_path:.4} s ="));
    for (name, metric) in [
        ("compile", "workload.compile_phase_s"),
        ("execute", "workload.execute_phase_s"),
        ("pool overhead", "workload.pool_overhead_s"),
        ("commit", "workload.commit_phase_s"),
    ] {
        out.push(format!("  {name:<14}{:>6.1} %", 100.0 * ratio(v(metric), job_path)));
    }

    let reuse_on = kind != Kind::DailyNoreuse;
    let touched_views = v("optimizer.views_matched") + v("optimizer.views_built") > 0.0;
    if touched_views != reuse_on {
        out.push(format!("FLAG: optimizer matched or built views: {touched_views}"));
    }
    let store_io = v("store.wal_records") + v("store.get_cold_ms_p50") > 0.0;
    if store_io != (kind == Kind::DurableReuse) {
        out.push(format!("FLAG: durable store traffic visible: {store_io}"));
    }
    report.ledger = out;
}
