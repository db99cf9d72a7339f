//! The multi-day workload driver: replays the paper's deployment window.
//!
//! Each simulated day:
//!
//! 1. **Ingestion** — raw datasets due for regeneration are bulk-updated
//!    (fresh GUIDs; strict signatures of yesterday's views go stale).
//! 2. **Jobs** — due templates are processed in submission order. For each:
//!    the cluster simulator is advanced to the submission instant (sealing
//!    any views whose producing stages completed — *early sealing*), expired
//!    views are evicted, the job is compiled with the insights-service
//!    annotations, optimized (view match + build under the creation lock),
//!    executed, logged into the workload repository, and handed to the
//!    simulator as a stage DAG.
//! 3. **Analysis** — on the configured cadence the trailing repository
//!    window is analyzed, view selection runs (optionally schedule-aware
//!    and/or per-VC) and the new selection is published to the insights
//!    service — the paper's feedback loop.
//! 4. Optional **GDPR** forget-requests rotate an input GUID and purge every
//!    view derived from it (§4).
//!
//! A baseline run (`cloudviews: None`) executes the identical workload with
//! annotations disabled — the pre-production methodology behind Table 1.

use crate::generator::Workload;
use crate::schemas::raw_specs;
use crate::templates::JobTemplate;
use cv_cluster::metrics::{DataPlane, JobRecord, MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim, JobSpec, SimEvent};
use cv_cluster::stage::build_stages;
use cv_common::hash::{Sig128, StableHasher};
use cv_common::ids::{JobId, VcId};
use cv_common::json::{Json, ToJson};
use cv_common::rng::DetRng;
use cv_common::{json, FaultPlan, Result, SimDay, SimDuration, SimTime};
use cv_core::controls::Controls;
use cv_core::insights::{InsightsService, UsageEvent, ViewInfo};
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_core::selection::{
    apply_schedule_awareness, select_per_vc, ExactSelector, GreedySelector,
    LabelPropagationSelector, SelectionConstraints, ViewSelector,
};
use cv_data::store_api::StoreIoStats;
use cv_data::value::Value;
use cv_data::viewstore::{MaterializedView, ViewStore, ViewStoreStats};
use cv_engine::engine::QueryEngine;
use cv_engine::exec::PendingView;
use cv_engine::optimizer::{AlwaysGrant, OptimizerConfig, ReuseContext};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{plan_signature, template_signature, SigMode};
use cv_ivm::{IvmEngine, IvmStats, Maintain};
use cv_service::{OpStateCache, TaggedOpStates};
use cv_store::{DurableStoreOptions, DurableViewStore};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which selection algorithm the feedback loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectorKind {
    LabelPropagation,
    Greedy,
    Exact,
}

/// CloudViews configuration for an enabled run.
#[derive(Clone, Debug)]
pub struct SelectionKnobs {
    pub selector: SelectorKind,
    pub storage_budget_bytes: u64,
    pub max_views: Option<usize>,
    pub min_frequency: u64,
    pub schedule_aware: bool,
    pub per_vc: bool,
    /// Re-run workload analysis every N days.
    pub analysis_every_days: u32,
    /// Trailing window the analysis looks at.
    pub analysis_window_days: u32,
}

impl Default for SelectionKnobs {
    fn default() -> Self {
        SelectionKnobs {
            selector: SelectorKind::LabelPropagation,
            storage_budget_bytes: 256 * 1024 * 1024,
            max_views: None,
            min_frequency: 2,
            schedule_aware: true,
            per_vc: false,
            analysis_every_days: 1,
            analysis_window_days: 7,
        }
    }
}

/// Where materialized views live for the run.
#[derive(Clone, Debug, Default)]
pub enum StoreBackend {
    /// The in-memory [`ViewStore`] owned by the engine (the default; no
    /// durability, no page cache, no crash surface).
    #[default]
    Memory,
    /// The disk-backed [`DurableViewStore`]: WAL + pages + checkpoints
    /// under the given directory. Survives (simulated and real) restarts.
    Durable(DurableStoreConfig),
}

/// Configuration of the durable backend.
#[derive(Clone, Debug)]
pub struct DurableStoreConfig {
    /// Store directory. Reopening an existing directory recovers the views
    /// a previous run left behind (restart-and-resume).
    pub dir: std::path::PathBuf,
    /// Buffer-pool capacity in 8 KiB pages.
    pub cache_pages: usize,
    /// Checkpoint after this many WAL records.
    pub checkpoint_every: u64,
}

impl DurableStoreConfig {
    pub fn new(dir: impl Into<std::path::PathBuf>) -> DurableStoreConfig {
        let defaults = DurableStoreOptions::default();
        DurableStoreConfig {
            dir: dir.into(),
            cache_pages: defaults.cache_pages,
            checkpoint_every: defaults.checkpoint_every,
        }
    }

    fn options(&self) -> DurableStoreOptions {
        DurableStoreOptions {
            cache_pages: self.cache_pages,
            checkpoint_every: self.checkpoint_every,
        }
    }
}

/// How the driver treats daily regeneration and recurring views.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IvmMode {
    /// Plain bulk regeneration: no change feeds, no maintenance (the
    /// paper's deployment — every view dies with its input GUIDs).
    #[default]
    Off,
    /// Delta-producing ingestion (append-mostly facts, churned dimensions,
    /// diffed cooked outputs) but every job still executes in full — the
    /// control leg for digest-parity comparisons against `Maintain`.
    Ingest,
    /// Delta ingestion plus incremental maintenance: certified recurring
    /// aggregate views are advanced from yesterday's state and re-published
    /// under today's strict signature instead of being rebuilt.
    Maintain,
}

/// Full driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    pub days: u32,
    /// `Some(..)` enables the CloudViews feedback loop.
    pub cloudviews: Option<SelectionKnobs>,
    pub cluster: ClusterConfig,
    pub controls: Controls,
    pub view_ttl: SimDuration,
    pub optimizer: OptimizerConfig,
    /// Issue a GDPR forget-request every N days (None = never).
    pub gdpr_every_days: Option<u32>,
    /// Deterministic fault-injection plan (default: no faults — a pure
    /// overlay that leaves every run bit-identical).
    pub faults: FaultPlan,
    /// View-store backend (in-memory by default).
    pub store: StoreBackend,
    /// Incremental view maintenance mode (off by default).
    pub ivm: IvmMode,
    /// Rows per execution chunk (morsel). Results are byte-identical at
    /// every value; this only moves the streaming granularity.
    pub chunk_size: usize,
    /// Resident-bytes budget for the operator-state cache (hash-join
    /// builds, aggregate states, sort runs keyed by input signature — keys
    /// embed the scanned GUIDs, so rotated inputs self-invalidate). 0
    /// disables it. Results are byte-identical at every budget.
    pub op_state_budget_bytes: u64,
}

impl DriverConfig {
    pub fn baseline(days: u32) -> DriverConfig {
        DriverConfig {
            days,
            cloudviews: None,
            cluster: ClusterConfig::default(),
            controls: Controls::opt_out(),
            view_ttl: SimDuration::from_days(7.0),
            optimizer: OptimizerConfig::default(),
            gdpr_every_days: None,
            faults: FaultPlan::none(),
            store: StoreBackend::Memory,
            ivm: IvmMode::Off,
            chunk_size: cv_data::chunk::DEFAULT_CHUNK_SIZE,
            op_state_budget_bytes: 0,
        }
    }

    pub fn enabled(days: u32) -> DriverConfig {
        DriverConfig { cloudviews: Some(SelectionKnobs::default()), ..DriverConfig::baseline(days) }
    }
}

/// Everything a driver run produces.
#[derive(Debug)]
pub struct DriverOutcome {
    pub ledger: MetricsLedger,
    pub repo: SubexpressionRepo,
    pub usage: Vec<UsageEvent>,
    pub view_store_stats: ViewStoreStats,
    /// Order-insensitive digest of each job's result, for cross-run
    /// correctness checks (reuse must never change results).
    pub result_digests: BTreeMap<JobId, Sig128>,
    /// Jobs that failed to compile/execute (should be zero).
    pub failed_jobs: u64,
    /// (analysis day, #views selected) per analysis run.
    pub selection_history: Vec<(SimDay, usize)>,
    /// Views purged by GDPR input rotations.
    pub gdpr_purged_views: u64,
    /// Fault-layer roll-up: every degradation the run absorbed.
    pub robustness: RobustnessStats,
    /// Durable-store IO counters (`None` for in-memory runs).
    pub store_io: Option<StoreIoStats>,
    /// Incremental-maintenance counters (`None` unless `ivm: Maintain`).
    pub ivm: Option<IvmStats>,
    /// Operator-state cache counters (`None` when the cache is disabled).
    pub op_state: Option<cv_service::OpStateCacheStats>,
}

impl DriverOutcome {
    /// The run's JSON report (the shape `BENCH_*.json` trajectories track):
    /// headline totals plus the robustness counters.
    pub fn report_json(&self) -> Json {
        let totals = self.ledger.totals();
        json!({
            "jobs": totals.jobs,
            "failed_jobs": self.failed_jobs,
            "latency_seconds": totals.latency_seconds,
            "processing_seconds": totals.processing_seconds,
            "bonus_seconds": totals.bonus_seconds,
            "containers": totals.containers,
            "input_bytes": totals.input_bytes,
            "views_built": totals.views_built,
            "views_reused": totals.views_reused,
            "views_reused_exact": totals.views_reused - totals.views_reused_semantic,
            "views_reused_semantic": totals.views_reused_semantic,
            "robustness": self.robustness.to_json(),
            "store": match &self.store_io {
                Some(io) => json!({
                    "page_cache_hits": io.page_cache_hits,
                    "page_cache_misses": io.page_cache_misses,
                    "page_cache_hit_rate": io.page_cache_hit_rate(),
                    "pages_evicted": io.pages_evicted,
                    "wal_fsyncs": io.wal_fsyncs,
                    "wal_records_written": io.wal_records_written,
                    "wal_records_replayed": io.wal_records_replayed,
                    "wal_records_skipped": io.wal_records_skipped,
                    "recoveries": io.recoveries,
                    "checkpoints": io.checkpoints,
                    "bytes_written_durably": io.bytes_written_durably,
                }),
                None => Json::Null,
            },
            "ivm": match &self.ivm {
                Some(s) => ivm_stats_json(s),
                None => Json::Null,
            },
        })
    }
}

/// JSON shape for the IVM counters (shared by the driver report and the
/// `cv-analyze --ivm` harness).
pub fn ivm_stats_json(s: &IvmStats) -> Json {
    let mut vetoes = cv_common::json::JsonMap::new();
    for (code, n) in &s.vetoes {
        vetoes.insert(*code, *n);
    }
    let mut reasons = cv_common::json::JsonMap::new();
    for (label, n) in &s.rebuild_reasons {
        reasons.insert(*label, *n);
    }
    json!({
        "maintained": s.maintained,
        "rebuilt": s.rebuilt,
        "refused": s.refused,
        "vetoes_by_code": Json::Obj(vetoes),
        "rebuild_reasons": Json::Obj(reasons),
        "rows_maintained": s.rows_maintained,
        "rows_bootstrap": s.rows_bootstrap,
        "rows_rebuild_baseline": s.rows_rebuild_baseline,
    })
}

struct PendingSeal {
    view: PendingView,
    job: JobId,
    vc: VcId,
    /// The view's defining (normalized, view-free) logical plan, captured
    /// at build time so the sealed view can be served for semantic
    /// matching, not just exact-signature lookup.
    plan: Option<std::sync::Arc<cv_engine::plan::LogicalPlan>>,
}

/// Run a workload under the given configuration.
pub fn run_workload(workload: &Workload, cfg: &DriverConfig) -> Result<DriverOutcome> {
    let enabled = cfg.cloudviews.is_some();
    let mut engine = QueryEngine::with_config(cfg.optimizer.clone());
    engine.chunk_size = cfg.chunk_size.max(1);
    let analyzer = std::sync::Arc::new(cv_analyzer::Analyzer::new(&cfg.optimizer));
    // The analyzer is always the containment prover: semantic (widened)
    // view matches only happen when it certifies them.
    engine.optimizer.set_prover(analyzer.clone());
    if cfg.optimizer.verify_plans {
        // Audit every optimized plan; a corrupted rewrite fails the job
        // with a CV0xx diagnostic instead of sealing bad results.
        engine.optimizer.set_verifier(analyzer);
    }
    engine.views = ViewStore::new(cfg.view_ttl);
    engine.views.set_fault_plan(cfg.faults.clone());
    // Durable backend: views live on disk behind a WAL + page cache; the
    // engine's own store stays empty. Reopening an existing directory
    // recovers whatever a previous run (or a crashed run) left behind.
    let durable: Option<DurableViewStore> = match &cfg.store {
        StoreBackend::Memory => None,
        StoreBackend::Durable(d) => {
            let store = DurableViewStore::open(&d.dir, cfg.view_ttl, d.options())?;
            store.set_fault_plan(cfg.faults.clone());
            Some(store)
        }
    };
    let mut insights = InsightsService::new(cfg.controls.clone());
    let mut sim = ClusterSim::new(cfg.cluster.clone());
    sim.set_fault_plan(cfg.faults.clone());
    let mut repo = SubexpressionRepo::new();
    let mut data_plane: HashMap<JobId, DataPlane> = HashMap::new();
    let mut pending_seals: HashMap<Sig128, PendingSeal> = HashMap::new();
    let mut result_digests = BTreeMap::new();
    let mut selection_history = Vec::new();
    let mut failed_jobs = 0u64;
    let mut gdpr_purged_views = 0u64;
    let mut next_job = 0u64;
    let mut robustness = RobustnessStats::default();
    let ivm_ingest = cfg.ivm != IvmMode::Off;
    let mut ivm: Option<IvmEngine> =
        (cfg.ivm == IvmMode::Maintain).then(|| IvmEngine::new(&cfg.optimizer));
    // Operator-state cache: recurring jobs on later days skip rebuilding
    // breaker state whose inputs didn't rotate.
    let op_states: Option<Arc<OpStateCache>> = (cfg.op_state_budget_bytes > 0)
        .then(|| Arc::new(OpStateCache::with_budget(cfg.op_state_budget_bytes)));
    if let Some(cache) = &op_states {
        engine.optimizer.set_warm_states(cache.clone());
    }

    let specs = raw_specs();

    for day_idx in 0..cfg.days {
        let day = SimDay(day_idx);
        let day_start = day.start();
        process_sim_events(
            &mut sim,
            day_start,
            &mut pending_seals,
            &mut engine,
            &mut insights,
            cfg.view_ttl,
            durable.as_ref(),
            &mut robustness,
        )?;

        // 1. Ingestion: bulk-regenerate due raw datasets.
        for spec in &specs {
            if day_idx % spec.update_every_days != 0 {
                continue;
            }
            let mut rng = data_rng(workload.config.seed, spec.name, day);
            match engine.catalog.id_of(spec.name) {
                Some(id) if ivm_ingest => {
                    // Delta-producing regeneration: facts append the day's
                    // rows, dimensions churn in place, and the catalog
                    // records the signed change feed for maintenance.
                    let prev = engine.catalog.get(id)?.data().clone();
                    let (table, delta) =
                        spec.generate_delta(&mut rng, workload.config.scale, day, &prev);
                    engine.catalog.bulk_update_delta(id, table, delta, day_start)?;
                }
                Some(id) => {
                    let table = spec.generate(&mut rng, workload.config.scale, day);
                    engine.catalog.bulk_update(id, table, day_start)?;
                }
                None => {
                    let table = spec.generate(&mut rng, workload.config.scale, day);
                    engine.catalog.register(spec.name, table, day_start)?;
                }
            }
        }

        // Optional GDPR forget-request (rotates the `users` GUID).
        if let Some(every) = cfg.gdpr_every_days {
            if day_idx > 0 && day_idx % every == 0 {
                gdpr_purged_views += apply_gdpr(
                    &mut engine,
                    &mut insights,
                    op_states.as_deref(),
                    workload.config.seed,
                    day,
                    durable.as_ref(),
                    &mut robustness,
                )? as u64;
            }
        }

        // 2. Jobs, in submission order.
        let mut due: Vec<&JobTemplate> =
            workload.templates.iter().filter(|t| t.due_on(day)).collect();
        due.sort_by(|a, b| {
            a.submit_time(day)
                .seconds()
                .total_cmp(&b.submit_time(day).seconds())
                .then(a.id.cmp(&b.id))
        });

        for template in due {
            let submit = template.submit_time(day);
            process_sim_events(
                &mut sim,
                submit,
                &mut pending_seals,
                &mut engine,
                &mut insights,
                cfg.view_ttl,
                durable.as_ref(),
                &mut robustness,
            )?;
            match &durable {
                Some(s) => {
                    with_crash_retry(s, &mut robustness, |s| s.evict_expired(submit))?;
                }
                None => {
                    engine.views.evict_expired(submit);
                }
            }
            insights.expire(submit);

            let job = JobId(next_job);
            next_job += 1;
            let meta = JobMeta {
                job,
                template: template.id,
                pipeline: template.pipeline,
                vc: template.vc,
                user: template.user,
                submit,
            };

            // Incremental maintenance: a tracked recurring template whose
            // inputs changed only through intact delta chains is advanced
            // from yesterday's state instead of re-executed. Fallbacks
            // (broken chain, plan drift, costed out) drop through to the
            // normal execution path below and re-track afterwards.
            if let Some(iv) = ivm.as_mut() {
                match try_ivm_maintain(
                    iv,
                    &mut engine,
                    &mut insights,
                    template,
                    day,
                    job,
                    enabled,
                    cfg.view_ttl,
                    durable.as_ref(),
                    &mut robustness,
                ) {
                    Ok(Some(digest)) => {
                        result_digests.insert(job, digest);
                        continue;
                    }
                    Ok(None) => {}
                    Err(_) => {
                        failed_jobs += 1;
                        continue;
                    }
                }
            }

            // Metadata repository outage: the annotation service is
            // unreachable, so the optimizer degrades to a baseline
            // no-reuse plan for this job (graceful degradation — the job
            // must still run, just without CloudViews).
            let metadata_down = enabled && cfg.faults.metadata_down(submit);
            if metadata_down {
                robustness.metadata_outage_jobs += 1;
            }

            // Per-job tag on the shared cache so hits against another
            // job's published state count as cross-job reuse.
            if let Some(cache) = &op_states {
                engine.op_states = Some(Arc::new(TaggedOpStates::new(cache.clone(), job.0)));
            }
            let run = run_one_job(
                &mut engine,
                &mut insights,
                template,
                day,
                meta,
                enabled && !metadata_down,
                durable.as_ref(),
                ivm_ingest,
            );
            match run {
                Ok(one) => {
                    repo.log_job(meta, &one.subexprs, Some(&one.profiles));
                    result_digests.insert(job, one.digest);
                    // Start (or resume) maintaining this template's view:
                    // the CV07x gate refuses non-maintainable plans and the
                    // refusal is counted, exactly like CV06x vetoes.
                    if let Some(iv) = ivm.as_mut() {
                        ivm_track(iv, &engine, template, day);
                    }
                    // Any read-side fault quarantines the signature in both
                    // the store and the serving index for the rest of the
                    // run: the engine recomputes instead of retrying a bad
                    // artifact.
                    for sig in &one.quarantined_sigs {
                        match &durable {
                            Some(s) => {
                                with_crash_retry(s, &mut robustness, |s| s.quarantine(*sig))?;
                            }
                            None => {
                                engine.views.quarantine(*sig);
                            }
                        }
                        insights.quarantine(*sig);
                    }
                    // Quarantine coupling: cached breaker states derived
                    // from a quarantined view are dropped too.
                    if let Some(cache) = &op_states {
                        if !one.quarantined_sigs.is_empty() {
                            cache.purge_sigs(&one.quarantined_sigs);
                        }
                    }
                    robustness.fallbacks_recompute += one.data_plane.fallbacks_recompute;
                    robustness.view_read_failures += one.view_read_failures;
                    robustness.view_corruptions += one.view_corruptions;
                    robustness.view_expiry_races += one.view_expiry_races;
                    data_plane.insert(job, one.data_plane);
                    let mut built_plans: HashMap<_, _> = one.built_plans.into_iter().collect();
                    for pv in one.pending_views {
                        let plan = built_plans.remove(&pv.sig);
                        pending_seals
                            .insert(pv.sig, PendingSeal { view: pv, job, vc: template.vc, plan });
                    }
                    sim.submit(JobSpec {
                        job,
                        vc: template.vc,
                        template: template.id,
                        submit,
                        stages: one.stages,
                    })?;
                }
                Err(_) => {
                    failed_jobs += 1;
                }
            }
        }

        // 3. Workload analysis + selection publish.
        if let Some(knobs) = &cfg.cloudviews {
            if (day_idx + 1) % knobs.analysis_every_days == 0 {
                let n = run_analysis(&repo, &mut insights, knobs, day, &cfg.cluster);
                selection_history.push((day, n));
            }
        }
    }

    // Drain the simulator.
    let final_events = sim.run_to_completion();
    apply_seal_events(
        &final_events,
        &mut pending_seals,
        &mut engine,
        &mut insights,
        cfg.view_ttl,
        durable.as_ref(),
        &mut robustness,
    )?;

    // Assemble the ledger.
    let mut ledger = MetricsLedger::new();
    for result in sim.results() {
        robustness.stage_retries += result.stage_retries as u64;
        robustness.preemptions += result.preemptions as u64;
        robustness.backoff_seconds += result.backoff_seconds;
        robustness.job_restarts += result.restarts as u64;
        let data = data_plane.remove(&result.job).unwrap_or_default();
        ledger.add(JobRecord { result: result.clone(), data });
    }
    // Final checkpoint: a later run reopening the directory recovers from
    // the checkpoint instead of a long WAL replay.
    let store_io = match &durable {
        Some(s) => {
            with_crash_retry(s, &mut robustness, |s| s.checkpoint_now())?;
            let io = s.io_stats();
            robustness.store_recoveries += io.recoveries;
            robustness.wal_records_replayed += io.wal_records_replayed;
            robustness.wal_records_skipped += io.wal_records_skipped;
            Some(io)
        }
        None => None,
    };
    let store_stats = match &durable {
        Some(s) => s.stats(),
        None => engine.views.stats(),
    };
    robustness.view_write_failures = store_stats.write_failures;
    robustness.views_quarantined = store_stats.views_quarantined;

    Ok(DriverOutcome {
        ledger,
        repo,
        usage: insights.usage_log().to_vec(),
        view_store_stats: store_stats,
        result_digests,
        failed_jobs,
        selection_history,
        gdpr_purged_views,
        robustness,
        store_io,
        ivm: ivm.map(|iv| iv.stats),
        op_state: op_states.map(|c| c.stats()),
    })
}

/// Attempt to maintain a tracked view for `template`. Returns the result
/// digest when the view was maintained (the job is done without
/// executing); `None` falls through to normal execution.
#[allow(clippy::too_many_arguments)]
fn try_ivm_maintain(
    ivm: &mut IvmEngine,
    engine: &mut QueryEngine,
    insights: &mut InsightsService,
    template: &JobTemplate,
    day: SimDay,
    job: JobId,
    enabled: bool,
    view_ttl: SimDuration,
    durable: Option<&DurableViewStore>,
    robustness: &mut RobustnessStats,
) -> Result<Option<Sig128>> {
    let Ok(plan) = template.build_plan(engine, day) else {
        return Ok(None);
    };
    let Some(tsig) = plan_signature(&plan, &engine.optimizer.cfg.sig, SigMode::Recurring) else {
        return Ok(None);
    };
    if !ivm.is_tracked(tsig) {
        return Ok(None);
    }
    let mv = match ivm.maintain(tsig, &plan, &engine.catalog) {
        Maintain::Maintained(mv) => mv,
        Maintain::NotTracked | Maintain::Rebuild { .. } => return Ok(None),
    };
    let submit = template.submit_time(day);
    // A maintained cooking job still publishes its output dataset — as a
    // diffed delta update, so downstream chains stay intact.
    if let Some(output) = template.output_dataset() {
        match engine.catalog.id_of(output) {
            Some(id) => {
                engine.catalog.bulk_update_diff(id, mv.table.clone(), submit)?;
            }
            None => {
                engine.catalog.register(output, mv.table.clone(), submit)?;
            }
        }
    }
    // Re-publish under today's strict signature so exact and containment
    // matching serve the maintained view exactly like a rebuilt one.
    if enabled {
        publish_maintained(
            engine,
            insights,
            &mv,
            job,
            template.vc,
            submit,
            view_ttl,
            durable,
            robustness,
        )?;
    }
    Ok(Some(digest_table(&mv.table)))
}

/// Track (or re-track after a fallback) the template's view. Refusals are
/// recorded in the engine's veto counters; failures to bootstrap are
/// silently skipped — the template simply stays untracked.
fn ivm_track(ivm: &mut IvmEngine, engine: &QueryEngine, template: &JobTemplate, day: SimDay) {
    let Ok(plan) = template.build_plan(engine, day) else { return };
    let Some(tsig) = plan_signature(&plan, &engine.optimizer.cfg.sig, SigMode::Recurring) else {
        return;
    };
    if ivm.is_tracked(tsig) {
        return;
    }
    let _ = ivm.track(tsig, &plan, &engine.catalog);
}

/// Seal a maintained view into the active store and advertise it to the
/// insights service, mirroring the sealed-view path of an executed job.
#[allow(clippy::too_many_arguments)]
fn publish_maintained(
    engine: &mut QueryEngine,
    insights: &mut InsightsService,
    mv: &cv_ivm::MaintainedView,
    job: JobId,
    vc: VcId,
    submit: SimTime,
    view_ttl: SimDuration,
    durable: Option<&DurableViewStore>,
    robustness: &mut RobustnessStats,
) -> Result<()> {
    let sig_cfg = engine.optimizer.cfg.sig.clone();
    let (Some(strict), Some(recurring)) = (
        plan_signature(&mv.plan, &sig_cfg, SigMode::Strict),
        plan_signature(&mv.plan, &sig_cfg, SigMode::Recurring),
    ) else {
        return Ok(());
    };
    let pv = PendingView {
        sig: strict,
        recurring_sig: recurring,
        input_guids: scan_guids(&mv.plan),
        schema: mv.table.schema().clone(),
        data: mv.table.clone(),
        production_work: mv.rows_touched as f64,
        write_work: 0.0,
    };
    let sealed = match durable {
        Some(store) => {
            seal_views_durable(store, std::slice::from_ref(&pv), job, vc, submit, robustness)?
        }
        None => engine.seal_views(std::slice::from_ref(&pv), job, vc, submit)?,
    };
    if sealed > 0 {
        insights.report_sealed(
            ViewInfo {
                strict,
                recurring,
                rows: mv.table.num_rows() as u64,
                bytes: mv.table.byte_size(),
                sealed_at: submit,
                expires: submit + view_ttl,
                vc,
                template: template_signature(&mv.plan, &sig_cfg),
                plan: Some(mv.plan.clone()),
            },
            job,
        );
    }
    Ok(())
}

fn scan_guids(plan: &std::sync::Arc<LogicalPlan>) -> Vec<cv_common::ids::VersionGuid> {
    fn go(p: &std::sync::Arc<LogicalPlan>, out: &mut Vec<cv_common::ids::VersionGuid>) {
        if let LogicalPlan::Scan { guid, .. } = &**p {
            out.push(*guid);
        }
        for c in p.children() {
            go(c, out);
        }
    }
    let mut v = Vec::new();
    go(plan, &mut v);
    v
}

/// Run a durable-store mutation, absorbing one simulated crash: on
/// [`CvError::Crash`] the store is recovered in place (WAL + checkpoint
/// replay) and the operation retried once. Replay is idempotent, so a
/// retried mutation that already committed before the crash is a no-op.
fn with_crash_retry<T>(
    store: &DurableViewStore,
    robustness: &mut RobustnessStats,
    op: impl Fn(&DurableViewStore) -> Result<T>,
) -> Result<T> {
    match op(store) {
        Err(e) if e.is_crash() => {
            robustness.store_crashes += 1;
            store.recover_in_place()?;
            op(store)
        }
        other => other,
    }
}

/// Seal pending views into the durable store — the disk-backed counterpart
/// of [`QueryEngine::seal_views`], with the same absorb-write-faults
/// contract plus crash-recovery retry.
fn seal_views_durable(
    store: &DurableViewStore,
    pending: &[PendingView],
    job: JobId,
    vc: VcId,
    now: SimTime,
    robustness: &mut RobustnessStats,
) -> Result<usize> {
    let mut sealed = 0;
    for pv in pending {
        let insert = with_crash_retry(store, robustness, |s| {
            s.insert(MaterializedView {
                strict_sig: pv.sig,
                recurring_sig: pv.recurring_sig,
                schema: pv.schema.clone(),
                data: pv.data.clone(),
                rows: 0,
                bytes: 0,
                created: now,
                expires: now, // recomputed by the store from its TTL
                creator_job: job,
                vc,
                input_guids: pv.input_guids.clone(),
                observed_work: pv.production_work,
                checksum: 0, // recomputed by the store
            })
        });
        match insert {
            // The store silently drops quarantined signatures; only count
            // views that actually landed.
            Ok(()) if store.contains(pv.sig) => sealed += 1,
            Ok(()) => {}
            Err(e) if e.is_fault() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(sealed)
}

/// Deterministic per-(dataset, day) data stream, independent of everything
/// else — baseline and enabled runs see byte-identical inputs.
pub(crate) fn data_rng(seed: u64, dataset: &str, day: SimDay) -> DetRng {
    let mut h = StableHasher::with_domain("workload-data");
    h.write_u64(seed);
    h.write_str(dataset);
    h.write_u64(day.index() as u64);
    DetRng::seed(h.finish64())
}

struct OneJob {
    subexprs: Vec<cv_engine::signature::SubexprInfo>,
    profiles: Vec<cv_engine::exec::OpProfile>,
    pending_views: Vec<PendingView>,
    built_plans: Vec<(Sig128, std::sync::Arc<cv_engine::plan::LogicalPlan>)>,
    stages: cv_cluster::stage::StageGraph,
    data_plane: DataPlane,
    digest: Sig128,
    quarantined_sigs: Vec<Sig128>,
    view_read_failures: u64,
    view_corruptions: u64,
    view_expiry_races: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_one_job(
    engine: &mut QueryEngine,
    insights: &mut InsightsService,
    template: &JobTemplate,
    day: SimDay,
    meta: JobMeta,
    enabled: bool,
    durable: Option<&DurableViewStore>,
    ivm_ingest: bool,
) -> Result<OneJob> {
    let plan = template.build_plan(engine, day)?;
    let subexprs = engine.subexpressions(&plan)?;
    let mut reuse = if enabled {
        insights.annotate(meta.vc, meta.job, &subexprs, meta.submit).0
    } else {
        ReuseContext::empty()
    };
    // Residency-aware costing: views whose pages are not in the buffer
    // pool pay the cold-read multiplier in the optimizer's reuse-vs-
    // recompute comparison.
    if let Some(store) = durable {
        for (sig, meta) in reuse.available.iter_mut() {
            meta.cold = !store.is_resident(*sig);
        }
    }

    let compiled = if enabled {
        let mut locker = insights.locker();
        engine.optimize(&plan, &reuse, &mut locker)?
    } else {
        engine.optimize(&plan, &reuse, &mut AlwaysGrant)?
    };

    let exec_result = match durable {
        Some(store) => engine.execute_with(&compiled.outcome.physical, store, meta.submit),
        None => engine.execute(&compiled.outcome.physical, meta.submit),
    };
    let exec = match exec_result {
        Ok(e) => e,
        Err(e) => {
            // Release any creation locks this job acquired before bailing.
            for sig in &compiled.outcome.built_views {
                insights.release_lock(*sig);
            }
            return Err(e);
        }
    };

    if enabled && !compiled.outcome.matched_views.is_empty() {
        insights.record_reuse(&compiled.outcome.matched_views, meta.job, meta.submit);
    }

    // Cooking jobs publish their output as a shared dataset. Under delta
    // ingestion the update is diffed so views over cooked outputs keep an
    // intact delta chain.
    if let Some(output) = template.output_dataset() {
        match engine.catalog.id_of(output) {
            Some(id) if ivm_ingest => {
                engine.catalog.bulk_update_diff(id, exec.table.clone(), meta.submit)?;
            }
            Some(id) => {
                engine.catalog.bulk_update(id, exec.table.clone(), meta.submit)?;
            }
            None => {
                engine.catalog.register(output, exec.table.clone(), meta.submit)?;
            }
        }
    }

    let stages = build_stages(&compiled.outcome.physical, &exec.metrics.op_profiles)?;
    let data_plane = DataPlane::from_exec(
        &exec.metrics,
        compiled.outcome.matched_views.len(),
        compiled.outcome.compensated_views.len(),
        compiled.outcome.built_views.len(),
    );
    let digest = digest_table(&exec.table);

    Ok(OneJob {
        subexprs,
        profiles: exec.metrics.op_profiles.clone(),
        pending_views: exec.pending_views,
        built_plans: compiled.outcome.built_plans,
        stages,
        data_plane,
        digest,
        quarantined_sigs: exec.metrics.quarantined_sigs.clone(),
        view_read_failures: exec.metrics.view_read_failures,
        view_corruptions: exec.metrics.view_corruptions,
        view_expiry_races: exec.metrics.view_expiry_races,
    })
}

/// A job's result digest: [`cv_data::content_digest`] of the result's rows
/// under the result-digest domain. Both drivers, and every gate that holds
/// two configurations to "same results", compare these.
pub(crate) fn digest_table(t: &cv_data::table::Table) -> Sig128 {
    cv_data::content_digest("result-digest", t)
}

#[allow(clippy::too_many_arguments)]
fn process_sim_events(
    sim: &mut ClusterSim,
    until: SimTime,
    pending: &mut HashMap<Sig128, PendingSeal>,
    engine: &mut QueryEngine,
    insights: &mut InsightsService,
    ttl: SimDuration,
    durable: Option<&DurableViewStore>,
    robustness: &mut RobustnessStats,
) -> Result<()> {
    let events = sim.run_until(until);
    apply_seal_events(&events, pending, engine, insights, ttl, durable, robustness)
}

#[allow(clippy::too_many_arguments)]
fn apply_seal_events(
    events: &[SimEvent],
    pending: &mut HashMap<Sig128, PendingSeal>,
    engine: &mut QueryEngine,
    insights: &mut InsightsService,
    ttl: SimDuration,
    durable: Option<&DurableViewStore>,
    robustness: &mut RobustnessStats,
) -> Result<()> {
    for ev in events {
        if let SimEvent::ViewSealed { sig, at, .. } = ev {
            let Some(seal) = pending.remove(sig) else { continue };
            let sealed = match durable {
                Some(store) => seal_views_durable(
                    store,
                    std::slice::from_ref(&seal.view),
                    seal.job,
                    seal.vc,
                    *at,
                    robustness,
                )?,
                None => {
                    engine.seal_views(std::slice::from_ref(&seal.view), seal.job, seal.vc, *at)?
                }
            };
            if sealed == 0 {
                // Injected write failure: the half-materialized view was
                // discarded and must never be advertised — release the
                // creation lock so a later job can rebuild it.
                insights.release_lock(seal.view.sig);
                continue;
            }
            let template = seal.plan.as_ref().and_then(|p| {
                cv_engine::signature::template_signature(p, &engine.optimizer.cfg.sig)
            });
            insights.report_sealed(
                ViewInfo {
                    strict: seal.view.sig,
                    recurring: seal.view.recurring_sig,
                    rows: seal.view.data.num_rows() as u64,
                    bytes: seal.view.data.byte_size(),
                    sealed_at: *at,
                    expires: *at + ttl,
                    vc: seal.vc,
                    template,
                    plan: seal.plan.clone(),
                },
                seal.job,
            );
        }
    }
    Ok(())
}

pub(crate) fn run_analysis(
    repo: &SubexpressionRepo,
    insights: &mut InsightsService,
    knobs: &SelectionKnobs,
    day: SimDay,
    cluster: &ClusterConfig,
) -> usize {
    let from = SimDay(day.index().saturating_sub(knobs.analysis_window_days - 1));
    let window = repo.window(from, SimDay(day.index() + 1));
    let mut problem = cv_core::build_problem(&window, knobs.min_frequency);
    if knobs.schedule_aware {
        problem = apply_schedule_awareness(
            &problem,
            cluster.default_vc_guaranteed as f64 * cluster.container_speed,
            SimDuration::from_secs(60.0),
        );
    }
    let constraints = SelectionConstraints {
        storage_budget_bytes: knobs.storage_budget_bytes,
        max_views: knobs.max_views,
        min_utility: 0.0,
    };
    let selector: Box<dyn ViewSelector> = match knobs.selector {
        SelectorKind::LabelPropagation => Box::new(LabelPropagationSelector::default()),
        SelectorKind::Greedy => Box::new(GreedySelector),
        SelectorKind::Exact => Box::new(ExactSelector { max_candidates: 24 }),
    };
    insights.reset_selection();
    if knobs.per_vc {
        let (_, per_vc) = select_per_vc(selector.as_ref(), &problem, &HashMap::new(), &constraints);
        let mut total = 0;
        for (vc, sel) in per_vc {
            total += sel.len();
            insights.publish_selection(Some(vc), sel.chosen);
        }
        total
    } else {
        let selection = selector.select(&problem, &constraints);
        let n = selection.len();
        insights.publish_selection(None, selection.chosen);
        n
    }
}

/// Apply one GDPR forget-request: pick a deterministic user id, delete it
/// from `users`, rotate the GUID, purge derived views (§4).
#[allow(clippy::too_many_arguments)]
fn apply_gdpr(
    engine: &mut QueryEngine,
    insights: &mut InsightsService,
    op_states: Option<&OpStateCache>,
    seed: u64,
    day: SimDay,
    durable: Option<&DurableViewStore>,
    robustness: &mut RobustnessStats,
) -> Result<usize> {
    let Some(id) = engine.catalog.id_of("users") else {
        return Ok(0);
    };
    let mut rng = data_rng(seed, "gdpr", day);
    let victim = rng.range_i64(0, 40);
    let outcome = engine.catalog.gdpr_forget(id, "u_id", &Value::Int(victim), day.start())?;
    // Purge every view derived from the retired version.
    let (stale, purged): (Vec<Sig128>, usize) = match durable {
        Some(store) => {
            let stale = store.sigs_with_input(outcome.old_guid);
            let purged = with_crash_retry(store, robustness, |s| {
                s.purge_input(outcome.old_guid, day.start())
            })?;
            (stale, purged)
        }
        None => {
            let stale: Vec<Sig128> = engine
                .views
                .iter()
                .filter(|v| v.input_guids.contains(&outcome.old_guid))
                .map(|v| v.strict_sig)
                .collect();
            (stale, engine.views.purge_input(outcome.old_guid, day.start()))
        }
    };
    insights.purge_sigs(&stale);
    // Operator-state coupling: rotated guids already invalidate the keys;
    // eager purge drops any cached bytes derived from the forgotten rows.
    if let Some(cache) = op_states {
        cache.purge_input("users");
        cache.purge_sigs(&stale);
    }
    Ok(purged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_workload, WorkloadConfig};

    fn small_workload() -> Workload {
        generate_workload(WorkloadConfig {
            scale: 0.05,
            n_analytics: 12,
            ..WorkloadConfig::default()
        })
    }

    fn quick_cluster() -> ClusterConfig {
        ClusterConfig { total_containers: 200, ..ClusterConfig::default() }
    }

    /// Workload big enough that dimension tables clear the nested-loop
    /// threshold: joins against `users`/`part` lower to *hash* joins, whose
    /// build states are what the operator-state cache keys on. At
    /// `small_workload` scale every dim is ~20 rows, every join is a loop
    /// join, and no build state would ever be published.
    fn join_heavy_workload() -> Workload {
        generate_workload(WorkloadConfig {
            scale: 0.25,
            n_analytics: 12,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn baseline_run_completes_all_jobs() {
        let w = small_workload();
        let mut cfg = DriverConfig::baseline(3);
        cfg.cluster = quick_cluster();
        let out = run_workload(&w, &cfg).unwrap();
        assert_eq!(out.failed_jobs, 0);
        // 4 cooking + ~12 analytics daily-ish over 3 days.
        assert!(out.ledger.len() >= 30, "{} jobs", out.ledger.len());
        assert!(out.repo.len() > 100);
        assert!(out.usage.is_empty(), "baseline must not touch insights");
        assert_eq!(out.view_store_stats.views_created, 0);
    }

    #[test]
    fn enabled_run_builds_and_reuses_views() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(4);
        cfg.cluster = quick_cluster();
        let out = run_workload(&w, &cfg).unwrap();
        assert_eq!(out.failed_jobs, 0);
        assert!(
            out.view_store_stats.views_created > 0,
            "no views materialized: {:?}",
            out.selection_history
        );
        let reused =
            out.usage.iter().filter(|u| u.kind == cv_core::insights::UsageKind::Reused).count();
        assert!(reused > 0, "views never reused (created {})", out.view_store_stats.views_created);
        // Reuse also shows up in the per-job data plane.
        let matched: usize = out.ledger.records().iter().map(|r| r.data.views_matched).sum();
        assert_eq!(matched, reused);
        assert!(!out.selection_history.is_empty());
    }

    #[test]
    fn reuse_never_changes_results() {
        let w = small_workload();
        let mut base_cfg = DriverConfig::baseline(4);
        base_cfg.cluster = quick_cluster();
        let mut on_cfg = DriverConfig::enabled(4);
        on_cfg.cluster = quick_cluster();
        let base = run_workload(&w, &base_cfg).unwrap();
        let on = run_workload(&w, &on_cfg).unwrap();
        assert_eq!(base.result_digests.len(), on.result_digests.len());
        for (job, digest) in &base.result_digests {
            assert_eq!(
                on.result_digests.get(job),
                Some(digest),
                "job {job} result changed under reuse"
            );
        }
    }

    #[test]
    fn enabled_run_saves_processing_time() {
        let w = small_workload();
        let mut base_cfg = DriverConfig::baseline(5);
        base_cfg.cluster = quick_cluster();
        let mut on_cfg = DriverConfig::enabled(5);
        on_cfg.cluster = quick_cluster();
        let base = run_workload(&w, &base_cfg).unwrap();
        let on = run_workload(&w, &on_cfg).unwrap();
        let base_total = base.ledger.totals();
        let on_total = on.ledger.totals();
        assert!(
            on_total.processing_seconds < base_total.processing_seconds,
            "processing with reuse {} !< baseline {}",
            on_total.processing_seconds,
            base_total.processing_seconds
        );
        assert!(on_total.input_bytes < base_total.input_bytes);
    }

    #[test]
    fn semantic_compensation_fires_and_preserves_results() {
        let w = generate_workload(WorkloadConfig {
            scale: 0.05,
            n_analytics: 24,
            ..WorkloadConfig::default()
        });
        let mut cfg = DriverConfig::enabled(4);
        cfg.cluster = quick_cluster();
        let on = run_workload(&w, &cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);
        let totals = on.ledger.totals();
        assert!(
            totals.views_reused_semantic > 0,
            "no compensated (semantic) hits in {} total reuses",
            totals.views_reused
        );
        assert!(totals.views_reused_semantic <= totals.views_reused);

        // Switching the widened path off must only change *how much* is
        // reused — never any job's result bytes.
        let mut off_cfg = cfg.clone();
        off_cfg.optimizer.enable_semantic_match = false;
        let off = run_workload(&w, &off_cfg).unwrap();
        assert_eq!(off.ledger.totals().views_reused_semantic, 0);
        assert_eq!(on.result_digests, off.result_digests);
    }

    #[test]
    fn gdpr_purges_views() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(6);
        cfg.cluster = quick_cluster();
        cfg.gdpr_every_days = Some(2);
        let out = run_workload(&w, &cfg).unwrap();
        assert_eq!(out.failed_jobs, 0);
        // The users dataset shrinks over time; views over it get purged at
        // least once in 6 days if any were built over `users`.
        // (Not asserted >0: selection may not pick user-joined views.)
        let _ = out.gdpr_purged_views;
    }

    /// Tentpole contract, sequential edition: the operator-state cache may
    /// only move work accounting — per-job result digests are byte-identical
    /// cache-on vs cache-off, and the recurring second day restores state
    /// published by (differently-numbered) first-day jobs.
    #[test]
    fn op_state_cache_keeps_digests_and_reuses_across_days() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let off = run_workload(&w, &cfg).unwrap();
        assert!(off.op_state.is_none());

        let mut on_cfg = cfg.clone();
        on_cfg.op_state_budget_bytes = 64 << 20;
        let on = run_workload(&w, &on_cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);
        assert_eq!(on.result_digests, off.result_digests, "cache changed result bytes");
        let stats = on.op_state.expect("cache enabled");
        assert!(stats.published > 0, "no breaker state ever published: {stats:?}");
        assert!(stats.hits > 0, "nothing restored from cache: {stats:?}");
        assert!(
            stats.cross_job_hits > 0,
            "a recurring day-2 job (new job id) must hit day-1 state: {stats:?}"
        );
    }

    /// GDPR regression: a forget-request against `users` must also evict
    /// cached operator state derived from it, without moving any digest.
    #[test]
    fn gdpr_purge_evicts_operator_state() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        cfg.gdpr_every_days = Some(1);
        cfg.op_state_budget_bytes = 64 << 20;
        let on = run_workload(&w, &cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);

        let mut off_cfg = cfg.clone();
        off_cfg.op_state_budget_bytes = 0;
        let off = run_workload(&w, &off_cfg).unwrap();
        assert_eq!(on.result_digests, off.result_digests, "cache changed result bytes");

        let stats = on.op_state.expect("cache enabled");
        assert!(
            stats.purged > 0,
            "the forget-request must purge user-derived operator state: {stats:?}"
        );
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cv-driver-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_store_run_matches_memory_run() {
        let w = small_workload();
        let mut mem_cfg = DriverConfig::enabled(3);
        mem_cfg.cluster = quick_cluster();
        let dir = temp_store_dir("parity");
        let mut disk_cfg = mem_cfg.clone();
        disk_cfg.store = StoreBackend::Durable(DurableStoreConfig::new(&dir));

        let mem = run_workload(&w, &mem_cfg).unwrap();
        let disk = run_workload(&w, &disk_cfg).unwrap();
        assert_eq!(disk.failed_jobs, 0);
        // Durability must never change results or reuse behavior.
        assert_eq!(mem.result_digests, disk.result_digests);
        assert_eq!(mem.view_store_stats.views_created, disk.view_store_stats.views_created);
        let io = disk.store_io.expect("durable run reports io stats");
        assert!(io.wal_records_written > 0);
        assert!(io.bytes_written_durably > 0);
        assert!(mem.store_io.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_store_resumes_across_restart() {
        let w = small_workload();
        let dir = temp_store_dir("resume");
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        cfg.store = StoreBackend::Durable(DurableStoreConfig::new(&dir));
        let first = run_workload(&w, &cfg).unwrap();
        assert!(first.view_store_stats.views_created > 0);

        // Second run over the same directory: the store recovers the views
        // the first run sealed (restart-and-resume), and the recovery is
        // visible in the io counters.
        let second = run_workload(&w, &cfg).unwrap();
        assert_eq!(second.failed_jobs, 0);
        let io = second.store_io.expect("durable run reports io stats");
        assert!(io.recoveries > 0, "reopening a populated dir must count as recovery");
        assert!(second.robustness.store_recoveries > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_budget_run_recovers_and_keeps_digests() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        let baseline_dir = temp_store_dir("crash-base");
        cfg.store = StoreBackend::Durable(DurableStoreConfig::new(&baseline_dir));
        let baseline = run_workload(&w, &cfg).unwrap();
        let budget = baseline.store_io.as_ref().unwrap().bytes_written_durably;
        assert!(budget > 0);

        // Crash mid-run at half the durable byte budget; the driver must
        // recover in place and finish with byte-identical per-job digests.
        let crash_dir = temp_store_dir("crash-kill");
        let mut crash_cfg = cfg.clone();
        crash_cfg.store = StoreBackend::Durable(DurableStoreConfig::new(&crash_dir));
        crash_cfg.faults = FaultPlan::seeded(7).with_crash_after_bytes(budget / 2);
        let crashed = run_workload(&w, &crash_cfg).unwrap();
        assert_eq!(crashed.robustness.store_crashes, 1, "the crash budget must trip once");
        assert!(crashed.robustness.store_recoveries > 0);
        assert_eq!(crashed.failed_jobs, 0);
        assert_eq!(baseline.result_digests, crashed.result_digests);
        std::fs::remove_dir_all(&baseline_dir).unwrap();
        std::fs::remove_dir_all(&crash_dir).unwrap();
    }

    #[test]
    fn ivm_maintains_views_without_changing_digests() {
        let w = small_workload();
        let mut on_cfg = DriverConfig::enabled(4);
        on_cfg.cluster = quick_cluster();
        on_cfg.ivm = IvmMode::Maintain;
        let mut off_cfg = on_cfg.clone();
        off_cfg.ivm = IvmMode::Ingest;

        let on = run_workload(&w, &on_cfg).unwrap();
        let off = run_workload(&w, &off_cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);
        assert_eq!(off.failed_jobs, 0);
        assert!(off.ivm.is_none());

        let stats = on.ivm.as_ref().expect("maintain mode reports stats");
        assert!(stats.maintained > 0, "no views maintained: {stats:?}");
        assert!(
            stats.rows_maintained < stats.rows_rebuild_baseline,
            "maintenance touched {} rows but the rebuild baseline is only {}",
            stats.rows_maintained,
            stats.rows_rebuild_baseline
        );

        // Maintained views must be byte-identical to full re-execution:
        // every per-job digest matches the ingest-only control run.
        assert_eq!(on.result_digests.len(), off.result_digests.len());
        for (job, digest) in &off.result_digests {
            assert_eq!(
                on.result_digests.get(job),
                Some(digest),
                "job {job} result changed under incremental maintenance"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        let a = run_workload(&w, &cfg).unwrap();
        let b = run_workload(&w, &cfg).unwrap();
        assert_eq!(a.result_digests, b.result_digests);
        assert_eq!(a.view_store_stats, b.view_store_stats);
        assert_eq!(a.ledger.totals(), b.ledger.totals());
    }
}
