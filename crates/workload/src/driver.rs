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
use crate::steps::{
    absorb_read_faults, apply_gdpr, assemble_ledger, digest_table, due_jobs, ingest_raw,
    next_job_meta, open_store, publish_output, run_analysis, seal_view, set_up, store_io_json,
    store_tail, use_cloudviews, view_info, with_crash_retry,
};
use crate::templates::JobTemplate;
use cv_cluster::metrics::{DataPlane, MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim, JobSpec, SimEvent};
use cv_cluster::stage::build_stages;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId};
use cv_common::json::{Json, ToJson};
use cv_common::{json, FaultPlan, Result, SimDay, SimDuration, SimTime};
use cv_core::controls::Controls;
use cv_core::insights::{InsightsService, UsageEvent};
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_data::store_api::{SharedViewStore, StoreIoStats};
use cv_data::viewstore::ViewStoreStats;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{ExecMetrics, PendingView};
use cv_engine::optimizer::{AlwaysGrant, OptimizeOutcome, OptimizerConfig, ReuseContext};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{plan_signature, SigMode, SignedPlan};
use cv_ivm::{IvmEngine, IvmStats, Maintain};
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

/// Where materialized views live for the run. Resolved in one place,
/// [`crate::open_store`].
#[derive(Clone, Debug, Default)]
pub enum StoreBackend {
    /// In memory (the default; no durability, no page cache, no crash
    /// surface).
    #[default]
    Memory,
    /// On disk: WAL + pages + checkpoints under the given directory, at
    /// the store's default buffer-pool size and checkpoint cadence.
    /// Survives (simulated and real) restarts: reopening an existing
    /// directory (with the same shard count) recovers the views a previous
    /// run left behind.
    Durable(std::path::PathBuf),
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
    /// Incremental view maintenance mode (off by default; sequential
    /// driver only — the service refuses anything else).
    pub ivm: IvmMode,
    /// Rows per execution chunk (morsel). Results are byte-identical at
    /// every value; this only moves the streaming granularity.
    pub chunk_size: usize,
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
    /// Why each failed job failed, in job order (`failed_jobs` long).
    pub failures: Vec<(JobId, String)>,
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
            "store": store_io_json(&self.store_io),
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

/// A built view waiting for the simulator to finish its producing stage.
struct PendingSeal {
    view: PendingView,
    job: JobId,
    vc: VcId,
    /// The view's defining plan, for the announce record.
    plan: Option<Arc<LogicalPlan>>,
}

/// What sealing a view touches: the store, the serving index, the
/// fault-layer counters.
struct SealCtx<'a> {
    cfg: &'a DriverConfig,
    store: &'a dyn SharedViewStore,
    insights: &'a mut InsightsService,
    robustness: &'a mut RobustnessStats,
}

impl SealCtx<'_> {
    /// Seal one view (absorbing a simulated crash) and, if it landed,
    /// announce it. Returns whether it landed.
    fn seal_and_announce(&mut self, seal: PendingSeal, at: SimTime) -> Result<bool> {
        let PendingSeal { view, job, vc, plan } = seal;
        let landed =
            with_crash_retry(self.store, self.robustness, |s| seal_view(s, &view, job, vc, at))?;
        if landed {
            self.insights.report_sealed(view_info(self.cfg, &view, vc, at, plan), job);
        }
        Ok(landed)
    }

    /// Early sealing: seal the views whose producing stages the simulator
    /// just finished.
    fn apply_seal_events(
        &mut self,
        events: &[SimEvent],
        pending: &mut HashMap<Sig128, PendingSeal>,
    ) -> Result<()> {
        for ev in events {
            let SimEvent::ViewSealed { sig, at, .. } = ev else { continue };
            let Some(seal) = pending.remove(sig) else { continue };
            if !self.seal_and_announce(seal, *at)? {
                // The view did not land (injected write failure, or a
                // quarantined signature) and must never be advertised —
                // release the creation lock so a later job can rebuild it.
                self.insights.release_lock(*sig);
            }
        }
        Ok(())
    }
}

/// Run a workload under the given configuration.
pub fn run_workload(workload: &Workload, cfg: &DriverConfig) -> Result<DriverOutcome> {
    // One job at a time: one shard, the plain store.
    let store = open_store(cfg, 1)?;
    let store: &dyn SharedViewStore = &*store;
    let mut engine = set_up(cfg, store);
    let mut insights = InsightsService::new(cfg.controls.clone());
    let mut sim = ClusterSim::new(cfg.cluster.clone());
    sim.set_fault_plan(cfg.faults.clone());
    let mut repo = SubexpressionRepo::new();
    let mut data_plane: HashMap<JobId, DataPlane> = HashMap::new();
    let mut pending_seals: HashMap<Sig128, PendingSeal> = HashMap::new();
    let mut result_digests = BTreeMap::new();
    let mut selection_history = Vec::new();
    let mut failures: Vec<(JobId, String)> = Vec::new();
    let mut gdpr_purged_views = 0u64;
    let mut next_job = 0u64;
    let mut robustness = RobustnessStats::default();
    let ivm_ingest = cfg.ivm != IvmMode::Off;
    let mut ivm: Option<IvmEngine> =
        (cfg.ivm == IvmMode::Maintain).then(|| IvmEngine::new(&cfg.optimizer));

    for day_idx in 0..cfg.days {
        let day = SimDay(day_idx);
        SealCtx { cfg, store, insights: &mut insights, robustness: &mut robustness }
            .apply_seal_events(&sim.run_until(day.start()), &mut pending_seals)?;

        // 1. Ingestion, then the optional GDPR forget-request.
        ingest_raw(&mut engine.catalog, workload, day, ivm_ingest)?;
        gdpr_purged_views += apply_gdpr(
            cfg,
            &mut engine,
            store,
            &mut insights,
            workload.config.seed,
            day,
            &mut robustness,
        )?;

        // 2. Jobs, in submission order.
        for template in due_jobs(workload, day) {
            let submit = template.submit_time(day);
            SealCtx { cfg, store, insights: &mut insights, robustness: &mut robustness }
                .apply_seal_events(&sim.run_until(submit), &mut pending_seals)?;
            with_crash_retry(store, &mut robustness, |s| s.evict_expired(submit))?;
            insights.expire(submit);

            let meta = next_job_meta(template, day, &mut next_job);
            let job = meta.job;

            // Incremental maintenance: a tracked recurring template whose
            // inputs changed only through intact delta chains is advanced
            // from yesterday's state instead of re-executed. Fallbacks
            // (broken chain, plan drift, costed out) drop through to the
            // normal execution path below and re-track afterwards.
            if let Some(iv) = ivm.as_mut() {
                let ctx =
                    SealCtx { cfg, store, insights: &mut insights, robustness: &mut robustness };
                match try_ivm_maintain(iv, &mut engine, ctx, template, day, job) {
                    Ok(Some(digest)) => {
                        result_digests.insert(job, digest);
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        failures.push((job, e.to_string()));
                        continue;
                    }
                }
            }

            let use_cv = use_cloudviews(cfg, submit, &mut robustness);

            let run = run_one_job(
                &mut engine,
                store,
                &mut insights,
                template,
                day,
                meta,
                use_cv,
                ivm_ingest,
            );
            match run {
                Ok(one) => {
                    repo.log_job(meta, &one.subexprs, Some(&one.metrics.op_profiles));
                    result_digests.insert(job, one.digest);
                    // Start (or resume) maintaining this template's view:
                    // the CV07x gate refuses non-maintainable plans and the
                    // refusal is counted, exactly like CV06x vetoes.
                    if let Some(iv) = ivm.as_mut() {
                        ivm_track(iv, &engine, template, day);
                    }
                    absorb_read_faults(&one.metrics, store, &mut insights, &mut robustness)?;
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
                Err(e) => failures.push((job, e.to_string())),
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
    SealCtx { cfg, store, insights: &mut insights, robustness: &mut robustness }
        .apply_seal_events(&sim.run_to_completion(), &mut pending_seals)?;
    let ledger = assemble_ledger(&sim, &mut data_plane, &mut robustness);
    // Final checkpoint: a later run reopening the directory recovers from
    // the checkpoint instead of a long WAL replay.
    with_crash_retry(store, &mut robustness, |s| s.checkpoint_now())?;
    let (view_store_stats, store_io) = store_tail(store, &mut robustness);

    Ok(DriverOutcome {
        ledger,
        repo,
        usage: insights.usage_log().to_vec(),
        view_store_stats,
        result_digests,
        failed_jobs: failures.len() as u64,
        failures,
        selection_history,
        gdpr_purged_views,
        robustness,
        store_io,
        ivm: ivm.map(|iv| iv.stats),
    })
}

/// Attempt to maintain a tracked view for `template`. Returns the result
/// digest when the view was maintained (the job is done without
/// executing); `None` falls through to normal execution.
fn try_ivm_maintain(
    ivm: &mut IvmEngine,
    engine: &mut QueryEngine,
    mut ctx: SealCtx<'_>,
    template: &JobTemplate,
    day: SimDay,
    job: JobId,
) -> Result<Option<Sig128>> {
    let Ok(plan) = template.build_plan(engine, day) else {
        return Ok(None);
    };
    let sig_cfg = &ctx.cfg.optimizer.sig;
    let Some(tsig) = plan_signature(&plan, sig_cfg, SigMode::Recurring) else {
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
        publish_output(&mut engine.catalog, output, &mv.table, submit, true)?;
    }
    // Re-publish under today's strict signature so exact and containment
    // matching serve the maintained view exactly like a rebuilt one.
    let sigs = ctx.cfg.cloudviews.as_ref().and_then(|_| {
        let strict = plan_signature(&mv.plan, sig_cfg, SigMode::Strict)?;
        Some((strict, plan_signature(&mv.plan, sig_cfg, SigMode::Recurring)?))
    });
    if let Some((sig, recurring_sig)) = sigs {
        let view = PendingView {
            sig,
            recurring_sig,
            input_guids: scan_guids(&mv.plan),
            schema: mv.table.schema().clone(),
            data: mv.table.clone(),
            production_work: mv.rows_touched as f64,
            write_work: 0.0,
        };
        let seal = PendingSeal { view, job, vc: template.vc, plan: Some(mv.plan.clone()) };
        ctx.seal_and_announce(seal, submit)?;
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

fn scan_guids(plan: &Arc<LogicalPlan>) -> Vec<cv_common::ids::VersionGuid> {
    fn go(p: &Arc<LogicalPlan>, out: &mut Vec<cv_common::ids::VersionGuid>) {
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

struct OneJob {
    subexprs: Vec<cv_engine::signature::SubexprInfo>,
    metrics: ExecMetrics,
    pending_views: Vec<PendingView>,
    built_plans: Vec<(Sig128, Arc<LogicalPlan>)>,
    stages: cv_cluster::stage::StageGraph,
    data_plane: DataPlane,
    digest: Sig128,
}

/// Sign a job's plan once, annotate its subexpressions and optimize it
/// under the annotations. Returns the signed plan, the annotations and the
/// outcome.
fn compile_one(
    engine: &QueryEngine,
    store: &dyn SharedViewStore,
    insights: &mut InsightsService,
    plan: &Arc<LogicalPlan>,
    meta: JobMeta,
    use_cv: bool,
) -> Result<(SignedPlan, ReuseContext, OptimizeOutcome)> {
    let signed = engine.sign(plan)?;
    let mut reuse = if use_cv {
        insights.annotate(meta.vc, meta.job, &signed.subexprs, meta.submit).0
    } else {
        ReuseContext::empty()
    };
    // Residency-aware costing: views whose pages are not in the buffer
    // pool pay the cold-read multiplier in the optimizer's reuse-vs-
    // recompute comparison (a memory store is always resident).
    for (sig, meta) in reuse.available.iter_mut() {
        meta.cold = !store.is_resident(*sig);
    }
    let outcome = if use_cv {
        engine.optimize_signed(&signed, &reuse, &mut insights.locker())?
    } else {
        engine.optimize_signed(&signed, &reuse, &mut AlwaysGrant)?
    };
    Ok((signed, reuse, outcome))
}

#[allow(clippy::too_many_arguments)]
fn run_one_job(
    engine: &mut QueryEngine,
    store: &dyn SharedViewStore,
    insights: &mut InsightsService,
    template: &JobTemplate,
    day: SimDay,
    meta: JobMeta,
    use_cv: bool,
    diff_outputs: bool,
) -> Result<OneJob> {
    let plan = template.build_plan(engine, day)?;
    let (signed, _, outcome) = compile_one(engine, store, insights, &plan, meta, use_cv)?;

    let exec = match engine.execute_with_obs(&outcome.physical, store, meta.submit, None) {
        Ok(e) => e,
        Err(e) => {
            // Release any creation locks this job acquired before bailing.
            for sig in &outcome.built_views {
                insights.release_lock(*sig);
            }
            return Err(e);
        }
    };

    if use_cv && !outcome.matched_views.is_empty() {
        insights.record_reuse(&outcome.matched_views, meta.job, meta.submit);
    }
    if let Some(output) = template.output_dataset() {
        publish_output(&mut engine.catalog, output, &exec.table, meta.submit, diff_outputs)?;
    }

    let stages = build_stages(&outcome.physical, &exec.metrics.op_profiles)?;
    let data_plane = DataPlane::from_exec(
        &exec.metrics,
        outcome.matched_views.len(),
        outcome.compensated_views.len(),
        outcome.built_views.len(),
    );
    let digest = digest_table(&exec.table);

    Ok(OneJob {
        subexprs: signed.subexprs,
        metrics: exec.metrics,
        pending_views: exec.pending_views,
        built_plans: outcome.built_plans,
        stages,
        data_plane,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_workload, WorkloadConfig};
    use cv_engine::optimizer::BuildCoordinator;
    use cv_engine::signature::template_signature;

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

    /// The seal rule on the sequential memory path: a signature the store
    /// quarantined is refused on re-seal, so it is neither announced to the
    /// insights service nor left holding its creation lock — while the same
    /// view under a healthy signature is sealed and announced.
    #[test]
    fn quarantined_signature_resealed_is_neither_counted_nor_announced() {
        use cv_data::{DataType, Field, Schema, Table, Value};
        let cfg = DriverConfig::enabled(1);
        let store = open_store(&cfg, 1).unwrap();
        let mut insights = InsightsService::new(cfg.controls.clone());
        let mut robustness = RobustnessStats::default();
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let data = Table::from_rows(schema.clone(), &[vec![Value::Int(7)]]).unwrap();
        let (dead, healthy) = (Sig128(1), Sig128(2));
        store.quarantine(dead).unwrap();

        let mut pending = HashMap::new();
        for sig in [dead, healthy] {
            use cv_engine::optimizer::BuildCoordinator;
            assert!(insights.locker().try_acquire(sig));
            let view = PendingView {
                sig,
                recurring_sig: sig,
                input_guids: Vec::new(),
                schema: schema.clone(),
                data: data.clone(),
                production_work: 1.0,
                write_work: 0.0,
            };
            pending.insert(sig, PendingSeal { view, job: JobId(9), vc: VcId(0), plan: None });
        }
        let events: Vec<SimEvent> = [dead, healthy]
            .map(|sig| SimEvent::ViewSealed { sig, job: JobId(9), at: SimTime::EPOCH })
            .to_vec();
        SealCtx { cfg: &cfg, store: &*store, insights: &mut insights, robustness: &mut robustness }
            .apply_seal_events(&events, &mut pending)
            .unwrap();

        assert!(!store.contains(dead) && store.contains(healthy));
        assert_eq!(store.stats().views_created, 1);
        let announced: Vec<Sig128> = insights.usage_log().iter().map(|u| u.sig).collect();
        assert_eq!(announced, vec![healthy], "only the view that landed is announced");
        assert!(!insights.is_locked(dead), "a refused seal must release its creation lock");
    }

    #[test]
    fn durable_store_run_matches_memory_run() {
        let w = small_workload();
        let mut mem_cfg = DriverConfig::enabled(3);
        mem_cfg.cluster = quick_cluster();
        let dir = temp_store_dir("parity");
        let mut disk_cfg = mem_cfg.clone();
        disk_cfg.store = StoreBackend::Durable(dir.clone());

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
        cfg.store = StoreBackend::Durable(dir.clone());
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
        cfg.store = StoreBackend::Durable(baseline_dir.clone());
        let baseline = run_workload(&w, &cfg).unwrap();
        let budget = baseline.store_io.as_ref().unwrap().bytes_written_durably;
        assert!(budget > 0);

        // Crash mid-run at half the durable byte budget; the driver must
        // recover in place and finish with byte-identical per-job digests.
        let crash_dir = temp_store_dir("crash-kill");
        let mut crash_cfg = cfg.clone();
        crash_cfg.store = StoreBackend::Durable(crash_dir.clone());
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

    /// The signature memo is exact. Over every job of a 4-day run with
    /// reuse on — annotations served live by the insights service as views
    /// are sealed and the selection is refreshed — each memoized value
    /// equals its from-scratch definition, every signature the optimizer
    /// wrote into the plan equals the signature of what it wraps or
    /// replaced, and optimizing the normalized plan again changes nothing.
    #[test]
    fn the_signature_memo_is_exact_over_a_run() {
        for seed in [7, 42] {
            let w = generate_workload(WorkloadConfig {
                seed,
                scale: 0.05,
                n_analytics: 24,
                ..WorkloadConfig::default()
            });
            let cfg = DriverConfig::enabled(4);
            let (matched, compensated, built) = replay_checking_the_memo(&w, &cfg);
            assert!(
                matched > 0 && compensated > 0 && built > 0,
                "seed {seed}: {matched}/{compensated}/{built}"
            );
        }
    }

    /// Run `w` one job at a time through the drivers' compile path, sealing
    /// each built view as its job ends, and check every compiled job.
    /// Returns how many views were matched (all, then compensated only) and
    /// built.
    fn replay_checking_the_memo(w: &Workload, cfg: &DriverConfig) -> (usize, usize, usize) {
        let store = open_store(cfg, 1).unwrap();
        let store: &dyn SharedViewStore = &*store;
        let mut engine = set_up(cfg, store);
        let mut insights = InsightsService::new(cfg.controls.clone());
        let mut repo = SubexpressionRepo::new();
        let knobs = cfg.cloudviews.as_ref().unwrap();
        let (mut matched, mut compensated, mut built) = (0, 0, 0);
        let mut next_job = 0;
        for day in (0..cfg.days).map(SimDay) {
            ingest_raw(&mut engine.catalog, w, day, false).unwrap();
            for template in due_jobs(w, day) {
                let meta = next_job_meta(template, day, &mut next_job);
                let plan = template.build_plan(&engine, day).unwrap();
                let (signed, reuse, outcome) =
                    compile_one(&engine, store, &mut insights, &plan, meta, true).unwrap();
                check_memo(&engine, &signed, &reuse, &outcome);
                matched += outcome.matched_views.len();
                compensated += outcome.compensated_views.len();
                built += outcome.built_views.len();

                let exec = engine.execute_with_obs(&outcome.physical, store, meta.submit, None);
                let exec = exec.unwrap();
                for pv in &exec.pending_views {
                    let defining = outcome.built_plans.iter().find(|(s, _)| *s == pv.sig);
                    if seal_view(store, pv, meta.job, meta.vc, meta.submit).unwrap() {
                        let plan = defining.map(|(_, p)| p.clone());
                        insights.report_sealed(
                            view_info(cfg, pv, meta.vc, meta.submit, plan),
                            meta.job,
                        );
                    }
                }
                if !outcome.matched_views.is_empty() {
                    insights.record_reuse(&outcome.matched_views, meta.job, meta.submit);
                }
                if let Some(output) = template.output_dataset() {
                    publish_output(&mut engine.catalog, output, &exec.table, meta.submit, false)
                        .unwrap();
                }
                repo.log_job(meta, &signed.subexprs, Some(&exec.metrics.op_profiles));
            }
            run_analysis(&repo, &mut insights, knobs, day, &cfg.cluster);
        }
        (matched, compensated, built)
    }

    fn check_memo(
        engine: &QueryEngine,
        signed: &SignedPlan,
        reuse: &ReuseContext,
        outcome: &OptimizeOutcome,
    ) {
        let sig = &engine.optimizer.cfg.sig;
        let strict = |p: &Arc<LogicalPlan>| plan_signature(p, sig, SigMode::Strict);
        for sub in &signed.subexprs {
            assert_eq!(Some(sub.template), template_signature(&sub.plan, sig));
            assert_eq!(sub.node_count, sub.plan.node_count());
            assert_eq!(Some(sub.strict), strict(&sub.plan));
            assert_eq!(signed.subexpr(&sub.plan).map(|s| s.strict), Some(sub.strict));
        }
        check_materialize(&outcome.logical, &strict);
        check_view_scans(&outcome.logical, &signed.plan, outcome, reuse, &strict);
        // A captured defining plan is a node of the signed plan, so the
        // service driver reads its template off the memo.
        for (_, plan) in &outcome.built_plans {
            let sub = signed.subexpr(plan).expect("a built plan is a node of the signed plan");
            assert_eq!(Some(sub.template), template_signature(plan, sig));
        }

        // Normalization is idempotent, so signing the normalized plan again
        // and optimizing it under the same annotations (and the same build
        // grants) reproduces the outcome.
        struct Grant(Vec<Sig128>);
        impl BuildCoordinator for Grant {
            fn try_acquire(&mut self, sig: Sig128) -> bool {
                self.0.contains(&sig)
            }
        }
        let again = engine.sign(&signed.plan).unwrap();
        let again =
            engine.optimize_signed(&again, reuse, &mut Grant(outcome.built_views.clone())).unwrap();
        assert_eq!(format!("{again:?}"), format!("{outcome:?}"));
    }

    /// Every `Materialize` is keyed by the strict signature of its input.
    fn check_materialize(
        plan: &Arc<LogicalPlan>,
        strict: &dyn Fn(&Arc<LogicalPlan>) -> Option<Sig128>,
    ) {
        if let LogicalPlan::Materialize { sig, input } = &**plan {
            assert_eq!(strict(input), Some(*sig));
        }
        for c in plan.children() {
            check_materialize(c, strict);
        }
    }

    /// Walk the optimized plan beside the signed plan it came from: an
    /// exact `ViewScan` carries the signature of the subtree it replaced,
    /// and a compensation stands for a subtree the outcome names, over a
    /// view whose defining plan signs as the view.
    fn check_view_scans(
        optimized: &Arc<LogicalPlan>,
        original: &Arc<LogicalPlan>,
        outcome: &OptimizeOutcome,
        reuse: &ReuseContext,
        strict: &dyn Fn(&Arc<LogicalPlan>) -> Option<Sig128>,
    ) {
        let optimized = match &**optimized {
            LogicalPlan::Materialize { input, .. } => input,
            _ => optimized,
        };
        let sig = strict(original);
        if let Some((view, _)) = outcome.compensated_views.iter().find(|(_, c)| Some(*c) == sig) {
            assert_eq!(strict(&reuse.semantic[view].plan), Some(*view));
            return;
        }
        if let LogicalPlan::ViewScan { sig: view, .. } = &**optimized {
            assert_eq!(sig, Some(*view));
            return;
        }
        assert_eq!(optimized.kind_name(), original.kind_name());
        for (o, c) in optimized.children().into_iter().zip(original.children()) {
            check_view_scans(o, c, outcome, reuse, strict);
        }
    }
}
