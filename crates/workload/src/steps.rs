//! The day-loop steps both workload drivers take, spelled once.
//!
//! [`crate::driver`] (sim-timed early sealing, one job at a time) and
//! [`crate::service_driver`] (execution-time sealing, waves on a pool)
//! schedule a day differently — see DESIGN.md §9 for why the two loops stay
//! — but every step either of them takes against the view store, the
//! catalog or the insights service is the same step, and lives here: opening
//! the store, engine set-up, ingest, job ordering, GDPR purge, the seal rule,
//! the announce record, cooking-output publish, quarantine propagation,
//! ledger assembly, the report's store block, and compiling a job from its
//! template's skeleton. Nothing in this module knows which driver called it.

use crate::driver::{DriverConfig, SelectionKnobs, SelectorKind, StoreBackend};
use crate::generator::Workload;
use crate::schemas::raw_specs;
use crate::templates::JobTemplate;
use cv_cluster::metrics::{DataPlane, JobRecord, MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim};
use cv_common::hash::{Sig128, StableHasher};
use cv_common::ids::{JobId, TemplateId, VcId};
use cv_common::json::Json;
use cv_common::rng::DetRng;
use cv_common::{json, CvError, HashMap, Result, SimDay, SimDuration, SimTime};
use cv_core::insights::{InsightsService, ViewInfo};
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_core::selection::{
    apply_schedule_awareness, select_per_vc, ExactSelector, GreedySelector,
    LabelPropagationSelector, SelectionConstraints, ViewSelector,
};
use cv_data::catalog::DatasetCatalog;
use cv_data::sharded::ShardedViewStore;
use cv_data::store_api::{SharedViewStore, StoreIoStats};
use cv_data::table::Table;
use cv_data::value::Value;
use cv_data::viewstore::ViewStoreStats;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{ExecMetrics, PendingView};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{template_signature, SignedPlan};
use cv_engine::skeleton::Skeleton;
use cv_store::{DurableStoreOptions, ShardedDurableViewStore};
use std::sync::Arc;

/// Open the view store `cfg.store` names, striped over `shards` locks. This
/// is the one place a [`StoreBackend`] is resolved: the sequential driver
/// asks for one shard (the plain store — for the durable backend, the
/// directory itself), the service for `ServiceConfig::store_shards`.
/// Reopening an existing durable directory recovers whatever a previous (or
/// crashed) run left behind; the caller owns the final checkpoint.
pub fn open_store(cfg: &DriverConfig, shards: usize) -> Result<Box<dyn SharedViewStore>> {
    Ok(match &cfg.store {
        StoreBackend::Memory => Box::new(ShardedViewStore::new(cfg.view_ttl, shards)),
        StoreBackend::Durable(dir) => {
            let opts = DurableStoreOptions::default();
            Box::new(ShardedDurableViewStore::open(dir, cfg.view_ttl, shards, opts)?)
        }
    })
}

/// The engine a run compiles and executes with — analyzer wired in as the
/// containment prover (semantic view matches only happen when it certifies
/// them) and, under `verify_plans`, as the auditor that fails a corrupted
/// rewrite with a CV0xx diagnostic instead of sealing bad results. All view
/// traffic goes through `store`; the engine's own `views` stays empty.
pub(crate) fn set_up(cfg: &DriverConfig, store: &dyn SharedViewStore) -> QueryEngine {
    let mut engine = QueryEngine::with_config(cfg.optimizer.clone());
    engine.chunk_size = cfg.chunk_size.max(1);
    let analyzer = Arc::new(cv_analyzer::Analyzer::new(&cfg.optimizer));
    engine.optimizer.set_prover(analyzer.clone());
    if cfg.optimizer.verify_plans {
        engine.optimizer.set_verifier(analyzer);
    }
    store.set_fault_plan(cfg.faults.clone());
    engine
}

/// Each template's normalized skeleton, built from its first instance of
/// the run (DESIGN §17 *One skeleton per template*).
#[derive(Default)]
pub(crate) struct Skeletons(HashMap<TemplateId, Skeleton>);

impl Skeletons {
    /// Compile `template`'s instance for `day` into its normalized, signed
    /// plan: the template's skeleton rebound to the catalog's current
    /// dataset versions and the day's parameters. A template met for the
    /// first time, or whose skeleton no longer binds (a scanned dataset gone
    /// or its schema changed), is parsed, bound and normalized from scratch
    /// first, so a bind error is the binder's own.
    pub(crate) fn compile(
        &mut self,
        template: &JobTemplate,
        engine: &QueryEngine,
        day: SimDay,
    ) -> Result<SignedPlan> {
        let (catalog, cfg) = (&engine.catalog, &engine.optimizer.cfg.sig);
        let params = template.params_for(day);
        let cached = self.0.get(&template.id).and_then(|s| s.instantiate(catalog, &params, cfg));
        let signed = match cached {
            Some(signed) => signed,
            None => {
                let skeleton = Skeleton::new(&template.build_plan(engine, day)?, cfg)?;
                let signed = skeleton.instantiate(catalog, &params, cfg).ok_or_else(|| {
                    CvError::internal("a skeleton does not bind to the instance it was built from")
                })?;
                self.0.insert(template.id, skeleton);
                signed
            }
        };
        check_exact(&signed, template, engine, day)?;
        Ok(signed)
    }
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

/// A job's result digest: [`cv_data::content_digest`] of the result's rows
/// under the result-digest domain. Both drivers, and every gate that holds
/// two configurations to "same results", compare these.
pub(crate) fn digest_table(t: &Table) -> Sig128 {
    cv_data::content_digest("result-digest", t)
}

/// Bulk-regenerate the raw datasets due on `day` (fresh GUIDs; strict
/// signatures of yesterday's views go stale). With `delta`, a dataset that
/// already exists regenerates as a change feed — facts append the day's
/// rows, dimensions churn in place — which the catalog records for
/// incremental maintenance. Returns how many datasets were regenerated.
pub(crate) fn ingest_raw(
    catalog: &mut DatasetCatalog,
    workload: &Workload,
    day: SimDay,
    delta: bool,
) -> Result<u64> {
    let (scale, at) = (workload.config.scale, day.start());
    let mut regenerated = 0;
    for spec in raw_specs() {
        if !day.index().is_multiple_of(spec.update_every_days) {
            continue;
        }
        regenerated += 1;
        let mut rng = data_rng(workload.config.seed, spec.name, day);
        match catalog.id_of(spec.name) {
            Some(id) if delta => {
                let prev = catalog.get(id)?.data().clone();
                let (table, feed) = spec.generate_delta(&mut rng, scale, day, &prev)?;
                catalog.bulk_update_delta(id, table, feed, at)?;
            }
            Some(id) => {
                catalog.bulk_update(id, spec.generate(&mut rng, scale, day), at)?;
            }
            None => {
                catalog.register(spec.name, spec.generate(&mut rng, scale, day), at)?;
            }
        }
    }
    Ok(regenerated)
}

/// The templates due on `day`, in submission order (ties by template id) —
/// the order that makes job ids line up one-to-one across drivers.
pub(crate) fn due_jobs(workload: &Workload, day: SimDay) -> Vec<&JobTemplate> {
    let mut due: Vec<&JobTemplate> = workload.templates.iter().filter(|t| t.due_on(day)).collect();
    due.sort_by(|a, b| {
        a.submit_time(day).seconds().total_cmp(&b.submit_time(day).seconds()).then(a.id.cmp(&b.id))
    });
    due
}

/// Mint the identity of the next job of the run, an instance of `template`.
pub(crate) fn next_job_meta(template: &JobTemplate, day: SimDay, next_job: &mut u64) -> JobMeta {
    let job = JobId(*next_job);
    *next_job += 1;
    JobMeta {
        job,
        template: template.id,
        pipeline: template.pipeline,
        vc: template.vc,
        user: template.user,
        submit: template.submit_time(day),
    }
}

/// Whether a job submitted at `submit` compiles with CloudViews. During a
/// metadata-repository outage the annotation service is unreachable, so an
/// enabled run degrades to a baseline no-reuse plan for that job — it must
/// still run, just without reuse — and the outage is counted.
pub(crate) fn use_cloudviews(
    cfg: &DriverConfig,
    submit: SimTime,
    robustness: &mut RobustnessStats,
) -> bool {
    let enabled = cfg.cloudviews.is_some();
    let metadata_down = enabled && cfg.faults.metadata_down(submit);
    robustness.metadata_outage_jobs += u64::from(metadata_down);
    enabled && !metadata_down
}

/// Run a store mutation, absorbing one simulated crash: on
/// [`cv_common::CvError::is_crash`] the store is recovered in place (WAL +
/// checkpoint replay) and the operation retried once. Replay is idempotent,
/// so a retried mutation that already committed before the crash is a
/// no-op. A store that cannot crash never takes the retry arm.
pub(crate) fn with_crash_retry<T>(
    store: &dyn SharedViewStore,
    robustness: &mut RobustnessStats,
    op: impl Fn(&dyn SharedViewStore) -> Result<T>,
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

/// On the configured cadence, apply one GDPR forget-request (§4): pick a
/// deterministic user id, delete it from `users` (rotating the GUID), purge
/// every view derived from the retired version from the store and the
/// serving index. Returns the number of views purged.
pub(crate) fn apply_gdpr(
    cfg: &DriverConfig,
    engine: &mut QueryEngine,
    store: &dyn SharedViewStore,
    insights: &mut InsightsService,
    seed: u64,
    day: SimDay,
    robustness: &mut RobustnessStats,
) -> Result<u64> {
    let due = cfg
        .gdpr_every_days
        .is_some_and(|every| day.index() > 0 && day.index().is_multiple_of(every));
    let Some(id) = engine.catalog.id_of("users").filter(|_| due) else {
        return Ok(0);
    };
    let victim = data_rng(seed, "gdpr", day).range_i64(0, 40);
    let outcome = engine.catalog.gdpr_forget(id, "u_id", &Value::Int(victim), day.start())?;
    let stale = store.sigs_with_input(outcome.old_guid);
    let purged =
        with_crash_retry(store, robustness, |s| s.purge_input(outcome.old_guid, day.start()))?;
    insights.purge_sigs(&stale);
    Ok(purged as u64)
}

/// The seal rule (the job-manager step, paper §2.3): hand the view to the
/// store and report whether it is there afterwards. An injected write fault
/// is absorbed — the half-materialized view is discarded, the job itself
/// already succeeded — and a signature the store refuses (quarantined)
/// simply did not land; any other error is the store failing and
/// propagates. Callers count and announce a view only on `Ok(true)`.
pub(crate) fn seal_view(
    store: &dyn SharedViewStore,
    pv: &PendingView,
    job: JobId,
    vc: VcId,
    now: SimTime,
) -> Result<bool> {
    match store.insert(pv.materialize(job, vc, now)) {
        Ok(()) => Ok(store.contains(pv.sig)),
        Err(e) if e.is_fault() => Ok(false),
        Err(e) => Err(e),
    }
}

/// The record that announces a sealed view to the insights service. `plan`
/// is the view's defining (normalized, view-free) logical plan, captured at
/// build time so the view can be served for semantic matching by template,
/// not just by exact signature.
pub(crate) fn view_info(
    cfg: &DriverConfig,
    pv: &PendingView,
    vc: VcId,
    sealed_at: SimTime,
    plan: Option<Arc<LogicalPlan>>,
) -> ViewInfo {
    ViewInfo {
        strict: pv.sig,
        recurring: pv.recurring_sig,
        rows: pv.data.num_rows() as u64,
        bytes: pv.data.byte_size(),
        sealed_at,
        expires: sealed_at + cfg.view_ttl,
        vc,
        template: plan.as_ref().and_then(|p| template_signature(p, &cfg.optimizer.sig)),
        plan,
    }
}

/// Cooking jobs publish their result as a shared dataset. With `diff` the
/// update is recorded as a delta against the previous version, so views
/// over cooked outputs keep an intact change chain.
pub(crate) fn publish_output(
    catalog: &mut DatasetCatalog,
    output: &str,
    table: &Table,
    at: SimTime,
    diff: bool,
) -> Result<()> {
    match catalog.id_of(output) {
        Some(id) if diff => catalog.bulk_update_diff(id, table.clone(), at).map(drop),
        Some(id) => catalog.bulk_update(id, table.clone(), at).map(drop),
        None => catalog.register(output, table.clone(), at).map(drop),
    }
}

/// Book the read-side faults one execution absorbed. Any such fault
/// quarantines the signature in the store and the serving index for the
/// rest of the run: the engine recomputes instead of retrying a bad
/// artifact.
pub(crate) fn absorb_read_faults(
    metrics: &ExecMetrics,
    store: &dyn SharedViewStore,
    insights: &mut InsightsService,
    robustness: &mut RobustnessStats,
) -> Result<()> {
    for sig in &metrics.quarantined_sigs {
        with_crash_retry(store, robustness, |s| s.quarantine(*sig))?;
        insights.quarantine(*sig);
    }
    robustness.fallbacks_recompute += metrics.fallbacks_recompute;
    robustness.view_read_failures += metrics.view_read_failures;
    robustness.view_corruptions += metrics.view_corruptions;
    robustness.view_expiry_races += metrics.view_expiry_races;
    Ok(())
}

/// Workload analysis over the trailing repository window, then view
/// selection, published to the insights service — the feedback loop.
/// Returns how many views were selected.
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
        let (_, per_vc) =
            select_per_vc(selector.as_ref(), &problem, &HashMap::default(), &constraints);
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

/// The ledger of a drained simulator: one record per job, cluster result
/// joined to the data plane the driver observed, retries and preemptions
/// rolled into `robustness`.
pub(crate) fn assemble_ledger(
    sim: &ClusterSim,
    data_plane: &mut HashMap<JobId, DataPlane>,
    robustness: &mut RobustnessStats,
) -> MetricsLedger {
    let mut ledger = MetricsLedger::new();
    for result in sim.results() {
        robustness.stage_retries += result.stage_retries as u64;
        robustness.preemptions += result.preemptions as u64;
        robustness.backoff_seconds += result.backoff_seconds;
        robustness.job_restarts += result.restarts as u64;
        let data = data_plane.remove(&result.job).unwrap_or_default();
        ledger.add(JobRecord { result: result.clone(), data });
    }
    ledger
}

/// The store's end-of-run counters, with the fault-layer share of them
/// rolled into `robustness`. I/O counters are `None` for a memory store.
pub(crate) fn store_tail(
    store: &dyn SharedViewStore,
    robustness: &mut RobustnessStats,
) -> (ViewStoreStats, Option<StoreIoStats>) {
    let stats = store.stats();
    robustness.view_write_failures = stats.write_failures;
    robustness.views_quarantined = stats.views_quarantined;
    let io = store.io_stats();
    if let Some(io) = &io {
        robustness.store_recoveries += io.recoveries;
        robustness.wal_records_replayed += io.wal_records_replayed;
        robustness.wal_records_skipped += io.wal_records_skipped;
    }
    (stats, io)
}

/// The `store` block of a run report (`null` for a memory store).
pub(crate) fn store_io_json(io: &Option<StoreIoStats>) -> Json {
    let Some(io) = io else { return Json::Null };
    json!({
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
    })
}

/// Test builds can hold every compiled instance to its from-scratch
/// compile (`tests::check_exact`); other builds compile this away.
#[cfg(not(test))]
#[inline]
fn check_exact(_: &SignedPlan, _: &JobTemplate, _: &QueryEngine, _: SimDay) -> Result<()> {
    Ok(())
}

#[cfg(test)]
use tests::check_exact;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// `Some(n)` while [`counting_exact_checks`] runs: `n` instances
        /// checked so far on this thread.
        static EXACT: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Run `f` with every instance [`Skeletons::compile`] returns on this
    /// thread held equal to its from-scratch compile; returns `f`'s result
    /// and how many instances were checked.
    pub(crate) fn counting_exact_checks<T>(f: impl FnOnce() -> T) -> (T, u64) {
        EXACT.set(Some(0));
        let out = f();
        (out, EXACT.take().unwrap_or(0))
    }

    pub(crate) fn check_exact(
        signed: &SignedPlan,
        template: &JobTemplate,
        engine: &QueryEngine,
        day: SimDay,
    ) -> Result<()> {
        let Some(n) = EXACT.get() else { return Ok(()) };
        let scratch = engine.sign(&template.build_plan(engine, day)?)?;
        assert_same_signed(signed, &scratch, template.id);
        EXACT.set(Some(n + 1));
        Ok(())
    }

    /// The plan, every subexpression and every memo entry (by post-order
    /// position) of `got` equal `want`'s.
    pub(crate) fn assert_same_signed(
        got: &SignedPlan,
        want: &SignedPlan,
        what: impl std::fmt::Debug,
    ) {
        assert_eq!(got.plan, want.plan, "{what:?}: plan");
        assert_eq!(got.subexprs, want.subexprs, "{what:?}: subexpressions");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        post_order(&got.plan, &mut a);
        post_order(&want.plan, &mut b);
        assert_eq!(a.len(), b.len(), "{what:?}: node count");
        let position = |s: &SignedPlan, node: &Arc<LogicalPlan>| {
            s.subexpr(node).and_then(|e| s.subexprs.iter().position(|x| std::ptr::eq(x, e)))
        };
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(position(got, x), position(want, y), "{what:?}: memo entry of node {i}");
        }
    }

    fn post_order<'p>(plan: &'p Arc<LogicalPlan>, out: &mut Vec<&'p Arc<LogicalPlan>>) {
        for c in plan.children() {
            post_order(c, out);
        }
        out.push(plan);
    }
}
