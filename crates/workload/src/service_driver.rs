//! Concurrent (service-mode) workload driver.
//!
//! The sequential [`crate::driver`] replays one job at a time; this driver
//! replays the same workload the way the paper's production service runs it
//! (§2.1): many jobs from many virtual clusters execute *concurrently*
//! against shared reuse state — a sharded view store, a mutex-guarded
//! insights service, and the single-flight materialization registry that
//! turns Fig. 9's concurrent-duplicate opportunity into realized savings.
//!
//! # The three-phase wave protocol
//!
//! One `ServiceRun` owns the run's state and accumulates its outcome in
//! place. Each day's due jobs are split into waves (dataset producers
//! before their consumers) and every wave (`run_wave`) runs three phases,
//! one function each — `compile_job`, `execute_job`, `commit_job`:
//!
//! 1. **Compile (sequential, job order)** — annotate, rewrite the reuse
//!    context against the single-flight registry (an in-flight build of a
//!    wanted signature becomes a *promised* view plus a scheduling
//!    dependency on its builder; a flight already published becomes
//!    ordinary reuse), optimize under the insights creation locks, claim
//!    flights for the views this job will build.
//! 2. **Execute (parallel)** — the work-stealing pool runs every compiled
//!    plan; dependency gating holds consumers until their builders finish,
//!    so pipelined reads hit a sealed view, never a blocked wait (the
//!    single-flight `wait` remains as safety net). Builders seal into the
//!    shared store immediately and resolve their flights.
//! 3. **Commit (sequential, job order)** — log to the repository, digest
//!    results, propagate quarantines, attribute realized pipelining
//!    savings, publish cooking outputs to the catalog.
//!
//! Because every phase that touches shared metadata is sequential in job
//! order and execution itself is deterministic per plan, the per-job result
//! digests are byte-identical for any worker count and any seed — and with
//! one worker the realized schedule *is* the submission order.
//!
//! Cluster-side accounting (latency, containers, retries) is replayed at
//! the end through [`merge_completions`], which sorts job specs by
//! `(submit, job)` before feeding the simulator — concurrent completion
//! order can never leak into the metrics (the monotonic-submission fix).

use crate::driver::{DriverConfig, IvmMode};
use crate::generator::Workload;
use crate::service_obs::{job_track, ObsHandle, ServiceObs};
use crate::steps::{
    absorb_read_faults, apply_gdpr, assemble_ledger, digest_table, due_jobs, ingest_raw,
    next_job_meta, open_store, publish_output, run_analysis, seal_view, set_up, store_io_json,
    store_tail, use_cloudviews, view_info, Skeletons,
};
use crate::templates::JobTemplate;
use cv_cluster::metrics::{DataPlane, MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim, JobSpec};
use cv_cluster::stage::build_stages;
use cv_common::hash::Sig128;
use cv_common::ids::JobId;
use cv_common::json::{Json, ToJson};
use cv_common::{json, CvError, FaultPlan, HashMap, HashSet, Result, SimDay, SimTime};
use cv_core::insights::{InsightsService, UsageEvent, ViewInfo};
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_core::SharedInsights;
use cv_data::store_api::SharedViewStore;
use cv_data::viewstore::ViewStoreStats;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{ExecOutcome, PendingView};
use cv_engine::optimizer::{AlwaysGrant, ReuseContext, SemanticGrant, ViewMeta};
use cv_engine::physical::PhysicalPlan;
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::SubexprInfo;
use cv_obs::SpanGuard;
use cv_service::{
    run_tasks, FlightOutcome, PipelinedViewSource, PoolConfig, PromisedView, ServiceStats,
    SingleFlight, TaskSpec,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Service-layer knobs on top of [`DriverConfig`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the execution pool.
    pub workers: usize,
    /// Lock stripes in the shared view store.
    pub store_shards: usize,
    /// Open-loop pacing: wall-clock microseconds of release gap per
    /// sim-hour between consecutive submissions. 0 = closed loop (release
    /// everything immediately, the pool's admission control is the only
    /// throttle).
    pub pacing_us_per_sim_hour: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            store_shards: cv_data::sharded::DEFAULT_SHARDS,
            pacing_us_per_sim_hour: 0,
        }
    }
}

/// Service-side counters for one run.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    pub workers: usize,
    pub shards: usize,
    /// Jobs whose execution read at least one view built by a concurrent
    /// job in the same epoch.
    pub pipelined_jobs: u64,
    pub pipelined_reads: u64,
    pub flight_waits: u64,
    pub duplicate_materializations: u64,
    /// Work units of recomputation avoided by pipelining — compare against
    /// `pipelining_savings_bound` (the Fig. 9 opportunity).
    pub realized_pipelining_savings: f64,
    pub steals: u64,
    pub admission_deferrals: u64,
    pub max_inflight: usize,
    /// Peak total parked tasks across all per-VC deferred queues.
    pub max_queue_depth: usize,
    /// Wall-clock seconds spent inside the execution pool, measured from
    /// the same ready-barrier epoch as `parallel_wall_seconds` through
    /// worker teardown. This is *not* the speedup denominator —
    /// `parallel_wall_seconds` is.
    pub exec_wall_seconds: f64,
    /// Wall-clock seconds of the parallel phase proper, summed over waves:
    /// batch epoch (all workers up and parked) → last task completion.
    pub parallel_wall_seconds: f64,
    /// Wall-clock seconds of the sequential compile phase (phase A).
    pub compile_wall_seconds: f64,
    /// Wall-clock seconds of the sequential commit phase (phase C).
    pub commit_wall_seconds: f64,
    /// Pool overhead: `exec_wall − parallel_wall`, i.e. worker teardown
    /// after the last task. Both terms share the ready-barrier epoch, so
    /// this is the pool's true residue and stays below the parallel phase
    /// itself (the old caller-clock measure also counted thread spawn
    /// before the barrier and could exceed the parallel wall).
    pub pool_overhead_seconds: f64,
    /// Per-worker seconds spent inside task closures, summed over waves.
    pub worker_busy_seconds: Vec<f64>,
    /// Per-job wall latency (release → completion) in milliseconds, sorted
    /// by job id.
    pub latencies_ms: Vec<(JobId, f64)>,
    /// Always zero; see [`OpStateReport`].
    pub op_state: OpStateReport,
}

/// What is left of the removed operator-state cache: the three values the
/// benchmark harness (`perf/src/service.rs`) still reads, always zero
/// because every pipeline breaker builds its own state. It goes once the
/// harness stops reading it.
#[derive(Clone, Debug, Default)]
pub struct OpStateReport {
    pub hits: u64,
    pub build_wall_avoided: f64,
}

impl OpStateReport {
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}

impl ServiceReport {
    pub fn to_json(&self) -> Json {
        let idle: Vec<f64> = self
            .worker_busy_seconds
            .iter()
            .map(|b| (self.parallel_wall_seconds - b).max(0.0))
            .collect();
        json!({
            "workers": self.workers,
            "shards": self.shards,
            "pipelined_jobs": self.pipelined_jobs,
            "pipelined_reads": self.pipelined_reads,
            "flight_waits": self.flight_waits,
            "duplicate_materializations": self.duplicate_materializations,
            "realized_pipelining_savings": self.realized_pipelining_savings,
            "steals": self.steals,
            "admission_deferrals": self.admission_deferrals,
            "max_inflight": self.max_inflight,
            "max_queue_depth": self.max_queue_depth,
            "exec_wall_seconds": self.exec_wall_seconds,
            "phase_wall_seconds": json!({
                "compile": self.compile_wall_seconds,
                "execute_parallel": self.parallel_wall_seconds,
                "execute_pool": self.exec_wall_seconds,
                "commit": self.commit_wall_seconds,
                "pool_overhead": self.pool_overhead_seconds,
            }),
            "worker_busy_seconds": Json::Arr(
                self.worker_busy_seconds.iter().map(|b| Json::from(*b)).collect()
            ),
            "worker_idle_seconds": Json::Arr(idle.into_iter().map(Json::from).collect()),
        })
    }
}

/// Everything a service run produces: the sequential driver's outcome
/// fields plus the service counters.
#[derive(Debug, Default)]
pub struct ServiceOutcome {
    pub ledger: MetricsLedger,
    pub repo: SubexpressionRepo,
    pub usage: Vec<UsageEvent>,
    pub view_store_stats: ViewStoreStats,
    pub result_digests: BTreeMap<JobId, Sig128>,
    pub failed_jobs: u64,
    /// Why each failed job failed, in job order (`failed_jobs` long).
    pub failures: Vec<(JobId, String)>,
    pub selection_history: Vec<(SimDay, usize)>,
    pub gdpr_purged_views: u64,
    pub robustness: RobustnessStats,
    pub service: ServiceReport,
    /// Durable-store IO counters (`None` when the run used the in-memory
    /// sharded store).
    pub store_io: Option<cv_data::store_api::StoreIoStats>,
}

impl ServiceOutcome {
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
            "service": self.service.to_json(),
            "store": store_io_json(&self.store_io),
        })
    }
}

/// One compiled job awaiting (or back from) pool execution.
struct CompiledTask<'a> {
    meta: JobMeta,
    use_cv: bool,
    /// The job's lifecycle span, opened at compile and closed at commit.
    job_span: SpanGuard<'a>,
    physical: PhysicalPlan,
    /// Signatures this plan consumes from a still-in-flight builder.
    promised: HashSet<Sig128>,
    /// The builders of `promised`: the pool holds this job until they finish.
    deps: Vec<JobId>,
    matched: Vec<Sig128>,
    /// Of `matched`, views served through a certified semantic
    /// (compensated) substitution.
    compensated: usize,
    built: Vec<Sig128>,
    /// Defining plans of the views this job builds, for semantic serving
    /// after the seal.
    built_plans: Vec<(Sig128, Arc<LogicalPlan>)>,
    subexprs: Vec<SubexprInfo>,
    output_dataset: Option<String>,
}

/// How one pending view's seal went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SealState {
    /// Sealed into the store; announce at the epoch boundary.
    Published,
    /// Dropped (write fault or quarantine race); release the creation lock.
    Dropped,
    /// The signature was already live — a duplicate materialization the
    /// single-flight layer exists to prevent.
    Duplicate,
}

/// What a pool task ships back to the commit phase.
struct TaskDone {
    exec: ExecOutcome,
    stages: cv_cluster::stage::StageGraph,
    served: Vec<Sig128>,
    /// How each of `exec.pending_views` sealed, in the same order.
    seals: Vec<SealState>,
    /// The store failing (not an injected fault) during a seal: fails the
    /// run at commit instead of passing for a dropped view.
    store_error: Option<CvError>,
}

/// A view claimed (or sealed) earlier today, advertised by template
/// signature for the widened semantic match. The day-end insights announce
/// is useless for same-day reuse — by the time it lands, the cooked
/// datasets have rotated — so the epoch index is what lets a later job's
/// containment prover see views built minutes earlier by a concurrent job.
struct EpochView {
    strict: Sig128,
    plan: Arc<LogicalPlan>,
    rows: u64,
    bytes: u64,
}

/// Run a workload through the concurrent service.
///
/// Determinism contract: for a fixed workload and [`DriverConfig`], the
/// per-job `result_digests` are identical for every `svc.workers` value —
/// and identical to the sequential [`crate::driver::run_workload`] digests
/// (reuse and scheduling never change results).
pub fn run_workload_service(
    workload: &Workload,
    cfg: &DriverConfig,
    svc: &ServiceConfig,
) -> Result<ServiceOutcome> {
    run_workload_service_obs(workload, cfg, svc, None)
}

/// [`run_workload_service`] with observability attached (the store is the one
/// `cfg.store` names, striped `svc.store_shards` ways): when `obs` is
/// `Some`, the run records spans (driver loop on track 0, each job's
/// lifecycle on track `job_id + 1`) and metrics into the given
/// [`ServiceObs`]. With `None` the instrumentation collapses to a handful
/// of branch tests — no clock reads, no allocation, no virtual calls.
pub fn run_workload_service_obs(
    workload: &Workload,
    cfg: &DriverConfig,
    svc: &ServiceConfig,
    obs: Option<&ServiceObs>,
) -> Result<ServiceOutcome> {
    let store = open_store(cfg, svc.store_shards)?;
    let outcome = run_workload_service_with_store(workload, cfg, svc, &*store, obs)?;
    store.checkpoint_now()?;
    Ok(outcome)
}

/// [`run_workload_service_obs`] against a caller-provided shared store —
/// the seam that lets the concurrent service run on the durable
/// (disk-backed) store. The caller owns the store's lifecycle: opening,
/// recovery, and final checkpoint.
///
/// Byte-budget crash injection (`FaultPlan::crash_after_bytes`) is rejected
/// here: a mid-write crash poisons the store while other workers hold
/// compiled plans against it, and the service has no coordinated
/// stop-the-world recovery. Crash sweeps run through the sequential driver.
/// So does incremental view maintenance: `cfg.ivm` must be `Off`.
pub fn run_workload_service_with_store(
    workload: &Workload,
    cfg: &DriverConfig,
    svc: &ServiceConfig,
    store: &dyn SharedViewStore,
    obs: Option<&ServiceObs>,
) -> Result<ServiceOutcome> {
    if cfg.faults.crash_after_bytes.is_some() {
        return Err(CvError::constraint(
            "crash_after_bytes is a sequential-driver fault: the concurrent service \
             cannot coordinate recovery across in-flight workers",
        ));
    }
    if cfg.ivm != IvmMode::Off {
        return Err(CvError::constraint(
            "ivm is a sequential-driver mode: the concurrent service neither ingests \
             deltas nor maintains views",
        ));
    }
    let mut run = ServiceRun::new(cfg, svc, store, ObsHandle(obs));
    for day_idx in 0..cfg.days {
        run.run_day(workload, SimDay(day_idx))?;
    }
    run.finish()
}

/// The state of one service run: what every phase reads and writes, and the
/// outcome accumulated in place. A day is [`ServiceRun::run_day`]; a wave
/// of it is the three phases of DESIGN.md §9, one function each —
/// [`ServiceRun::compile_job`], [`ServiceRun::execute_job`],
/// [`ServiceRun::commit_job`].
struct ServiceRun<'a> {
    cfg: &'a DriverConfig,
    svc: &'a ServiceConfig,
    store: &'a dyn SharedViewStore,
    obs: ObsHandle<'a>,
    /// Jobs already run one-per-pool-worker; chunking streams inside each
    /// job serially (a nested pool per operator would oversubscribe cores).
    engine: QueryEngine,
    insights: SharedInsights,
    flights: SingleFlight,
    stats: ServiceStats,
    next_job: u64,
    data_plane: HashMap<JobId, DataPlane>,
    specs_for_sim: Vec<JobSpec>,
    /// Views sealed today, queued for the day-end insights announce.
    day_seals: Vec<(ViewInfo, JobId)>,
    /// Template → views built earlier today, for the semantic cascade.
    epoch_views: HashMap<Sig128, Vec<EpochView>>,
    /// Each template's normalized plan; a job is its rebound instance.
    skeletons: Skeletons,
    /// Filled as the run goes; `ledger`, `usage` and the store's counters
    /// land in [`ServiceRun::finish`].
    out: ServiceOutcome,
}

impl<'a> ServiceRun<'a> {
    fn new(
        cfg: &'a DriverConfig,
        svc: &'a ServiceConfig,
        store: &'a dyn SharedViewStore,
        obs: ObsHandle<'a>,
    ) -> ServiceRun<'a> {
        let mut engine = set_up(cfg, store);
        engine.optimizer.obs = obs.optimizer_sink();
        let service =
            ServiceReport { workers: svc.workers, shards: store.n_shards(), ..Default::default() };
        ServiceRun {
            cfg,
            svc,
            store,
            obs,
            engine,
            insights: SharedInsights::new(InsightsService::new(cfg.controls.clone())),
            flights: SingleFlight::new(),
            stats: ServiceStats::default(),
            next_job: 0,
            data_plane: HashMap::default(),
            specs_for_sim: Vec::new(),
            day_seals: Vec::new(),
            epoch_views: HashMap::default(),
            skeletons: Skeletons::default(),
            out: ServiceOutcome { service, ..ServiceOutcome::default() },
        }
    }

    fn run_day(&mut self, workload: &Workload, day: SimDay) -> Result<()> {
        let (cfg, store) = (self.cfg, self.store);
        let day_start = day.start();
        let day_span = self.obs.span(0, "day");

        // Hygiene once per day (the sequential driver evicts before every
        // job; reads re-check expiry themselves, so only eviction-counter
        // timing differs — see DESIGN.md §9).
        store.evict_expired(day_start)?;
        self.insights.lock().expire(day_start);

        // 1. Ingestion (same rng, same tables, same GUID rotations as the
        // sequential driver), then the optional GDPR forget-request.
        let span = self.obs.span(0, "ingest");
        let regenerated = ingest_raw(&mut self.engine.catalog, workload, day, false)?;
        span.close(&[("datasets", regenerated)]);
        self.out.gdpr_purged_views += apply_gdpr(
            cfg,
            &mut self.engine,
            store,
            &mut self.insights.lock(),
            workload.config.seed,
            day,
            &mut self.out.robustness,
        )?;

        // 2. Due jobs, in the order that lines job ids up across drivers.
        let due = due_jobs(workload, day);

        // Wave split: dataset producers run (and publish to the catalog)
        // before any consumer compiles. The generator schedules cooking
        // well before analytics; verify that holds so the split never
        // reorders jobs relative to the sequential driver.
        let first_consumer =
            due.iter().position(|t| t.output_dataset().is_none()).unwrap_or(due.len());
        if due[first_consumer..].iter().any(|t| t.output_dataset().is_some()) {
            return Err(CvError::constraint(
                "wave partition would reorder jobs: a dataset producer submits after a consumer",
            ));
        }
        self.epoch_views.clear();
        let (wave0, wave1) = due.split_at(first_consumer);
        for wave in [wave0, wave1] {
            if !wave.is_empty() {
                self.run_wave(wave, day)?;
            }
        }

        // Day end: announce the views sealed this day to the insights
        // service, in job order (the sequential driver announces at the
        // simulator's seal events; the digest contract is unaffected, only
        // the announce instant differs — DESIGN.md §9).
        let span = self.obs.span(0, "announce");
        let n_seals = self.day_seals.len() as u64;
        {
            let mut ins = self.insights.lock();
            for (info, job) in self.day_seals.drain(..) {
                ins.report_sealed(info, job);
            }
        }
        self.flights.clear();
        span.close(&[("seals", n_seals)]);

        // 3. Workload analysis + selection publish.
        if let Some(knobs) = &cfg.cloudviews {
            if (day.index() + 1).is_multiple_of(knobs.analysis_every_days) {
                let span = self.obs.span(0, "analysis");
                let mut ins = self.insights.lock();
                let n = run_analysis(&self.out.repo, &mut ins, knobs, day, &cfg.cluster);
                self.out.selection_history.push((day, n));
                span.close(&[("selected", n as u64)]);
            }
        }
        day_span.close(&[("day", u64::from(day.index()))]);
        Ok(())
    }

    /// One wave of a day: compile every job sequentially in job order, run
    /// the compiled plans on the pool, commit sequentially in job order.
    fn run_wave(&mut self, wave: &[&JobTemplate], day: SimDay) -> Result<()> {
        let started = Instant::now();
        let span = self.obs.span(0, "compile");
        let mut compiled: Vec<CompiledTask<'a>> = Vec::new();
        for template in wave {
            let meta = next_job_meta(template, day, &mut self.next_job);
            match self.compile_job(template, day, meta) {
                Ok(task) => compiled.push(task),
                Err(e) => self.fail_job(meta.job, e),
            }
        }
        span.close(&[("jobs", wave.len() as u64), ("compiled", compiled.len() as u64)]);
        self.out.service.compile_wall_seconds += started.elapsed().as_secs_f64();

        let mut results = self.execute_wave(&compiled);

        let started = Instant::now();
        let span = self.obs.span(0, "commit");
        let n_jobs = compiled.len() as u64;
        for task in compiled {
            let done = results.remove(&task.meta.job);
            self.commit_job(task, done)?;
        }
        span.close(&[("jobs", n_jobs)]);
        self.out.service.commit_wall_seconds += started.elapsed().as_secs_f64();
        Ok(())
    }

    fn fail_job(&mut self, job: JobId, why: impl std::fmt::Display) {
        self.out.failed_jobs += 1;
        self.out.failures.push((job, why.to_string()));
    }

    /// Phase A for one job, on the driver thread: annotate, reconcile the
    /// wanted builds against the flight registry, widen with the epoch's
    /// semantic grants, optimize under the insights creation locks, claim
    /// flights for the views this job will build. An `Err` drops the open
    /// spans, which closes each with `failed: 1`.
    fn compile_job(
        &mut self,
        template: &JobTemplate,
        day: SimDay,
        meta: JobMeta,
    ) -> Result<CompiledTask<'a>> {
        let (job, submit) = (meta.job, meta.submit);
        let track = job_track(job);
        let job_span = self.obs.span(track, "job");
        let span = self.obs.compile_span(track);
        let use_cv = use_cloudviews(self.cfg, submit, &mut self.out.robustness);

        let normalize = self.obs.span(track, "normalize");
        let signed = self.skeletons.compile(template, &self.engine, day);
        normalize.close(&[("subexprs", signed.as_ref().map_or(0, |s| s.subexprs.len() as u64))]);
        let signed = signed?;

        let mut reuse = ReuseContext::empty();
        let mut promised: HashSet<Sig128> = HashSet::default();
        let mut deps: Vec<JobId> = Vec::new();
        if use_cv {
            reuse = self.insights.lock().annotate(meta.vc, job, &signed.subexprs, submit).0;
            self.reconcile_flights(&mut reuse, submit, &mut promised, &mut deps);
            self.grant_epoch_views(&mut reuse, &signed.subexprs);
        }

        let optimize = self.obs.span(track, "optimize");
        let outcome = if use_cv {
            let mut coord = self.insights.clone();
            self.engine.optimize_signed(&signed, &reuse, &mut coord)
        } else {
            self.engine.optimize_signed(&signed, &reuse, &mut AlwaysGrant)
        }?;
        let (matched, built) =
            (outcome.matched_views.len() as u64, outcome.built_views.len() as u64);
        optimize.close(&[("matched", matched), ("built", built)]);

        for sig in &outcome.built_views {
            let promise = spool_promise(&outcome.physical, *sig);
            if !self.flights.claim(*sig, job, promise) {
                continue;
            }
            // Advertise the claim by template so later jobs today can reach
            // it through the containment prover. A captured plan is
            // view-free, so matching and building left it a node of the
            // signed plan, whose template the memo holds.
            let Some((_, plan)) = outcome.built_plans.iter().find(|(s, _)| s == sig) else {
                continue;
            };
            if let Some(sub) = signed.subexpr(plan) {
                self.epoch_views.entry(sub.template).or_default().push(EpochView {
                    strict: *sig,
                    plan: plan.clone(),
                    rows: promise.rows,
                    bytes: promise.bytes,
                });
            }
        }

        // Compensated substitutions against a still-in-flight builder
        // pipeline exactly like exact promised reads: record the dependency
        // so the scheduler gates execution, and the sig so the view source
        // blocks (and falls back) correctly.
        for (view_sig, _) in &outcome.compensated_views {
            if let Some((builder, _)) = self.flights.promise(*view_sig) {
                if builder != job {
                    promised.insert(*view_sig);
                    if !deps.contains(&builder) {
                        deps.push(builder);
                    }
                }
            }
        }

        span.close(&[
            ("matched", matched),
            ("built", built),
            ("promised", promised.len() as u64),
            ("deps", deps.len() as u64),
        ]);
        Ok(CompiledTask {
            meta,
            use_cv,
            job_span,
            physical: outcome.physical,
            promised,
            deps,
            matched: outcome.matched_views,
            compensated: outcome.compensated_views.len(),
            built: outcome.built_views,
            built_plans: outcome.built_plans,
            subexprs: signed.subexprs,
            output_dataset: template.output_dataset().map(str::to_string),
        })
    }

    /// Flight-state rewrite: reconcile the builds the annotation wants
    /// against the in-flight registry before optimizing.
    fn reconcile_flights(
        &self,
        reuse: &mut ReuseContext,
        submit: SimTime,
        promised: &mut HashSet<Sig128>,
        deps: &mut Vec<JobId>,
    ) {
        let mut wanted: Vec<Sig128> = reuse.to_build.iter().copied().collect();
        wanted.sort();
        for sig in wanted {
            if let Some((builder, pv)) = self.flights.promise(sig) {
                // A concurrent job is building it: plan against the
                // promised statistics and pipeline from the builder.
                reuse.to_build.remove(&sig);
                reuse.available.insert(sig, ViewMeta::hot(pv.rows, pv.bytes));
                promised.insert(sig);
                if !deps.contains(&builder) {
                    deps.push(builder);
                }
            } else if let Some(FlightOutcome::Published) = self.flights.outcome(sig) {
                // Built earlier this epoch (e.g. by wave 0): ordinary reuse
                // with the sealed statistics. (A `Failed` build released
                // its creation lock at commit; the signature stays in
                // `to_build` so this job may rebuild it.)
                if let Some((rows, bytes, _)) = self.store.peek_meta(sig, submit) {
                    reuse.to_build.remove(&sig);
                    reuse.available.insert(sig, ViewMeta::hot(rows, bytes));
                }
            }
        }
    }

    /// Widened (semantic) serving within the epoch: views claimed or sealed
    /// earlier today whose *template* matches one of this job's
    /// subexpressions become semantic grants. The containment prover — not
    /// this index — decides admissibility; unproven grants cost nothing.
    fn grant_epoch_views(&self, reuse: &mut ReuseContext, subexprs: &[SubexprInfo]) {
        for sub in subexprs {
            if reuse.available.contains_key(&sub.strict) {
                continue;
            }
            let Some(views) = self.epoch_views.get(&sub.template) else { continue };
            for v in views {
                if v.strict == sub.strict || reuse.available.contains_key(&v.strict) {
                    continue;
                }
                reuse.semantic.entry(v.strict).or_insert_with(|| SemanticGrant {
                    plan: v.plan.clone(),
                    meta: ViewMeta::hot(v.rows, v.bytes),
                    template: sub.template,
                });
            }
        }
    }

    /// Phase B for a wave: every compiled job through [`Self::execute_job`]
    /// on the work-stealing pool, gated on its builders. Returns what each
    /// job shipped back, and books the pool's own counters.
    fn execute_wave(&mut self, compiled: &[CompiledTask<'a>]) -> HashMap<JobId, Result<TaskDone>> {
        let pool_cfg = PoolConfig { workers: self.svc.workers, ..PoolConfig::default() };
        // Open-loop release gaps scaled from sim-time submission deltas
        // (all zero in a closed loop).
        let pacing = self.svc.pacing_us_per_sim_hour as f64;
        let mut gaps = Vec::with_capacity(compiled.len());
        let mut prev: Option<f64> = None;
        for t in compiled {
            let s = t.meta.submit.seconds();
            let hours = prev.map_or(0.0, |p| (s - p).max(0.0) / 3600.0);
            gaps.push(Duration::from_micros((hours * pacing) as u64));
            prev = Some(s);
        }

        let (tx, rx) = mpsc::channel::<(JobId, Result<TaskDone>)>();
        let run: &ServiceRun<'a> = self;
        let tasks: Vec<TaskSpec<'_>> = compiled
            .iter()
            .map(|task| {
                let tx = tx.clone();
                TaskSpec {
                    job: task.meta.job,
                    vc: task.meta.vc,
                    deps: task.deps.clone(),
                    run: Box::new(move || {
                        let _ = tx.send((task.meta.job, run.execute_job(task)));
                    }),
                }
            })
            .collect();
        drop(tx);

        let span = self.obs.span(0, "execute");
        // Pool wall comes from the report's ready-barrier epoch, not a
        // caller clock around `run_tasks`: the caller's clock also counts
        // thread spawn and OS scheduling noise *before* the barrier, which
        // once made "overhead" (exec − parallel) exceed the parallel phase
        // itself.
        let report = run_tasks(&pool_cfg, tasks, &gaps);
        span.close(&[("tasks", compiled.len() as u64)]);

        let svc = &mut self.out.service;
        svc.steals += report.steals;
        svc.admission_deferrals += report.admission_deferrals;
        svc.max_inflight = svc.max_inflight.max(report.max_inflight);
        svc.max_queue_depth = svc.max_queue_depth.max(report.max_queue_depth);
        svc.exec_wall_seconds += report.total_wall.as_secs_f64();
        svc.parallel_wall_seconds += report.parallel_wall.as_secs_f64();
        if svc.worker_busy_seconds.len() < report.worker_busy.len() {
            svc.worker_busy_seconds.resize(report.worker_busy.len(), 0.0);
        }
        for (acc, d) in svc.worker_busy_seconds.iter_mut().zip(&report.worker_busy) {
            *acc += d.as_secs_f64();
        }
        svc.latencies_ms
            .extend(report.latencies.iter().map(|(job, d)| (*job, d.as_secs_f64() * 1000.0)));
        rx.try_iter().collect()
    }

    /// Phase B for one job, on a pool worker: run the plan against the
    /// pipelining view source, seal what it built into the shared store,
    /// resolve every flight it claimed, derive its stage graph.
    fn execute_job(&self, task: &CompiledTask<'_>) -> Result<TaskDone> {
        let (job, vc, submit) = (task.meta.job, task.meta.vc, task.meta.submit);
        let (store, flights, stats) = (self.store, &self.flights, &self.stats);
        let span = self.obs.span(job_track(job), "execute");
        let sink = self.obs.exec_sink(job_track(job));
        let src = PipelinedViewSource::new(store, flights, stats, task.promised.clone());
        let res = self.engine.execute_with_obs(&task.physical, &src, submit, sink.as_deref());
        let served = src.into_served();
        let done = res.and_then(|exec| {
            let mut seals = Vec::new();
            let mut store_error = None;
            let mut resolved: HashSet<Sig128> = HashSet::default();
            for pv in &exec.pending_views {
                let state = seal_pending(store, stats, pv, job, vc, submit).unwrap_or_else(|e| {
                    store_error.get_or_insert(e);
                    SealState::Dropped
                });
                let outcome = match state {
                    SealState::Published | SealState::Duplicate => FlightOutcome::Published,
                    SealState::Dropped => FlightOutcome::Failed,
                };
                flights.resolve(pv.sig, outcome);
                resolved.insert(pv.sig);
                seals.push(state);
            }
            for sig in task.built.iter().filter(|sig| !resolved.contains(sig)) {
                flights.resolve(*sig, FlightOutcome::Failed);
            }
            let stages = build_stages(&task.physical, &exec.metrics.op_profiles)?;
            stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
            Ok(TaskDone { exec, stages, served, seals, store_error })
        });
        match &done {
            Ok(d) => span.close(&[
                ("rows", d.exec.table.num_rows() as u64),
                ("served", d.served.len() as u64),
                ("seals", d.seals.len() as u64),
            ]),
            // Exec (or stage-build) failure: every claimed flight must
            // resolve so pipelined consumers fall back.
            Err(_) => {
                for sig in &task.built {
                    flights.resolve(*sig, FlightOutcome::Failed);
                }
            }
        }
        done
    }

    /// Phase C for one job, on the driver thread, in job order: log to the
    /// repository, digest the result, propagate quarantines, attribute
    /// realized pipelining savings, publish a cooking output to the
    /// catalog, queue the day-end announces. A job that did not come back
    /// releases its creation locks and is counted failed; the store failing
    /// fails the run.
    fn commit_job(&mut self, task: CompiledTask<'a>, done: Option<Result<TaskDone>>) -> Result<()> {
        let (job, submit) = (task.meta.job, task.meta.submit);
        let span = self.obs.span(job_track(job), "commit");
        let mut done = match done {
            Some(Ok(done)) => done,
            failed => {
                let ins = self.insights.lock();
                for sig in &task.built {
                    ins.release_lock(*sig);
                }
                drop(ins);
                match failed {
                    Some(Err(e)) => self.fail_job(job, e),
                    _ => self.fail_job(job, "the pool returned no result"),
                }
                return Ok(());
            }
        };
        if let Some(e) = done.store_error.take() {
            return Err(e);
        }
        let metrics = &done.exec.metrics;
        self.out.repo.log_job(task.meta, &task.subexprs, Some(&metrics.op_profiles));
        self.out.result_digests.insert(job, digest_table(&done.exec.table));

        absorb_read_faults(
            metrics,
            self.store,
            &mut self.insights.lock(),
            &mut self.out.robustness,
        )?;

        let dp =
            DataPlane::from_exec(metrics, task.matched.len(), task.compensated, task.built.len());
        self.data_plane.insert(job, dp);

        if task.use_cv && !task.matched.is_empty() {
            self.insights.lock().record_reuse(&task.matched, job, submit);
        }

        // Realized pipelining savings: each read served from a view a
        // concurrent job built avoided recomputing that subexpression (the
        // view's observed production work).
        if !done.served.is_empty() {
            self.out.service.pipelined_jobs += 1;
            for sig in &done.served {
                if let Some(work) = self.store.observed_work(*sig) {
                    self.stats.add_realized_savings(work);
                }
            }
        }

        if let Some(output) = &task.output_dataset {
            publish_output(&mut self.engine.catalog, output, &done.exec.table, submit, false)?;
        }

        for (pv, state) in done.exec.pending_views.iter().zip(&done.seals) {
            match state {
                SealState::Published => {
                    let plan = task
                        .built_plans
                        .iter()
                        .find(|(sig, _)| *sig == pv.sig)
                        .map(|(_, p)| p.clone());
                    let info = view_info(self.cfg, pv, task.meta.vc, submit, plan);
                    self.day_seals.push((info, job));
                }
                // Write fault / quarantine race / duplicate: the view was
                // never (newly) advertised — release the creation lock so a
                // later job can rebuild.
                SealState::Dropped | SealState::Duplicate => {
                    self.insights.lock().release_lock(pv.sig);
                }
            }
        }

        self.specs_for_sim.push(JobSpec {
            job,
            vc: task.meta.vc,
            template: task.meta.template,
            submit,
            stages: done.stages,
        });
        span.close(&[("seals", done.seals.len() as u64)]);
        task.job_span.close(&[]);
        Ok(())
    }

    /// End of run: replay the cluster side deterministically, read the
    /// store's and the service layer's counters, export the metrics.
    fn finish(mut self) -> Result<ServiceOutcome> {
        let mut out = self.out;
        out.ledger = merge_completions(
            self.specs_for_sim,
            &mut self.data_plane,
            &self.cfg.cluster,
            &self.cfg.faults,
            &mut out.robustness,
        )?;
        (out.view_store_stats, out.store_io) = store_tail(self.store, &mut out.robustness);
        out.usage = self.insights.lock().usage_log().to_vec();
        // Compile failures were booked a phase before execution failures.
        out.failures.sort_by_key(|(job, _)| *job);

        let snap = self.stats.snapshot();
        let fl = self.flights.stats();
        let svc = &mut out.service;
        svc.pipelined_reads = snap.pipelined_reads;
        svc.flight_waits = snap.flight_waits;
        svc.duplicate_materializations = snap.duplicate_materializations;
        svc.realized_pipelining_savings = snap.realized_savings;
        svc.pool_overhead_seconds = (svc.exec_wall_seconds - svc.parallel_wall_seconds).max(0.0);
        svc.latencies_ms.sort_by_key(|a| a.0);

        if let Some(o) = self.obs.0 {
            let (m, store_stats) = (&o.metrics, &out.view_store_stats);
            let us = |seconds: f64| (seconds * 1e6) as u64;
            m.add("flight.claims", fl.claims)?;
            m.add("flight.waits", fl.waits)?;
            m.add("flight.resolves", fl.resolves)?;
            m.add("store.views_created", store_stats.views_created)?;
            m.add("store.views_reused", store_stats.views_reused)?;
            m.add("store.read_misses", store_stats.read_misses)?;
            m.add("store.bytes_written", store_stats.bytes_written)?;
            m.add("store.bytes_served", store_stats.bytes_served)?;
            if let Some(io) = &out.store_io {
                m.add("store.page_cache_hits", io.page_cache_hits)?;
                m.add("store.page_cache_misses", io.page_cache_misses)?;
                m.add("store.pages_evicted", io.pages_evicted)?;
                m.add("store.wal_fsyncs", io.wal_fsyncs)?;
                m.add("store.wal_records_written", io.wal_records_written)?;
                m.add("store.wal_records_replayed", io.wal_records_replayed)?;
                m.add("store.recoveries", io.recoveries)?;
                m.add("store.checkpoints", io.checkpoints)?;
            }
            let svc = &out.service;
            m.add("service.pipelined_jobs", svc.pipelined_jobs)?;
            m.add("service.pipelined_reads", snap.pipelined_reads)?;
            m.add("service.flight_waits", snap.flight_waits)?;
            m.add("service.duplicate_materializations", snap.duplicate_materializations)?;
            m.set("pool.workers", svc.workers as u64)?;
            m.add("pool.steals", svc.steals)?;
            m.add("pool.admission_deferrals", svc.admission_deferrals)?;
            m.gauge("pool.max_inflight")?.set_max(svc.max_inflight as u64);
            m.gauge("pool.max_queue_depth")?.set_max(svc.max_queue_depth as u64);
            for (i, busy) in svc.worker_busy_seconds.iter().enumerate() {
                m.add(&format!("pool.worker{i}.busy_us"), us(*busy))?;
            }
            m.add("phase.compile_us", us(svc.compile_wall_seconds))?;
            m.add("phase.parallel_us", us(svc.parallel_wall_seconds))?;
            m.add("phase.commit_us", us(svc.commit_wall_seconds))?;
            m.add("phase.pool_us", us(svc.exec_wall_seconds))?;
        }
        Ok(out)
    }
}

/// Seal one pending view into the shared store, classifying the outcome.
fn seal_pending(
    store: &dyn SharedViewStore,
    stats: &ServiceStats,
    pv: &PendingView,
    job: JobId,
    vc: cv_common::ids::VcId,
    now: SimTime,
) -> Result<SealState> {
    if store.contains(pv.sig) {
        // Another materialization already landed — exactly what the
        // single-flight registry plus the insights creation locks prevent.
        stats.duplicate_materializations.fetch_add(1, Ordering::Relaxed);
        return Ok(SealState::Duplicate);
    }
    let landed = seal_view(store, pv, job, vc, now)?;
    Ok(if landed { SealState::Published } else { SealState::Dropped })
}

/// Promised statistics for a claimed build: the spool's own estimate.
fn spool_promise(plan: &PhysicalPlan, target: Sig128) -> PromisedView {
    if let PhysicalPlan::Spool { sig, est, .. } = plan {
        if *sig == target {
            return PromisedView {
                rows: est.rows.max(0.0) as u64,
                bytes: est.bytes.max(0.0) as u64,
            };
        }
    }
    for child in plan.children() {
        let p = spool_promise(child, target);
        if p.rows != 0 || p.bytes != 0 {
            return p;
        }
    }
    PromisedView::default()
}

/// Deterministically merge concurrently completed jobs into the cluster
/// simulator.
///
/// The simulator rejects submissions that move time backwards, and the
/// sequential driver relied on processing jobs in submission order to
/// satisfy that. Under concurrent execution, completion order is
/// schedule-dependent — so the merge sorts by `(submit, job)` first, making
/// the cluster-side metrics a pure function of the job set regardless of
/// which worker finished when.
pub fn merge_completions(
    mut specs: Vec<JobSpec>,
    data_plane: &mut HashMap<JobId, DataPlane>,
    cluster: &ClusterConfig,
    faults: &FaultPlan,
    robustness: &mut RobustnessStats,
) -> Result<MetricsLedger> {
    specs.sort_by(|a, b| a.submit.seconds().total_cmp(&b.submit.seconds()).then(a.job.cmp(&b.job)));
    let mut sim = ClusterSim::new(cluster.clone());
    sim.set_fault_plan(faults.clone());
    for spec in specs {
        // Advance to the submission instant, as the sequential driver does
        // between jobs. ViewSealed events are ignored: the service sealed
        // views at execution time.
        let _ = sim.run_until(spec.submit);
        sim.submit(spec)?;
    }
    let _ = sim.run_to_completion();
    Ok(assemble_ledger(&sim, data_plane, robustness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use crate::generator::{generate_workload, WorkloadConfig};
    use cv_cluster::stage::{Stage, StageGraph};
    use cv_common::ids::{TemplateId, VcId};

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

    fn spec(job: u64, submit_hours: f64, work: f64) -> JobSpec {
        let stages = StageGraph {
            stages: vec![Stage {
                id: 0,
                kind: "Extract".to_string(),
                work,
                partitions: 4,
                deps: vec![],
                seals_view: None,
                checkpointed: false,
            }],
        };
        JobSpec {
            job: JobId(job),
            vc: VcId(job % 2),
            template: TemplateId(job),
            submit: SimTime::EPOCH + cv_common::SimDuration::from_hours(submit_hours),
            stages,
        }
    }

    /// Satellite fix: the merge must produce identical cluster metrics no
    /// matter what order concurrent completions arrive in — and must not
    /// trip the simulator's monotonic-submission check.
    #[test]
    fn merge_is_completion_order_insensitive() {
        let in_order: Vec<JobSpec> = (0..6).map(|i| spec(i, i as f64, 50.0 + i as f64)).collect();
        let mut shuffled = in_order.clone();
        shuffled.reverse();
        shuffled.swap(1, 4);

        let cluster = quick_cluster();
        let run = |specs: Vec<JobSpec>| {
            let mut dp = HashMap::default();
            let mut rb = RobustnessStats::default();
            let ledger =
                merge_completions(specs, &mut dp, &cluster, &FaultPlan::none(), &mut rb).unwrap();
            (ledger, rb)
        };
        let (a, rb_a) = run(in_order);
        let (b, rb_b) = run(shuffled);

        assert_eq!(a.len(), 6);
        assert_eq!(a.totals(), b.totals());
        assert_eq!(rb_a.stage_retries, rb_b.stage_retries);
        let lat_a: Vec<f64> = a.records().iter().map(|r| r.result.finish.seconds()).collect();
        let lat_b: Vec<f64> = b.records().iter().map(|r| r.result.finish.seconds()).collect();
        assert_eq!(lat_a, lat_b, "per-job finish times must not depend on arrival order");
    }

    /// The determinism contract, cheap edition: a 1-worker service run
    /// produces exactly the sequential driver's per-job digests.
    #[test]
    fn one_worker_matches_sequential_digests() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let seq = run_workload(&w, &cfg).unwrap();
        let svc = ServiceConfig { workers: 1, ..ServiceConfig::default() };
        let out = run_workload_service(&w, &cfg, &svc).unwrap();
        assert_eq!(out.failed_jobs, 0);
        assert_eq!(out.result_digests, seq.result_digests);
        assert_eq!(out.service.duplicate_materializations, 0);
    }

    /// Multi-worker runs must agree with the 1-worker run bit-for-bit.
    #[test]
    fn worker_count_never_changes_results() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let one = run_workload_service(
            &w,
            &cfg,
            &ServiceConfig { workers: 1, ..ServiceConfig::default() },
        )
        .unwrap();
        let four = run_workload_service(
            &w,
            &cfg,
            &ServiceConfig { workers: 4, ..ServiceConfig::default() },
        )
        .unwrap();
        assert_eq!(one.result_digests, four.result_digests);
        assert_eq!(one.failed_jobs, 0);
        assert_eq!(four.failed_jobs, 0);
        assert_eq!(four.service.duplicate_materializations, 0);
        assert_eq!(one.ledger.totals(), four.ledger.totals());
    }

    /// The chunking contract end-to-end: the streaming granularity must
    /// never leak into results. Sequential runs at a tiny, the default, and
    /// an effectively-monolithic chunk size — and a concurrent run at the
    /// tiny size — all produce the same per-job digests.
    #[test]
    fn chunk_size_never_changes_results() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let baseline = run_workload(&w, &cfg).unwrap();

        for chunk_size in [7, usize::MAX] {
            let mut c = cfg.clone();
            c.chunk_size = chunk_size;
            let out = run_workload(&w, &c).unwrap();
            assert_eq!(
                out.result_digests, baseline.result_digests,
                "sequential digests diverged at chunk_size {chunk_size}"
            );
        }

        let mut c = cfg.clone();
        c.chunk_size = 7;
        let svc = run_workload_service(&w, &c, &ServiceConfig::default()).unwrap();
        assert_eq!(svc.failed_jobs, 0);
        assert_eq!(
            svc.result_digests, baseline.result_digests,
            "service digests diverged at chunk_size 7"
        );
    }

    /// The concurrent service on the disk-backed sharded store must agree
    /// with the in-memory store bit-for-bit, and report its IO counters.
    #[test]
    fn durable_store_service_matches_memory_service() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let svc = ServiceConfig { workers: 4, ..ServiceConfig::default() };
        let mem = run_workload_service(&w, &cfg, &svc).unwrap();

        let dir = std::env::temp_dir().join(format!("cv-svc-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = cv_store::ShardedDurableViewStore::open(
            dir.clone(),
            cfg.view_ttl,
            svc.store_shards,
            cv_store::DurableStoreOptions::default(),
        )
        .unwrap();
        let durable = run_workload_service_with_store(&w, &cfg, &svc, &store, None).unwrap();
        store.checkpoint_now().unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(durable.result_digests, mem.result_digests);
        assert_eq!(durable.failed_jobs, 0);
        assert_eq!(durable.service.duplicate_materializations, 0);
        let io = durable.store_io.expect("durable service run reports io stats");
        assert!(io.bytes_written_durably > 0, "nothing reached disk");
        assert!(io.wal_records_written > 0, "no WAL records written");
    }

    /// A store that holds nothing and whose every seal fails with a real
    /// (non-injected) error — a full disk, a poisoned handle.
    struct BrokenStore;

    impl cv_data::viewstore::ViewSource for BrokenStore {
        fn read_view(
            &self,
            _: Sig128,
            _: SimTime,
        ) -> std::result::Result<Option<cv_data::Table>, cv_data::viewstore::ViewReadFault>
        {
            Ok(None)
        }
    }

    #[rustfmt::skip]
    impl SharedViewStore for BrokenStore {
        fn insert(&self, _: cv_data::MaterializedView) -> Result<()> {
            Err(CvError::internal("store io: no space left on device"))
        }
        fn contains(&self, _: Sig128) -> bool { false }
        fn contains_live(&self, _: Sig128, _: SimTime) -> bool { false }
        fn is_quarantined(&self, _: Sig128) -> bool { false }
        fn quarantine(&self, _: Sig128) -> Result<bool> { Ok(false) }
        fn peek_meta(&self, _: Sig128, _: SimTime) -> Option<(u64, u64, f64)> { None }
        fn observed_work(&self, _: Sig128) -> Option<f64> { None }
        fn evict_expired(&self, _: SimTime) -> Result<usize> { Ok(0) }
        fn purge_input(&self, _: cv_common::ids::VersionGuid, _: SimTime) -> Result<usize> { Ok(0) }
        fn purge_vc(&self, _: VcId, _: SimTime) -> Result<usize> { Ok(0) }
        fn sigs_with_input(&self, _: cv_common::ids::VersionGuid) -> Vec<Sig128> { Vec::new() }
        fn stats(&self) -> ViewStoreStats { ViewStoreStats::default() }
        fn len(&self) -> usize { 0 }
        fn total_storage(&self) -> u64 { 0 }
        fn storage_used(&self, _: VcId) -> u64 { 0 }
        fn n_shards(&self) -> usize { 1 }
        fn ttl(&self) -> cv_common::SimDuration { cv_common::SimDuration::from_days(7.0) }
        fn set_fault_plan(&self, _: FaultPlan) {}
    }

    /// The seal rule on the service path: only injected faults are absorbed
    /// as a dropped view. The store itself failing fails the run — it used
    /// to pass for `SealState::Dropped` and the run carried on — and the
    /// failed run's trace has no dangling span.
    #[test]
    fn store_failure_during_seal_fails_the_service_run() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        let svc = ServiceConfig { workers: 2, ..ServiceConfig::default() };
        let obs = ServiceObs::new();
        let err =
            run_workload_service_with_store(&w, &cfg, &svc, &BrokenStore, Some(&obs)).unwrap_err();
        assert!(err.to_string().contains("no space left"), "unexpected error: {err}");
        assert!(!err.is_fault());
        // The error left from inside the commit loop, under the job's
        // `commit` and `job` spans, the wave's `commit` and the `day`: a
        // failed run still closes every span it opened.
        assert!(obs.tracer.span_count() > 0);
        assert_eq!(obs.tracer.open_spans(), 0, "a failed run left spans open");
        assert_eq!(obs.tracer.unbalanced_ends(), 0);
    }

    /// Maintenance modes the service does not implement are refused, not
    /// silently run without maintenance.
    #[test]
    fn service_rejects_ivm_modes() {
        let w = small_workload();
        for mode in [IvmMode::Ingest, IvmMode::Maintain] {
            let mut cfg = DriverConfig::enabled(1);
            cfg.ivm = mode;
            let err = run_workload_service(&w, &cfg, &ServiceConfig::default()).unwrap_err();
            assert!(err.to_string().contains("ivm"), "unexpected error: {err}");
        }
    }

    /// `cfg.store` is honoured by the service entry points that open their
    /// own store: a durable backend lands on disk, one directory per shard,
    /// and agrees with the memory run.
    #[test]
    fn service_opens_the_configured_durable_store() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let svc = ServiceConfig { workers: 2, store_shards: 3, ..ServiceConfig::default() };
        let mem = run_workload_service(&w, &cfg, &svc).unwrap();
        assert!(mem.store_io.is_none());

        let dir = std::env::temp_dir().join(format!("cv-svc-opener-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        cfg.store = crate::StoreBackend::Durable(dir.clone());
        let durable = run_workload_service(&w, &cfg, &svc).unwrap();
        let shard_dirs = std::fs::read_dir(&dir).unwrap().count();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(durable.result_digests, mem.result_digests);
        assert_eq!(durable.service.shards, 3);
        assert_eq!(shard_dirs, 3, "one directory per shard");
        let io = durable.store_io.expect("the durable backend was dropped for a memory store");
        assert!(io.bytes_written_durably > 0 && io.wal_records_written > 0);
    }

    /// Byte-budget crash plans are a sequential-driver fault: the service
    /// entry point must refuse them instead of wedging mid-recovery.
    #[test]
    fn service_rejects_crash_budget_plans() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(1);
        cfg.cluster = quick_cluster();
        cfg.faults = FaultPlan::seeded(1).with_crash_after_bytes(1024);
        let dir =
            std::env::temp_dir().join(format!("cv-svc-crash-reject-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = cv_store::ShardedDurableViewStore::open(
            dir.clone(),
            cfg.view_ttl,
            4,
            cv_store::DurableStoreOptions::default(),
        )
        .unwrap();
        let err =
            run_workload_service_with_store(&w, &cfg, &ServiceConfig::default(), &store, None)
                .unwrap_err();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.to_string().contains("crash_after_bytes"), "unexpected error: {err}");
    }
}
