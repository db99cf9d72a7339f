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
//! Each day's due jobs are split into waves (dataset producers before their
//! consumers) and every wave runs three phases:
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
use crate::service_obs::{job_track, ServiceObs};
use crate::steps::{
    absorb_read_faults, apply_gdpr, assemble_ledger, digest_table, due_jobs, ingest_raw,
    next_job_meta, open_store, publish_output, run_analysis, seal_view, set_up, store_io_json,
    store_tail, use_cloudviews, view_info,
};
use crate::templates::JobTemplate;
use cv_cluster::metrics::{DataPlane, MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim, JobSpec};
use cv_cluster::stage::build_stages;
use cv_common::hash::Sig128;
use cv_common::ids::JobId;
use cv_common::json::{Json, ToJson};
use cv_common::{json, CvError, FaultPlan, Result, SimDay, SimTime};
use cv_core::insights::{InsightsService, UsageEvent, ViewInfo};
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_core::SharedInsights;
use cv_data::store_api::SharedViewStore;
use cv_data::viewstore::ViewStoreStats;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{ExecOutcome, OpStateSource, PendingView};
use cv_engine::optimizer::{AlwaysGrant, ReuseContext, SemanticGrant, ViewMeta};
use cv_engine::physical::PhysicalPlan;
use cv_engine::signature::SubexprInfo;
use cv_service::{
    run_tasks, FlightOutcome, OpStateCache, PipelinedViewSource, PoolConfig, PromisedView,
    ServiceStats, SingleFlight, TaggedOpStates, TaskSpec,
};
use std::collections::{BTreeMap, HashMap, HashSet};
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
    /// Max concurrently admitted jobs per virtual cluster.
    pub vc_inflight_limit: usize,
    /// Bound on each VC's deferred queue (backpressure on the submitter).
    pub queue_cap: usize,
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
            vc_inflight_limit: 4,
            queue_cap: 32,
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
    /// Sealed chunks builders streamed into the flight registry pre-commit.
    pub chunks_spooled: u64,
    /// Promised reads served by reassembling a builder's chunk stream.
    pub chunk_assembled_reads: u64,
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
    /// Operator-state cache outcome (all-zero when the cache is disabled).
    pub op_state: OpStateReport,
}

/// Operator-state cache counters for one run, merged from the cache's own
/// stats and the per-job executor metrics.
#[derive(Clone, Debug, Default)]
pub struct OpStateReport {
    /// Cache was configured with a nonzero budget.
    pub enabled: bool,
    /// Breaker states restored instead of rebuilt.
    pub hits: u64,
    /// Of `hits`, those where the publisher was a *different* job — the
    /// cross-job reuse the ci gate asserts on.
    pub cross_job_hits: u64,
    pub misses: u64,
    pub published: u64,
    pub evicted: u64,
    /// Waits on an in-flight build that degraded to an inline rebuild
    /// (builder abandoned, or wait timed out).
    pub degraded_waits: u64,
    /// Entries dropped by quarantine / GDPR purge coupling.
    pub purged: u64,
    pub resident_bytes: u64,
    /// Modeled work units of skipped builds, summed over hits.
    pub build_work_avoided: f64,
    /// Measured wall seconds of skipped builds, summed over hits.
    pub build_wall_avoided: f64,
}

impl OpStateReport {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> Json {
        json!({
            "enabled": self.enabled,
            "hits": self.hits,
            "cross_job_hits": self.cross_job_hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "published": self.published,
            "evicted": self.evicted,
            "degraded_waits": self.degraded_waits,
            "purged": self.purged,
            "resident_bytes": self.resident_bytes,
            "build_work_avoided": self.build_work_avoided,
            "build_wall_avoided_seconds": self.build_wall_avoided,
        })
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
            "chunks_spooled": self.chunks_spooled,
            "chunk_assembled_reads": self.chunk_assembled_reads,
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
            "op_state": self.op_state.to_json(),
        })
    }
}

/// Everything a service run produces: the sequential driver's outcome
/// fields plus the service counters.
#[derive(Debug)]
pub struct ServiceOutcome {
    pub ledger: MetricsLedger,
    pub repo: SubexpressionRepo,
    pub usage: Vec<UsageEvent>,
    pub view_store_stats: ViewStoreStats,
    pub result_digests: BTreeMap<JobId, Sig128>,
    pub failed_jobs: u64,
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
struct CompiledTask {
    meta: JobMeta,
    use_cv: bool,
    matched: Vec<Sig128>,
    /// Of `matched`, views served through a certified semantic
    /// (compensated) substitution.
    compensated: usize,
    built: Vec<Sig128>,
    /// Defining plans of the views this job builds, for semantic serving
    /// after the seal.
    built_plans: Vec<(Sig128, std::sync::Arc<cv_engine::plan::LogicalPlan>)>,
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
    plan: std::sync::Arc<cv_engine::plan::LogicalPlan>,
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
    // Jobs already run one-per-pool-worker; chunking streams inside each
    // job serially (a nested pool per operator would oversubscribe cores).
    let (mut engine, op_states) = set_up(cfg, store);
    if let Some(o) = obs {
        engine.optimizer.set_obs(o.optimizer_sink.clone());
    }
    let insights = SharedInsights::new(InsightsService::new(cfg.controls.clone()));
    let flights = SingleFlight::new();
    let stats = ServiceStats::default();

    let mut repo = SubexpressionRepo::new();
    let mut data_plane: HashMap<JobId, DataPlane> = HashMap::new();
    let mut result_digests = BTreeMap::new();
    let mut selection_history = Vec::new();
    let mut failed_jobs = 0u64;
    let mut gdpr_purged_views = 0u64;
    let mut next_job = 0u64;
    let mut robustness = RobustnessStats::default();
    let mut specs_for_sim: Vec<JobSpec> = Vec::new();
    let mut pipelined_jobs = 0u64;
    let mut steals = 0u64;
    let mut admission_deferrals = 0u64;
    let mut max_inflight = 0usize;
    let mut max_queue_depth = 0usize;
    let mut exec_wall = Duration::ZERO;
    let mut parallel_wall = Duration::ZERO;
    let mut compile_wall = Duration::ZERO;
    let mut commit_wall = Duration::ZERO;
    let mut worker_busy: Vec<Duration> = Vec::new();
    let mut latencies_ms: Vec<(JobId, f64)> = Vec::new();
    let mut op_work_avoided = 0.0f64;
    let mut op_wall_avoided = 0.0f64;

    for day_idx in 0..cfg.days {
        let day = SimDay(day_idx);
        let day_start = day.start();
        if let Some(o) = obs {
            o.tracer.begin(0, "day");
        }

        // Hygiene once per day (the sequential driver evicts before every
        // job; reads re-check expiry themselves, so only eviction-counter
        // timing differs — see DESIGN.md §9).
        store.evict_expired(day_start)?;
        insights.lock().expire(day_start);

        // 1. Ingestion (same rng, same tables, same GUID rotations as the
        // sequential driver), then the optional GDPR forget-request.
        if let Some(o) = obs {
            o.tracer.begin(0, "ingest");
        }
        let regenerated = ingest_raw(&mut engine.catalog, workload, day, false)?;
        if let Some(o) = obs {
            o.tracer.end_with(0, &[("datasets", regenerated)]);
        }
        gdpr_purged_views += apply_gdpr(
            cfg,
            &mut engine,
            store,
            &mut insights.lock(),
            op_states.as_deref(),
            workload.config.seed,
            day,
            &mut robustness,
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
        let (wave0, wave1) = due.split_at(first_consumer);

        // Views sealed today, queued for the day-end insights announce.
        let mut day_seals: Vec<(ViewInfo, JobId)> = Vec::new();
        // Template → views built earlier today, for the semantic cascade.
        let mut epoch_views: HashMap<Sig128, Vec<EpochView>> = HashMap::new();
        for wave in [wave0, wave1] {
            if wave.is_empty() {
                continue;
            }
            let report = run_wave(WaveCtx {
                engine: &mut engine,
                insights: &insights,
                store,
                flights: &flights,
                stats: &stats,
                op_states: op_states.as_ref(),
                wave,
                day,
                cfg,
                svc,
                next_job: &mut next_job,
                repo: &mut repo,
                data_plane: &mut data_plane,
                result_digests: &mut result_digests,
                failed_jobs: &mut failed_jobs,
                robustness: &mut robustness,
                day_seals: &mut day_seals,
                epoch_views: &mut epoch_views,
                specs_for_sim: &mut specs_for_sim,
                pipelined_jobs: &mut pipelined_jobs,
                obs,
            })?;
            steals += report.steals;
            admission_deferrals += report.admission_deferrals;
            max_inflight = max_inflight.max(report.max_inflight);
            max_queue_depth = max_queue_depth.max(report.max_queue_depth);
            exec_wall += report.exec_wall;
            parallel_wall += report.parallel_wall;
            compile_wall += report.compile_wall;
            commit_wall += report.commit_wall;
            op_work_avoided += report.op_state_work_avoided;
            op_wall_avoided += report.op_state_wall_avoided;
            if worker_busy.len() < report.worker_busy.len() {
                worker_busy.resize(report.worker_busy.len(), Duration::ZERO);
            }
            for (acc, d) in worker_busy.iter_mut().zip(&report.worker_busy) {
                *acc += *d;
            }
            latencies_ms.extend(
                report.latencies.into_iter().map(|(job, d)| (job, d.as_secs_f64() * 1000.0)),
            );
        }

        // Day end: announce the views sealed this day to the insights
        // service, in job order (the sequential driver announces at the
        // simulator's seal events; the digest contract is unaffected, only
        // the announce instant differs — DESIGN.md §9).
        if let Some(o) = obs {
            o.tracer.begin(0, "announce");
        }
        let n_seals = day_seals.len() as u64;
        {
            let mut ins = insights.lock();
            for (info, job) in day_seals {
                ins.report_sealed(info, job);
            }
        }
        flights.clear();
        if let Some(o) = obs {
            o.tracer.end_with(0, &[("seals", n_seals)]);
        }

        // 3. Workload analysis + selection publish.
        if let Some(knobs) = &cfg.cloudviews {
            if (day_idx + 1) % knobs.analysis_every_days == 0 {
                if let Some(o) = obs {
                    o.tracer.begin(0, "analysis");
                }
                let n = run_analysis(&repo, &mut insights.lock(), knobs, day, &cfg.cluster);
                selection_history.push((day, n));
                if let Some(o) = obs {
                    o.tracer.end_with(0, &[("selected", n as u64)]);
                }
            }
        }
        if let Some(o) = obs {
            o.tracer.end_with(0, &[("day", u64::from(day_idx))]);
        }
    }

    // Cluster-side accounting, merged deterministically.
    let ledger = merge_completions(
        specs_for_sim,
        &mut data_plane,
        &cfg.cluster,
        &cfg.faults,
        &mut robustness,
    )?;

    let (store_stats, store_io) = store_tail(store, &mut robustness);

    let snap = stats.snapshot();
    latencies_ms.sort_by_key(|a| a.0);
    let op_state = match &op_states {
        Some(cache) => {
            let s = cache.stats();
            OpStateReport {
                enabled: true,
                hits: s.hits,
                cross_job_hits: s.cross_job_hits,
                misses: s.misses,
                published: s.published,
                evicted: s.evicted,
                degraded_waits: s.degraded_waits,
                purged: s.purged,
                resident_bytes: s.resident_bytes,
                build_work_avoided: op_work_avoided,
                build_wall_avoided: op_wall_avoided,
            }
        }
        None => OpStateReport::default(),
    };
    let service = ServiceReport {
        workers: svc.workers,
        shards: store.n_shards(),
        pipelined_jobs,
        pipelined_reads: snap.pipelined_reads,
        flight_waits: snap.flight_waits,
        duplicate_materializations: snap.duplicate_materializations,
        chunks_spooled: flights.stats().chunks_buffered,
        chunk_assembled_reads: snap.chunk_assembled_reads,
        realized_pipelining_savings: snap.realized_savings,
        steals,
        admission_deferrals,
        max_inflight,
        max_queue_depth,
        exec_wall_seconds: exec_wall.as_secs_f64(),
        parallel_wall_seconds: parallel_wall.as_secs_f64(),
        compile_wall_seconds: compile_wall.as_secs_f64(),
        commit_wall_seconds: commit_wall.as_secs_f64(),
        pool_overhead_seconds: exec_wall.saturating_sub(parallel_wall).as_secs_f64(),
        worker_busy_seconds: worker_busy.iter().map(Duration::as_secs_f64).collect(),
        latencies_ms,
        op_state,
    };

    if let Some(o) = obs {
        let m = &o.metrics;
        let fl = flights.stats();
        m.add("flight.claims", fl.claims);
        m.add("flight.waits", fl.waits);
        m.add("flight.resolves", fl.resolves);
        m.add("flight.chunks_buffered", fl.chunks_buffered);
        m.add("service.chunk_assembled_reads", snap.chunk_assembled_reads);
        m.add("store.views_created", store_stats.views_created);
        m.add("store.views_reused", store_stats.views_reused);
        m.add("store.read_misses", store_stats.read_misses);
        m.add("store.bytes_written", store_stats.bytes_written);
        m.add("store.bytes_served", store_stats.bytes_served);
        if let Some(io) = &store_io {
            m.add("store.page_cache_hits", io.page_cache_hits);
            m.add("store.page_cache_misses", io.page_cache_misses);
            m.add("store.pages_evicted", io.pages_evicted);
            m.add("store.wal_fsyncs", io.wal_fsyncs);
            m.add("store.wal_records_written", io.wal_records_written);
            m.add("store.wal_records_replayed", io.wal_records_replayed);
            m.add("store.recoveries", io.recoveries);
            m.add("store.checkpoints", io.checkpoints);
        }
        m.add("service.pipelined_jobs", pipelined_jobs);
        m.add("service.pipelined_reads", snap.pipelined_reads);
        m.add("service.flight_waits", snap.flight_waits);
        m.add("service.duplicate_materializations", snap.duplicate_materializations);
        m.set("pool.workers", svc.workers as u64);
        m.add("pool.steals", steals);
        m.add("pool.admission_deferrals", admission_deferrals);
        m.gauge("pool.max_inflight").set_max(max_inflight as u64);
        m.gauge("pool.max_queue_depth").set_max(max_queue_depth as u64);
        for (i, busy) in worker_busy.iter().enumerate() {
            m.add(&format!("pool.worker{i}.busy_us"), busy.as_micros() as u64);
        }
        m.add("phase.compile_us", compile_wall.as_micros() as u64);
        m.add("phase.parallel_us", parallel_wall.as_micros() as u64);
        m.add("phase.commit_us", commit_wall.as_micros() as u64);
        m.add("phase.pool_us", exec_wall.as_micros() as u64);
        // Cache-side op_state counters (the per-op hit/miss/publish
        // counters come from each task's ExecSink).
        m.add("op_state.cross_job_hits", service.op_state.cross_job_hits);
        m.add("op_state.evicted", service.op_state.evicted);
        m.add("op_state.degraded_waits", service.op_state.degraded_waits);
        m.add("op_state.purged", service.op_state.purged);
        m.gauge("op_state.resident_bytes").set_max(service.op_state.resident_bytes);
    }

    let usage = insights.lock().usage_log().to_vec();
    Ok(ServiceOutcome {
        ledger,
        repo,
        usage,
        view_store_stats: store_stats,
        result_digests,
        failed_jobs,
        selection_history,
        gdpr_purged_views,
        robustness,
        store_io,
        service,
    })
}

/// Everything one wave needs (bundled to keep `run_wave` callable).
struct WaveCtx<'a, 'w> {
    engine: &'a mut QueryEngine,
    insights: &'a SharedInsights,
    store: &'a dyn SharedViewStore,
    flights: &'a SingleFlight,
    stats: &'a ServiceStats,
    op_states: Option<&'a Arc<OpStateCache>>,
    wave: &'a [&'w JobTemplate],
    day: SimDay,
    cfg: &'a DriverConfig,
    svc: &'a ServiceConfig,
    next_job: &'a mut u64,
    repo: &'a mut SubexpressionRepo,
    data_plane: &'a mut HashMap<JobId, DataPlane>,
    result_digests: &'a mut BTreeMap<JobId, Sig128>,
    failed_jobs: &'a mut u64,
    robustness: &'a mut RobustnessStats,
    day_seals: &'a mut Vec<(ViewInfo, JobId)>,
    epoch_views: &'a mut HashMap<Sig128, Vec<EpochView>>,
    specs_for_sim: &'a mut Vec<JobSpec>,
    pipelined_jobs: &'a mut u64,
    obs: Option<&'a ServiceObs>,
}

struct WaveReport {
    steals: u64,
    admission_deferrals: u64,
    max_inflight: usize,
    max_queue_depth: usize,
    /// Total pool wall (ready barrier → worker teardown).
    exec_wall: Duration,
    /// Parallel phase proper (batch epoch → last completion).
    parallel_wall: Duration,
    compile_wall: Duration,
    commit_wall: Duration,
    worker_busy: Vec<Duration>,
    latencies: Vec<(JobId, Duration)>,
    /// Skipped-build credit summed from the wave's executor metrics.
    op_state_work_avoided: f64,
    op_state_wall_avoided: f64,
}

fn run_wave(ctx: WaveCtx<'_, '_>) -> Result<WaveReport> {
    let WaveCtx {
        engine,
        insights,
        store,
        flights,
        stats,
        op_states,
        wave,
        day,
        cfg,
        svc,
        next_job,
        repo,
        data_plane,
        result_digests,
        failed_jobs,
        robustness,
        day_seals,
        epoch_views,
        specs_for_sim,
        pipelined_jobs,
        obs,
    } = ctx;

    // ---- Phase A: compile sequentially, in job order. ----
    let compile_started = Instant::now();
    if let Some(o) = obs {
        o.tracer.begin(0, "compile");
    }
    let mut compiled: Vec<CompiledTask> = Vec::new();
    // Owned per-task execution inputs, moved into pool closures.
    let mut exec_inputs: Vec<(PhysicalPlan, HashSet<Sig128>, Vec<JobId>)> = Vec::new();

    for template in wave {
        let meta = next_job_meta(template, day, next_job);
        let (job, submit) = (meta.job, meta.submit);
        let track = job_track(job);
        if let Some(o) = obs {
            o.tracer.begin(track, "job");
            o.tracer.begin(track, "compile");
            o.optimizer_sink.set_track(track);
        }
        let use_cv = use_cloudviews(cfg, submit, robustness);

        let compile = (|| -> Result<(CompiledTask, PhysicalPlan, HashSet<Sig128>, Vec<JobId>)> {
            let plan = template.build_plan(engine, day)?;
            if let Some(o) = obs {
                o.tracer.begin(track, "normalize");
            }
            let subexprs = engine.subexpressions(&plan);
            if let Some(o) = obs {
                let n = subexprs.as_ref().map_or(0, |s| s.len() as u64);
                o.tracer.end_with(track, &[("subexprs", n)]);
            }
            let subexprs = subexprs?;
            let mut reuse = if use_cv {
                insights.lock().annotate(meta.vc, job, &subexprs, submit).0
            } else {
                ReuseContext::empty()
            };

            // Flight-state rewrite: reconcile the wanted builds against the
            // in-flight registry before optimizing.
            let mut promised: HashSet<Sig128> = HashSet::new();
            let mut deps: Vec<JobId> = Vec::new();
            if use_cv {
                let mut wanted: Vec<Sig128> = reuse.to_build.iter().copied().collect();
                wanted.sort();
                for sig in wanted {
                    if let Some((builder, pv)) = flights.promise(sig) {
                        // A concurrent job is building it: plan against the
                        // promised statistics and pipeline from the builder.
                        reuse.to_build.remove(&sig);
                        reuse.available.insert(sig, ViewMeta::hot(pv.rows, pv.bytes));
                        promised.insert(sig);
                        if !deps.contains(&builder) {
                            deps.push(builder);
                        }
                    } else if let Some(outcome) = flights.outcome(sig) {
                        match outcome {
                            FlightOutcome::Published => {
                                // Built earlier this epoch (e.g. by wave 0):
                                // ordinary reuse with the sealed statistics.
                                if let Some((rows, bytes, _)) = store.peek_meta(sig, submit) {
                                    reuse.to_build.remove(&sig);
                                    reuse.available.insert(sig, ViewMeta::hot(rows, bytes));
                                }
                            }
                            // Failed builds released their creation lock in
                            // the commit phase; leave the signature in
                            // to_build so this job may rebuild it.
                            FlightOutcome::Failed => {}
                        }
                    }
                }
            }

            // Widened (semantic) serving within the epoch: views claimed or
            // sealed earlier today whose *template* matches one of this
            // job's subexpressions become semantic grants. The containment
            // prover — not this index — decides admissibility; unproven
            // grants cost nothing.
            if use_cv {
                for sub in &subexprs {
                    if reuse.available.contains_key(&sub.strict) {
                        continue;
                    }
                    let Some(views) = epoch_views.get(&sub.template) else { continue };
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

            if let Some(o) = obs {
                o.tracer.begin(track, "optimize");
            }
            let compiled_job = if use_cv {
                let mut coord = insights.clone();
                engine.optimize(&plan, &reuse, &mut coord)
            } else {
                engine.optimize(&plan, &reuse, &mut AlwaysGrant)
            };
            if let Some(o) = obs {
                match &compiled_job {
                    Ok(c) => o.tracer.end_with(
                        track,
                        &[
                            ("matched", c.outcome.matched_views.len() as u64),
                            ("built", c.outcome.built_views.len() as u64),
                        ],
                    ),
                    Err(_) => o.tracer.end_with(track, &[("failed", 1)]),
                }
            }
            let compiled_job = compiled_job?;

            let built = compiled_job.outcome.built_views.clone();
            for sig in &built {
                let promise = spool_promise(&compiled_job.outcome.physical, *sig);
                if flights.claim(*sig, job, promise) {
                    // Advertise the claim by template so later jobs today
                    // can reach it through the containment prover.
                    if let Some((_, plan)) =
                        compiled_job.outcome.built_plans.iter().find(|(s, _)| s == sig)
                    {
                        if let Some(template) = cv_engine::signature::template_signature(
                            plan,
                            &engine.optimizer.cfg.sig,
                        ) {
                            epoch_views.entry(template).or_default().push(EpochView {
                                strict: *sig,
                                plan: plan.clone(),
                                rows: promise.rows,
                                bytes: promise.bytes,
                            });
                        }
                    }
                }
            }

            // Compensated substitutions against a still-in-flight builder
            // pipeline exactly like exact promised reads: record the
            // dependency so the scheduler gates execution, and the sig so
            // the view source blocks (and falls back) correctly.
            for (view_sig, _) in &compiled_job.outcome.compensated_views {
                if let Some((builder, _)) = flights.promise(*view_sig) {
                    if builder != job {
                        promised.insert(*view_sig);
                        if !deps.contains(&builder) {
                            deps.push(builder);
                        }
                    }
                }
            }

            let task = CompiledTask {
                meta,
                use_cv,
                matched: compiled_job.outcome.matched_views.clone(),
                compensated: compiled_job.outcome.compensated_views.len(),
                built,
                built_plans: compiled_job.outcome.built_plans.clone(),
                subexprs,
                output_dataset: template.output_dataset().map(str::to_string),
            };
            Ok((task, compiled_job.outcome.physical, promised, deps))
        })();

        match compile {
            Ok((task, physical, promised, deps)) => {
                if let Some(o) = obs {
                    o.tracer.end_with(
                        track,
                        &[
                            ("matched", task.matched.len() as u64),
                            ("built", task.built.len() as u64),
                            ("promised", promised.len() as u64),
                            ("deps", deps.len() as u64),
                        ],
                    );
                }
                compiled.push(task);
                exec_inputs.push((physical, promised, deps));
            }
            Err(_) => {
                if let Some(o) = obs {
                    // Close the compile span, then the job span.
                    o.tracer.end_with(track, &[("failed", 1)]);
                    o.tracer.end_with(track, &[("failed", 1)]);
                }
                *failed_jobs += 1;
            }
        }
    }
    if let Some(o) = obs {
        o.tracer.end_with(0, &[("jobs", wave.len() as u64), ("compiled", compiled.len() as u64)]);
    }
    let compile_wall = compile_started.elapsed();

    // ---- Phase B: execute in parallel. ----
    let pool_cfg = PoolConfig {
        workers: svc.workers,
        vc_inflight_limit: svc.vc_inflight_limit,
        queue_cap: svc.queue_cap,
    };
    // Open-loop release gaps scaled from sim-time submission deltas.
    let gaps: Vec<Duration> = if svc.pacing_us_per_sim_hour == 0 {
        vec![Duration::ZERO; compiled.len()]
    } else {
        let mut gaps = Vec::with_capacity(compiled.len());
        let mut prev: Option<f64> = None;
        for t in &compiled {
            let s = t.meta.submit.seconds();
            let gap = prev.map_or(0.0, |p| (s - p).max(0.0) / 3600.0);
            gaps.push(Duration::from_micros((gap * svc.pacing_us_per_sim_hour as f64) as u64));
            prev = Some(s);
        }
        gaps
    };

    let (tx, rx) = mpsc::channel::<(JobId, Result<TaskDone>)>();
    let mut tasks: Vec<TaskSpec<'_>> = Vec::new();
    let engine_ref: &QueryEngine = engine;
    for (task, (physical, promised, deps)) in compiled.iter().zip(exec_inputs) {
        let job = task.meta.job;
        let vc = task.meta.vc;
        let submit = task.meta.submit;
        let built = task.built.clone();
        let tx = tx.clone();
        let exec_sink = obs.map(|o| o.exec_sink(job_track(job)));
        // Per-job view of the shared op-state cache: the tag lets the cache
        // attribute hits on another job's published state as cross-job.
        let tagged = op_states.map(|c| TaggedOpStates::new(c.clone(), job.0));
        tasks.push(TaskSpec {
            job,
            vc,
            deps,
            run: Box::new(move || {
                if let Some(sink) = &exec_sink {
                    sink.begin_execute();
                }
                let src = PipelinedViewSource::new(store, flights, stats, promised);
                // The flight registry doubles as the spool sink: each
                // sealed chunk of a claimed build streams to it pre-commit
                // so blocked consumers can assemble the view directly.
                let res = engine_ref.execute_with_states(
                    &physical,
                    &src,
                    submit,
                    exec_sink.as_ref().map(|s| &**s as &dyn cv_engine::obs::ObsSink),
                    Some(flights as &dyn cv_engine::SpoolSink),
                    tagged.as_ref().map(|t| t as &dyn OpStateSource),
                );
                let served = src.into_served();
                let done = res.and_then(|exec| {
                    let mut seals = Vec::new();
                    let mut store_error = None;
                    let mut resolved: HashSet<Sig128> = HashSet::new();
                    for pv in &exec.pending_views {
                        let state =
                            seal_pending(store, stats, pv, job, vc, submit).unwrap_or_else(|e| {
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
                    for sig in &built {
                        if !resolved.contains(sig) {
                            flights.resolve(*sig, FlightOutcome::Failed);
                        }
                    }
                    let stages = build_stages(&physical, &exec.metrics.op_profiles)?;
                    stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    Ok(TaskDone { exec, stages, served, seals, store_error })
                });
                if done.is_err() {
                    // Exec (or stage-build) failure: every claimed flight
                    // must resolve so pipelined consumers fall back.
                    for sig in &built {
                        flights.resolve(*sig, FlightOutcome::Failed);
                    }
                }
                if let Some(sink) = &exec_sink {
                    match &done {
                        Ok(d) => sink.end_execute(&[
                            ("rows", d.exec.table.num_rows() as u64),
                            ("served", d.served.len() as u64),
                            ("seals", d.seals.len() as u64),
                        ]),
                        Err(_) => sink.end_execute(&[("failed", 1)]),
                    }
                }
                let _ = tx.send((job, done));
            }),
        });
    }
    drop(tx);

    if let Some(o) = obs {
        o.tracer.begin(0, "execute");
    }
    // Pool wall comes from the report's ready-barrier epoch, not a caller
    // clock around `run_tasks`: the caller's clock also counts thread spawn
    // and OS scheduling noise *before* the barrier, which once made
    // "overhead" (exec − parallel) exceed the parallel phase itself.
    let report = run_tasks(&pool_cfg, tasks, &gaps);
    let exec_wall = report.total_wall;
    if let Some(o) = obs {
        o.tracer.end_with(0, &[("tasks", compiled.len() as u64)]);
    }

    let mut results: HashMap<JobId, Result<TaskDone>> = HashMap::new();
    for (job, done) in rx.try_iter() {
        results.insert(job, done);
    }

    // ---- Phase C: commit sequentially, in job order. ----
    let commit_started = Instant::now();
    let mut op_work = 0.0f64;
    let mut op_wall = 0.0f64;
    if let Some(o) = obs {
        o.tracer.begin(0, "commit");
    }
    for task in &compiled {
        let job = task.meta.job;
        let track = job_track(job);
        if let Some(o) = obs {
            o.tracer.begin(track, "commit");
        }
        match results.remove(&job) {
            Some(Ok(mut done)) => {
                if let Some(e) = done.store_error.take() {
                    return Err(e);
                }
                let n_seals = done.seals.len() as u64;
                repo.log_job(task.meta, &task.subexprs, Some(&done.exec.metrics.op_profiles));
                result_digests.insert(job, digest_table(&done.exec.table));

                absorb_read_faults(
                    &done.exec.metrics,
                    store,
                    &mut insights.lock(),
                    op_states.map(Arc::as_ref),
                    robustness,
                )?;
                op_work += done.exec.metrics.op_state_work_avoided;
                op_wall += done.exec.metrics.op_state_wall_avoided;

                let dp = DataPlane::from_exec(
                    &done.exec.metrics,
                    task.matched.len(),
                    task.compensated,
                    task.built.len(),
                );

                if task.use_cv && !task.matched.is_empty() {
                    insights.lock().record_reuse(&task.matched, job, task.meta.submit);
                }

                // Realized pipelining savings: each read served from a view
                // a concurrent job built avoided recomputing that
                // subexpression (the view's observed production work).
                if !done.served.is_empty() {
                    *pipelined_jobs += 1;
                    for sig in &done.served {
                        if let Some(work) = store.observed_work(*sig) {
                            stats.add_realized_savings(work);
                        }
                    }
                }

                if let Some(output) = &task.output_dataset {
                    let at = task.meta.submit;
                    publish_output(&mut engine.catalog, output, &done.exec.table, at, false)?;
                }

                for (pv, state) in done.exec.pending_views.iter().zip(&done.seals) {
                    match state {
                        SealState::Published => {
                            let plan = task
                                .built_plans
                                .iter()
                                .find(|(sig, _)| *sig == pv.sig)
                                .map(|(_, p)| p.clone());
                            let info = view_info(cfg, pv, task.meta.vc, task.meta.submit, plan);
                            day_seals.push((info, job));
                        }
                        // Write fault / quarantine race / duplicate: the
                        // view was never (newly) advertised — release the
                        // creation lock so a later job can rebuild.
                        SealState::Dropped | SealState::Duplicate => {
                            insights.lock().release_lock(pv.sig);
                        }
                    }
                }

                data_plane.insert(job, dp);
                specs_for_sim.push(JobSpec {
                    job,
                    vc: task.meta.vc,
                    template: task.meta.template,
                    submit: task.meta.submit,
                    stages: done.stages,
                });
                if let Some(o) = obs {
                    // Close the commit span, then the job span opened at
                    // compile time.
                    o.tracer.end_with(track, &[("seals", n_seals)]);
                    o.tracer.end(track);
                }
            }
            Some(Err(_)) | None => {
                *failed_jobs += 1;
                let ins = insights.lock();
                for sig in &task.built {
                    ins.release_lock(*sig);
                }
                drop(ins);
                if let Some(o) = obs {
                    o.tracer.end_with(track, &[("failed", 1)]);
                    o.tracer.end_with(track, &[("failed", 1)]);
                }
            }
        }
    }
    if let Some(o) = obs {
        o.tracer.end_with(0, &[("jobs", compiled.len() as u64)]);
    }
    let commit_wall = commit_started.elapsed();

    Ok(WaveReport {
        steals: report.steals,
        admission_deferrals: report.admission_deferrals,
        max_inflight: report.max_inflight,
        max_queue_depth: report.max_queue_depth,
        exec_wall,
        parallel_wall: report.parallel_wall,
        compile_wall,
        commit_wall,
        worker_busy: report.worker_busy,
        latencies: report.latencies,
        op_state_work_avoided: op_work,
        op_state_wall_avoided: op_wall,
    })
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

    /// Workload whose dimension tables clear the nested-loop threshold, so
    /// joins against `users`/`part` lower to hash joins and publish build
    /// states (see the sequential driver's `join_heavy_workload`).
    fn join_heavy_workload() -> Workload {
        generate_workload(WorkloadConfig {
            scale: 0.25,
            n_analytics: 12,
            ..WorkloadConfig::default()
        })
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
            let mut dp = HashMap::new();
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

    /// Tentpole contract: the shared operator-state cache may shift build
    /// work between jobs but never moves a digest — at one worker and at
    /// several, against the cache-off reference.
    #[test]
    fn op_state_cache_never_changes_service_digests() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let off = run_workload_service(
            &w,
            &cfg,
            &ServiceConfig { workers: 1, ..ServiceConfig::default() },
        )
        .unwrap();
        assert!(!off.service.op_state.enabled);

        cfg.op_state_budget_bytes = 64 << 20;
        for workers in [1usize, 4] {
            let svc = ServiceConfig { workers, ..ServiceConfig::default() };
            let on = run_workload_service(&w, &cfg, &svc).unwrap();
            assert_eq!(on.failed_jobs, 0);
            assert_eq!(
                on.result_digests, off.result_digests,
                "cache changed digests at {workers} workers"
            );
            let os = &on.service.op_state;
            assert!(os.enabled);
            assert!(os.published > 0, "no breaker state published at {workers} workers: {os:?}");
            assert!(os.hits > 0, "nothing restored at {workers} workers: {os:?}");
            assert!(
                os.cross_job_hits > 0,
                "recurring jobs must hit other jobs' state at {workers} workers: {os:?}"
            );
            assert!(os.build_wall_avoided >= 0.0 && os.build_work_avoided > 0.0, "{os:?}");
        }
    }

    /// GDPR regression, service edition: the forget-request purges cached
    /// operator state (the rotated guid already invalidates the keys; the
    /// purge frees the bytes) and digests still match the cache-off run.
    #[test]
    fn service_gdpr_purge_evicts_operator_state() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        cfg.gdpr_every_days = Some(1);
        let svc = ServiceConfig { workers: 4, ..ServiceConfig::default() };
        let off = run_workload_service(&w, &cfg, &svc).unwrap();
        cfg.op_state_budget_bytes = 64 << 20;
        let on = run_workload_service(&w, &cfg, &svc).unwrap();
        assert_eq!(on.failed_jobs, 0);
        assert_eq!(on.result_digests, off.result_digests);
        let os = &on.service.op_state;
        assert!(os.purged > 0, "forget-request must purge operator state: {os:?}");
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
    /// to pass for `SealState::Dropped` and the run carried on.
    #[test]
    fn store_failure_during_seal_fails_the_service_run() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        let svc = ServiceConfig { workers: 2, ..ServiceConfig::default() };
        let err = run_workload_service_with_store(&w, &cfg, &svc, &BrokenStore, None).unwrap_err();
        assert!(err.to_string().contains("no space left"), "unexpected error: {err}");
        assert!(!err.is_fault());
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
        cfg.store = crate::StoreBackend::Durable(crate::DurableStoreConfig::new(&dir));
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
