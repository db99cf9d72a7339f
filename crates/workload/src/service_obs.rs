//! Observability wiring for the service driver: bridges engine events onto
//! `cv_obs::{Tracer, Metrics}`.
//!
//! The engine emits through the dependency-free [`cv_engine::obs::ObsSink`]
//! trait; the concrete adapters live here, next to the driver that owns the
//! tracer (mirroring how `cv_analyzer::Analyzer` plugs into `PlanVerifier`).
//! Two adapters exist because the two hook sites have different threading:
//!
//! * [`OptimizerSink`] — one shared sink installed on the optimizer for the
//!   whole run. Compilation is sequential on the driver thread, so a single
//!   atomic "current track" set before each `optimize` call routes
//!   view-match / view-build events onto the right job's track.
//! * [`ExecSink`] — one per pool task, carrying its job's track by value,
//!   because operator events arrive concurrently from worker threads.
//!
//! The driver reaches all of it through [`ObsHandle`], which is a no-op on
//! an unobserved run, and holds every span as a `cv_obs::SpanGuard`.
//!
//! Track assignment: track 0 is the driver control loop, track `job_id + 1`
//! is that job's lifecycle. Tracks are logical, so a job's compile (driver
//! thread), execute (worker thread) and commit (driver thread) spans nest
//! on one timeline regardless of which OS thread emitted them.

use cv_common::hash::Sig128;
use cv_common::ids::JobId;
use cv_engine::obs::ObsSink;
use cv_obs::{Counter, Metrics, SpanGuard, Tracer};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The logical track for a job's spans (track 0 is the driver loop).
pub fn job_track(job: JobId) -> u64 {
    job.0 + 1
}

/// Shared observability state for one service run: the span tracer, the
/// metrics registry, and the optimizer-side sink installed on the engine.
pub struct ServiceObs {
    pub tracer: Arc<Tracer>,
    pub metrics: Arc<Metrics>,
    optimizer_sink: Arc<OptimizerSink>,
}

impl ServiceObs {
    pub fn new() -> ServiceObs {
        let tracer = Arc::new(Tracer::new());
        let metrics = Arc::new(Metrics::new());
        let optimizer_sink = Arc::new(OptimizerSink {
            tracer: tracer.clone(),
            metrics: metrics.clone(),
            track: AtomicU64::new(0),
            matched: metrics.counter("optimizer.views_matched"),
            built: metrics.counter("optimizer.view_builds"),
            semantic_considered: metrics.counter("optimizer.semantic_considered"),
            semantic_proven: metrics.counter("optimizer.semantic_proven"),
        });
        ServiceObs { tracer, metrics, optimizer_sink }
    }

    /// Export the run's incremental-maintenance counters into the metrics
    /// registry (`ivm.maintained`, `ivm.rebuilt`, `ivm.refused`, plus
    /// per-code `ivm.veto.CV07x` and per-reason `ivm.rebuild.*`).
    pub fn record_ivm(&self, stats: &cv_ivm::IvmStats) {
        self.metrics.counter("ivm.maintained").add(stats.maintained);
        self.metrics.counter("ivm.rebuilt").add(stats.rebuilt);
        self.metrics.counter("ivm.refused").add(stats.refused);
        for (code, n) in &stats.vetoes {
            self.metrics.counter(&format!("ivm.veto.{code}")).add(*n);
        }
        for (reason, n) in &stats.rebuild_reasons {
            self.metrics.counter(&format!("ivm.rebuild.{reason}")).add(*n);
        }
    }

    /// Build the per-task executor sink for a job's track.
    fn exec_sink(&self, track: u64) -> Arc<dyn ObsSink> {
        Arc::new(ExecSink {
            tracer: self.tracer.clone(),
            track,
            ops: self.metrics.counter("executor.ops"),
            rows: self.metrics.counter("executor.rows"),
            bytes: self.metrics.counter("executor.bytes"),
            op_ns: self.metrics.counter("executor.op_ns"),
        })
    }
}

impl Default for ServiceObs {
    fn default() -> Self {
        ServiceObs::new()
    }
}

/// The driver's handle on a run's observer, held whether or not there is
/// one: over `None` every method is a no-op (no clock read, no allocation),
/// so the driver never branches on being observed.
#[derive(Clone, Copy)]
pub(crate) struct ObsHandle<'a>(pub(crate) Option<&'a ServiceObs>);

impl<'a> ObsHandle<'a> {
    /// Open a span; the guard ends it on every exit ([`SpanGuard`]).
    pub(crate) fn span(self, track: u64, name: &str) -> SpanGuard<'a> {
        SpanGuard::open(self.0.map(|o| &*o.tracer), track, name)
    }

    /// Open a job's `compile` span and route the optimizer's events onto
    /// the same track until the next job's opens.
    pub(crate) fn compile_span(self, track: u64) -> SpanGuard<'a> {
        if let Some(o) = self.0 {
            o.optimizer_sink.track.store(track, Ordering::Relaxed);
        }
        self.span(track, "compile")
    }

    /// The sink to install on the optimizer for the run.
    pub(crate) fn optimizer_sink(self) -> Option<Arc<dyn ObsSink>> {
        self.0.map(|o| o.optimizer_sink.clone() as Arc<dyn ObsSink>)
    }

    /// The executor sink of the job on `track`: operator spans nest under
    /// whatever span is open on it.
    pub(crate) fn exec_sink(self, track: u64) -> Option<Arc<dyn ObsSink>> {
        self.0.map(|o| o.exec_sink(track))
    }
}

/// Optimizer-side sink: counts view matches / build insertions and records
/// them as zero-length child spans under the current job's `optimize` span.
struct OptimizerSink {
    tracer: Arc<Tracer>,
    /// Registry handle, for the lazily-created per-veto-code counters.
    metrics: Arc<Metrics>,
    /// Track of the job currently being compiled (compilation is
    /// sequential, so a single cell suffices); [`ObsHandle::compile_span`]
    /// sets it.
    track: AtomicU64,
    matched: Counter,
    built: Counter,
    semantic_considered: Counter,
    semantic_proven: Counter,
}

impl fmt::Debug for OptimizerSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptimizerSink").field("track", &self.track.load(Ordering::Relaxed)).finish()
    }
}

impl ObsSink for OptimizerSink {
    fn view_matched(&self, sig: Sig128) {
        self.matched.inc();
        let track = self.track.load(Ordering::Relaxed);
        self.tracer.begin(track, "view-match");
        self.tracer.end_with(track, &[("sig", sig.0 as u64)]);
    }

    fn view_build_inserted(&self, sig: Sig128) {
        self.built.inc();
        let track = self.track.load(Ordering::Relaxed);
        self.tracer.begin(track, "view-build");
        self.tracer.end_with(track, &[("sig", sig.0 as u64)]);
    }

    fn semantic_considered(&self, sig: Sig128) {
        self.semantic_considered.inc();
        let track = self.track.load(Ordering::Relaxed);
        self.tracer.begin(track, "semantic-consider");
        self.tracer.end_with(track, &[("sig", sig.0 as u64)]);
    }

    fn semantic_proven(&self, sig: Sig128) {
        self.semantic_proven.inc();
        let track = self.track.load(Ordering::Relaxed);
        self.tracer.begin(track, "semantic-prove");
        self.tracer.end_with(track, &[("sig", sig.0 as u64)]);
    }

    fn semantic_vetoed(&self, sig: Sig128, code: &'static str) {
        // Per-code veto histogram: one counter per CV06x code actually hit.
        self.metrics.counter(&format!("optimizer.semantic_veto.{code}")).inc();
        let track = self.track.load(Ordering::Relaxed);
        self.tracer.begin(track, "semantic-veto");
        self.tracer.end_with(track, &[("sig", sig.0 as u64)]);
    }
}

/// Executor-side sink for one pool task: operator spans on the job's track
/// plus run-wide operator counters. `op_ns` is wall time and therefore the
/// only non-deterministic counter it touches.
struct ExecSink {
    tracer: Arc<Tracer>,
    track: u64,
    ops: Counter,
    rows: Counter,
    bytes: Counter,
    op_ns: Counter,
}

impl fmt::Debug for ExecSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecSink").field("track", &self.track).finish()
    }
}

impl ObsSink for ExecSink {
    fn op_started(&self, kind: &'static str) {
        self.tracer.begin(self.track, kind);
    }

    fn op_finished(&self, kind: &'static str, rows: u64, bytes: u64, ns: u64) {
        let _ = kind;
        self.ops.inc();
        self.rows.add(rows);
        self.bytes.add(bytes);
        self.op_ns.add(ns);
        self.tracer.end_with(self.track, &[("rows", rows), ("bytes", bytes)]);
    }
}
