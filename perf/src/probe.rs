//! Engine-altitude probe: the layers a job crosses, timed one public call at
//! a time.
//!
//! The service driver reports phase walls, not what a single job spends in
//! the parser, the binder, the normalizer, the signature enumerator, the
//! insights annotator, the optimizer, the verifier and the prover. The probe
//! replays the last day's job set on its own engine and puts a clock around
//! each of those calls. Its numbers are per-call medians for attribution;
//! they are never added into an end-to-end metric.

use crate::report::Report;
use crate::stats;
use cv_analyzer::Analyzer;
use cv_common::hash::StableHasher;
use cv_common::ids::JobId;
use cv_common::rng::DetRng;
use cv_common::{Result, SimDay};
use cv_core::insights::ViewInfo;
use cv_core::selection::{
    ExactSelector, GreedySelector, LabelPropagationSelector, SelectionConstraints, ViewSelector,
};
use cv_core::{build_problem, InsightsService, SubexpressionRepo};
use cv_data::viewstore::ViewStore;
use cv_engine::containment::{ContainmentProof, ContainmentProver, ContainmentRefusal};
use cv_engine::engine::{CompiledJob, QueryEngine};
use cv_engine::normalize::normalize;
use cv_engine::optimizer::{AlwaysGrant, ReuseContext};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{enumerate_subexpressions, template_signature, SubexprInfo};
use cv_engine::sql::Params;
use cv_engine::verify::PlanVerifier;
use cv_workload::schemas::raw_specs;
use cv_workload::templates::TemplateBody;
use cv_workload::{DriverConfig, SelectorKind, Workload};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-call timings in microseconds, keyed by the metric they feed.
#[derive(Debug, Default)]
pub struct Samples {
    micros: BTreeMap<&'static str, Vec<f64>>,
    subexprs: Vec<f64>,
}

impl Samples {
    fn time<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        self.micros.entry(layer).or_default().push(started.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Write the probe's metrics; a layer that never ran stays unmeasured.
    pub fn report(&self, report: &mut Report) {
        for (layer, samples) in &self.micros {
            report.set_samples(layer, samples);
        }
        report.set("signature.subexprs_per_job", stats::median(&self.subexprs));
    }
}

/// A job as the optimizer receives it, plus what the reuse loop derives
/// from it.
pub struct FrontEnd {
    pub bound: Arc<LogicalPlan>,
    normalized: Arc<LogicalPlan>,
    subexprs: Vec<SubexprInfo>,
}

/// Parse, bind, normalize and enumerate one SQL job, each under its own
/// clock.
pub fn front_end(
    engine: &QueryEngine,
    sql: &str,
    params: &Params,
    samples: &mut Samples,
) -> Result<FrontEnd> {
    let query = samples.time("sql.parse_us_p50", || cv_engine::sql::parse(sql))?;
    let bound = samples
        .time("sql.bind_us_p50", || cv_engine::sql::bind(&query, &engine.catalog, params))?;
    normalize_and_enumerate(engine, bound, samples)
}

fn normalize_and_enumerate(
    engine: &QueryEngine,
    bound: Arc<LogicalPlan>,
    samples: &mut Samples,
) -> Result<FrontEnd> {
    let sig = &engine.optimizer.cfg.sig;
    let normalized = samples.time("normalize.us_p50", || normalize(&bound, sig))?;
    let subexprs =
        samples.time("signature.enumerate_us_p50", || enumerate_subexpressions(&normalized, sig));
    samples.subexprs.push(subexprs.len() as f64);
    Ok(FrontEnd { bound, normalized, subexprs })
}

/// Optimize without reuse annotations and audit the result — the compile
/// cost every job pays whether or not CloudViews is on.
pub fn optimize_plain(
    engine: &QueryEngine,
    job: &FrontEnd,
    samples: &mut Samples,
) -> Result<CompiledJob> {
    let reuse = ReuseContext::empty();
    let compiled = samples.time("optimizer.noreuse_us_p50", || {
        engine.optimize(&job.bound, &reuse, &mut AlwaysGrant)
    })?;
    verify(engine, job, &compiled, &reuse, samples)?;
    Ok(compiled)
}

fn verify(
    engine: &QueryEngine,
    job: &FrontEnd,
    compiled: &CompiledJob,
    reuse: &ReuseContext,
    samples: &mut Samples,
) -> Result<()> {
    let analyzer = Analyzer::new(&engine.optimizer.cfg);
    samples.time("analyzer.verify_us_p50", || {
        analyzer.verify_logical(&job.normalized, &compiled.outcome.logical, reuse)?;
        analyzer.verify_physical(&compiled.outcome.physical)
    })
}

/// The analyzer's containment prover with a clock around each proof.
#[derive(Debug)]
struct TimedProver {
    inner: Analyzer,
    micros: Mutex<Vec<f64>>,
}

impl ContainmentProver for TimedProver {
    fn prove(
        &self,
        view: &Arc<LogicalPlan>,
        candidate: &Arc<LogicalPlan>,
    ) -> std::result::Result<ContainmentProof, ContainmentRefusal> {
        let started = Instant::now();
        let verdict = self.inner.prove(view, candidate);
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.micros.lock().expect("prover timings poisoned").push(us);
        verdict
    }
}

/// What the probe learned beyond timings.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    pub jobs: u64,
    pub selected_views: u64,
    pub analysis_ms: f64,
    pub catalog_register_ms: f64,
}

/// Same derivation as the drivers' per-(dataset, day) stream, so the probe
/// sees tables of the size and skew the measured run saw.
fn data_rng(seed: u64, dataset: &str, day: SimDay) -> DetRng {
    let mut h = StableHasher::with_domain("workload-data");
    h.write_u64(seed);
    h.write_str(dataset);
    h.write_u64(day.index() as u64);
    DetRng::seed(h.finish64())
}

/// Replay the last day of `workload` job by job at engine altitude. `repo`
/// is the subexpression history a full run of the same workload returned;
/// with CloudViews on it feeds one workload-analysis pass whose selection
/// the replayed jobs then build and reuse.
pub fn replay_last_day(
    workload: &Workload,
    cfg: &DriverConfig,
    repo: &SubexpressionRepo,
    samples: &mut Samples,
) -> Result<ProbeCounts> {
    let mut counts = ProbeCounts::default();
    let day = SimDay(cfg.days.saturating_sub(1));
    let mut engine = QueryEngine::with_config(cfg.optimizer.clone());
    engine.chunk_size = cfg.chunk_size.max(1);
    engine.views = ViewStore::new(cfg.view_ttl);
    let prover = Arc::new(TimedProver {
        inner: Analyzer::new(&cfg.optimizer),
        micros: Mutex::new(Vec::new()),
    });
    engine.optimizer.set_prover(prover.clone());

    for spec in raw_specs() {
        let generated = SimDay(day.index() - day.index() % spec.update_every_days);
        let mut rng = data_rng(workload.config.seed, spec.name, generated);
        let table = spec.generate(&mut rng, workload.config.scale, generated);
        let started = Instant::now();
        engine.catalog.register(spec.name, table, day.start())?;
        counts.catalog_register_ms += started.elapsed().as_secs_f64() * 1e3;
    }

    let mut insights = InsightsService::new(cfg.controls.clone());
    if let Some(knobs) = &cfg.cloudviews {
        let from = SimDay((day.index() + 1).saturating_sub(knobs.analysis_window_days));
        let window = repo.window(from, SimDay(day.index() + 1));
        let started = Instant::now();
        let problem = build_problem(&window, knobs.min_frequency);
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
        let selection = selector.select(&problem, &constraints);
        counts.analysis_ms = started.elapsed().as_secs_f64() * 1e3;
        counts.selected_views = selection.len() as u64;
        insights.publish_selection(None, selection.chosen);
    }

    let mut due: Vec<_> = workload.templates.iter().filter(|t| t.due_on(day)).collect();
    due.sort_by(|a, b| {
        a.submit_time(day).seconds().total_cmp(&b.submit_time(day).seconds()).then(a.id.cmp(&b.id))
    });
    for (i, template) in due.into_iter().enumerate() {
        let job = JobId(i as u64);
        let submit = template.submit_time(day);
        let front = match &template.body {
            TemplateBody::Sql(sql) => front_end(&engine, sql, &template.params_for(day), samples)?,
            TemplateBody::CookPageViews => {
                normalize_and_enumerate(&engine, template.build_plan(&engine, day)?, samples)?
            }
        };
        let plain = optimize_plain(&engine, &front, samples)?;
        let compiled = if cfg.cloudviews.is_some() {
            let reuse = samples.time("core.annotate_us_p50", || {
                insights.annotate(template.vc, job, &front.subexprs, submit).0
            });
            let started = Instant::now();
            let compiled = engine.optimize(&front.bound, &reuse, &mut insights.locker())?;
            let us = started.elapsed().as_secs_f64() * 1e6;
            // Attribute the call to what it ended up doing.
            if !compiled.outcome.matched_views.is_empty() {
                samples.micros.entry("optimizer.match_us_p50").or_default().push(us);
            } else if !compiled.outcome.built_views.is_empty() {
                samples.micros.entry("optimizer.build_us_p50").or_default().push(us);
            }
            verify(&engine, &front, &compiled, &reuse, samples)?;
            compiled
        } else {
            plain
        };

        let exec = engine.execute(&compiled.outcome.physical, submit)?;
        engine.seal_views(&exec.pending_views, job, template.vc, submit)?;
        for pv in &exec.pending_views {
            let defining =
                compiled.outcome.built_plans.iter().find(|(s, _)| *s == pv.sig).map(|(_, p)| p);
            insights.report_sealed(
                ViewInfo {
                    strict: pv.sig,
                    recurring: pv.recurring_sig,
                    rows: pv.data.num_rows() as u64,
                    bytes: pv.data.byte_size(),
                    sealed_at: submit,
                    expires: submit + cfg.view_ttl,
                    vc: template.vc,
                    template: defining
                        .and_then(|p| template_signature(p, &engine.optimizer.cfg.sig)),
                    plan: defining.cloned(),
                },
                job,
            );
        }
        if !compiled.outcome.matched_views.is_empty() {
            insights.record_reuse(&compiled.outcome.matched_views, job, submit);
        }
        if let Some(output) = template.output_dataset() {
            engine.catalog.register(output, exec.table, submit)?;
        }
        counts.jobs += 1;
    }

    let proofs = std::mem::take(&mut *prover.micros.lock().expect("prover timings poisoned"));
    if !proofs.is_empty() {
        samples.micros.insert("analyzer.prove_us_p50", proofs);
    }
    Ok(counts)
}
