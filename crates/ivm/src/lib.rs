//! cv-ivm — incremental maintenance of recurring aggregate views.
//!
//! CloudViews deliberately does *not* maintain views: strict signatures
//! hash input GUIDs, so a daily bulk update silently invalidates every
//! view over the regenerated dataset and the next day's jobs rebuild them
//! from scratch (paper §2.4 "Not maintained"). For the ~80% of templates
//! that recur daily over append-mostly data, that rebuild cost dwarfs the
//! actual change. This crate closes the loop:
//!
//! * the catalog's delta-producing updates ([`cv_data::delta::TableDelta`])
//!   carry signed-multiplicity change feeds between generations;
//! * the analyzer's CV07x `Maintainability` check statically certifies
//!   which defining plans distribute over deltas (retractable aggregates,
//!   integer states, Filter/Project/inner-Join/Union operators only) —
//!   any diagnostic vetoes maintenance exactly like CV06x vetoes
//!   containment matches;
//! * [`IvmEngine`] compiles certified plans into delta plans OpenIVM-style
//!   (Filter/Project distribute; an inner join expands bilinearly into
//!   `ΔL ⋈ R_cur ∪ L_prev ⋈ ΔR` against retained base snapshots) and folds
//!   the propagated delta into exact group states ([`state::ViewState`]);
//! * a per-view cost gate compares estimated maintenance rows against the
//!   full-rebuild row count and falls back to rebuild whenever
//!   maintenance would not pay (broken delta chains, plan drift from
//!   sliding-window parameters, costed-out churn days, runtime guards).
//!
//! Maintained tables are byte-identical to inline re-execution — the
//! engine's aggregate output is canonically ordered, all maintained
//! states are integer-exact, and delta evaluation reuses the engine's own
//! kernels — so re-publishing a maintained view under the new day's
//! strict signature is indistinguishable from a rebuild to every
//! downstream consumer.

// No panics on the serving path (DESIGN §9): a failure is a `CvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod state;

use cv_analyzer::Analyzer;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId};
use cv_common::{CvError, HashMap, Result, SimTime};
use cv_data::catalog::DatasetCatalog;
use cv_data::delta::TableDelta;
use cv_data::schema::SchemaRef;
use cv_data::table::Table;
use cv_data::value::DataType;
use cv_engine::engine::QueryEngine;
use cv_engine::expr::{AggFunc, ScalarExpr};
use cv_engine::normalize::normalize;
use cv_engine::optimizer::{OptimizerConfig, ReuseContext};
use cv_engine::plan::{JoinKind, LogicalPlan};
use cv_engine::signature::SignatureConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

pub use state::{KeyAtom, StateKind, ViewState};

/// Why a tracked view fell back to a full rebuild.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// An input was regenerated without a delta (plain bulk update, GDPR
    /// rotation, or the tracked generation is too old).
    ChainBroken { dataset: String },
    /// Today's defining plan differs from the tracked one after GUID
    /// rebinding — e.g. a sliding-window parameter moved.
    PlanDrift,
    /// Estimated maintenance work would not beat a rebuild (typically a
    /// dimension-churn day forcing a big-side snapshot join).
    CostedOut { maintain_rows: usize, rebuild_rows: usize },
    /// A runtime guard tripped (state overflow, exactness range, negative
    /// multiplicity). The maintained state can no longer be trusted.
    Runtime { detail: String },
}

impl RebuildReason {
    pub fn label(&self) -> &'static str {
        match self {
            RebuildReason::ChainBroken { .. } => "chain_broken",
            RebuildReason::PlanDrift => "plan_drift",
            RebuildReason::CostedOut { .. } => "costed_out",
            RebuildReason::Runtime { .. } => "runtime",
        }
    }
}

/// A successfully maintained view, ready for re-publication under the new
/// day's strict signature.
#[derive(Clone, Debug)]
pub struct MaintainedView {
    /// The view contents — byte-identical to inline re-execution of
    /// `plan` over current data.
    pub table: Table,
    /// The defining plan rebound to today's input GUIDs; its strict
    /// signature is the publication key.
    pub plan: Arc<LogicalPlan>,
    /// Rows the maintenance pass actually touched (delta rows, snapshot
    /// evaluations, intermediate results).
    pub rows_touched: usize,
    /// Rows a full rebuild would have scanned instead.
    pub rebuild_rows: usize,
}

/// Outcome of a maintenance attempt.
#[derive(Clone, Debug)]
pub enum Maintain {
    /// The template is not tracked — nothing to do.
    NotTracked,
    Maintained(MaintainedView),
    /// The view was untracked; the caller must rebuild (run the job
    /// normally) and may re-`track` afterwards.
    Rebuild {
        reason: RebuildReason,
    },
}

/// Outcome of [`IvmEngine::track`].
#[derive(Clone, Debug)]
pub enum TrackOutcome {
    Tracked {
        bootstrap_rows: usize,
    },
    /// The analyzer's CV07x gate vetoed maintenance for this plan.
    Refused {
        codes: Vec<&'static str>,
    },
}

/// Counters for the simulation harness and obs export.
#[derive(Clone, Debug, Default)]
pub struct IvmStats {
    /// Maintenance passes that produced a view without a rebuild.
    pub maintained: u64,
    /// Maintenance attempts that fell back to a rebuild.
    pub rebuilt: u64,
    /// Plans refused by the CV07x gate at track time.
    pub refused: u64,
    /// Veto counts per CV07x diagnostic code.
    pub vetoes: BTreeMap<&'static str, u64>,
    /// Fallback counts per rebuild reason label.
    pub rebuild_reasons: BTreeMap<&'static str, u64>,
    /// Rows touched by successful maintenance passes.
    pub rows_maintained: u64,
    /// Rows touched bootstrapping group states at track time.
    pub rows_bootstrap: u64,
    /// Rows the same passes would have scanned as full rebuilds.
    pub rows_rebuild_baseline: u64,
}

struct TrackedView {
    /// Defining plan bound to the input GUIDs of the last build or
    /// maintenance pass.
    plan: Arc<LogicalPlan>,
    shape: ViewShape,
    state: ViewState,
}

/// The static decomposition of a certified aggregate plan.
struct ViewShape {
    /// The aggregate's input subtree (everything below the root).
    input: Arc<LogicalPlan>,
    /// Projection evaluating group keys then aggregate arguments, used to
    /// turn delta rows into state updates with the engine's own
    /// expression kernels.
    proj: Vec<(ScalarExpr, String)>,
    /// The aggregate's output schema (the emitted view schema).
    schema: SchemaRef,
}

/// Incremental view maintenance engine: tracks certified aggregate views
/// per recurring template and maintains them across catalog generations.
pub struct IvmEngine {
    analyzer: Analyzer,
    sig: SignatureConfig,
    tracked: HashMap<Sig128, TrackedView>,
    cost_gate: bool,
    pub stats: IvmStats,
}

impl IvmEngine {
    pub fn new(cfg: &OptimizerConfig) -> IvmEngine {
        IvmEngine {
            analyzer: Analyzer::new(cfg),
            sig: cfg.sig.clone(),
            tracked: HashMap::default(),
            cost_gate: true,
            stats: IvmStats::default(),
        }
    }

    /// Disable (or re-enable) the rebuild-vs-maintain cost gate. With the
    /// gate off every structurally maintainable delta is applied no
    /// matter the estimated cost — used by differential tests to force
    /// both sides of a join delta through in one day.
    pub fn set_cost_gate(&mut self, enabled: bool) {
        self.cost_gate = enabled;
    }

    pub fn is_tracked(&self, template: Sig128) -> bool {
        self.tracked.contains_key(&template)
    }

    /// Start maintaining a view that a job just built by full execution.
    /// The plan is normalized, gated through the analyzer's CV07x check,
    /// and — if certified — its group state is bootstrapped from the
    /// current input snapshots so the next day's deltas apply on top.
    pub fn track(
        &mut self,
        template: Sig128,
        plan: &Arc<LogicalPlan>,
        catalog: &DatasetCatalog,
    ) -> Result<TrackOutcome> {
        let plan = normalize(plan, &self.sig)?;
        let report = self.analyzer.check_maintainability(&plan);
        let codes = report.codes();
        if !codes.is_empty() {
            self.stats.refused += 1;
            for c in &codes {
                *self.stats.vetoes.entry(c).or_insert(0) += 1;
            }
            return Ok(TrackOutcome::Refused { codes });
        }
        let (shape, mut state) = compile_shape(&plan)?;
        let mut scratch = Scratch::new();
        let classes = HashMap::default();
        let input_cur = scratch.eval_snapshot(&shape.input, Snap::Cur, catalog, &classes)?;
        fold(&mut scratch, &shape, &mut state, input_cur, 1)?;
        let bootstrap_rows = scratch.rows_touched;
        self.stats.rows_bootstrap += bootstrap_rows as u64;
        self.tracked.insert(template, TrackedView { plan, shape, state });
        Ok(TrackOutcome::Tracked { bootstrap_rows })
    }

    /// Attempt to maintain a tracked view across today's catalog
    /// generations. On success the tracked plan is rebound to today's
    /// GUIDs and the state stays live for tomorrow; on any fallback the
    /// view is untracked and the caller rebuilds.
    pub fn maintain(
        &mut self,
        template: Sig128,
        today_plan: &Arc<LogicalPlan>,
        catalog: &DatasetCatalog,
    ) -> Maintain {
        let Some(mut tv) = self.tracked.remove(&template) else {
            return Maintain::NotTracked;
        };
        let attempt = attempt_maintain(&self.sig, self.cost_gate, &mut tv, today_plan, catalog);
        let reason = match attempt {
            Ok(Ok(mv)) => {
                self.stats.maintained += 1;
                self.stats.rows_maintained += mv.rows_touched as u64;
                self.stats.rows_rebuild_baseline += mv.rebuild_rows as u64;
                self.tracked.insert(template, tv);
                return Maintain::Maintained(mv);
            }
            Ok(Err(reason)) => reason,
            Err(e) => RebuildReason::Runtime { detail: e.to_string() },
        };
        self.stats.rebuilt += 1;
        *self.stats.rebuild_reasons.entry(reason.label()).or_insert(0) += 1;
        Maintain::Rebuild { reason }
    }
}

/// Rebind every `Scan` in a (maintainable-subset) plan to the catalog's
/// current GUIDs — the plan a rebuild would compile today, assuming no
/// structural drift.
pub fn rebind(plan: &Arc<LogicalPlan>, catalog: &DatasetCatalog) -> Result<Arc<LogicalPlan>> {
    if let LogicalPlan::Scan { dataset, schema, .. } = &**plan {
        let ds = catalog.get_by_name(dataset)?;
        return Ok(Arc::new(LogicalPlan::Scan {
            dataset: dataset.clone(),
            guid: ds.current_guid(),
            schema: schema.clone(),
        }));
    }
    let children: Result<Vec<Arc<LogicalPlan>>> =
        plan.children().into_iter().map(|c| rebind(c, catalog)).collect();
    Ok(Arc::new(plan.with_children(children?)?))
}

/// How one leaf dataset changed relative to the tracked plan's GUID.
enum LeafClass {
    Unchanged,
    Changed(TableDelta),
}

impl LeafClass {
    /// Whether the delta actually carries rows (an empty delta still
    /// rotates the GUID, which matters for re-publication but not for
    /// state updates).
    fn has_rows(&self) -> bool {
        match self {
            LeafClass::Unchanged => false,
            LeafClass::Changed(d) => !d.is_empty(),
        }
    }

    fn delta_rows(&self) -> usize {
        match self {
            LeafClass::Unchanged => 0,
            LeafClass::Changed(d) => d.rows_touched(),
        }
    }
}

fn attempt_maintain(
    sig: &SignatureConfig,
    cost_gate: bool,
    tv: &mut TrackedView,
    today_plan: &Arc<LogicalPlan>,
    catalog: &DatasetCatalog,
) -> Result<std::result::Result<MaintainedView, RebuildReason>> {
    // 1. Rebind + structural drift check: maintaining a *different* query
    // (e.g. a moved sliding window) over deltas would be unsound.
    let Ok(rebound) = rebind(&tv.plan, catalog) else {
        return Ok(Err(RebuildReason::ChainBroken { dataset: "<missing>".into() }));
    };
    let today = normalize(today_plan, sig)?;
    if rebound != today {
        return Ok(Err(RebuildReason::PlanDrift));
    }

    // 2. Classify every leaf against the tracked GUIDs.
    let mut classes = HashMap::default();
    if let Some(dataset) = classify(&tv.plan, catalog, &mut classes)? {
        return Ok(Err(RebuildReason::ChainBroken { dataset }));
    }

    // 3. Nothing changed row-wise: emit straight from state. Credit a
    // rebuild baseline only if some GUID actually rotated (otherwise
    // yesterday's sealed view would still match and IVM saves nothing).
    let any_rows = classes.values().any(LeafClass::has_rows);
    let any_guid = classes.values().any(|c| matches!(c, LeafClass::Changed(_)));
    if !any_rows {
        let table = tv.state.emit(&tv.shape.schema)?;
        tv.plan = rebound.clone();
        let rebuild_rows = if any_guid { estimate(&tv.plan, &classes, catalog)?.1 } else { 0 };
        return Ok(Ok(MaintainedView { table, plan: rebound, rows_touched: 0, rebuild_rows }));
    }

    // 4. Cost gate: maintenance must touch strictly fewer rows than a
    // full rebuild would scan.
    let (maintain_rows, rebuild_rows) = estimate(&tv.plan, &classes, catalog)?;
    if cost_gate && maintain_rows >= rebuild_rows {
        return Ok(Err(RebuildReason::CostedOut { maintain_rows, rebuild_rows }));
    }

    // 5. Propagate the deltas through the defining plan and fold them
    // into the group state.
    let mut scratch = Scratch::new();
    let delta = node_delta(&mut scratch, &tv.shape.input, &classes, catalog)?;
    fold(&mut scratch, &tv.shape, &mut tv.state, delta.inserts, 1)?;
    fold(&mut scratch, &tv.shape, &mut tv.state, delta.deletes, -1)?;
    tv.state.prune()?;
    let table = tv.state.emit(&tv.shape.schema)?;
    tv.plan = rebound.clone();
    let rows_touched = scratch.rows_touched;
    Ok(Ok(MaintainedView { table, plan: rebound, rows_touched, rebuild_rows }))
}

/// Walk the plan's leaves; returns `Some(dataset)` on the first broken
/// delta chain.
fn classify(
    plan: &Arc<LogicalPlan>,
    catalog: &DatasetCatalog,
    out: &mut HashMap<String, LeafClass>,
) -> Result<Option<String>> {
    if let LogicalPlan::Scan { dataset, guid, .. } = &**plan {
        if catalog.id_of(dataset).is_none() {
            return Ok(Some(dataset.clone()));
        }
        let ds = catalog.get_by_name(dataset)?;
        let class = if ds.current_guid() == *guid {
            LeafClass::Unchanged
        } else if let Some(d) = ds.delta_from(*guid) {
            LeafClass::Changed(d.clone())
        } else {
            return Ok(Some(dataset.clone()));
        };
        out.insert(dataset.clone(), class);
        return Ok(None);
    }
    for c in plan.children() {
        if let Some(broken) = classify(c, catalog, out)? {
            return Ok(Some(broken));
        }
    }
    Ok(None)
}

fn subtree_has_rows(plan: &Arc<LogicalPlan>, classes: &HashMap<String, LeafClass>) -> bool {
    if let LogicalPlan::Scan { dataset, .. } = &**plan {
        return classes.get(dataset).is_some_and(LeafClass::has_rows);
    }
    plan.children().iter().any(|c| subtree_has_rows(c, classes))
}

/// `(estimated maintenance rows, full-rebuild rows)` for a subtree. The
/// maintenance estimate charges each delta's rows plus, per join, the
/// sibling snapshot that a bilinear term has to evaluate; the rebuild
/// baseline is every leaf's current row count.
fn estimate(
    plan: &Arc<LogicalPlan>,
    classes: &HashMap<String, LeafClass>,
    catalog: &DatasetCatalog,
) -> Result<(usize, usize)> {
    match &**plan {
        LogicalPlan::Scan { dataset, .. } => {
            let cur = catalog.get_by_name(dataset)?.rows();
            let d = classes.get(dataset).map_or(0, LeafClass::delta_rows);
            Ok((d, cur))
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } => estimate(input, classes, catalog),
        LogicalPlan::Union { inputs } => {
            let mut m = 0;
            let mut r = 0;
            for i in inputs {
                let (mi, ri) = estimate(i, classes, catalog)?;
                m += mi;
                r += ri;
            }
            Ok((m, r))
        }
        LogicalPlan::Join { left, right, .. } => {
            let (ml, rl) = estimate(left, classes, catalog)?;
            let (mr, rr) = estimate(right, classes, catalog)?;
            let mut m = ml + mr;
            if subtree_has_rows(left, classes) {
                m += rr; // ΔL ⋈ R_cur evaluates the right snapshot
            }
            if subtree_has_rows(right, classes) {
                m += rl; // L_prev ⋈ ΔR evaluates the left snapshot
            }
            Ok((m, rl + rr))
        }
        other => Err(CvError::plan(format!(
            "IVM cost estimate over non-maintainable operator {}",
            other.kind_name()
        ))),
    }
}

/// Which generation a snapshot evaluation reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Snap {
    /// Post-update contents (today).
    Cur,
    /// Pre-update contents (yesterday) — the retained base snapshot for
    /// datasets that changed, current contents for ones that didn't.
    Prev,
}

/// A scratch evaluation context: a throwaway engine whose catalog holds
/// delta tables and base snapshots, so delta plans run through the exact
/// same optimizer and kernels as inline execution.
struct Scratch {
    engine: QueryEngine,
    leaf_cache: HashMap<(Snap, String), Arc<LogicalPlan>>,
    next: usize,
    rows_touched: usize,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            engine: QueryEngine::new(),
            leaf_cache: HashMap::default(),
            next: 0,
            rows_touched: 0,
        }
    }

    /// Register a table under a fresh scratch dataset and return a Scan
    /// of it pinned to the scratch GUID.
    fn register(&mut self, label: &str, table: Table) -> Result<Arc<LogicalPlan>> {
        let name = format!("__ivm_{}_{label}", self.next);
        self.next += 1;
        self.rows_touched += table.num_rows();
        let id = self.engine.catalog.register(name.clone(), table, SimTime::EPOCH)?;
        let ds = self.engine.catalog.get(id)?;
        Ok(Arc::new(LogicalPlan::Scan {
            dataset: name,
            guid: ds.current_guid(),
            schema: ds.schema.clone(),
        }))
    }

    fn run(&mut self, plan: Arc<LogicalPlan>) -> Result<Table> {
        let out = self.engine.run_plan(
            &plan,
            &ReuseContext::empty(),
            JobId(0),
            VcId(0),
            SimTime::EPOCH,
        )?;
        self.rows_touched += out.table.num_rows();
        Ok(out.table)
    }

    /// Evaluate a subtree over `Cur` or `Prev` base snapshots.
    fn eval_snapshot(
        &mut self,
        plan: &Arc<LogicalPlan>,
        snap: Snap,
        catalog: &DatasetCatalog,
        classes: &HashMap<String, LeafClass>,
    ) -> Result<Table> {
        let rewritten = self.rewrite(plan, snap, catalog, classes)?;
        self.run(rewritten)
    }

    fn rewrite(
        &mut self,
        plan: &Arc<LogicalPlan>,
        snap: Snap,
        catalog: &DatasetCatalog,
        classes: &HashMap<String, LeafClass>,
    ) -> Result<Arc<LogicalPlan>> {
        if let LogicalPlan::Scan { dataset, .. } = &**plan {
            return self.leaf(dataset, snap, catalog, classes);
        }
        let children: Result<Vec<Arc<LogicalPlan>>> =
            plan.children().into_iter().map(|c| self.rewrite(c, snap, catalog, classes)).collect();
        Ok(Arc::new(plan.with_children(children?)?))
    }

    fn leaf(
        &mut self,
        dataset: &str,
        snap: Snap,
        catalog: &DatasetCatalog,
        classes: &HashMap<String, LeafClass>,
    ) -> Result<Arc<LogicalPlan>> {
        let key = (snap, dataset.to_string());
        if let Some(scan) = self.leaf_cache.get(&key) {
            return Ok(scan.clone());
        }
        let ds = catalog.get_by_name(dataset)?;
        let table = match snap {
            Snap::Cur => ds.data().clone(),
            // `Prev` only differs for datasets the tracked plan saw
            // change; unchanged ones are already at yesterday's contents.
            Snap::Prev => match classes.get(dataset) {
                Some(LeafClass::Changed(_)) => ds
                    .prev_snapshot()
                    .ok_or_else(|| {
                        CvError::exec(format!(
                            "dataset `{dataset}` changed but retains no base snapshot"
                        ))
                    })?
                    .1
                    .clone(),
                _ => ds.data().clone(),
            },
        };
        let label = match snap {
            Snap::Cur => format!("cur_{dataset}"),
            Snap::Prev => format!("prev_{dataset}"),
        };
        let scan = self.register(&label, table)?;
        self.leaf_cache.insert(key, scan.clone());
        Ok(scan)
    }

    /// Inner-join two materialized tables with the engine, projecting the
    /// output into `schema`'s column order. The projection is load-bearing:
    /// the engine canonically reorders inner-join sides by strict
    /// signature, so the raw join output's column order is not stable.
    fn join(
        &mut self,
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        on: &[(String, String)],
        schema: &SchemaRef,
    ) -> Result<Table> {
        let join =
            Arc::new(LogicalPlan::Join { left, right, on: on.to_vec(), kind: JoinKind::Inner });
        let exprs: Vec<(ScalarExpr, String)> = schema
            .fields()
            .iter()
            .map(|f| (ScalarExpr::Column(f.name.clone()), f.name.clone()))
            .collect();
        self.run(Arc::new(LogicalPlan::Project { exprs, input: join }))
    }
}

/// Propagate leaf deltas up to `plan`'s output: the returned delta
/// carries `old_output ⊎ inserts ∖ deletes = new_output` (bag semantics).
fn node_delta(
    scratch: &mut Scratch,
    plan: &Arc<LogicalPlan>,
    classes: &HashMap<String, LeafClass>,
    catalog: &DatasetCatalog,
) -> Result<TableDelta> {
    match &**plan {
        LogicalPlan::Scan { dataset, schema, .. } => match classes.get(dataset) {
            Some(LeafClass::Changed(d)) => Ok(d.clone()),
            Some(LeafClass::Unchanged) => Ok(TableDelta::empty(schema.clone())),
            None => Err(CvError::exec(format!("unclassified IVM leaf `{dataset}`"))),
        },
        // Filters and projections distribute over signed multisets: apply
        // the operator to each side independently.
        LogicalPlan::Filter { predicate, input } => {
            let child = node_delta(scratch, input, classes, catalog)?;
            let schema = plan.schema()?;
            if child.is_empty() {
                return Ok(TableDelta::empty(schema));
            }
            let ins_scan = scratch.register("fins", child.inserts)?;
            let inserts = scratch.run(Arc::new(LogicalPlan::Filter {
                predicate: predicate.clone(),
                input: ins_scan,
            }))?;
            let del_scan = scratch.register("fdel", child.deletes)?;
            let deletes = scratch.run(Arc::new(LogicalPlan::Filter {
                predicate: predicate.clone(),
                input: del_scan,
            }))?;
            Ok(TableDelta { inserts, deletes })
        }
        LogicalPlan::Project { exprs, input } => {
            let child = node_delta(scratch, input, classes, catalog)?;
            let schema = plan.schema()?;
            if child.is_empty() {
                return Ok(TableDelta::empty(schema));
            }
            let ins_scan = scratch.register("pins", child.inserts)?;
            let inserts = scratch
                .run(Arc::new(LogicalPlan::Project { exprs: exprs.clone(), input: ins_scan }))?;
            let del_scan = scratch.register("pdel", child.deletes)?;
            let deletes = scratch
                .run(Arc::new(LogicalPlan::Project { exprs: exprs.clone(), input: del_scan }))?;
            Ok(TableDelta { inserts, deletes })
        }
        // Inner joins are bilinear over deltas:
        //   Δ(L ⋈ R) = ΔL ⋈ R_cur  ∪  L_prev ⋈ ΔR
        // with each signed term splitting into insert/delete joins. A
        // side whose delta is empty skips its term entirely — the common
        // fact ⋈ dimension case touches only the fact delta and the small
        // dimension snapshot.
        LogicalPlan::Join { left, right, on, kind } => {
            if *kind != JoinKind::Inner {
                return Err(CvError::plan(format!("IVM delta over non-inner join {kind:?}")));
            }
            let schema = plan.schema()?;
            let dl = node_delta(scratch, left, classes, catalog)?;
            let dr = node_delta(scratch, right, classes, catalog)?;
            let mut inserts = Table::empty(schema.clone());
            let mut deletes = Table::empty(schema);
            if !dl.is_empty() {
                let r_cur = scratch.eval_snapshot(right, Snap::Cur, catalog, classes)?;
                let r_scan = scratch.register("rcur", r_cur)?;
                if dl.inserts.num_rows() > 0 {
                    let l = scratch.register("jlins", dl.inserts)?;
                    inserts = inserts.concat(&scratch.join(
                        l,
                        r_scan.clone(),
                        on,
                        inserts.schema(),
                    )?)?;
                }
                if dl.deletes.num_rows() > 0 {
                    let l = scratch.register("jldel", dl.deletes)?;
                    deletes = deletes.concat(&scratch.join(l, r_scan, on, deletes.schema())?)?;
                }
            }
            if !dr.is_empty() {
                let l_prev = scratch.eval_snapshot(left, Snap::Prev, catalog, classes)?;
                let l_scan = scratch.register("lprev", l_prev)?;
                if dr.inserts.num_rows() > 0 {
                    let r = scratch.register("jrins", dr.inserts)?;
                    inserts = inserts.concat(&scratch.join(
                        l_scan.clone(),
                        r,
                        on,
                        inserts.schema(),
                    )?)?;
                }
                if dr.deletes.num_rows() > 0 {
                    let r = scratch.register("jrdel", dr.deletes)?;
                    deletes = deletes.concat(&scratch.join(l_scan, r, on, deletes.schema())?)?;
                }
            }
            Ok(TableDelta { inserts, deletes })
        }
        LogicalPlan::Union { inputs } => {
            let schema = plan.schema()?;
            let mut inserts = Table::empty(schema.clone());
            let mut deletes = Table::empty(schema);
            for i in inputs {
                let d = node_delta(scratch, i, classes, catalog)?;
                inserts = inserts.concat(&d.inserts)?;
                deletes = deletes.concat(&d.deletes)?;
            }
            Ok(TableDelta { inserts, deletes })
        }
        other => Err(CvError::plan(format!(
            "IVM delta over non-maintainable operator {}",
            other.kind_name()
        ))),
    }
}

/// Evaluate the shape's key/argument projection over a delta (or
/// bootstrap) table and fold the rows into the state with the given
/// multiplicity.
fn fold(
    scratch: &mut Scratch,
    shape: &ViewShape,
    state: &mut ViewState,
    table: Table,
    mult: i64,
) -> Result<()> {
    let n = table.num_rows();
    if shape.proj.is_empty() {
        // Pure COUNT(*) without group keys: only the multiplicity counts.
        return state.apply(None, n, mult);
    }
    if n == 0 {
        return Ok(());
    }
    let scan = scratch.register("fold", table)?;
    let evaled =
        scratch.run(Arc::new(LogicalPlan::Project { exprs: shape.proj.clone(), input: scan }))?;
    state.apply(Some(&evaled), evaled.num_rows(), mult)
}

/// Decompose a certified plan (root `Aggregate`) into its maintenance
/// shape and an empty state. The CV07x gate has already refused anything
/// this function would choke on; its own checks are defense in depth.
fn compile_shape(plan: &Arc<LogicalPlan>) -> Result<(ViewShape, ViewState)> {
    let LogicalPlan::Aggregate { group_by, aggs, input } = &**plan else {
        return Err(CvError::plan(format!(
            "IVM shape: root must be Aggregate, found {}",
            plan.kind_name()
        )));
    };
    let in_schema = input.schema()?;
    let mut proj: Vec<(ScalarExpr, String)> =
        group_by.iter().enumerate().map(|(i, (e, _))| (e.clone(), format!("__k{i}"))).collect();
    let mut specs = Vec::with_capacity(aggs.len());
    for (j, a) in aggs.iter().enumerate() {
        let kind = match (a.func, &a.arg) {
            (AggFunc::Count, None) => StateKind::CountStar,
            (AggFunc::Count, Some(_)) => StateKind::CountNonNull,
            (AggFunc::Sum, Some(arg)) => {
                if arg.dtype(&in_schema)? != DataType::Int {
                    return Err(CvError::plan("IVM shape: SUM over non-INT argument"));
                }
                StateKind::SumInt
            }
            (AggFunc::Avg, Some(arg)) => {
                if !matches!(arg.dtype(&in_schema)?, DataType::Int | DataType::Date) {
                    return Err(CvError::plan("IVM shape: AVG over non-INT/DATE argument"));
                }
                StateKind::AvgInt
            }
            (func, _) => {
                return Err(CvError::plan(format!(
                    "IVM shape: non-maintainable aggregate {}",
                    func.name()
                )))
            }
        };
        let arg_col = match &a.arg {
            Some(e) => {
                proj.push((e.clone(), format!("__a{j}")));
                Some(proj.len() - 1)
            }
            None => None,
        };
        specs.push((kind, arg_col));
    }
    let schema = plan.schema()?;
    Ok((ViewShape { input: input.clone(), proj, schema }, ViewState::new(group_by.len(), specs)))
}
