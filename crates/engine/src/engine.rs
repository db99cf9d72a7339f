//! `QueryEngine`: the top-level facade combining catalog, view store, UDO
//! registry and optimizer — one simulated SCOPE engine instance per cluster.

use crate::exec::{
    execute, ExecContext, ExecMetrics, ExecOutcome, MorselRunner, PendingView, SerialRunner,
};
use crate::optimizer::{
    AlwaysGrant, BuildCoordinator, OptimizeOutcome, Optimizer, OptimizerConfig, ReuseContext,
};
use crate::physical::PhysicalPlan;
use crate::plan::LogicalPlan;
use crate::signature::{SignedPlan, SubexprInfo};
use crate::sql::{compile_sql, Params};
use crate::udo::UdoRegistry;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId};
use cv_common::{Result, SimTime};
use cv_data::catalog::DatasetCatalog;
use cv_data::table::Table;
use cv_data::viewstore::{ViewSource, ViewStore};
use std::sync::Arc;

/// A compiled + optimized job, ready for execution.
#[derive(Clone, Debug)]
pub struct CompiledJob {
    /// The bound logical plan (pre-optimization).
    pub bound: Arc<LogicalPlan>,
    pub outcome: OptimizeOutcome,
}

/// Everything a finished job reports back.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub table: Table,
    pub metrics: ExecMetrics,
    pub matched_views: Vec<Sig128>,
    pub built_views: Vec<Sig128>,
    pub physical: PhysicalPlan,
    /// Views sealed into the store by this job.
    pub sealed_views: usize,
}

/// One engine instance: catalog + view store + UDOs + optimizer.
pub struct QueryEngine {
    pub catalog: DatasetCatalog,
    pub views: ViewStore,
    pub udos: UdoRegistry,
    pub optimizer: Optimizer,
    /// Rows per morsel for chunked operators (drivers' `--chunk-size`).
    pub chunk_size: usize,
    /// Morsel runner shared by every execution; serial unless the service
    /// layer plugs in its pool-backed runner.
    pub runner: Arc<dyn MorselRunner>,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new()
    }
}

impl QueryEngine {
    pub fn new() -> QueryEngine {
        QueryEngine::with_config(OptimizerConfig::default())
    }

    pub fn with_config(cfg: OptimizerConfig) -> QueryEngine {
        QueryEngine {
            catalog: DatasetCatalog::new(),
            views: ViewStore::with_default_ttl(),
            udos: UdoRegistry::with_builtins(),
            optimizer: Optimizer::new(cfg),
            chunk_size: cv_data::chunk::DEFAULT_CHUNK_SIZE,
            runner: Arc::new(SerialRunner),
        }
    }

    /// Configure morsel execution: chunk size and the runner that fans
    /// per-chunk work across workers.
    pub fn set_morsels(&mut self, chunk_size: usize, runner: Arc<dyn MorselRunner>) {
        self.chunk_size = chunk_size.max(1);
        self.runner = runner;
    }

    /// Parse + bind SQL against the current catalog.
    pub fn compile_sql(&self, sql: &str, params: &Params) -> Result<Arc<LogicalPlan>> {
        compile_sql(sql, &self.catalog, params)
    }

    /// Normalize a bound plan once and sign it in one walk: the job's
    /// subexpressions for annotation, and what [`Self::optimize_signed`]
    /// matches and builds views against.
    pub fn sign(&self, plan: &Arc<LogicalPlan>) -> Result<SignedPlan> {
        self.optimizer.sign(plan)
    }

    /// Optimize a bound plan under reuse annotations: sign, then optimize.
    pub fn optimize(
        &self,
        plan: &Arc<LogicalPlan>,
        reuse: &ReuseContext,
        coordinator: &mut dyn BuildCoordinator,
    ) -> Result<CompiledJob> {
        let outcome = self.optimize_signed(&self.sign(plan)?, reuse, coordinator)?;
        Ok(CompiledJob { bound: plan.clone(), outcome })
    }

    /// Optimize a signed plan under reuse annotations, with the catalog's
    /// dataset sizes as scan statistics.
    pub fn optimize_signed(
        &self,
        signed: &SignedPlan,
        reuse: &ReuseContext,
        coordinator: &mut dyn BuildCoordinator,
    ) -> Result<OptimizeOutcome> {
        let catalog = &self.catalog;
        let stats = |name: &str| {
            catalog.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64))
        };
        self.optimizer.optimize(signed, reuse, &stats, coordinator)
    }

    /// Execute an optimized physical plan against the engine's own store.
    pub fn execute(&self, physical: &PhysicalPlan, now: SimTime) -> Result<ExecOutcome> {
        self.execute_with_obs(physical, &self.views, now, None)
    }

    /// Execute against an external view source with per-operator
    /// observability hooks — the entry both workload drivers use: many
    /// concurrent jobs share one striped store, or wait on in-flight builds.
    pub fn execute_with_obs(
        &self,
        physical: &PhysicalPlan,
        views: &dyn ViewSource,
        now: SimTime,
        obs: Option<&dyn crate::obs::ObsSink>,
    ) -> Result<ExecOutcome> {
        let mut ctx = ExecContext::new(&self.catalog, views, &self.udos, now)
            .with_chunking(self.chunk_size, self.runner.clone());
        ctx.obs = obs;
        execute(physical, &mut ctx, &self.optimizer.cfg.cost)
    }

    /// Seal pending views into the store (the job-manager step; the cluster
    /// simulator calls this at the producing stage's finish time for *early
    /// sealing*, paper §2.3).
    ///
    /// An injected write failure is absorbed here: the half-materialized
    /// view is discarded and simply not counted in the returned total — the
    /// job itself already succeeded, and views are throw-away artifacts. A
    /// view the store refused (a quarantined signature) is not counted
    /// either. Callers must only advertise the views actually sealed.
    pub fn seal_views(
        &mut self,
        pending: &[PendingView],
        job: JobId,
        vc: VcId,
        now: SimTime,
    ) -> Result<usize> {
        let mut sealed = 0;
        for pv in pending {
            match self.views.insert(pv.materialize(job, vc, now)) {
                Ok(()) => sealed += usize::from(self.views.contains(pv.sig)),
                Err(e) if e.is_fault() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(sealed)
    }

    /// Convenience: compile, optimize, execute and seal in one call.
    pub fn run_sql(
        &mut self,
        sql: &str,
        params: &Params,
        reuse: &ReuseContext,
        job: JobId,
        vc: VcId,
        now: SimTime,
    ) -> Result<JobOutcome> {
        let bound = self.compile_sql(sql, params)?;
        self.run_plan(&bound, reuse, job, vc, now)
    }

    /// Convenience: optimize, execute and seal a bound plan.
    pub fn run_plan(
        &mut self,
        plan: &Arc<LogicalPlan>,
        reuse: &ReuseContext,
        job: JobId,
        vc: VcId,
        now: SimTime,
    ) -> Result<JobOutcome> {
        let compiled = self.optimize(plan, reuse, &mut AlwaysGrant)?;
        let exec = self.execute(&compiled.outcome.physical, now)?;
        let sealed = self.seal_views(&exec.pending_views, job, vc, now)?;
        Ok(JobOutcome {
            table: exec.table,
            metrics: exec.metrics,
            matched_views: compiled.outcome.matched_views,
            built_views: compiled.outcome.built_views,
            physical: compiled.outcome.physical,
            sealed_views: sealed,
        })
    }

    /// Enumerate the signable subexpressions of a plan, post-normalization —
    /// the rows CloudViews logs into the workload repository.
    pub fn subexpressions(&self, plan: &Arc<LogicalPlan>) -> Result<Vec<SubexprInfo>> {
        Ok(self.sign(plan)?.subexprs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::tests::test_catalog;
    use cv_data::value::Value;

    fn engine() -> QueryEngine {
        let mut e = QueryEngine::new();
        e.catalog = test_catalog();
        e
    }

    const ASIA_AVG: &str = "SELECT c_id, AVG(price * quantity) AS avg_sales \
        FROM Sales JOIN Customer ON s_cust = c_id \
        WHERE mkt_segment = 'asia' GROUP BY c_id";

    const ASIA_QTY: &str = "SELECT c_id, SUM(quantity) AS total_qty \
        FROM Sales JOIN Customer ON s_cust = c_id \
        WHERE mkt_segment = 'asia' GROUP BY c_id";

    #[test]
    fn run_sql_end_to_end() {
        let mut e = engine();
        let out = e
            .run_sql(
                ASIA_AVG,
                &Params::none(),
                &ReuseContext::empty(),
                JobId(1),
                VcId(0),
                SimTime::EPOCH,
            )
            .unwrap();
        assert_eq!(out.table.num_rows(), 3); // segments asia = c_id 0,2,4
        assert!(out.metrics.total_work > 0.0);
        assert!(out.matched_views.is_empty());
    }

    #[test]
    fn two_jobs_share_a_view_end_to_end() {
        // The core CloudViews scenario (paper Fig. 4): job 1 materializes
        // the shared join, job 2 reuses it — and produces identical results
        // to running without reuse.
        let mut e = engine();

        // Workload analysis says: materialize the shared subexpression. We
        // find it by intersecting the two queries' subexpression sets.
        let p1 = e.compile_sql(ASIA_AVG, &Params::none()).unwrap();
        let p2 = e.compile_sql(ASIA_QTY, &Params::none()).unwrap();
        let subs1 = e.subexpressions(&p1).unwrap();
        let subs2 = e.subexpressions(&p2).unwrap();
        let sigs2: std::collections::HashSet<_> = subs2.iter().map(|s| s.strict).collect();
        let shared: Vec<_> =
            subs1.iter().filter(|s| sigs2.contains(&s.strict) && s.kind != "Scan").collect();
        assert!(!shared.is_empty(), "queries must share a non-scan subexpression");
        // Pick the largest shared subexpression.
        let best = shared.iter().max_by_key(|s| s.node_count).unwrap();

        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(best.strict);

        // Job 1: builds the view.
        let out1 = e
            .run_sql(ASIA_AVG, &Params::none(), &reuse, JobId(1), VcId(0), SimTime::EPOCH)
            .unwrap();
        assert_eq!(out1.built_views, vec![best.strict]);
        assert_eq!(out1.sealed_views, 1);
        assert_eq!(e.views.len(), 1);

        // Job 2: reuses it.
        let view = e.views.peek(best.strict, SimTime::EPOCH).unwrap();
        let mut reuse2 = ReuseContext::empty();
        reuse2
            .available
            .insert(best.strict, crate::optimizer::ViewMeta::hot(view.rows as u64, view.bytes));
        let out2 = e
            .run_sql(ASIA_QTY, &Params::none(), &reuse2, JobId(2), VcId(0), SimTime::EPOCH)
            .unwrap();
        assert_eq!(out2.matched_views, vec![best.strict]);
        assert!(out2.metrics.view_bytes_read > 0);
        assert_eq!(out2.metrics.input_bytes, 0, "no base data read at all");

        // Correctness: same result as the no-reuse run.
        let mut e2 = engine();
        let baseline = e2
            .run_sql(
                ASIA_QTY,
                &Params::none(),
                &ReuseContext::empty(),
                JobId(3),
                VcId(0),
                SimTime::EPOCH,
            )
            .unwrap();
        assert_eq!(out2.table.canonical_rows(), baseline.table.canonical_rows());

        // Efficiency: reuse did less work.
        assert!(
            out2.metrics.total_work < baseline.metrics.total_work,
            "reuse {} !< baseline {}",
            out2.metrics.total_work,
            baseline.metrics.total_work
        );
    }

    #[test]
    fn subexpression_enumeration_is_normalized() {
        let e = engine();
        // Conjunct order must not matter after normalization.
        let a = e
            .compile_sql("SELECT * FROM Sales WHERE price > 2 AND quantity < 3", &Params::none())
            .unwrap();
        let b = e
            .compile_sql("SELECT * FROM Sales WHERE quantity < 3 AND price > 2", &Params::none())
            .unwrap();
        let sa: Vec<_> = e.subexpressions(&a).unwrap().iter().map(|s| s.strict).collect();
        let sb: Vec<_> = e.subexpressions(&b).unwrap().iter().map(|s| s.strict).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn params_recur_across_instances() {
        let e = engine();
        let day1 = e
            .compile_sql(
                "SELECT * FROM Sales WHERE sale_date >= @run_date",
                &Params::with(&[("run_date", Value::Date(18_293))]),
            )
            .unwrap();
        let day2 = e
            .compile_sql(
                "SELECT * FROM Sales WHERE sale_date >= @run_date",
                &Params::with(&[("run_date", Value::Date(18_294))]),
            )
            .unwrap();
        let s1 = e.subexpressions(&day1).unwrap();
        let s2 = e.subexpressions(&day2).unwrap();
        let root1 = s1.iter().find(|s| s.is_root).unwrap();
        let root2 = s2.iter().find(|s| s.is_root).unwrap();
        assert_ne!(root1.strict, root2.strict, "strict sigs differ per day");
        assert_eq!(root1.recurring, root2.recurring, "recurring sigs collide");
    }
}
