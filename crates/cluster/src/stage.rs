//! Stage graphs: the unit of scheduling in the job service.
//!
//! A physical operator tree is flattened into a DAG of stages, one per
//! operator (a deliberate simplification: SCOPE fuses streaming operators
//! into super-vertices, but per-operator stages expose the same dependency
//! structure, partition counts and work distribution, which is all the
//! scheduler consumes). Each stage carries
//!
//! * `partitions` — task fan-out, from the optimizer's **estimated**
//!   cardinality (over-estimates ⇒ over-partitioning, paper §3.5);
//! * `work` — total work units, from the executor's **actual** metrics;
//! * `seals_view` — set on spool stages, for early sealing.

use cv_common::hash::Sig128;
use cv_common::{CvError, Result};
use cv_engine::exec::OpProfile;
use cv_engine::physical::PhysicalPlan;

/// One schedulable stage.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Index within the owning [`StageGraph`].
    pub id: usize,
    pub kind: String,
    /// Total work units across all partitions.
    pub work: f64,
    /// Number of parallel tasks (containers) this stage fans out to.
    pub partitions: usize,
    /// Ids of stages that must complete first.
    pub deps: Vec<usize>,
    /// Spool stages seal this view on completion (early sealing, §2.3).
    pub seals_view: Option<Sig128>,
    /// Set by the checkpointing extension: when the job restarts after a
    /// failure, checkpointed stages are not re-run (§5.6 "Checkpointing").
    pub checkpointed: bool,
}

/// A job's stage DAG.
#[derive(Clone, Debug, Default)]
pub struct StageGraph {
    pub stages: Vec<Stage>,
}

impl StageGraph {
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    pub fn total_work(&self) -> f64 {
        self.stages.iter().map(|s| s.work).sum()
    }

    pub fn widest_stage(&self) -> usize {
        self.stages.iter().map(|s| s.partitions).max().unwrap_or(1)
    }

    /// Critical-path work at unbounded parallelism: longest dependency chain
    /// weighted by per-partition work. Used by tests as a latency lower
    /// bound and by schedule-aware selection to estimate seal times.
    pub fn critical_path_work(&self) -> f64 {
        let mut memo = vec![f64::NAN; self.stages.len()];
        fn path(stages: &[Stage], i: usize, memo: &mut [f64]) -> f64 {
            if !memo[i].is_nan() {
                return memo[i];
            }
            let own = stages[i].work / stages[i].partitions.max(1) as f64;
            let dep_max = stages[i].deps.iter().map(|&d| path(stages, d, memo)).fold(0.0, f64::max);
            memo[i] = own + dep_max;
            memo[i]
        }
        (0..self.stages.len()).map(|i| path(&self.stages, i, &mut memo)).fold(0.0, f64::max)
    }

    /// Validate the DAG: deps in range, acyclic by construction (deps must
    /// point to lower ids).
    pub fn validate(&self) -> Result<()> {
        for s in &self.stages {
            for &d in &s.deps {
                if d >= s.id {
                    return Err(CvError::internal(format!(
                        "stage {} depends on non-earlier stage {d}",
                        s.id
                    )));
                }
            }
            if s.partitions == 0 {
                return Err(CvError::internal(format!("stage {} has zero partitions", s.id)));
            }
        }
        Ok(())
    }
}

/// Build a stage graph from an optimized physical plan and the matching
/// execution profiles. Profiles are recorded by the executor in post-order —
/// the same order this walk visits operators — so they zip 1:1.
pub fn build_stages(plan: &PhysicalPlan, profiles: &[OpProfile]) -> Result<StageGraph> {
    let mut graph = StageGraph::default();
    let mut cursor = 0usize;
    build_rec(plan, profiles, &mut cursor, &mut graph)?;
    if cursor != profiles.len() {
        return Err(CvError::internal(format!(
            "profile/plan mismatch: {} profiles for {} operators",
            profiles.len(),
            cursor
        )));
    }
    graph.validate()?;
    Ok(graph)
}

fn build_rec(
    plan: &PhysicalPlan,
    profiles: &[OpProfile],
    cursor: &mut usize,
    graph: &mut StageGraph,
) -> Result<usize> {
    let mut deps = Vec::new();
    for child in plan.children() {
        deps.push(build_rec(child, profiles, cursor, graph)?);
    }
    let profile = profiles
        .get(*cursor)
        .ok_or_else(|| CvError::internal("fewer profiles than plan operators"))?;
    if profile.kind != plan.kind_name() {
        return Err(CvError::internal(format!(
            "profile order mismatch: expected {}, got {}",
            plan.kind_name(),
            profile.kind
        )));
    }
    *cursor += 1;
    let id = graph.stages.len();
    graph.stages.push(Stage {
        id,
        kind: plan.kind_name().to_string(),
        work: profile.work.max(1e-9),
        partitions: plan.partitions().max(1),
        deps,
        seals_view: profile.spool_sig,
        checkpointed: false,
    });
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_common::ids::{JobId, VcId};
    use cv_common::SimTime;
    use cv_data::schema::{Field, Schema};
    use cv_data::table::Table;
    use cv_data::value::{DataType, Value};
    use cv_engine::engine::QueryEngine;
    use cv_engine::optimizer::ReuseContext;
    use cv_engine::sql::Params;

    pub(crate) fn demo_engine() -> QueryEngine {
        let mut e = QueryEngine::new();
        let sales = Schema::new(vec![
            Field::new("s_cust", DataType::Int),
            Field::new("price", DataType::Float),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> =
            (0..500).map(|i| vec![Value::Int(i % 50), Value::Float((i % 9) as f64)]).collect();
        e.catalog
            .register("sales", Table::from_rows(sales, &rows).unwrap(), SimTime::EPOCH)
            .unwrap();
        let cust =
            Schema::new(vec![Field::new("c_id", DataType::Int), Field::new("seg", DataType::Str)])
                .unwrap()
                .into_ref();
        let crows: Vec<Vec<Value>> = (0..50)
            .map(|i| {
                vec![Value::Int(i), Value::Str(if i % 2 == 0 { "asia" } else { "emea" }.into())]
            })
            .collect();
        e.catalog
            .register("customer", Table::from_rows(cust, &crows).unwrap(), SimTime::EPOCH)
            .unwrap();
        e
    }

    pub(crate) fn demo_job(e: &mut QueryEngine) -> StageGraph {
        let out = e
            .run_sql(
                "SELECT seg, SUM(price) AS total FROM sales JOIN customer ON s_cust = c_id \
                 WHERE seg = 'asia' GROUP BY seg",
                &Params::none(),
                &ReuseContext::empty(),
                JobId(0),
                VcId(0),
                SimTime::EPOCH,
            )
            .unwrap();
        build_stages(&out.physical, &out.metrics.op_profiles).unwrap()
    }

    #[test]
    fn stage_graph_from_real_plan() {
        let mut e = demo_engine();
        let g = demo_job(&mut e);
        assert!(g.len() >= 5, "expected several stages, got {}", g.len());
        assert!(g.total_work() > 0.0);
        assert!(g.widest_stage() >= 1);
        // Root stage is last and depends (transitively) on everything.
        let root = g.stages.last().unwrap();
        assert!(!root.deps.is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn critical_path_bounded_by_total_work() {
        let mut e = demo_engine();
        let g = demo_job(&mut e);
        let cp = g.critical_path_work();
        assert!(cp > 0.0);
        assert!(cp <= g.total_work() + 1e-9);
    }

    #[test]
    fn spool_stage_carries_seal_sig() {
        let mut e = demo_engine();
        let plan = e.compile_sql("SELECT * FROM sales WHERE price > 3", &Params::none()).unwrap();
        let subs = e.subexpressions(&plan).unwrap();
        let root_sig = subs.iter().find(|s| s.is_root).unwrap().strict;
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(root_sig);
        let out = e.run_plan(&plan, &reuse, JobId(1), VcId(0), SimTime::EPOCH).unwrap();
        let g = build_stages(&out.physical, &out.metrics.op_profiles).unwrap();
        let seals: Vec<_> = g.stages.iter().filter_map(|s| s.seals_view).collect();
        assert_eq!(seals, vec![root_sig]);
    }

    #[test]
    fn mismatched_profiles_rejected() {
        let mut e = demo_engine();
        let out = e
            .run_sql(
                "SELECT * FROM sales",
                &Params::none(),
                &ReuseContext::empty(),
                JobId(2),
                VcId(0),
                SimTime::EPOCH,
            )
            .unwrap();
        // Too few profiles.
        assert!(build_stages(&out.physical, &[]).is_err());
    }

    #[test]
    fn validate_rejects_bad_graphs() {
        let bad = StageGraph {
            stages: vec![Stage {
                id: 0,
                kind: "X".into(),
                work: 1.0,
                partitions: 0,
                deps: vec![],
                seals_view: None,
                checkpointed: false,
            }],
        };
        assert!(bad.validate().is_err());
        let cyclic = StageGraph {
            stages: vec![Stage {
                id: 0,
                kind: "X".into(),
                work: 1.0,
                partitions: 1,
                deps: vec![0],
                seals_view: None,
                checkpointed: false,
            }],
        };
        assert!(cyclic.validate().is_err());
    }
}
