//! Logical query plans.

pub mod builder;

pub use builder::PlanBuilder;

use crate::expr::{AggExpr, ScalarExpr};
use crate::udo::UdoSpec;
use cv_common::hash::Sig128;
use cv_common::ids::VersionGuid;
use cv_common::{CvError, Result};
use cv_data::schema::{Field, Schema, SchemaRef};
use std::fmt;
use std::sync::Arc;

/// Join kinds supported by the engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JoinKind {
    Inner,
    Left,
    /// Left semi-join: rows of the left input with ≥1 match on the right.
    Semi,
}

impl JoinKind {
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER",
            JoinKind::Left => "LEFT",
            JoinKind::Semi => "SEMI",
        }
    }

    pub fn ordinal(self) -> u8 {
        match self {
            JoinKind::Inner => 0,
            JoinKind::Left => 1,
            JoinKind::Semi => 2,
        }
    }
}

/// A node of the logical plan tree. Children are `Arc`-shared so
/// subexpressions can be handed around (to the workload repository, the
/// view-selection pipeline, the materializer) without cloning the tree.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalPlan {
    /// Scan a named shared dataset at a pinned version.
    Scan {
        dataset: String,
        guid: VersionGuid,
        schema: SchemaRef,
    },
    Filter {
        predicate: ScalarExpr,
        input: Arc<LogicalPlan>,
    },
    /// Projection with explicit output names.
    Project {
        exprs: Vec<(ScalarExpr, String)>,
        input: Arc<LogicalPlan>,
    },
    /// Equi-join on named column pairs.
    Join {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        on: Vec<(String, String)>,
        kind: JoinKind,
    },
    Aggregate {
        group_by: Vec<(ScalarExpr, String)>,
        aggs: Vec<AggExpr>,
        input: Arc<LogicalPlan>,
    },
    /// Bag union (UNION ALL).
    Union {
        inputs: Vec<Arc<LogicalPlan>>,
    },
    Sort {
        keys: Vec<(String, bool)>,
        input: Arc<LogicalPlan>,
    },
    Limit {
        n: usize,
        input: Arc<LogicalPlan>,
    },
    /// User-defined operator; output schema resolved at build time.
    Udo {
        spec: UdoSpec,
        schema: SchemaRef,
        input: Arc<LogicalPlan>,
    },
    /// Scan of a previously materialized view — inserted by the optimizer's
    /// view-*match* phase, never written by users (views have no DDL, §2.4).
    ViewScan {
        sig: Sig128,
        schema: SchemaRef,
        rows: u64,
        bytes: u64,
    },
    /// Marker inserted by the view-*build* phase: materialize the input's
    /// result (spool with two consumers at the physical level).
    Materialize {
        sig: Sig128,
        input: Arc<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> Result<SchemaRef> {
        match self {
            LogicalPlan::Scan { schema, .. } | LogicalPlan::ViewScan { schema, .. } => {
                Ok(schema.clone())
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Materialize { input, .. } => input.schema(),
            LogicalPlan::Project { exprs, input } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    fields.push(Field::new(name.clone(), e.dtype(&in_schema)?));
                }
                Ok(Schema::new(fields)?.into_ref())
            }
            LogicalPlan::Join { left, right, kind, .. } => {
                let l = left.schema()?;
                match kind {
                    JoinKind::Semi => Ok(l),
                    _ => {
                        let r = right.schema()?;
                        Ok(l.join(&r)?.into_ref())
                    }
                }
            }
            LogicalPlan::Aggregate { group_by, aggs, input } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for (e, name) in group_by {
                    fields.push(Field::new(name.clone(), e.dtype(&in_schema)?));
                }
                for a in aggs {
                    fields.push(Field::new(a.alias.clone(), a.dtype(&in_schema)?));
                }
                Ok(Schema::new(fields)?.into_ref())
            }
            LogicalPlan::Union { inputs } => {
                let first = inputs
                    .first()
                    .ok_or_else(|| CvError::plan("UNION requires at least one input"))?
                    .schema()?;
                for (i, input) in inputs.iter().enumerate().skip(1) {
                    let s = input.schema()?;
                    if s.fields() != first.fields() {
                        return Err(CvError::plan(format!(
                            "UNION input {i} schema {s} differs from {first}"
                        )));
                    }
                }
                Ok(first)
            }
            LogicalPlan::Udo { schema, .. } => Ok(schema.clone()),
        }
    }

    /// Child subtrees, in order.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::ViewScan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Udo { input, .. }
            | LogicalPlan::Materialize { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// Rebuild this node with new children (same arity required).
    pub fn with_children(&self, children: Vec<Arc<LogicalPlan>>) -> Result<LogicalPlan> {
        Ok(match self {
            LogicalPlan::Scan { .. } | LogicalPlan::ViewScan { .. } => {
                let [] = self.arity(children)?;
                self.clone()
            }
            LogicalPlan::Filter { predicate, .. } => {
                let [input] = self.arity(children)?;
                LogicalPlan::Filter { predicate: predicate.clone(), input }
            }
            LogicalPlan::Project { exprs, .. } => {
                let [input] = self.arity(children)?;
                LogicalPlan::Project { exprs: exprs.clone(), input }
            }
            LogicalPlan::Join { on, kind, .. } => {
                let [left, right] = self.arity(children)?;
                LogicalPlan::Join { left, right, on: on.clone(), kind: *kind }
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let [input] = self.arity(children)?;
                LogicalPlan::Aggregate { group_by: group_by.clone(), aggs: aggs.clone(), input }
            }
            LogicalPlan::Union { inputs } => {
                if children.len() != inputs.len() {
                    return Err(self.arity_error(inputs.len(), children.len()));
                }
                LogicalPlan::Union { inputs: children }
            }
            LogicalPlan::Sort { keys, .. } => {
                let [input] = self.arity(children)?;
                LogicalPlan::Sort { keys: keys.clone(), input }
            }
            LogicalPlan::Limit { n, .. } => {
                let [input] = self.arity(children)?;
                LogicalPlan::Limit { n: *n, input }
            }
            LogicalPlan::Udo { spec, schema, .. } => {
                let [input] = self.arity(children)?;
                LogicalPlan::Udo { spec: spec.clone(), schema: schema.clone(), input }
            }
            LogicalPlan::Materialize { sig, .. } => {
                let [input] = self.arity(children)?;
                LogicalPlan::Materialize { sig: *sig, input }
            }
        })
    }

    /// `children` as exactly `N` plans, or the arity error.
    fn arity<const N: usize>(
        &self,
        children: Vec<Arc<LogicalPlan>>,
    ) -> Result<[Arc<LogicalPlan>; N]> {
        <[_; N]>::try_from(children).map_err(|c| self.arity_error(N, c.len()))
    }

    fn arity_error(&self, want: usize, got: usize) -> CvError {
        CvError::plan(format!(
            "with_children on {} node: expected {want} child plan{}, got {got} — \
             a plan rewrite changed operator arity",
            self.kind_name(),
            if want == 1 { "" } else { "s" },
        ))
    }

    /// Short operator name (repository rows, plan dumps).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Union { .. } => "Union",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Udo { .. } => "Udo",
            LogicalPlan::ViewScan { .. } => "ViewScan",
            LogicalPlan::Materialize { .. } => "Materialize",
        }
    }

    /// Number of nodes in the subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// All base dataset names scanned under this node (sorted, deduped) —
    /// used by the generalized-reuse analysis (paper Fig. 8 groups
    /// subexpressions by the set of inputs they join).
    pub fn scanned_datasets(&self) -> Vec<String> {
        fn walk(p: &LogicalPlan, out: &mut Vec<String>) {
            if let LogicalPlan::Scan { dataset, .. } = p {
                out.push(dataset.clone());
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// All input version GUIDs under this node.
    pub fn input_guids(&self) -> Vec<VersionGuid> {
        fn walk(p: &LogicalPlan, out: &mut Vec<VersionGuid>) {
            if let LogicalPlan::Scan { guid, .. } = p {
                if !out.contains(guid) {
                    out.push(*guid);
                }
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// True if any node below (inclusive) is a ViewScan — i.e. the plan was
    /// rewritten to reuse a materialized view.
    pub fn uses_views(&self) -> bool {
        matches!(self, LogicalPlan::ViewScan { .. })
            || self.children().iter().any(|c| c.uses_views())
    }

    /// Render an indented plan tree (examples, debugging, Fig. 4 output).
    pub fn display_tree(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(0, &mut out);
        out
    }

    fn fmt_tree(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let line = match self {
            LogicalPlan::Scan { dataset, .. } => format!("Scan {dataset}"),
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Project [{}]", items.join(", "))
            }
            LogicalPlan::Join { on, kind, .. } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                format!("{} Join on {}", kind.name(), keys.join(", "))
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let g: Vec<String> = group_by.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                let a: Vec<String> = aggs.iter().map(|x| x.to_string()).collect();
                format!("Aggregate group=[{}] aggs=[{}]", g.join(", "), a.join(", "))
            }
            LogicalPlan::Union { inputs } => format!("Union ({} inputs)", inputs.len()),
            LogicalPlan::Sort { keys, .. } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|(c, asc)| format!("{c} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort [{}]", k.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
            LogicalPlan::Udo { spec, .. } => format!("Udo {spec}"),
            LogicalPlan::ViewScan { sig, rows, .. } => {
                format!("ViewScan cloudview-{} (rows={rows})", sig.short())
            }
            LogicalPlan::Materialize { sig, .. } => {
                format!("Materialize cloudview-{}", sig.short())
            }
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        for c in self.children() {
            c.fmt_tree(depth + 1, out);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, AggFunc};
    use cv_data::value::DataType;

    fn scan(name: &str, cols: &[(&str, DataType)]) -> Arc<LogicalPlan> {
        let fields = cols.iter().map(|(n, t)| Field::new(*n, *t)).collect();
        Arc::new(LogicalPlan::Scan {
            dataset: name.to_string(),
            guid: VersionGuid(1),
            schema: Schema::new(fields).unwrap().into_ref(),
        })
    }

    fn sales() -> Arc<LogicalPlan> {
        scan(
            "sales",
            &[("s_cust", DataType::Int), ("price", DataType::Float), ("qty", DataType::Int)],
        )
    }

    fn customers() -> Arc<LogicalPlan> {
        scan("customer", &[("c_id", DataType::Int), ("seg", DataType::Str)])
    }

    #[test]
    fn schema_of_filter_and_project() {
        let plan = LogicalPlan::Project {
            exprs: vec![(col("price").mul(col("qty").cast(DataType::Float)), "rev".into())],
            input: Arc::new(LogicalPlan::Filter {
                predicate: col("qty").gt(lit(0)),
                input: sales(),
            }),
        };
        let s = plan.schema().unwrap();
        assert_eq!(s.names(), vec!["rev"]);
        assert_eq!(s.field(0).dtype, DataType::Float);
    }

    #[test]
    fn join_schema_concatenates() {
        let plan = LogicalPlan::Join {
            left: sales(),
            right: customers(),
            on: vec![("s_cust".into(), "c_id".into())],
            kind: JoinKind::Inner,
        };
        assert_eq!(plan.schema().unwrap().len(), 5);
        let semi = LogicalPlan::Join {
            left: sales(),
            right: customers(),
            on: vec![("s_cust".into(), "c_id".into())],
            kind: JoinKind::Semi,
        };
        assert_eq!(semi.schema().unwrap().len(), 3);
    }

    #[test]
    fn aggregate_schema() {
        let plan = LogicalPlan::Aggregate {
            group_by: vec![(col("s_cust"), "cust".into())],
            aggs: vec![AggExpr::new(AggFunc::Avg, col("price"), "avg_p"), AggExpr::count_star("n")],
            input: sales(),
        };
        let s = plan.schema().unwrap();
        assert_eq!(s.names(), vec!["cust", "avg_p", "n"]);
        assert_eq!(s.field(1).dtype, DataType::Float);
        assert_eq!(s.field(2).dtype, DataType::Int);
    }

    #[test]
    fn union_schema_must_match() {
        let ok = LogicalPlan::Union { inputs: vec![sales(), sales()] };
        assert!(ok.schema().is_ok());
        let bad = LogicalPlan::Union { inputs: vec![sales(), customers()] };
        assert!(bad.schema().is_err());
    }

    #[test]
    fn with_children_rebuilds() {
        let (s, c) = (sales(), customers());
        let view = LogicalPlan::ViewScan {
            sig: Sig128(1),
            schema: s.schema().unwrap(),
            rows: 4,
            bytes: 40,
        };
        let nodes = vec![
            (LogicalPlan::clone(&s), vec![]),
            (view, vec![]),
            (
                LogicalPlan::Filter { predicate: col("qty").gt(lit(1)), input: s.clone() },
                vec![s.clone()],
            ),
            (
                LogicalPlan::Project { exprs: vec![(col("qty"), "q".into())], input: s.clone() },
                vec![s.clone()],
            ),
            (
                LogicalPlan::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::count_star("n")],
                    input: s.clone(),
                },
                vec![s.clone()],
            ),
            (
                LogicalPlan::Sort { keys: vec![("qty".into(), true)], input: s.clone() },
                vec![s.clone()],
            ),
            (LogicalPlan::Limit { n: 3, input: s.clone() }, vec![s.clone()]),
            (
                LogicalPlan::Udo {
                    spec: UdoSpec::new("u"),
                    schema: s.schema().unwrap(),
                    input: s.clone(),
                },
                vec![s.clone()],
            ),
            (LogicalPlan::Materialize { sig: Sig128(2), input: s.clone() }, vec![s.clone()]),
            (
                LogicalPlan::Join {
                    left: s.clone(),
                    right: c.clone(),
                    on: vec![("s_cust".into(), "c_id".into())],
                    kind: JoinKind::Inner,
                },
                vec![s.clone(), c.clone()],
            ),
            (
                LogicalPlan::Union { inputs: vec![s.clone(), s.clone(), s.clone()] },
                vec![s.clone(); 3],
            ),
        ];
        for (node, children) in nodes {
            // Rebuilt from fresh children: equal, and holding those children.
            let fresh: Vec<_> = children.iter().map(|p| Arc::new(LogicalPlan::clone(p))).collect();
            let rebuilt = node.with_children(fresh.clone()).unwrap();
            assert_eq!(node, rebuilt, "{}", node.kind_name());
            assert!(rebuilt.children().iter().zip(&fresh).all(|(a, b)| Arc::ptr_eq(a, b)));
            assert_eq!(rebuilt.children().len(), fresh.len());
            // One child too few and one too many are both refused.
            if let Some((_, fewer)) = fresh.split_last() {
                assert!(
                    node.with_children(fewer.to_vec()).is_err(),
                    "{} with too few",
                    node.kind_name()
                );
            }
            let more: Vec<_> = fresh.iter().cloned().chain([c.clone()]).collect();
            assert!(node.with_children(more).is_err(), "{} with too many", node.kind_name());
        }
    }

    #[test]
    fn scanned_datasets_sorted_dedup() {
        let join = LogicalPlan::Join {
            left: customers(),
            right: Arc::new(LogicalPlan::Join {
                left: sales(),
                right: customers(),
                on: vec![("s_cust".into(), "c_id".into())],
                kind: JoinKind::Inner,
            }),
            on: vec![("c_id".into(), "s_cust".into())],
            kind: JoinKind::Inner,
        };
        assert_eq!(join.scanned_datasets(), vec!["customer".to_string(), "sales".to_string()]);
        assert_eq!(join.node_count(), 5);
    }

    #[test]
    fn display_tree_shape() {
        let plan = LogicalPlan::Filter { predicate: col("qty").gt(lit(1)), input: sales() };
        let t = plan.display_tree();
        assert!(t.starts_with("Filter"));
        assert!(t.contains("\n  Scan sales"));
    }

    #[test]
    fn uses_views_detection() {
        assert!(!sales().uses_views());
        let vs = LogicalPlan::ViewScan {
            sig: Sig128(5),
            schema: sales().schema().unwrap(),
            rows: 10,
            bytes: 100,
        };
        let plan = LogicalPlan::Limit { n: 1, input: Arc::new(vs) };
        assert!(plan.uses_views());
    }
}
