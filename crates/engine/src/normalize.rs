//! Plan normalization.
//!
//! CloudViews considers "the same logical query subexpressions (with some
//! normalization)" (paper §1). This module is that normalization: a
//! deterministic, idempotent canonical form such that plans differing only in
//! trivial syntax — conjunct order, filter splitting, inner-join input
//! order, redundant projections — hash to the same signature.
//!
//! Deliberately *not* done here (paper §5.3): general logical equivalence or
//! containment. Those live in the `cv-extensions` crate as the future-work
//! reproduction.
//!
//! Note on column pruning: we intentionally do NOT push minimal projections
//! toward the leaves. Two queries that share a scan→filter→join prefix but
//! project different columns downstream would stop sharing the prefix if
//! each pruned it differently; keeping prefixes wide maximizes signature
//! collisions, which is the entire point.

use crate::expr::fold::{conjoin, normalize_expr, split_conjunction};
use crate::expr::ScalarExpr;
use crate::plan::{JoinKind, LogicalPlan};
use crate::signature::{SignatureConfig, Signer};
use cv_common::{HashMap, Result};
use std::sync::Arc;

/// Normalize a plan to canonical form. Deterministic and idempotent.
pub fn normalize(plan: &Arc<LogicalPlan>, cfg: &SignatureConfig) -> Result<Arc<LogicalPlan>> {
    let signer = Signer::new(cfg);
    let mut current = plan.clone();
    // Fixpoint: each pass is a full bottom-up rewrite; rules strictly reduce
    // node count or move filters downward / reorder canonically, so this
    // terminates quickly. The iteration cap is a safety net.
    for _ in 0..16 {
        let next = rewrite_once(&current, &signer)?;
        if next == current {
            return Ok(next);
        }
        current = next;
    }
    Ok(current)
}

fn rewrite_once(plan: &Arc<LogicalPlan>, signer: &Signer) -> Result<Arc<LogicalPlan>> {
    // Rewrite children first.
    let new_children: Result<Vec<Arc<LogicalPlan>>> =
        plan.children().into_iter().map(|c| rewrite_once(c, signer)).collect();
    let node = plan.with_children(new_children?)?;
    let node = apply_local_rules(node, signer)?;
    Ok(Arc::new(node))
}

fn apply_local_rules(node: LogicalPlan, signer: &Signer) -> Result<LogicalPlan> {
    let node = normalize_node_exprs(node);
    let node = merge_adjacent_filters(node);
    let node = remove_trivial_filter(node);
    let node = merge_adjacent_projects(node);
    let node = drop_identity_project(node)?;
    let node = push_filter_down(node)?;
    let node = canonical_join_order(node, signer);
    Ok(node)
}

/// Normalize every scalar expression embedded in the node.
fn normalize_node_exprs(node: LogicalPlan) -> LogicalPlan {
    match node {
        LogicalPlan::Filter { predicate, input } => {
            LogicalPlan::Filter { predicate: normalize_expr(&predicate), input }
        }
        LogicalPlan::Project { exprs, input } => LogicalPlan::Project {
            exprs: exprs.into_iter().map(|(e, n)| (normalize_expr(&e), n)).collect(),
            input,
        },
        LogicalPlan::Aggregate { group_by, aggs, input } => LogicalPlan::Aggregate {
            group_by: group_by.into_iter().map(|(e, n)| (normalize_expr(&e), n)).collect(),
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(|e| normalize_expr(&e));
                    a
                })
                .collect(),
            input,
        },
        other => other,
    }
}

/// `Filter(p1, Filter(p2, x))` → `Filter(p1 AND p2, x)` (re-normalized so
/// conjunct order is canonical).
fn merge_adjacent_filters(node: LogicalPlan) -> LogicalPlan {
    if let LogicalPlan::Filter { predicate, input } = &node {
        if let LogicalPlan::Filter { predicate: inner_p, input: inner_in } = &**input {
            let merged = normalize_expr(&predicate.clone().and(inner_p.clone()));
            return LogicalPlan::Filter { predicate: merged, input: inner_in.clone() };
        }
    }
    node
}

/// `Filter(TRUE, x)` → `x` — arises from constant-folded predicates.
fn remove_trivial_filter(node: LogicalPlan) -> LogicalPlan {
    if let LogicalPlan::Filter { predicate, input } = &node {
        if matches!(predicate, ScalarExpr::Literal(cv_data::value::Value::Bool(true))) {
            return (**input).clone();
        }
    }
    node
}

/// `Project(outer, Project(inner, x))` → single project with inner
/// expressions inlined into the outer ones.
fn merge_adjacent_projects(node: LogicalPlan) -> LogicalPlan {
    if let LogicalPlan::Project { exprs: outer, input } = &node {
        if let LogicalPlan::Project { exprs: inner, input: inner_in } = &**input {
            let map: HashMap<&str, &ScalarExpr> =
                inner.iter().map(|(e, n)| (n.as_str(), e)).collect();
            let merged: Option<Vec<(ScalarExpr, String)>> = outer
                .iter()
                .map(|(e, n)| substitute(e, &map).map(|se| (normalize_expr(&se), n.clone())))
                .collect();
            if let Some(exprs) = merged {
                return LogicalPlan::Project { exprs, input: inner_in.clone() };
            }
        }
    }
    node
}

/// Remove projections that are exact identities of their input schema.
fn drop_identity_project(node: LogicalPlan) -> Result<LogicalPlan> {
    if let LogicalPlan::Project { exprs, input } = &node {
        let in_schema = input.schema()?;
        if exprs.len() == in_schema.len() {
            let identity = exprs.iter().zip(in_schema.fields()).all(|((e, name), f)| {
                matches!(e, ScalarExpr::Column(c) if c == &f.name) && name == &f.name
            });
            if identity {
                return Ok((**input).clone());
            }
        }
    }
    Ok(node)
}

/// Push filter conjuncts below projects (by substitution), into inner-join
/// sides, below semi/left-join left sides, and into union branches.
fn push_filter_down(node: LogicalPlan) -> Result<LogicalPlan> {
    let LogicalPlan::Filter { predicate, input } = &node else {
        return Ok(node);
    };
    match &**input {
        LogicalPlan::Project { exprs, input: proj_in } => {
            let map: HashMap<&str, &ScalarExpr> =
                exprs.iter().map(|(e, n)| (n.as_str(), e)).collect();
            if let Some(rewritten) = substitute(predicate, &map) {
                return Ok(LogicalPlan::Project {
                    exprs: exprs.clone(),
                    input: Arc::new(LogicalPlan::Filter {
                        predicate: normalize_expr(&rewritten),
                        input: proj_in.clone(),
                    }),
                });
            }
            Ok(node)
        }
        LogicalPlan::Join { left, right, on, kind } => {
            let left_schema = left.schema()?;
            let right_schema = right.schema()?;
            let mut left_push = Vec::new();
            let mut right_push = Vec::new();
            let mut keep = Vec::new();
            for conj in split_conjunction(predicate) {
                let cols = conj.columns();
                let all_left = cols.iter().all(|c| left_schema.contains(c));
                let all_right = cols.iter().all(|c| right_schema.contains(c));
                match kind {
                    JoinKind::Inner => {
                        if all_left {
                            left_push.push(conj);
                        } else if all_right {
                            right_push.push(conj);
                        } else {
                            keep.push(conj);
                        }
                    }
                    // For LEFT and SEMI joins only the preserved (left) side
                    // is safe to filter early.
                    JoinKind::Left | JoinKind::Semi => {
                        if all_left {
                            left_push.push(conj);
                        } else {
                            keep.push(conj);
                        }
                    }
                }
            }
            if left_push.is_empty() && right_push.is_empty() {
                return Ok(node);
            }
            let mut new_left = left.clone();
            if !left_push.is_empty() {
                new_left = Arc::new(LogicalPlan::Filter {
                    predicate: normalize_expr(&conjoin(left_push)),
                    input: new_left,
                });
            }
            let mut new_right = right.clone();
            if !right_push.is_empty() {
                new_right = Arc::new(LogicalPlan::Filter {
                    predicate: normalize_expr(&conjoin(right_push)),
                    input: new_right,
                });
            }
            let join = Arc::new(LogicalPlan::Join {
                left: new_left,
                right: new_right,
                on: on.clone(),
                kind: *kind,
            });
            if keep.is_empty() {
                Ok((*join).clone())
            } else {
                Ok(LogicalPlan::Filter { predicate: normalize_expr(&conjoin(keep)), input: join })
            }
        }
        LogicalPlan::Union { inputs } => {
            let pushed: Vec<Arc<LogicalPlan>> = inputs
                .iter()
                .map(|i| {
                    Arc::new(LogicalPlan::Filter { predicate: predicate.clone(), input: i.clone() })
                })
                .collect();
            Ok(LogicalPlan::Union { inputs: pushed })
        }
        _ => Ok(node),
    }
}

/// Canonically order the inputs of inner joins by their order keys
/// (recurring signature, then strict), mirroring the key pairs. `A ⋈ B` and
/// `B ⋈ A` then hash identically, and rotating an input's GUID never flips
/// the sides.
fn canonical_join_order(node: LogicalPlan, signer: &Signer) -> LogicalPlan {
    if let LogicalPlan::Join { left, right, on, kind: JoinKind::Inner } = &node {
        if signer.order_key(right) < signer.order_key(left) {
            return LogicalPlan::Join {
                left: right.clone(),
                right: left.clone(),
                on: on.iter().map(|(l, r)| (r.clone(), l.clone())).collect(),
                kind: JoinKind::Inner,
            };
        }
    }
    node
}

/// Substitute column references through a projection map. Returns `None` if
/// a referenced column is missing from the map (cannot be pushed).
fn substitute(expr: &ScalarExpr, map: &HashMap<&str, &ScalarExpr>) -> Option<ScalarExpr> {
    Some(match expr {
        ScalarExpr::Column(name) => (*map.get(name.as_str())?).clone(),
        ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => expr.clone(),
        ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
            op: *op,
            left: Box::new(substitute(left, map)?),
            right: Box::new(substitute(right, map)?),
        },
        ScalarExpr::Unary { op, expr } => {
            ScalarExpr::Unary { op: *op, expr: Box::new(substitute(expr, map)?) }
        }
        ScalarExpr::Func { func, args } => ScalarExpr::Func {
            func: *func,
            args: args.iter().map(|a| substitute(a, map)).collect::<Option<Vec<_>>>()?,
        },
        ScalarExpr::Case { branches, else_expr } => ScalarExpr::Case {
            branches: branches
                .iter()
                .map(|(w, t)| Some((substitute(w, map)?, substitute(t, map)?)))
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(substitute(e, map)?)),
                None => None,
            },
        },
        ScalarExpr::Cast { expr, dtype } => {
            ScalarExpr::Cast { expr: Box::new(substitute(expr, map)?), dtype: *dtype }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, param};
    use crate::signature::{enumerate_subexpressions, plan_signature, SigMode};
    use cv_common::ids::VersionGuid;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;

    fn cfg() -> SignatureConfig {
        SignatureConfig::default()
    }

    fn scan(name: &str, cols: &[(&str, DataType)]) -> Arc<LogicalPlan> {
        scan_at(name, cols, 1)
    }

    fn scan_at(name: &str, cols: &[(&str, DataType)], guid: u128) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Scan {
            dataset: name.to_string(),
            guid: VersionGuid(guid),
            schema: Schema::new(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect())
                .unwrap()
                .into_ref(),
        })
    }

    fn sales() -> Arc<LogicalPlan> {
        scan("sales", &[("s_cust", DataType::Int), ("price", DataType::Float)])
    }

    fn customer() -> Arc<LogicalPlan> {
        scan("customer", &[("c_id", DataType::Int), ("seg", DataType::Str)])
    }

    fn norm(p: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        normalize(p, &cfg()).unwrap()
    }

    fn sig(p: &Arc<LogicalPlan>) -> cv_common::Sig128 {
        plan_signature(p, &cfg(), SigMode::Strict).unwrap()
    }

    #[test]
    fn idempotent_on_a_complex_plan() {
        let plan = Arc::new(LogicalPlan::Filter {
            predicate: col("seg").eq(lit("asia")).and(col("price").gt(lit(1.0))),
            input: Arc::new(LogicalPlan::Join {
                left: sales(),
                right: customer(),
                on: vec![("s_cust".into(), "c_id".into())],
                kind: JoinKind::Inner,
            }),
        });
        let once = norm(&plan);
        let twice = norm(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn split_filters_merge_to_same_form() {
        let base = || {
            Arc::new(LogicalPlan::Filter {
                predicate: col("price").gt(lit(1.0)),
                input: Arc::new(LogicalPlan::Filter {
                    predicate: col("s_cust").eq(lit(5)),
                    input: sales(),
                }),
            })
        };
        let combined = Arc::new(LogicalPlan::Filter {
            predicate: col("s_cust").eq(lit(5)).and(col("price").gt(lit(1.0))),
            input: sales(),
        });
        assert_eq!(sig(&norm(&base())), sig(&norm(&combined)));
        // And with the conjuncts in the other order.
        let flipped = Arc::new(LogicalPlan::Filter {
            predicate: col("price").gt(lit(1.0)).and(col("s_cust").eq(lit(5))),
            input: sales(),
        });
        assert_eq!(sig(&norm(&flipped)), sig(&norm(&combined)));
    }

    #[test]
    fn join_input_order_is_canonical() {
        let ab = Arc::new(LogicalPlan::Join {
            left: sales(),
            right: customer(),
            on: vec![("s_cust".into(), "c_id".into())],
            kind: JoinKind::Inner,
        });
        let ba = Arc::new(LogicalPlan::Join {
            left: customer(),
            right: sales(),
            on: vec![("c_id".into(), "s_cust".into())],
            kind: JoinKind::Inner,
        });
        assert_eq!(sig(&norm(&ab)), sig(&norm(&ba)));
    }

    #[test]
    fn left_join_order_is_preserved() {
        let lj = |l: Arc<LogicalPlan>, r: Arc<LogicalPlan>, k: (&str, &str)| {
            Arc::new(LogicalPlan::Join {
                left: l,
                right: r,
                on: vec![(k.0.into(), k.1.into())],
                kind: JoinKind::Left,
            })
        };
        let a = lj(sales(), customer(), ("s_cust", "c_id"));
        let b = lj(customer(), sales(), ("c_id", "s_cust"));
        assert_ne!(sig(&norm(&a)), sig(&norm(&b)));
    }

    #[test]
    fn filter_pushed_through_project() {
        let plan = Arc::new(LogicalPlan::Filter {
            predicate: col("cust").eq(lit(5)),
            input: Arc::new(LogicalPlan::Project {
                exprs: vec![(col("s_cust"), "cust".to_string())],
                input: sales(),
            }),
        });
        let n = norm(&plan);
        // Project ends up on top, filter (rewritten to s_cust) below.
        match &*n {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Filter { predicate, .. } => {
                    assert!(predicate.columns().contains(&"s_cust".to_string()));
                }
                other => panic!("expected Filter under Project, got {}", other.kind_name()),
            },
            other => panic!("expected Project at root, got {}", other.kind_name()),
        }
    }

    #[test]
    fn filter_pushed_into_inner_join_sides() {
        let plan = Arc::new(LogicalPlan::Filter {
            predicate: col("seg").eq(lit("asia")).and(col("price").gt(lit(1.0))),
            input: Arc::new(LogicalPlan::Join {
                left: sales(),
                right: customer(),
                on: vec![("s_cust".into(), "c_id".into())],
                kind: JoinKind::Inner,
            }),
        });
        let n = norm(&plan);
        // Root should now be the join with per-side filters.
        match &*n {
            LogicalPlan::Join { left, right, .. } => {
                assert_eq!(left.kind_name(), "Filter");
                assert_eq!(right.kind_name(), "Filter");
            }
            other => panic!("expected Join at root, got {}", other.kind_name()),
        }
        // Crucially: writing the filters pre-pushed produces the same form.
        let prepushed = Arc::new(LogicalPlan::Join {
            left: Arc::new(LogicalPlan::Filter {
                predicate: col("price").gt(lit(1.0)),
                input: sales(),
            }),
            right: Arc::new(LogicalPlan::Filter {
                predicate: col("seg").eq(lit("asia")),
                input: customer(),
            }),
            on: vec![("s_cust".into(), "c_id".into())],
            kind: JoinKind::Inner,
        });
        assert_eq!(sig(&n), sig(&norm(&prepushed)));
    }

    #[test]
    fn semi_join_only_pushes_left() {
        let plan = Arc::new(LogicalPlan::Filter {
            predicate: col("price").gt(lit(2.0)),
            input: Arc::new(LogicalPlan::Join {
                left: sales(),
                right: customer(),
                on: vec![("s_cust".into(), "c_id".into())],
                kind: JoinKind::Semi,
            }),
        });
        let n = norm(&plan);
        match &*n {
            LogicalPlan::Join { left, right, kind: JoinKind::Semi, .. } => {
                assert_eq!(left.kind_name(), "Filter");
                assert_eq!(right.kind_name(), "Scan");
            }
            other => panic!("expected Semi Join, got {}", other.kind_name()),
        }
    }

    #[test]
    fn filter_pushed_into_union_branches() {
        let plan = Arc::new(LogicalPlan::Filter {
            predicate: col("price").gt(lit(1.0)),
            input: Arc::new(LogicalPlan::Union { inputs: vec![sales(), sales()] }),
        });
        let n = norm(&plan);
        match &*n {
            LogicalPlan::Union { inputs } => {
                assert!(inputs.iter().all(|i| i.kind_name() == "Filter"));
            }
            other => panic!("expected Union, got {}", other.kind_name()),
        }
    }

    #[test]
    fn identity_project_dropped() {
        let plan = Arc::new(LogicalPlan::Project {
            exprs: vec![(col("s_cust"), "s_cust".to_string()), (col("price"), "price".to_string())],
            input: sales(),
        });
        assert_eq!(norm(&plan).kind_name(), "Scan");
        // Non-identity (reordered) projects stay.
        let reordered = Arc::new(LogicalPlan::Project {
            exprs: vec![(col("price"), "price".to_string()), (col("s_cust"), "s_cust".to_string())],
            input: sales(),
        });
        assert_eq!(norm(&reordered).kind_name(), "Project");
    }

    #[test]
    fn adjacent_projects_merge() {
        let plan = Arc::new(LogicalPlan::Project {
            exprs: vec![(col("rev").mul(lit(2.0)), "rev2".to_string())],
            input: Arc::new(LogicalPlan::Project {
                exprs: vec![(col("price").mul(lit(3.0)), "rev".to_string())],
                input: sales(),
            }),
        });
        let n = norm(&plan);
        match &*n {
            LogicalPlan::Project { exprs, input } => {
                assert_eq!(exprs.len(), 1);
                assert_eq!(input.kind_name(), "Scan");
                // (price * 3) * 2
                let cols = exprs[0].0.columns();
                assert_eq!(cols, vec!["price".to_string()]);
            }
            other => panic!("expected merged Project, got {}", other.kind_name()),
        }
    }

    #[test]
    fn constant_true_filter_removed() {
        let plan = Arc::new(LogicalPlan::Filter { predicate: lit(1).lt(lit(2)), input: sales() });
        assert_eq!(norm(&plan).kind_name(), "Scan");
    }

    #[test]
    fn normalization_changes_signature_to_canonical() {
        // The normalizer exists to make these collide:
        let v1 = Arc::new(LogicalPlan::Filter {
            predicate: col("price").gt(lit(1.0)).and(col("s_cust").eq(lit(3))),
            input: sales(),
        });
        let v2 = Arc::new(LogicalPlan::Filter {
            predicate: col("s_cust").eq(lit(3)).and(col("price").gt(lit(1.0))),
            input: sales(),
        });
        assert_ne!(sig(&v1), sig(&v2), "raw plans differ");
        assert_eq!(sig(&norm(&v1)), sig(&norm(&v2)), "normalized plans collide");
    }

    /// The normalized plan's shape: each node's kind and recurring
    /// signature, in post-order. Input versions and parameter values do not
    /// enter it; the order of join inputs and of conjuncts does.
    fn shape(p: &Arc<LogicalPlan>) -> Vec<(&'static str, cv_common::Sig128)> {
        enumerate_subexpressions(&norm(p), &cfg()).iter().map(|s| (s.kind, s.recurring)).collect()
    }

    #[test]
    fn rotating_a_guid_moves_no_node() {
        let plan = |sales_guid, customer_guid| {
            Arc::new(LogicalPlan::Filter {
                predicate: col("seg").eq(lit("asia")).and(col("price").gt(lit(1.0))),
                input: Arc::new(LogicalPlan::Join {
                    left: scan_at(
                        "sales",
                        &[("s_cust", DataType::Int), ("price", DataType::Float)],
                        sales_guid,
                    ),
                    right: scan_at(
                        "customer",
                        &[("c_id", DataType::Int), ("seg", DataType::Str)],
                        customer_guid,
                    ),
                    on: vec![("s_cust".into(), "c_id".into())],
                    kind: JoinKind::Inner,
                }),
            })
        };
        let want = shape(&plan(1, 1));
        for guid in 2..32 {
            assert_eq!(shape(&plan(guid, 1)), want, "sales at version {guid}");
            assert_eq!(shape(&plan(1, guid)), want, "customer at version {guid}");
        }
    }

    #[test]
    fn changing_a_parameter_value_moves_no_node() {
        let plan = |cutoff: i64| {
            Arc::new(LogicalPlan::Filter {
                predicate: col("price")
                    .gt(lit(5.0))
                    .and(col("s_cust").gt_eq(param("cutoff", cutoff)))
                    .and(param("cutoff", cutoff).lt(col("price").add(lit(1.0)))),
                input: sales(),
            })
        };
        let want = shape(&plan(0));
        for cutoff in 1..32 {
            assert_eq!(shape(&plan(cutoff)), want, "@cutoff = {cutoff}");
        }
    }
}
