//! The containment prover: certified semantic view matching (CV06x).
//!
//! Decides, statically, whether a materialized view's defining plan
//! *contains* a candidate subexpression — i.e. the candidate's exact result
//! is derivable from the view's rows by a compensation plan. Proofs compose
//! three rules, mirroring the GEqO cascade the paper's production successor
//! shipped (PAPERS.md):
//!
//! * **predicate implication** — `Filter` pairs: the candidate's predicate
//!   must provably imply the view's ([`implies`], a conjunct-by-conjunct
//!   interval analysis); conjuncts not already enforced by the view become a
//!   residual filter.
//! * **projection subsumption** — `Project` pairs: every candidate output
//!   must be rewritable in terms of the view's output columns.
//! * **group-by rollup** — `Aggregate` pairs: every candidate group key
//!   must be a view group key (the view groups at least as finely), and
//!   every candidate aggregate must be decomposable over the view's partial
//!   aggregates (`SUM→SUM`, `COUNT→SUM`, `MIN/MAX→MIN/MAX`), with explicit
//!   refusals for the non-decomposable rest (`AVG`, `COUNT DISTINCT`).
//!
//! Every refusal carries one of the CV06x codes from [`crate::diag::codes`]
//! and the name of the rule that refused — the optimizer surfaces both to
//! observability, and `cv-analyze --containment` reports them per template.
//!
//! Scope: the prover only reasons about *same-kind* operator pairs over
//! strictly identical inputs (equal child strict signatures). That is
//! exactly the population the template-signature candidate filter admits,
//! so anything outside it is a shape error, refused with CV064.

use crate::diag::codes;
use cv_data::value::{DataType, Value};
use cv_engine::containment::{
    build_compensation, ContainmentProof, ContainmentRefusal, RollupSpec,
};
use cv_engine::expr::fold::{normalize_expr, split_conjunction};
use cv_engine::expr::{col, AggExpr, AggFunc, BinOp, ScalarExpr};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{plan_signature, SigMode, SignatureConfig};
use std::cmp::Ordering;
use std::sync::Arc;

/// Rule names, as reported in refusals and proof certificates.
pub const RULE_SHAPE: &str = "template-shape";
pub const RULE_PREDICATE: &str = "predicate-implication";
pub const RULE_PROJECTION: &str = "projection-subsumption";
pub const RULE_ROLLUP: &str = "group-by-rollup";

fn refuse(code: &'static str, rule: &'static str, reason: String) -> ContainmentRefusal {
    ContainmentRefusal { code, rule, reason }
}

/// Prove that `view`'s defining plan contains `candidate`, returning the
/// compensation recipe, or refuse with a CV06x-coded explanation.
pub fn prove_containment(
    view: &Arc<LogicalPlan>,
    candidate: &Arc<LogicalPlan>,
    sig: &SignatureConfig,
) -> Result<ContainmentProof, ContainmentRefusal> {
    check_shape(view, candidate, sig)?;
    let proof = match (&**view, &**candidate) {
        (
            LogicalPlan::Filter { predicate: view_pred, .. },
            LogicalPlan::Filter { predicate: cand_pred, .. },
        ) => prove_filter(view_pred, cand_pred)?,
        (
            LogicalPlan::Project { exprs: view_exprs, .. },
            LogicalPlan::Project { exprs: cand_exprs, .. },
        ) => prove_project(view_exprs, cand_exprs)?,
        (
            LogicalPlan::Aggregate { group_by: vg, aggs: va, input },
            LogicalPlan::Aggregate { group_by: cg, aggs: ca, .. },
        ) => {
            let input_schema = input.schema().map_err(|e| {
                refuse(codes::COMPENSATION_SCHEMA_MISMATCH, RULE_SHAPE, e.to_string())
            })?;
            prove_rollup(vg, va, cg, ca, &input_schema)?
        }
        _ => {
            return Err(refuse(
                codes::COMPENSATION_SCHEMA_MISMATCH,
                RULE_SHAPE,
                format!(
                    "view ({}) and candidate ({}) are not a provable operator pair",
                    view.kind_name(),
                    candidate.kind_name()
                ),
            ))
        }
    };
    certify_schema(&proof, view, candidate)?;
    Ok(proof)
}

/// Shape precondition: same operator kind, strictly identical inputs.
fn check_shape(
    view: &Arc<LogicalPlan>,
    candidate: &Arc<LogicalPlan>,
    sig: &SignatureConfig,
) -> Result<(), ContainmentRefusal> {
    if std::mem::discriminant(&**view) != std::mem::discriminant(&**candidate) {
        return Err(refuse(
            codes::COMPENSATION_SCHEMA_MISMATCH,
            RULE_SHAPE,
            format!(
                "operator kinds differ: view {} vs candidate {}",
                view.kind_name(),
                candidate.kind_name()
            ),
        ));
    }
    let vc = view.children();
    let cc = candidate.children();
    if vc.len() != cc.len() {
        return Err(refuse(
            codes::COMPENSATION_SCHEMA_MISMATCH,
            RULE_SHAPE,
            "child counts differ".to_string(),
        ));
    }
    for (v, c) in vc.iter().zip(cc.iter()) {
        let vs = plan_signature(v, sig, SigMode::Strict);
        let cs = plan_signature(c, sig, SigMode::Strict);
        if vs.is_none() || vs != cs {
            return Err(refuse(
                codes::COMPENSATION_SCHEMA_MISMATCH,
                RULE_SHAPE,
                "view and candidate inputs are not strictly identical".to_string(),
            ));
        }
    }
    Ok(())
}

/// Predicate implication: candidate rows ⊆ view rows, residual re-filters.
fn prove_filter(
    view_pred: &ScalarExpr,
    cand_pred: &ScalarExpr,
) -> Result<ContainmentProof, ContainmentRefusal> {
    if !implies(cand_pred, view_pred) {
        return Err(refuse(
            codes::UNSOUND_IMPLICATION,
            RULE_PREDICATE,
            "candidate predicate does not provably imply the view predicate".to_string(),
        ));
    }
    // The view already enforces its own conjuncts; only the candidate's
    // conjuncts not literally present in the view remain to be applied.
    let view_conjuncts = normalize_conjuncts(view_pred);
    let residual: Vec<ScalarExpr> = normalize_conjuncts(cand_pred)
        .into_iter()
        .filter(|c| !view_conjuncts.contains(c))
        .collect();
    Ok(ContainmentProof {
        residual_filter: conjoin_all(residual),
        rules: vec![RULE_PREDICATE],
        ..Default::default()
    })
}

fn conjoin_all(conjuncts: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    conjuncts.into_iter().reduce(|acc, c| acc.and(c))
}

/// Normalize a predicate into its conjunct list.
pub fn normalize_conjuncts(pred: &ScalarExpr) -> Vec<ScalarExpr> {
    split_conjunction(&normalize_expr(pred))
}

/// Does predicate `a` select a subset of the rows `b` selects? General
/// containment is NP-complete (paper §5.3), but the fragment production
/// filters use — conjunctions of `column op constant` — is cheap to decide.
/// Sound (never a false positive) but incomplete (an unknown shape answers
/// `false`): `a ⇒ b` iff every conjunct of `b` is satisfied by `a` —
/// directly (syntactic match or atom implication) or, when the conjunct is
/// a disjunction, by implying at least one of its disjuncts.
pub fn implies(a: &ScalarExpr, b: &ScalarExpr) -> bool {
    let a_conj = normalize_conjuncts(a);
    let b_conj = normalize_conjuncts(b);
    let a_atoms: Vec<Atom> = a_conj.iter().filter_map(as_atom).collect();
    b_conj.iter().all(|bc| conjunct_satisfied(&a_conj, &a_atoms, bc))
}

fn conjunct_satisfied(a_conj: &[ScalarExpr], a_atoms: &[Atom], bc: &ScalarExpr) -> bool {
    // Syntactic match covers arbitrary conjunct shapes.
    if a_conj.contains(bc) {
        return true;
    }
    if let Some(b_atom) = as_atom(bc) {
        if a_atoms.iter().any(|a_atom| atom_implies(a_atom, &b_atom)) {
            return true;
        }
    }
    // Disjunctive conjunct: implying any branch suffices.
    if let ScalarExpr::Binary { op: BinOp::Or, .. } = bc {
        return split_disjunction(bc)
            .iter()
            .any(|branch| conjunct_satisfied(a_conj, a_atoms, branch));
    }
    false
}

/// Flatten an OR chain into its disjuncts.
fn split_disjunction(e: &ScalarExpr) -> Vec<ScalarExpr> {
    match e {
        ScalarExpr::Binary { op: BinOp::Or, left, right } => {
            let mut out = split_disjunction(left);
            out.extend(split_disjunction(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// One atomic comparison `column op constant`.
#[derive(Clone, Debug, PartialEq)]
struct Atom {
    column: String,
    op: BinOp,
    value: Value,
}

/// Extract `column op constant` from an expression, mirroring the
/// comparison if the constant is on the left. `None` for other shapes.
fn as_atom(e: &ScalarExpr) -> Option<Atom> {
    let ScalarExpr::Binary { op, left, right } = e else { return None };
    if !op.is_comparison() {
        return None;
    }
    match (&**left, &**right) {
        (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => {
            Some(Atom { column: c.clone(), op: *op, value: v.clone() })
        }
        (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => {
            Some(Atom { column: c.clone(), op: op.mirror(), value: v.clone() })
        }
        _ => None,
    }
}

/// Does atom `a` imply atom `b`?
fn atom_implies(a: &Atom, b: &Atom) -> bool {
    if a.column != b.column {
        return false;
    }
    let Some(cmp) = compare_like_kinded(&a.value, &b.value) else { return false };
    use BinOp::*;
    match (a.op, b.op) {
        // Equality on the left: evaluate b at a's constant.
        (Eq, Eq) => cmp == Ordering::Equal,
        (Eq, NotEq) => cmp != Ordering::Equal,
        (Eq, Lt) => cmp == Ordering::Less,
        (Eq, LtEq) => cmp != Ordering::Greater,
        (Eq, Gt) => cmp == Ordering::Greater,
        (Eq, GtEq) => cmp != Ordering::Less,
        // Range ⇒ range.
        (Gt, Gt) => cmp != Ordering::Less, // x > a ⇒ x > b iff a ≥ b
        (Gt, GtEq) => cmp != Ordering::Less,
        (GtEq, GtEq) => cmp != Ordering::Less,
        (GtEq, Gt) => cmp == Ordering::Greater,
        (Lt, Lt) => cmp != Ordering::Greater, // x < a ⇒ x < b iff a ≤ b
        (Lt, LtEq) => cmp != Ordering::Greater,
        (LtEq, LtEq) => cmp != Ordering::Greater,
        (LtEq, Lt) => cmp == Ordering::Less,
        // Range ⇒ inequality.
        (Gt, NotEq) => cmp != Ordering::Less, // x > a ⇒ x ≠ b iff b ≤ a
        (GtEq, NotEq) => cmp == Ordering::Greater,
        (Lt, NotEq) => cmp != Ordering::Greater,
        (LtEq, NotEq) => cmp == Ordering::Less,
        (NotEq, NotEq) => cmp == Ordering::Equal,
        _ => false,
    }
}

/// Order two constants of one kind (numeric with numeric, string with
/// string, …); `None` for nulls and for a cross-kind pair.
fn compare_like_kinded(a: &Value, b: &Value) -> Option<Ordering> {
    let comparable = matches!(
        (a, b),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
            | (Value::Str(_), Value::Str(_))
            | (Value::Date(_), Value::Date(_))
            | (Value::Bool(_), Value::Bool(_))
    );
    comparable.then(|| a.total_cmp(b))
}

/// Projection subsumption: every candidate output must be rewritable over
/// the view's outputs.
fn prove_project(
    view_exprs: &[(ScalarExpr, String)],
    cand_exprs: &[(ScalarExpr, String)],
) -> Result<ContainmentProof, ContainmentRefusal> {
    let exposed: Vec<(ScalarExpr, &str)> =
        view_exprs.iter().map(|(e, name)| (normalize_expr(e), name.as_str())).collect();
    let mut rewritten = Vec::with_capacity(cand_exprs.len());
    for (expr, name) in cand_exprs {
        match rewrite_over_view(&normalize_expr(expr), &exposed) {
            Some(e) => rewritten.push((e, name.clone())),
            None => {
                return Err(refuse(
                    codes::PROJECTION_NOT_DERIVABLE,
                    RULE_PROJECTION,
                    format!("output `{name}` is not derivable from the view's columns"),
                ))
            }
        }
    }
    Ok(ContainmentProof {
        reproject: Some(rewritten),
        rules: vec![RULE_PROJECTION],
        ..Default::default()
    })
}

/// Rewrite `expr` to reference the view's output columns: a subexpression
/// that *is* a view output becomes a column reference to it; otherwise
/// recurse, bottoming out at literals. A bare column the view does not
/// expose is not derivable.
fn rewrite_over_view(expr: &ScalarExpr, exposed: &[(ScalarExpr, &str)]) -> Option<ScalarExpr> {
    if let Some((_, name)) = exposed.iter().find(|(e, _)| e == expr) {
        return Some(col(*name));
    }
    match expr {
        ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => Some(expr.clone()),
        ScalarExpr::Column(_) => None,
        ScalarExpr::Binary { op, left, right } => Some(ScalarExpr::Binary {
            op: *op,
            left: Box::new(rewrite_over_view(left, exposed)?),
            right: Box::new(rewrite_over_view(right, exposed)?),
        }),
        ScalarExpr::Unary { op, expr } => {
            Some(ScalarExpr::Unary { op: *op, expr: Box::new(rewrite_over_view(expr, exposed)?) })
        }
        ScalarExpr::Func { func, args } => Some(ScalarExpr::Func {
            func: *func,
            args: args.iter().map(|a| rewrite_over_view(a, exposed)).collect::<Option<Vec<_>>>()?,
        }),
        ScalarExpr::Case { branches, else_expr } => Some(ScalarExpr::Case {
            branches: branches
                .iter()
                .map(|(w, t)| {
                    Some((rewrite_over_view(w, exposed)?, rewrite_over_view(t, exposed)?))
                })
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(rewrite_over_view(e, exposed)?)),
                None => None,
            },
        }),
        ScalarExpr::Cast { expr, dtype } => Some(ScalarExpr::Cast {
            expr: Box::new(rewrite_over_view(expr, exposed)?),
            dtype: *dtype,
        }),
    }
}

/// Group-by rollup: the view groups at least as finely as the candidate,
/// and each candidate aggregate decomposes over the view's partials.
fn prove_rollup(
    view_keys: &[(ScalarExpr, String)],
    view_aggs: &[AggExpr],
    cand_keys: &[(ScalarExpr, String)],
    cand_aggs: &[AggExpr],
    input_schema: &cv_data::schema::Schema,
) -> Result<ContainmentProof, ContainmentRefusal> {
    let view_key_norm: Vec<(ScalarExpr, &str)> =
        view_keys.iter().map(|(e, name)| (normalize_expr(e), name.as_str())).collect();

    // Every candidate key must be one of the view's (possibly finer) keys.
    let mut group_by = Vec::with_capacity(cand_keys.len());
    for (expr, name) in cand_keys {
        let norm = normalize_expr(expr);
        match view_key_norm.iter().find(|(e, _)| *e == norm) {
            Some((_, view_name)) => group_by.push((col(*view_name), name.clone())),
            None => {
                return Err(refuse(
                    codes::PROJECTION_NOT_DERIVABLE,
                    RULE_ROLLUP,
                    format!("group key `{name}` is not grouped by the view"),
                ))
            }
        }
    }

    let view_agg_norm: Vec<(AggFunc, Option<ScalarExpr>, &str)> = view_aggs
        .iter()
        .map(|a| (a.func, a.arg.as_ref().map(normalize_expr), a.alias.as_str()))
        .collect();
    let find_partial = |func: AggFunc, arg: &Option<ScalarExpr>| {
        view_agg_norm.iter().find(|(f, a, _)| *f == func && a == arg).map(|(_, _, alias)| *alias)
    };

    let mut aggs = Vec::with_capacity(cand_aggs.len());
    for cand in cand_aggs {
        let norm_arg = cand.arg.as_ref().map(normalize_expr);
        let missing = || {
            refuse(
                codes::NON_ROLLUPABLE_AGGREGATE,
                RULE_ROLLUP,
                format!("no view partial aggregate to roll `{}` up from", cand.alias),
            )
        };
        let rolled = match cand.func {
            // COUNT rolls up by summing the per-group partial counts.
            AggFunc::Count => {
                let alias = find_partial(AggFunc::Count, &norm_arg).ok_or_else(missing)?;
                AggExpr::new(AggFunc::Sum, col(alias), cand.alias.clone())
            }
            AggFunc::Sum => {
                let alias = find_partial(AggFunc::Sum, &norm_arg).ok_or_else(missing)?;
                // Float SUM is refused: re-adding partial sums changes the
                // floating-point addition order, and the digest gates
                // require *byte-identical* results, not approximate ones.
                let arg = cand.arg.as_ref().ok_or_else(missing)?;
                match arg.dtype(input_schema) {
                    Ok(DataType::Int) => {}
                    Ok(t) => {
                        return Err(refuse(
                            codes::NON_ROLLUPABLE_AGGREGATE,
                            RULE_ROLLUP,
                            format!(
                                "SUM over {t} does not roll up bit-exactly \
                                 (partial-sum addition order changes)"
                            ),
                        ))
                    }
                    Err(e) => {
                        return Err(refuse(
                            codes::NON_ROLLUPABLE_AGGREGATE,
                            RULE_ROLLUP,
                            e.to_string(),
                        ))
                    }
                }
                AggExpr::new(AggFunc::Sum, col(alias), cand.alias.clone())
            }
            AggFunc::Min => {
                let alias = find_partial(AggFunc::Min, &norm_arg).ok_or_else(missing)?;
                AggExpr::new(AggFunc::Min, col(alias), cand.alias.clone())
            }
            AggFunc::Max => {
                let alias = find_partial(AggFunc::Max, &norm_arg).ok_or_else(missing)?;
                AggExpr::new(AggFunc::Max, col(alias), cand.alias.clone())
            }
            // AVG(x) ≠ AVG of per-group AVGs, and COUNT DISTINCT cannot be
            // summed across groups — both are non-decomposable partials.
            AggFunc::Avg | AggFunc::CountDistinct => {
                return Err(refuse(
                    codes::NON_ROLLUPABLE_AGGREGATE,
                    RULE_ROLLUP,
                    format!("{} is not decomposable over partial aggregates", cand.func.name()),
                ))
            }
        };
        aggs.push(rolled);
    }

    Ok(ContainmentProof {
        rollup: Some(RollupSpec { group_by, aggs }),
        rules: vec![RULE_ROLLUP],
        ..Default::default()
    })
}

/// Final certificate: the compensation, applied to the view's schema, must
/// reproduce the candidate's schema exactly (names and types).
fn certify_schema(
    proof: &ContainmentProof,
    view: &Arc<LogicalPlan>,
    candidate: &Arc<LogicalPlan>,
) -> Result<(), ContainmentRefusal> {
    let to_schema_err = |e: cv_common::CvError| {
        refuse(codes::COMPENSATION_SCHEMA_MISMATCH, RULE_SHAPE, e.to_string())
    };
    let view_schema = view.schema().map_err(to_schema_err)?;
    let cand_schema = candidate.schema().map_err(to_schema_err)?;
    // A zero-sig stand-in ViewScan: only its schema matters here.
    let stand_in = Arc::new(LogicalPlan::ViewScan {
        sig: cv_common::hash::Sig128(0),
        schema: view_schema,
        rows: 0,
        bytes: 0,
    });
    let compensated_schema = build_compensation(proof, stand_in).schema().map_err(to_schema_err)?;
    if compensated_schema.fields() != cand_schema.fields() {
        return Err(refuse(
            codes::COMPENSATION_SCHEMA_MISMATCH,
            RULE_SHAPE,
            format!(
                "compensated schema {:?} != candidate schema {:?}",
                compensated_schema.names(),
                cand_schema.names()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_engine::expr::lit;

    #[test]
    fn atom_extraction_and_mirroring() {
        let a = as_atom(&col("x").gt(lit(5))).unwrap();
        assert_eq!(a.op, BinOp::Gt);
        // 5 < x ≡ x > 5.
        let b = as_atom(&lit(5).lt(col("x"))).unwrap();
        assert_eq!(b.op, BinOp::Gt);
        assert_eq!(b.column, "x");
        assert!(as_atom(&col("x").add(lit(1))).is_none());
        assert!(as_atom(&col("x").gt(col("y"))).is_none());
    }

    #[test]
    fn equality_implications() {
        // The paper's own example: CustomerId > 5 materialized, query asks
        // CustomerId > 6 → contained (§5.3).
        assert!(implies(&col("CustomerId").gt(lit(6)), &col("CustomerId").gt(lit(5))));
        assert!(!implies(&col("CustomerId").gt(lit(5)), &col("CustomerId").gt(lit(6))));
        assert!(implies(&col("x").eq(lit(7)), &col("x").gt(lit(5))));
        assert!(implies(&col("x").eq(lit(7)), &col("x").eq(lit(7))));
        assert!(!implies(&col("x").eq(lit(3)), &col("x").gt(lit(5))));
    }

    #[test]
    fn range_implications() {
        assert!(implies(&col("x").gt_eq(lit(10)), &col("x").gt(lit(5))));
        assert!(!implies(&col("x").gt_eq(lit(5)), &col("x").gt(lit(5))));
        assert!(implies(&col("x").gt(lit(5)), &col("x").gt_eq(lit(5))));
        assert!(implies(&col("x").lt(lit(3)), &col("x").lt_eq(lit(3))));
        assert!(implies(&col("x").lt_eq(lit(2)), &col("x").lt(lit(3))));
        assert!(!implies(&col("x").lt(lit(5)), &col("x").gt(lit(1))));
    }

    #[test]
    fn conjunction_implication() {
        let strong = col("seg").eq(lit("asia")).and(col("qty").gt(lit(10)));
        let weak = col("qty").gt(lit(5));
        assert!(implies(&strong, &weak));
        assert!(!implies(&weak, &strong));
        // Conjunct order doesn't matter (normalization).
        let weak2 = col("qty").gt(lit(5)).and(col("seg").eq(lit("asia")));
        assert!(implies(&strong, &weak2));
        // A disjunctive conjunct is implied through any one of its branches.
        let either = col("qty").eq(lit(1)).or(col("qty").gt(lit(10)));
        assert!(implies(&col("qty").eq(lit(1)), &either));
        assert!(implies(&col("qty").gt(lit(20)), &either));
        assert!(!implies(&col("qty").eq(lit(5)), &either));
    }

    #[test]
    fn string_and_mixed_types() {
        assert!(implies(&col("s").eq(lit("b")), &col("s").gt(lit("a"))));
        // Cross-type comparisons are refused (sound: answer false).
        assert!(!implies(&col("s").eq(lit("b")), &col("s").gt(lit(1))));
    }

    #[test]
    fn different_columns_never_imply() {
        assert!(!implies(&col("x").gt(lit(10)), &col("y").gt(lit(5))));
    }

    #[test]
    fn syntactic_fallback_for_non_atoms() {
        // A non-atomic conjunct is only implied by its exact (normalized)
        // twin.
        let f = col("a").mul(col("b")).gt(lit(1));
        assert!(implies(&f.clone().and(col("x").eq(lit(1))), &f));
        let g = col("a").mul(col("c")).gt(lit(1));
        assert!(!implies(&f, &g));
    }

    #[test]
    fn semantic_rewrites_not_attempted() {
        // 2*x > 10 does NOT imply x > 5 here — deliberately (undecidable in
        // general; the paper defers it, §5.3).
        assert!(!implies(&lit(2).mul(col("x")).gt(lit(10)), &col("x").gt(lit(5))));
    }
}
