//! Constant folding and canonical expression ordering.
//!
//! These rewrites run inside plan normalization so that trivially-equal
//! expressions — `1 + 2` vs `3`, `a AND b` vs `b AND a` — produce identical
//! signatures. CloudViews deliberately stops at this level: general semantic
//! equivalence is undecidable and the paper leaves it to future work (§5.3),
//! e.g. `CustomerId > 5` and `2 * CustomerId > 10` intentionally do NOT
//! collide here.

use super::eval::{binary_value, func_value, unary_value, EvalCtx};
use super::{BinOp, ScalarExpr, UnOp};
use cv_data::value::Value;

/// Fully normalize an expression: fold constants, simplify boolean
/// identities, then order commutative operands canonically. Idempotent.
pub fn normalize_expr(expr: &ScalarExpr) -> ScalarExpr {
    canonicalize(&fold(expr))
}

/// Bottom-up constant folding with boolean/arithmetic identity rules.
pub fn fold(expr: &ScalarExpr) -> ScalarExpr {
    match expr {
        ScalarExpr::Column(_) | ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => expr.clone(),
        ScalarExpr::Binary { op, left, right } => {
            let l = fold(left);
            let r = fold(right);
            // Pure-literal operands evaluate now (Params are excluded: their
            // value varies per instance and folding them would erase the
            // recurring-signature marker).
            if let (ScalarExpr::Literal(a), ScalarExpr::Literal(b)) = (&l, &r) {
                if let Ok(v) = binary_value(*op, a, b) {
                    return ScalarExpr::Literal(v);
                }
            }
            // Boolean identities (valid under SQL ternary logic).
            match op {
                BinOp::And => {
                    if is_true(&l) {
                        return r;
                    }
                    if is_true(&r) {
                        return l;
                    }
                    if is_false(&l) || is_false(&r) {
                        return ScalarExpr::Literal(Value::Bool(false));
                    }
                }
                BinOp::Or => {
                    if is_false(&l) {
                        return r;
                    }
                    if is_false(&r) {
                        return l;
                    }
                    if is_true(&l) || is_true(&r) {
                        return ScalarExpr::Literal(Value::Bool(true));
                    }
                }
                // x + 0, x - 0, x * 1, x / 1 preserve value AND null-ness.
                BinOp::Add | BinOp::Sub => {
                    if is_zero(&r) {
                        return l;
                    }
                    if *op == BinOp::Add && is_zero(&l) {
                        return r;
                    }
                }
                BinOp::Mul => {
                    if is_one(&r) {
                        return l;
                    }
                    if is_one(&l) {
                        return r;
                    }
                }
                BinOp::Div if is_one(&r) => {
                    return l;
                }
                _ => {}
            }
            ScalarExpr::Binary { op: *op, left: Box::new(l), right: Box::new(r) }
        }
        ScalarExpr::Unary { op, expr } => {
            let e = fold(expr);
            if let ScalarExpr::Literal(v) = &e {
                if let Ok(folded) = unary_value(*op, v) {
                    return ScalarExpr::Literal(folded);
                }
            }
            // NOT NOT x → x
            if *op == UnOp::Not {
                if let ScalarExpr::Unary { op: UnOp::Not, expr: inner } = &e {
                    return (**inner).clone();
                }
            }
            ScalarExpr::Unary { op: *op, expr: Box::new(e) }
        }
        ScalarExpr::Func { func, args } => {
            let folded_args: Vec<ScalarExpr> = args.iter().map(fold).collect();
            if func.is_deterministic() {
                let literals: Option<Vec<Value>> = folded_args
                    .iter()
                    .map(|a| match a {
                        ScalarExpr::Literal(v) => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                if let Some(Ok(v)) =
                    literals.map(|vals| func_value(*func, &vals, &mut EvalCtx::default()))
                {
                    return ScalarExpr::Literal(v);
                }
            }
            ScalarExpr::Func { func: *func, args: folded_args }
        }
        ScalarExpr::Case { branches, else_expr } => {
            let mut out: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
            let mut else_out = else_expr.as_ref().map(|e| fold(e));
            for (w, t) in branches {
                let w = fold(w);
                let t = fold(t);
                if is_false(&w) {
                    continue; // dead branch
                }
                if is_true(&w) {
                    // Everything after an always-true branch is dead; it
                    // becomes the ELSE.
                    else_out = Some(t);
                    break;
                }
                out.push((w, t));
            }
            match (out.is_empty(), &else_out) {
                (true, Some(e)) => e.clone(),
                (true, None) => ScalarExpr::Literal(Value::Null),
                _ => ScalarExpr::Case { branches: out, else_expr: else_out.map(Box::new) },
            }
        }
        ScalarExpr::Cast { expr, dtype } => {
            let e = fold(expr);
            if let ScalarExpr::Literal(v) = &e {
                if let Ok(c) = super::eval::cast_value(v, *dtype) {
                    return ScalarExpr::Literal(c);
                }
            }
            ScalarExpr::Cast { expr: Box::new(e), dtype: *dtype }
        }
    }
}

/// Order commutative operands canonically (by [`ScalarExpr::order_key`]),
/// flattening and re-sorting AND/OR chains, and mirroring comparisons so
/// the smaller-key operand comes first. Makes `a AND b AND c`
/// permutation-insensitive, and since the key reads parameters by name, the
/// order does not depend on the instance's parameter values.
pub fn canonicalize(expr: &ScalarExpr) -> ScalarExpr {
    match expr {
        ScalarExpr::Binary { op: op @ (BinOp::And | BinOp::Or), .. } => {
            let mut terms = Vec::new();
            collect_chain(expr, *op, &mut terms);
            let mut terms: Vec<_> = terms
                .iter()
                .map(|t| {
                    let t = canonicalize(t);
                    (t.order_key(), t)
                })
                .collect();
            terms.sort_by_key(|(key, _)| *key);
            terms.dedup_by(|a, b| a.1 == b.1); // a AND a → a
            terms
                .into_iter()
                .map(|(_, t)| t)
                .reduce(|acc, t| ScalarExpr::binary(*op, acc, t))
                .unwrap_or_else(|| expr.clone()) // never taken: a chain has a term
        }
        ScalarExpr::Binary { op, left, right } => {
            let l = canonicalize(left);
            let r = canonicalize(right);
            let mirrored = if op.is_commutative() {
                Some(*op)
            } else {
                Some(op.mirror()).filter(|m| op.is_comparison() && m != op)
            };
            match mirrored {
                Some(m) if r.order_key() < l.order_key() => {
                    ScalarExpr::Binary { op: m, left: Box::new(r), right: Box::new(l) }
                }
                _ => ScalarExpr::Binary { op: *op, left: Box::new(l), right: Box::new(r) },
            }
        }
        ScalarExpr::Unary { op, expr } => {
            ScalarExpr::Unary { op: *op, expr: Box::new(canonicalize(expr)) }
        }
        ScalarExpr::Func { func, args } => {
            ScalarExpr::Func { func: *func, args: args.iter().map(canonicalize).collect() }
        }
        ScalarExpr::Case { branches, else_expr } => ScalarExpr::Case {
            branches: branches.iter().map(|(w, t)| (canonicalize(w), canonicalize(t))).collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(canonicalize(e))),
        },
        ScalarExpr::Cast { expr, dtype } => {
            ScalarExpr::Cast { expr: Box::new(canonicalize(expr)), dtype: *dtype }
        }
        _ => expr.clone(),
    }
}

/// Split a conjunction into its conjuncts (post-fold). Used by filter
/// pushdown and by the cv-analyzer containment prover.
pub fn split_conjunction(expr: &ScalarExpr) -> Vec<ScalarExpr> {
    let mut terms = Vec::new();
    collect_chain(expr, BinOp::And, &mut terms);
    terms
}

/// Rebuild a conjunction from conjuncts (left-deep, preserving order).
pub fn conjoin(terms: Vec<ScalarExpr>) -> ScalarExpr {
    let mut it = terms.into_iter();
    let first = it.next().unwrap_or(ScalarExpr::Literal(Value::Bool(true)));
    it.fold(first, |acc, t| acc.and(t))
}

fn collect_chain(expr: &ScalarExpr, want: BinOp, out: &mut Vec<ScalarExpr>) {
    match expr {
        ScalarExpr::Binary { op, left, right } if *op == want => {
            collect_chain(left, want, out);
            collect_chain(right, want, out);
        }
        other => out.push(other.clone()),
    }
}

fn is_true(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Literal(Value::Bool(true)))
}

fn is_false(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Literal(Value::Bool(false)))
}

fn is_zero(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Literal(Value::Int(0)))
        || matches!(e, ScalarExpr::Literal(Value::Float(f)) if *f == 0.0)
}

fn is_one(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Literal(Value::Int(1)))
        || matches!(e, ScalarExpr::Literal(Value::Float(f)) if *f == 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, param, FuncKind};

    #[test]
    fn folds_literal_arithmetic() {
        let e = lit(1).add(lit(2)).mul(lit(3));
        assert_eq!(fold(&e), lit(9));
    }

    #[test]
    fn folds_comparisons_and_functions() {
        assert_eq!(fold(&lit(2).lt(lit(3))), lit(true));
        let f = ScalarExpr::Func { func: FuncKind::Upper, args: vec![lit("asia")] };
        assert_eq!(fold(&f), lit("ASIA"));
    }

    #[test]
    fn does_not_fold_nondeterministic() {
        let f = ScalarExpr::Func { func: FuncKind::RandomNext, args: vec![] };
        assert_eq!(fold(&f), f);
    }

    #[test]
    fn does_not_fold_params() {
        let e = param("d", 5i64).add(lit(0)); // +0 simplifies, param survives
        assert_eq!(fold(&e), param("d", 5i64));
        let e2 = param("d", 5i64).add(lit(2));
        assert!(matches!(fold(&e2), ScalarExpr::Binary { .. }));
    }

    #[test]
    fn boolean_identities() {
        let x = col("x");
        assert_eq!(fold(&x.clone().and(lit(true))), x);
        assert_eq!(fold(&x.clone().and(lit(false))), lit(false));
        assert_eq!(fold(&lit(false).or(x.clone())), x);
        assert_eq!(fold(&x.clone().or(lit(true))), lit(true));
        assert_eq!(fold(&x.clone().not().not()), x);
    }

    #[test]
    fn arithmetic_identities() {
        let x = col("x");
        assert_eq!(fold(&x.clone().add(lit(0))), x);
        assert_eq!(fold(&x.clone().mul(lit(1))), x);
        assert_eq!(fold(&lit(1).mul(x.clone())), x);
        assert_eq!(fold(&x.clone().div(lit(1))), x);
    }

    #[test]
    fn dead_case_branches_removed() {
        let e = ScalarExpr::Case {
            branches: vec![
                (lit(false), lit(1)),
                (col("p"), lit(2)),
                (lit(true), lit(3)),
                (col("q"), lit(4)), // dead: after always-true
            ],
            else_expr: Some(Box::new(lit(5))),
        };
        let folded = fold(&e);
        match folded {
            ScalarExpr::Case { branches, else_expr } => {
                assert_eq!(branches.len(), 1);
                assert_eq!(*else_expr.unwrap(), lit(3));
            }
            other => panic!("expected CASE, got {other}"),
        }
    }

    #[test]
    fn case_collapses_to_else_when_all_dead() {
        let e = ScalarExpr::Case {
            branches: vec![(lit(false), lit(1))],
            else_expr: Some(Box::new(lit(9))),
        };
        assert_eq!(fold(&e), lit(9));
    }

    #[test]
    fn commutative_operands_sorted() {
        let ab = normalize_expr(&col("a").add(col("b")));
        let ba = normalize_expr(&col("b").add(col("a")));
        assert_eq!(ab, ba);
        // Non-commutative must NOT swap.
        let sub1 = normalize_expr(&col("a").sub(col("b")));
        let sub2 = normalize_expr(&col("b").sub(col("a")));
        assert_ne!(sub1, sub2);
    }

    #[test]
    fn comparison_mirroring() {
        let a = normalize_expr(&col("a").lt(col("b")));
        let b = normalize_expr(&col("b").gt(col("a")));
        assert_eq!(a, b);
    }

    #[test]
    fn and_chains_permutation_insensitive() {
        let p1 = col("a").eq(lit(1));
        let p2 = col("b").gt(lit(2));
        let p3 = col("c").lt(lit(3));
        let e1 = normalize_expr(&p1.clone().and(p2.clone()).and(p3.clone()));
        let e2 = normalize_expr(&p3.and(p1.clone()).and(p2));
        assert_eq!(e1, e2);
    }

    #[test]
    fn duplicate_conjuncts_removed() {
        let p = col("a").eq(lit(1));
        let e = normalize_expr(&p.clone().and(p.clone()));
        assert_eq!(e, normalize_expr(&p));
    }

    #[test]
    fn normalization_is_idempotent() {
        let exprs = vec![
            col("b").add(col("a")).mul(lit(1)),
            col("a").eq(lit(1)).and(col("b").gt(lit(2))).or(col("c").is_null()),
            lit(3).gt(col("x")),
        ];
        for e in exprs {
            let once = normalize_expr(&e);
            let twice = normalize_expr(&once);
            assert_eq!(once, twice, "not idempotent for {e}");
        }
    }

    #[test]
    fn semantic_equivalence_not_attempted() {
        // Paper §5.3: syntactically different but logically equal predicates
        // must NOT be merged by the core system.
        let a = normalize_expr(&col("CustomerId").gt(lit(5)));
        let b = normalize_expr(&lit(2).mul(col("CustomerId")).gt(lit(10)));
        assert_ne!(a.sig(), b.sig());
    }

    #[test]
    fn split_and_conjoin_roundtrip() {
        let p1 = col("a").eq(lit(1));
        let p2 = col("b").gt(lit(2));
        let e = p1.clone().and(p2.clone());
        let parts = split_conjunction(&e);
        assert_eq!(parts.len(), 2);
        assert_eq!(conjoin(parts), e);
        assert_eq!(split_conjunction(&p1).len(), 1);
    }
}
