//! Expression evaluation over columnar tables.
//!
//! Evaluation is column-at-a-time: each expression node is one call of its
//! typed kernel in [`super::kernels`], which materializes one output
//! [`Column`] for the whole chunk. The kernels are total over the nodes
//! `ScalarExpr::dtype` accepts, so a kernel's refusal is a type error and
//! is raised as one. The scalar functions here ([`binary_value`],
//! [`unary_value`], [`func_value`], [`cast_value`]) operate on [`Value`]s
//! with SQL ternary-logic null semantics: they are the constant folder's
//! semantics in [`super::fold`] and the oracle the kernels are tested
//! against, so folding and runtime can never disagree.
//!
//! A predicate is not a column: [`select`] returns the ids of the rows where
//! it is TRUE. That is the one way the Filter operator evaluates one — the
//! typed comparison loops write ids, an `AND` evaluates each conjunct at the
//! survivors of the ones before it, and whatever has no such form goes
//! through [`eval`] over every row.

use super::kernels::{self, Operand};
use super::{BinOp, FuncKind, ScalarExpr, UnOp};
use cv_common::hash::StableHasher;
use cv_common::{CvError, Result};
use cv_data::column::{Column, ColumnView};
use cv_data::table::Table;
use cv_data::value::{date_parts, DataType, Value};
use std::sync::OnceLock;

/// Evaluation context: carries the simulated "now" and the counter behind
/// the non-deterministic builtins. Those builtins are *reproducible* given
/// the context (so tests are stable), but they are semantically
/// non-deterministic: the signature layer refuses to sign plans using them
/// (paper §4 "signature correctness").
#[derive(Debug, Clone)]
pub struct EvalCtx {
    /// Simulated current date, days since epoch (returned by `NOW()`).
    pub now_days: i32,
    nd_counter: u64,
}

impl EvalCtx {
    pub fn new(now_days: i32) -> EvalCtx {
        EvalCtx { now_days, nd_counter: 0 }
    }

    /// The next draw of the non-deterministic builtins. The domain tag is
    /// hashed once per process; each draw clones that state.
    pub(super) fn next_nd(&mut self) -> u64 {
        static DOMAIN: OnceLock<StableHasher> = OnceLock::new();
        self.nd_counter = self.nd_counter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut h = DOMAIN.get_or_init(|| StableHasher::with_domain("nondeterministic")).clone();
        h.write_u64(self.nd_counter);
        h.write_i64(self.now_days as i64);
        h.finish64()
    }

    /// The next `RANDOM_NEXT()`: a draw's top 31 bits.
    pub(super) fn random_next(&mut self) -> i64 {
        (self.next_nd() >> 33) as i64
    }
}

impl Default for EvalCtx {
    fn default() -> Self {
        EvalCtx::new(0)
    }
}

/// A non-NULL literal or parameter: an operand a binary kernel takes as a
/// scalar. (A NULL literal has no type; it takes the column path, where
/// `dtype` rejects it as it always has.)
fn constant(expr: &ScalarExpr) -> Option<&Value> {
    match expr {
        ScalarExpr::Literal(v) | ScalarExpr::Param { value: v, .. } if !v.is_null() => Some(v),
        _ => None,
    }
}

/// One side of a binary node: the scalar itself for a constant (when the
/// caller allows it), the evaluated column otherwise.
fn operand<'e>(
    expr: &'e ScalarExpr,
    may_stay_scalar: bool,
    table: &Table,
    ctx: &mut EvalCtx,
) -> Result<Operand<'e>> {
    match constant(expr) {
        Some(k) if may_stay_scalar => Ok(Operand::Const(k)),
        _ => eval(expr, table, ctx).map(Operand::Col),
    }
}

/// Evaluate an expression over every row of `table`, producing a column:
/// the node's children first, in written order, then one kernel call.
///
/// Only the CASE kernel needs the node's output type, so it is derived in
/// that arm alone — `dtype` recurses, and deriving it at every node of
/// every chunk made evaluation quadratic in expression depth.
pub fn eval(expr: &ScalarExpr, table: &Table, ctx: &mut EvalCtx) -> Result<Column> {
    let n = table.num_rows();
    let out = match expr {
        ScalarExpr::Column(name) => {
            let col = table
                .column_by_name(name)
                .ok_or_else(|| CvError::exec(format!("unknown column `{name}`")))?;
            return Ok(col.clone());
        }
        ScalarExpr::Literal(v) | ScalarExpr::Param { value: v, .. } => kernels::broadcast(v, n),
        ScalarExpr::Binary { op, left, right } => {
            // A constant operand reaches the kernel as a scalar instead of
            // a broadcast column. At most one side: the other supplies the
            // rows, and evaluation order (left first) is unchanged.
            let l = operand(left, constant(right).is_none(), table, ctx)?;
            let r = operand(right, true, table, ctx)?;
            kernels::binary(*op, &l, &r, n)
        }
        ScalarExpr::Unary { op, expr: inner } => kernels::unary(*op, &eval(inner, table, ctx)?),
        ScalarExpr::Func { func, args } => {
            let args: Result<Vec<Column>> = args.iter().map(|a| eval(a, table, ctx)).collect();
            kernels::func(*func, &args?, n, ctx)
        }
        ScalarExpr::Case { branches, else_expr } => {
            let when_cols: Result<Vec<Column>> =
                branches.iter().map(|(w, _)| eval(w, table, ctx)).collect();
            let when_cols = when_cols?;
            // A constant THEN/ELSE reaches the kernel as the scalar it is.
            let thens: Result<Vec<Operand<'_>>> =
                branches.iter().map(|(_, t)| operand(t, true, table, ctx)).collect();
            let thens = thens?;
            let else_col = match else_expr {
                Some(e) => Some(operand(e, true, table, ctx)?),
                None => None,
            };
            let out_type = expr.dtype(table.schema())?;
            kernels::case_select(&when_cols, &thens, else_col.as_ref(), out_type, n)
        }
        ScalarExpr::Cast { expr, dtype } => return kernels::cast(&eval(expr, table, ctx)?, *dtype),
    };
    out.ok_or_else(|| refused(expr, table))
}

/// What a kernel's refusal of `expr` raises: `dtype`'s error, the only kind
/// of node a kernel refuses. A node `dtype` accepts is named instead.
fn refused(expr: &ScalarExpr, table: &Table) -> CvError {
    match expr.dtype(table.schema()) {
        Err(e) => e,
        Ok(t) => CvError::exec(format!("no kernel evaluates {expr} ({t})")),
    }
}

/// The ids, ascending, of the rows of `table` where `expr` is TRUE — SQL
/// semantics: a NULL verdict does not select — among `within` when given
/// (itself ascending), among all rows otherwise.
///
/// `within` restricts the answer, and the evaluation too wherever that is
/// safe: a typed comparison loop reads only those rows, an `AND` hands each
/// conjunct the survivors of the ones before it. Everything else — a
/// predicate that is not a comparison of plain operands — is evaluated over
/// every row by [`eval`] and then read at `within`, so it raises what it
/// always raised and advances the non-determinism counter as it always did.
pub fn select(
    expr: &ScalarExpr,
    table: &Table,
    within: Option<&[usize]>,
    ctx: &mut EvalCtx,
) -> Result<Vec<usize>> {
    if let ScalarExpr::Binary { op, left, right } = expr {
        let typed = match op {
            BinOp::And => select_conjuncts(expr, table, within, ctx)?,
            _ if op.is_comparison() => {
                match (plain_operand(left, table), plain_operand(right, table)) {
                    (Some(l), Some(r)) => kernels::select(*op, &l, &r, table.num_rows(), within),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(ids) = typed {
            return Ok(ids);
        }
    }
    let c = eval(expr, table, ctx)?;
    let ColumnView::Bool(verdicts) = c.view() else {
        return Err(CvError::exec(format!("predicate must be BOOL, got {}", c.dtype())));
    };
    let validity = c.validity();
    let selected = |i: &usize| verdicts[*i] && validity.is_none_or(|v| v.get(*i));
    Ok(match within {
        Some(ids) => ids.iter().copied().filter(selected).collect(),
        None => (0..c.len()).filter(selected).collect(),
    })
}

/// What a typed selection loop compares: a column of the chunk, or a
/// non-NULL constant.
fn plain_operand<'e>(expr: &'e ScalarExpr, table: &Table) -> Option<Operand<'e>> {
    match expr {
        ScalarExpr::Column(name) => table.column_by_name(name).cloned().map(Operand::Col),
        _ => constant(expr).map(Operand::Const),
    }
}

/// `Some(reads a string column)` for an expression that is *narrowable*:
/// deterministic, and unable to raise on a row — given that it type-checks,
/// it cannot raise at all, so it may run before its neighbours, at fewer
/// rows than they, or not at all once no row is left. The set is closed:
/// columns, non-NULL constants, and every binary and unary operator over
/// them (comparisons, `AND`/`OR`/`NOT`, `IS [NOT] NULL`, arithmetic — which
/// wraps, and divides by zero to NULL). A function, a `CAST` or a `CASE` is
/// outside it whatever it contains: some raise on a row's value
/// (`CAST(f AS BOOL)`), some count rows (`RANDOM_NEXT()`), and nothing here
/// is meant to know which.
fn narrowable(expr: &ScalarExpr, table: &Table) -> Option<bool> {
    match expr {
        ScalarExpr::Column(name) => Some(table.column_by_name(name)?.dtype() == DataType::Str),
        ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => constant(expr).map(|_| false),
        ScalarExpr::Binary { left, right, .. } => {
            Some(narrowable(left, table)? | narrowable(right, table)?)
        }
        ScalarExpr::Unary { expr, .. } => narrowable(expr, table),
        ScalarExpr::Func { .. } | ScalarExpr::Case { .. } | ScalarExpr::Cast { .. } => None,
    }
}

/// The `AND` arm of [`select`]: the conjuncts of `expr` (nested `AND`s
/// flattened) each select within the survivors of those before. Narrowable
/// conjuncts go first — those over fixed-width columns before those that
/// reach for a `String` per row — and are skipped once nothing survives;
/// the rest follow in written order and always run, over every row, so the
/// first of them to raise is the one the reference raises and the
/// non-deterministic ones count rows in the reference's order. The order is
/// a function of the predicate and the column types, nothing else.
///
/// `None` — the caller's general arm — unless every conjunct type-checks as
/// BOOL: a mistyped conjunct is reported by the `AND` node that holds it.
fn select_conjuncts(
    expr: &ScalarExpr,
    table: &Table,
    within: Option<&[usize]>,
    ctx: &mut EvalCtx,
) -> Result<Option<Vec<usize>>> {
    fn flatten<'e>(expr: &'e ScalarExpr, out: &mut Vec<&'e ScalarExpr>) {
        match expr {
            ScalarExpr::Binary { op: BinOp::And, left, right } => {
                flatten(left, out);
                flatten(right, out);
            }
            conjunct => out.push(conjunct),
        }
    }
    let mut conjuncts = Vec::new();
    flatten(expr, &mut conjuncts);
    if !conjuncts.iter().all(|c| matches!(c.dtype(table.schema()), Ok(DataType::Bool))) {
        return Ok(None);
    }
    const REST: u8 = 2;
    let rank =
        |c: &ScalarExpr| narrowable(c, table).map_or(REST, |reads_strings| reads_strings as u8);
    let mut ranked: Vec<(u8, &ScalarExpr)> = conjuncts.into_iter().map(|c| (rank(c), c)).collect();
    ranked.sort_by_key(|(rank, _)| *rank); // stable: written order within a rank
    let mut survivors: Option<Vec<usize>> = None;
    for (rank, conjunct) in ranked {
        let so_far = survivors.as_deref().or(within);
        if rank < REST && so_far.is_some_and(<[usize]>::is_empty) {
            continue;
        }
        survivors = Some(select(conjunct, table, so_far, ctx)?);
    }
    Ok(Some(survivors.unwrap_or_default()))
}

/// Scalar binary kernel with SQL null propagation (AND/OR use ternary logic).
pub fn binary_value(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    use BinOp::*;
    // A comparison is TRUE at the orderings it accepts.
    let compare = |less: bool, equal: bool, greater: bool| {
        let verdict = match a.total_cmp(b) {
            Less => less,
            Equal => equal,
            Greater => greater,
        };
        Ok(Value::Bool(verdict))
    };
    match op {
        And => Ok(match (a.as_bool(), b.as_bool()) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        }),
        Or => Ok(match (a.as_bool(), b.as_bool()) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        }),
        _ if a.is_null() || b.is_null() => Ok(Value::Null),
        Eq => compare(false, true, false),
        NotEq => compare(true, false, true),
        Lt => compare(true, false, false),
        LtEq => compare(true, true, false),
        Gt => compare(false, false, true),
        GtEq => compare(false, true, true),
        Add | Sub | Mul | Div | Mod => arith_value(op, a, b),
    }
}

/// The arithmetic arm of [`binary_value`], on non-NULL operands: Date±Int
/// shifts days, Int×Int stays Int (wrapping: `i64::MIN % -1` is 0) except
/// `/`, anything else numeric widens to f64; `/` and `%` by zero are NULL.
fn arith_value(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    use BinOp::*;
    use Value::{Date, Float, Int};
    Ok(match (op, a, b) {
        (Add, Date(d), Int(i)) => Date(d.wrapping_add(*i as i32)),
        (Sub, Date(d), Int(i)) => Date(d.wrapping_sub(*i as i32)),
        (_, Date(_), Int(_)) => return Err(CvError::exec("only +/- allowed on dates")),
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(*y)),
        (Mod, Int(_), Int(0)) => Value::Null,
        (Mod, Int(x), Int(y)) => Int(x.wrapping_rem(*y)),
        _ => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(CvError::exec(format!(
                    "arithmetic {} on non-numeric values {a} and {b}",
                    op.symbol()
                )));
            };
            match op {
                Add => Float(x + y),
                Sub => Float(x - y),
                Mul => Float(x * y),
                Div | Mod if y == 0.0 => Value::Null, // SQL: division by zero → NULL here
                Div => Float(x / y),
                Mod => Float(x % y),
                _ => return Err(CvError::exec(format!("{} is not arithmetic", op.symbol()))),
            }
        }
    })
}

/// Scalar unary kernel.
pub fn unary_value(op: UnOp, v: &Value) -> Result<Value> {
    match op {
        UnOp::Not => Ok(match v.as_bool() {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        }),
        UnOp::Neg => {
            if v.is_null() {
                return Ok(Value::Null);
            }
            match v {
                Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(CvError::exec(format!("cannot negate {other}"))),
            }
        }
        UnOp::IsNull => Ok(Value::Bool(v.is_null())),
        UnOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
    }
}

/// Scalar function kernel. `ABS` wraps (`ABS(i64::MIN)` is `i64::MIN`), as
/// negation does, in every build.
pub fn func_value(func: FuncKind, args: &[Value], ctx: &mut EvalCtx) -> Result<Value> {
    // Deterministic single-argument functions propagate NULL.
    if func.arity() == 1 && args[0].is_null() {
        return Ok(Value::Null);
    }
    match func {
        FuncKind::Lower => Ok(Value::Str(req_str(&args[0])?.to_lowercase())),
        FuncKind::Upper => Ok(Value::Str(req_str(&args[0])?.to_uppercase())),
        FuncKind::Length => Ok(Value::Int(req_str(&args[0])?.len() as i64)),
        FuncKind::Abs => match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(CvError::exec(format!("ABS on non-numeric {other}"))),
        },
        FuncKind::Round => match &args[0] {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Float(f.round())),
            other => Err(CvError::exec(format!("ROUND on non-numeric {other}"))),
        },
        FuncKind::Year => {
            let days = args[0].as_date().ok_or_else(|| CvError::exec("YEAR requires a DATE"))?;
            Ok(Value::Int(date_parts(days).0))
        }
        FuncKind::Month => {
            let days = args[0].as_date().ok_or_else(|| CvError::exec("MONTH requires a DATE"))?;
            Ok(Value::Int(date_parts(days).1.into()))
        }
        FuncKind::Hash64 => Ok(Value::Int(hash64(&args[0]))),
        FuncKind::Now => Ok(Value::Date(ctx.now_days)),
        FuncKind::RandomNext => Ok(Value::Int(ctx.random_next())),
        FuncKind::NewGuid => Ok(Value::Str(guid(ctx.next_nd()).to_string())),
    }
}

/// Scalar cast kernel.
pub fn cast_value(v: &Value, to: DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let out = match (v, to) {
        (Value::Int(i), DataType::Int) => Value::Int(*i),
        (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
        (Value::Int(i), DataType::Str) => Value::Str(i.to_string()),
        (Value::Int(i), DataType::Bool) => Value::Bool(*i != 0),
        (Value::Int(i), DataType::Date) => Value::Date(*i as i32),
        (Value::Float(f), DataType::Float) => Value::Float(*f),
        (Value::Float(f), DataType::Int) => Value::Int(*f as i64),
        (Value::Float(f), DataType::Str) => Value::Str(f.to_string()),
        (Value::Str(s), DataType::Str) => Value::Str(s.clone()),
        (Value::Str(s), DataType::Int) => match s.trim().parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Null,
        },
        (Value::Str(s), DataType::Float) => match s.trim().parse::<f64>() {
            Ok(f) => Value::Float(f),
            Err(_) => Value::Null,
        },
        (Value::Str(s), DataType::Date) => match cv_data::value::parse_date(s) {
            Some(d) => Value::Date(d),
            None => Value::Null,
        },
        (Value::Bool(b), DataType::Bool) => Value::Bool(*b),
        (Value::Bool(b), DataType::Int) => Value::Int(*b as i64),
        (Value::Bool(b), DataType::Str) => Value::Str(b.to_string()),
        (Value::Date(d), DataType::Date) => Value::Date(*d),
        (Value::Date(d), DataType::Int) => Value::Int(*d as i64),
        (Value::Date(d), DataType::Str) => Value::Str(cv_data::value::format_date(*d)),
        (v, to) => {
            return Err(CvError::exec(format!("unsupported cast {v} -> {to}")));
        }
    };
    Ok(out)
}

/// A `NEW_GUID()` draw's text: 16 hex digits.
pub(super) fn guid(draw: u64) -> impl std::fmt::Display {
    std::fmt::from_fn(move |f| write!(f, "{draw:016x}"))
}

/// `HASH64` of one non-NULL value: its stable hash, non-negative.
pub(super) fn hash64(v: &Value) -> i64 {
    let mut h = StableHasher::with_domain("hash64-fn");
    v.stable_hash(&mut h);
    (h.finish64() >> 1) as i64
}

fn req_str(v: &Value) -> Result<&str> {
    v.as_str().ok_or_else(|| CvError::exec(format!("expected STRING, got {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, param};
    use cv_data::schema::{Field, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::new("qty", DataType::Int),
            Field::new("seg", DataType::Str),
            Field::new("day", DataType::Date),
        ])
        .unwrap()
        .into_ref();
        Table::from_rows(
            schema,
            &[
                vec![Value::Float(2.5), Value::Int(4), Value::Str("asia".into()), Value::Date(0)],
                vec![Value::Float(1.0), Value::Null, Value::Str("emea".into()), Value::Date(31)],
                vec![Value::Null, Value::Int(2), Value::Str("asia".into()), Value::Date(60)],
            ],
        )
        .unwrap()
    }

    fn ev(e: &ScalarExpr) -> Column {
        eval(e, &table(), &mut EvalCtx::new(100)).unwrap()
    }

    #[test]
    fn column_and_literal() {
        let c = ev(&col("qty"));
        assert_eq!(c.value(0), Value::Int(4));
        assert!(c.value(1).is_null());
        let l = ev(&lit(7));
        assert_eq!(l.len(), 3);
        assert_eq!(l.value(2), Value::Int(7));
    }

    #[test]
    fn arithmetic_with_null_propagation() {
        let e = col("price").mul(col("qty").cast(DataType::Float));
        let c = ev(&e);
        assert_eq!(c.value(0), Value::Float(10.0));
        assert!(c.value(1).is_null()); // qty null
        assert!(c.value(2).is_null()); // price null
    }

    #[test]
    fn integer_arithmetic_stays_int() {
        let c = ev(&col("qty").add(lit(1)));
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.value(0), Value::Int(5));
    }

    #[test]
    fn division_promotes_and_div_by_zero_is_null() {
        assert_eq!(
            binary_value(BinOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert!(binary_value(BinOp::Div, &Value::Int(7), &Value::Int(0)).unwrap().is_null());
        assert!(binary_value(BinOp::Mod, &Value::Int(7), &Value::Int(0)).unwrap().is_null());
    }

    #[test]
    fn comparisons() {
        let rows = |e: &ScalarExpr| select(e, &table(), None, &mut EvalCtx::default()).unwrap();
        assert_eq!(rows(&col("seg").eq(lit("asia"))), [0, 2]);
        // NULL comparison is not true.
        assert_eq!(rows(&col("qty").gt(lit(0))), [0, 2]);
        // A conjunction narrows; `within` bounds the answer.
        assert_eq!(rows(&col("seg").eq(lit("asia")).and(col("qty").lt(lit(3)))), [2]);
        let within =
            select(&col("qty").gt(lit(0)), &table(), Some(&[1, 2]), &mut EvalCtx::default());
        assert_eq!(within.unwrap(), [2]);
    }

    #[test]
    fn ternary_logic_and_or() {
        let n = Value::Null;
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        assert_eq!(binary_value(BinOp::And, &n, &f).unwrap(), Value::Bool(false));
        assert!(binary_value(BinOp::And, &n, &t).unwrap().is_null());
        assert_eq!(binary_value(BinOp::Or, &n, &t).unwrap(), Value::Bool(true));
        assert!(binary_value(BinOp::Or, &n, &f).unwrap().is_null());
    }

    #[test]
    fn is_null_checks() {
        let c = ev(&col("qty").is_null());
        assert_eq!(c.value(0), Value::Bool(false));
        assert_eq!(c.value(1), Value::Bool(true));
        let c2 = ev(&col("qty").is_not_null());
        assert_eq!(c2.value(1), Value::Bool(false));
    }

    #[test]
    fn date_arithmetic_and_parts() {
        let c = ev(&col("day").add(lit(7)));
        assert_eq!(c.value(0), Value::Date(7));
        let y = ev(&ScalarExpr::Func { func: FuncKind::Year, args: vec![col("day")] });
        assert_eq!(y.value(0), Value::Int(1970));
        let m = ev(&ScalarExpr::Func { func: FuncKind::Month, args: vec![col("day")] });
        assert_eq!(m.value(1), Value::Int(2)); // day 31 = 1970-02-01
    }

    /// `YEAR`/`MONTH` read the calendar, not the text: years of five digits
    /// and negative ones, and the first and last `i32` days, in the kernel
    /// and in the constant folder.
    #[test]
    fn date_parts_hold_outside_years_0_to_9999() {
        use cv_data::value::{date_parts, parse_date};
        let mut days: Vec<i32> = ["10000-01-01", "-9999-03-01", "-10000-12-31", "9999-12-31"]
            .iter()
            .map(|text| parse_date(text).unwrap())
            .collect();
        days.extend([i32::MIN, i32::MAX]);
        let schema = Schema::new(vec![Field::new("day", DataType::Date)]).unwrap().into_ref();
        let rows: Vec<Vec<Value>> = days.iter().map(|d| vec![Value::Date(*d)]).collect();
        let t = Table::from_rows(schema, &rows).unwrap();
        let parts = [(FuncKind::Year, 0), (FuncKind::Month, 1)];
        for (func, part) in parts {
            let e = ScalarExpr::Func { func, args: vec![col("day")] };
            let got = eval(&e, &t, &mut EvalCtx::new(0)).unwrap();
            for (i, d) in days.iter().enumerate() {
                let (y, m, _) = date_parts(*d);
                let want = Value::Int([y, m.into()][part]);
                assert_eq!(got.value(i), want, "{func:?} of day {d}");
                let folded = super::super::fold::fold(&ScalarExpr::Func {
                    func,
                    args: vec![lit(Value::Date(*d))],
                });
                assert_eq!(folded, lit(want), "{func:?} of day {d} folded");
            }
        }
        let year = |text| date_parts(parse_date(text).unwrap());
        assert_eq!((year("10000-01-01"), year("-9999-03-01")), ((10_000, 1, 1), (-9999, 3, 1)));
    }

    #[test]
    fn string_functions() {
        let c = ev(&ScalarExpr::Func { func: FuncKind::Upper, args: vec![col("seg")] });
        assert_eq!(c.value(0), Value::Str("ASIA".into()));
        let l = ev(&ScalarExpr::Func { func: FuncKind::Length, args: vec![col("seg")] });
        assert_eq!(l.value(1), Value::Int(4));
    }

    #[test]
    fn case_expression() {
        let e = ScalarExpr::Case {
            branches: vec![(col("seg").eq(lit("asia")), lit(1))],
            else_expr: Some(Box::new(lit(0))),
        };
        let c = ev(&e);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Int(0));
    }

    #[test]
    fn case_without_else_yields_null() {
        let e = ScalarExpr::Case {
            branches: vec![(col("seg").eq(lit("asia")), lit(1))],
            else_expr: None,
        };
        let c = ev(&e);
        assert!(c.value(1).is_null());
    }

    #[test]
    fn casts() {
        assert_eq!(cast_value(&Value::Str("42".into()), DataType::Int).unwrap(), Value::Int(42));
        assert!(cast_value(&Value::Str("xx".into()), DataType::Int).unwrap().is_null());
        assert_eq!(
            cast_value(&Value::Str("2020-02-01".into()), DataType::Date).unwrap(),
            Value::Date(cv_data::value::parse_date("2020-02-01").unwrap())
        );
        assert_eq!(
            cast_value(&Value::Date(0), DataType::Str).unwrap(),
            Value::Str("1970-01-01".into())
        );
    }

    #[test]
    fn params_evaluate_like_literals() {
        let c = ev(&param("cutoff", 3i64));
        assert_eq!(c.value(0), Value::Int(3));
    }

    #[test]
    fn now_uses_context() {
        let c = ev(&ScalarExpr::Func { func: FuncKind::Now, args: vec![] });
        assert_eq!(c.value(0), Value::Date(100));
    }

    #[test]
    fn nondeterministic_functions_vary_per_row() {
        let c = ev(&ScalarExpr::Func { func: FuncKind::NewGuid, args: vec![] });
        assert_ne!(c.value(0), c.value(1));
        let r = ev(&ScalarExpr::Func { func: FuncKind::RandomNext, args: vec![] });
        assert_ne!(r.value(0), r.value(1));
    }

    /// The typed `RANDOM_NEXT()` / `NEW_GUID()` columns are `func_value`'s
    /// draws, value for value, and leave the counter where it leaves it:
    /// over one chunk, and through a filter's non-deterministic conjunct at
    /// two chunk sizes, which draws at every row of each chunk.
    #[test]
    fn typed_draws_are_the_scalar_draws() {
        use cv_data::chunk::chunk_ranges;
        let mut rng = cv_common::DetRng::seed(0xd4a);
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap().into_ref();
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|_| match rng.range_usize(0, 4) {
                0 => vec![Value::Null],
                1 => vec![Value::from("emea")],
                _ => vec![Value::from("asia")],
            })
            .collect();
        let t = Table::from_rows(schema, &rows).unwrap();
        for func in [FuncKind::RandomNext, FuncKind::NewGuid] {
            let e = ScalarExpr::Func { func, args: vec![] };
            let (mut typed, mut scalar) = (EvalCtx::new(100), EvalCtx::new(100));
            let a = eval(&e, &t, &mut typed).unwrap();
            assert_eq!((a.len(), a.validity()), (t.num_rows(), None));
            for i in 0..t.num_rows() {
                assert_eq!(a.value(i), func_value(func, &[], &mut scalar).unwrap(), "{func:?}");
            }
            assert_eq!(typed.next_nd(), scalar.next_nd(), "{func:?}: the draw after");
        }
        let random_next = || ScalarExpr::Func { func: FuncKind::RandomNext, args: vec![] };
        let coins: [(ScalarExpr, fn(i64) -> bool); 2] = [
            (random_next().gt_eq(lit(0)), |draw| draw >= 0),
            (ScalarExpr::binary(BinOp::Mod, random_next(), lit(3)).eq(lit(0)), |draw| {
                draw % 3 == 0
            }),
        ];
        for (nondeterministic, coin) in coins {
            let pred = lit("asia").eq(col("s")).and(nondeterministic);
            for chunk in [7, usize::MAX] {
                let (mut typed, mut scalar) = (EvalCtx::new(100), EvalCtx::new(100));
                for (offset, len) in chunk_ranges(t.num_rows(), chunk) {
                    let w = t.slice(offset, len);
                    let draws: Vec<i64> = (0..len).map(|_| scalar.random_next()).collect();
                    let want: Vec<usize> = (0..len)
                        .filter(|&i| rows[offset + i][0] == Value::from("asia") && coin(draws[i]))
                        .collect();
                    let got = select(&pred, &w, None, &mut typed).unwrap();
                    assert_eq!(got, want, "{pred} at rows {offset}..+{len}");
                }
                assert_eq!(typed.next_nd(), scalar.next_nd(), "{pred} by {chunk}: the draw after");
            }
        }
    }

    #[test]
    fn hash64_is_stable() {
        let a = func_value(FuncKind::Hash64, &[Value::Str("x".into())], &mut EvalCtx::default())
            .unwrap();
        let b = func_value(FuncKind::Hash64, &[Value::Str("x".into())], &mut EvalCtx::default())
            .unwrap();
        assert_eq!(a, b);
        assert!(a.as_int().unwrap() >= 0);
    }

    #[test]
    fn predicate_type_enforced() {
        let err = select(&col("qty"), &table(), None, &mut EvalCtx::default()).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }
}
