//! Differential property tests for the vectorized kernel layer.
//!
//! The typed kernels in `cv_engine::expr` and the columnar key machinery in
//! the executor must be invisible: evaluating any type-checked expression
//! has to match [`reference`] — a walker that applies the scalar `*_value`
//! functions row by row — value-for-value, null-for-null and byte for byte,
//! and whole plans must produce the tables those values make. Randomized
//! inputs come from seeded `DetRng` loops rather than an external
//! property-testing crate (see tests/properties.rs).

use cv_common::ids::{JobId, VcId};
use cv_common::rng::DetRng;
use cv_common::{CvError, HashMap, Sig128, SimTime};
use cv_data::bitmap::Bitmap;
use cv_data::catalog::DatasetCatalog;
use cv_data::chunk::DEFAULT_CHUNK_SIZE;
use cv_data::column::{Column, ColumnData, ColumnView, PAD};
use cv_data::schema::{Field, Schema, SchemaRef};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_data::viewstore::{ViewReadFault, ViewSource, ViewStore};
use cv_engine::cost::CostModel;
use cv_engine::exec::{execute, ExecContext, ExecOutcome, SerialRunner};
use cv_engine::expr::eval::{
    binary_value, cast_value, eval, func_value, select, unary_value, EvalCtx,
};
use cv_engine::expr::fold::fold;
use cv_engine::expr::{col, lit, param, AggExpr, AggFunc, BinOp, FuncKind, ScalarExpr, UnOp};
use cv_engine::normalize::normalize;
use cv_engine::optimizer::{AlwaysGrant, Optimizer, OptimizerConfig, ReuseContext};
use cv_engine::physical::{JoinAlgo, PhysicalPlan};
use cv_engine::plan::{JoinKind, LogicalPlan, PlanBuilder};
use cv_engine::stats::Statistics;
use cv_engine::udo::{UdoRegistry, UdoSpec};
use cv_engine::QueryEngine;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Random inputs
// ---------------------------------------------------------------------------

/// A table exercising every column type, with `null_rate` nulls per cell.
/// Floats deliberately include both zero signs and NaN so the typed kernels'
/// bit-level semantics get compared against the scalar path.
fn random_table(rng: &mut DetRng, rows: usize, null_rate: f64) -> Table {
    let schema = Schema::new(vec![
        Field::new("b", DataType::Bool),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("d", DataType::Date),
    ])
    .unwrap()
    .into_ref();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let mut row = Vec::with_capacity(5);
            row.push(if rng.chance(null_rate) {
                Value::Null
            } else {
                Value::Bool(rng.chance(0.5))
            });
            row.push(if rng.chance(null_rate) {
                Value::Null
            } else {
                Value::Int(rng.range_i64(-40, 40))
            });
            row.push(if rng.chance(null_rate) {
                Value::Null
            } else {
                Value::Float(match rng.range_usize(0, 8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    _ => rng.range_f64(-40.0, 40.0),
                })
            });
            row.push(if rng.chance(null_rate) {
                Value::Null
            } else {
                Value::Str((*rng.choose(&["a", "bb", "ccc", ""])).to_string())
            });
            row.push(if rng.chance(null_rate) {
                Value::Null
            } else {
                Value::Date(rng.range_i64(-1000, 20000) as i32)
            });
            row
        })
        .collect();
    Table::from_rows(schema, &data).unwrap()
}

const ALL_TYPES: [DataType; 5] =
    [DataType::Bool, DataType::Int, DataType::Float, DataType::Str, DataType::Date];

/// Every function, once each.
const ALL_FUNCS: [FuncKind; 11] = [
    FuncKind::Lower,
    FuncKind::Upper,
    FuncKind::Length,
    FuncKind::Abs,
    FuncKind::Round,
    FuncKind::Year,
    FuncKind::Month,
    FuncKind::Hash64,
    FuncKind::Now,
    FuncKind::RandomNext,
    FuncKind::NewGuid,
];

/// A random expression tree over the `random_table` schema. Many of these
/// fail type checking — callers skip those; the survivors cover every kernel
/// (binary, unary, function, cast, case, constant broadcast), and integer
/// literals at the `i64` extremes reach the wrapping arms.
fn rand_expr(rng: &mut DetRng, depth: usize) -> ScalarExpr {
    if depth == 0 || rng.chance(0.3) {
        return match rng.range_usize(0, 10) {
            0 => col("b"),
            1 => col("i"),
            2 => col("f"),
            3 => col("s"),
            4 => col("d"),
            5 => lit(rng.range_i64(-50, 50)),
            6 => lit(rng.range_f64(-50.0, 50.0)),
            7 => lit(rng.chance(0.5)),
            8 => lit(*rng.choose(&[i64::MIN, i64::MAX, -1])),
            _ => lit(*rng.choose(&["a", "bb", "zzz"])),
        };
    }
    match rng.range_usize(0, 12) {
        0..=5 => {
            let op = *rng.choose(&ALL_BINOPS);
            ScalarExpr::binary(op, rand_expr(rng, depth - 1), rand_expr(rng, depth - 1))
        }
        6 => {
            let op = *rng.choose(&[UnOp::Not, UnOp::Neg, UnOp::IsNull, UnOp::IsNotNull]);
            ScalarExpr::Unary { op, expr: Box::new(rand_expr(rng, depth - 1)) }
        }
        7 => {
            let to = *rng.choose(&ALL_TYPES);
            rand_expr(rng, depth - 1).cast(to)
        }
        8 | 9 => {
            let func = *rng.choose(&ALL_FUNCS);
            let args = (0..func.arity()).map(|_| rand_expr(rng, depth - 1)).collect();
            ScalarExpr::Func { func, args }
        }
        _ => {
            let nb = rng.range_usize(1, 4);
            let branches =
                (0..nb).map(|_| (rand_expr(rng, depth - 1), rand_expr(rng, depth - 1))).collect();
            let else_expr =
                if rng.chance(0.7) { Some(Box::new(rand_expr(rng, depth - 1))) } else { None };
            ScalarExpr::Case { branches, else_expr }
        }
    }
}

/// The reference: `e` at every row of `t`, through the scalar `*_value`
/// functions and the CASE rule (the first TRUE WHEN wins, no ELSE is NULL).
/// Column at a time: each child is evaluated at every row, in written
/// order, before its parent, so the non-deterministic draws come in the
/// evaluator's order; and a node is typed after its children, so what
/// raises first raises here first.
fn reference(e: &ScalarExpr, t: &Table, ctx: &mut EvalCtx) -> cv_common::Result<Vec<Value>> {
    let n = t.num_rows();
    let mut walk = |e: &ScalarExpr| reference(e, t, ctx);
    match e {
        ScalarExpr::Column(name) => {
            let c = t.column_by_name(name);
            let c = c.ok_or_else(|| CvError::exec(format!("unknown column `{name}`")))?;
            Ok((0..n).map(|i| c.value(i)).collect())
        }
        ScalarExpr::Literal(v) | ScalarExpr::Param { value: v, .. } => {
            e.dtype(t.schema()).map(|_| vec![v.clone(); n])
        }
        ScalarExpr::Binary { op, left, right } => {
            let (l, r) = (walk(left)?, walk(right)?);
            e.dtype(t.schema())?;
            l.iter().zip(&r).map(|(a, b)| binary_value(*op, a, b)).collect()
        }
        ScalarExpr::Unary { op, expr } => {
            let x = walk(expr)?;
            e.dtype(t.schema())?;
            x.iter().map(|v| unary_value(*op, v)).collect()
        }
        ScalarExpr::Cast { expr, dtype } => {
            walk(expr)?.iter().map(|v| cast_value(v, *dtype)).collect()
        }
        ScalarExpr::Func { func, args } => {
            let args: Vec<Vec<Value>> = args.iter().map(walk).collect::<cv_common::Result<_>>()?;
            e.dtype(t.schema())?;
            let row = |i: usize| args.iter().map(|a| a[i].clone()).collect::<Vec<_>>();
            (0..n).map(|i| func_value(*func, &row(i), ctx)).collect()
        }
        ScalarExpr::Case { branches, else_expr } => {
            let mut walk_all = |es: Vec<&ScalarExpr>| {
                es.into_iter().map(&mut walk).collect::<cv_common::Result<Vec<_>>>()
            };
            let whens = walk_all(branches.iter().map(|(w, _)| w).collect())?;
            let thens = walk_all(branches.iter().map(|(_, then)| then).collect())?;
            let otherwise = else_expr.as_deref().map(walk).transpose()?;
            e.dtype(t.schema())?;
            let pick = |i: usize| match whens.iter().position(|w| w[i] == Value::Bool(true)) {
                Some(j) => thens[j][i].clone(),
                None => otherwise.as_ref().map_or(Value::Null, |o| o[i].clone()),
            };
            Ok((0..n).map(pick).collect())
        }
    }
}

/// [`reference`] as a column of `e`'s type, built value by value — but a
/// column reference is the column itself, window and validity as they are.
fn reference_column(e: &ScalarExpr, t: &Table, ctx: &mut EvalCtx) -> cv_common::Result<Column> {
    if let ScalarExpr::Column(name) = e {
        if let Some(c) = t.column_by_name(name) {
            return Ok(c.clone());
        }
    }
    let values = reference(e, t, ctx)?;
    Column::from_values(e.dtype(t.schema())?, &values)
}

/// The rows [`reference`] calls TRUE, among `within` when given: what
/// `select` answers, and what it raises for a predicate that is not BOOL.
fn reference_select(
    e: &ScalarExpr,
    t: &Table,
    within: Option<&[usize]>,
    ctx: &mut EvalCtx,
) -> cv_common::Result<Vec<usize>> {
    let verdicts = reference(e, t, ctx)?;
    let dtype = e.dtype(t.schema())?;
    if dtype != DataType::Bool {
        return Err(CvError::exec(format!("predicate must be BOOL, got {dtype}")));
    }
    let keep = |i: &usize| verdicts[*i] == Value::Bool(true);
    Ok(match within {
        Some(ids) => ids.iter().copied().filter(keep).collect(),
        None => (0..t.num_rows()).filter(keep).collect(),
    })
}

/// `eval` and [`reference_column`] on one context state each: both raise
/// (the same error) or both give the same bytes. True if they gave a column.
fn assert_eval_matches_reference(
    e: &ScalarExpr,
    t: &Table,
    typed: &mut EvalCtx,
    scalar: &mut EvalCtx,
    what: &str,
) -> bool {
    match (eval(e, t, typed), reference_column(e, t, scalar)) {
        (Ok(a), Ok(b)) => {
            assert_columns_identical(&a, &b, what);
            true
        }
        (Err(a), Err(b)) => {
            assert_eq!((a.kind(), a.to_string()), (b.kind(), b.to_string()), "{what}");
            false
        }
        (a, b) => panic!("{what}: eval ok={} reference ok={}", a.is_ok(), b.is_ok()),
    }
}

/// Byte-for-byte column equality: validity *presence* and bits, every
/// cell including the placeholders under NULLs, floats by bit pattern.
/// Windows are compared through their compacted copies.
fn assert_columns_identical(a: &Column, b: &Column, what: &str) {
    assert_eq!(a.dtype(), b.dtype(), "dtype for {what}");
    assert_eq!(a.len(), b.len(), "length for {what}");
    assert_eq!(a.validity(), b.validity(), "validity (presence included) for {what}");
    assert_eq!(a.byte_size(), b.byte_size(), "byte size for {what}");
    let (a, b) = (a.clone().compact(), b.clone().compact());
    match (a.data(), b.data()) {
        (ColumnData::Float(x), ColumnData::Float(y)) => assert_eq!(
            x.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            y.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "float bits for {what}"
        ),
        (x, y) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "cells for {what}"),
    }
}

fn assert_tables_identical(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.schema().fields(), b.schema().fields(), "schema for {what}");
    assert_eq!(a.num_rows(), b.num_rows(), "rows for {what}");
    for (ci, (ca, cb)) in a.columns().iter().zip(b.columns()).enumerate() {
        assert_columns_identical(ca, cb, &format!("column {ci} of {what}"));
    }
}

/// A random `(offset, len)` window of `t` and its compacted copy.
fn random_window(rng: &mut DetRng, t: &Table) -> (Table, Table) {
    let off = rng.range_usize(0, t.num_rows() + 1);
    let len = rng.range_usize(0, t.num_rows() - off + 1);
    let window = t.slice(off, len);
    let compacted = window.clone().compact();
    assert!(compacted.is_compact());
    (window, compacted)
}

// ---------------------------------------------------------------------------
// Expression-level differential tests
// ---------------------------------------------------------------------------

#[test]
fn eval_matches_the_reference_walker() {
    let mut rng = DetRng::seed(0x41);
    let (mut checked, mut funcs) = (0usize, 0usize);
    for round in 0..500 {
        // Cycle through empty tables, single rows, null-free, and all-null
        // columns so the broadcast and validity edge cases all come up.
        let rows = match round % 7 {
            0 => 0,
            1 => 1,
            _ => rng.range_usize(2, 64),
        };
        let null_rate = match round % 5 {
            0 => 0.0,
            1 => 1.0,
            _ => 0.3,
        };
        let t = random_table(&mut rng, rows, null_rate);
        let e = rand_expr(&mut rng, 3);
        if e.dtype(t.schema()).is_err() {
            continue; // not type-correct; both reject it before a row is read
        }
        let (mut typed, mut scalar) = (EvalCtx::new(0), EvalCtx::new(0));
        if !assert_eval_matches_reference(&e, &t, &mut typed, &mut scalar, &format!("{e}")) {
            continue;
        }
        checked += 1;
        funcs += calls_a_function(&e) as usize;
        if e.dtype(t.schema()).unwrap() == DataType::Bool {
            // Bool results also exercise the predicate → selection path used
            // by the Filter operator: the same ids, and the same ids of any
            // subset asked for.
            let sa = select(&e, &t, None, &mut typed).unwrap();
            assert_eq!(
                sa,
                reference_select(&e, &t, None, &mut scalar).unwrap(),
                "selection for {e}"
            );
            let within: Vec<usize> = (0..rows).filter(|_| rng.chance(0.5)).collect();
            let wa = select(&e, &t, Some(&within), &mut typed).unwrap();
            let wb = reference_select(&e, &t, Some(&within), &mut scalar).unwrap();
            assert_eq!(wa, wb, "selection within {within:?} for {e}");
        }
    }
    assert!(checked >= 100, "only {checked} expressions type-checked; generator drifted");
    assert!(funcs >= 20, "only {funcs} of them call a function; generator drifted");
}

/// True if `e` has a function call anywhere in it.
fn calls_a_function(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Func { .. } => true,
        ScalarExpr::Binary { left, right, .. } => calls_a_function(left) || calls_a_function(right),
        ScalarExpr::Unary { expr, .. } | ScalarExpr::Cast { expr, .. } => calls_a_function(expr),
        ScalarExpr::Case { branches, else_expr } => {
            branches.iter().any(|(w, t)| calls_a_function(w) || calls_a_function(t))
                || else_expr.as_deref().is_some_and(calls_a_function)
        }
        _ => false,
    }
}

/// Every node kind, each operand type of each slot (column or constant, the
/// combinations `dtype` refuses included), over edge-valued tables of 0, 1
/// and 65 rows with no, some and only NULLs, and over a window of each:
/// `eval` and the reference raise together or give the same bytes.
#[test]
fn every_node_the_type_checker_accepts_has_a_kernel() {
    let konst = |t: DataType| match t {
        DataType::Bool => lit(true),
        DataType::Int => lit(-1_i64),
        DataType::Float => lit(2.5),
        DataType::Str => lit("ab"),
        DataType::Date => lit(Value::Date(100)),
    };
    let column = |t: DataType| {
        col(match t {
            DataType::Bool => "b",
            DataType::Int => "i",
            DataType::Float => "f",
            DataType::Str => "s",
            DataType::Date => "d",
        })
    };
    // Each type as a column and as a constant.
    let sides: Vec<ScalarExpr> = ALL_TYPES.iter().flat_map(|&t| [column(t), konst(t)]).collect();
    let mut nodes: Vec<ScalarExpr> = sides.clone();
    nodes.push(lit(Value::Null));
    for op in ALL_BINOPS {
        for l in &sides {
            for r in &sides {
                nodes.push(ScalarExpr::binary(op, l.clone(), r.clone()));
            }
        }
    }
    for x in &sides {
        for op in [UnOp::Not, UnOp::Neg, UnOp::IsNull, UnOp::IsNotNull] {
            nodes.push(ScalarExpr::Unary { op, expr: Box::new(x.clone()) });
        }
        for to in ALL_TYPES {
            nodes.push(x.clone().cast(to));
        }
    }
    for func in ALL_FUNCS {
        match func.arity() {
            0 => nodes.push(ScalarExpr::Func { func, args: vec![] }),
            _ => {
                nodes.extend(sides.iter().map(|x| ScalarExpr::Func { func, args: vec![x.clone()] }))
            }
        }
    }
    for when in [col("b"), lit(false)] {
        for then in &sides {
            let case = |otherwise: Option<&ScalarExpr>| ScalarExpr::Case {
                branches: vec![(when.clone(), then.clone()), (col("b").not(), then.clone())],
                else_expr: otherwise.cloned().map(Box::new),
            };
            nodes.push(case(None));
            nodes.extend(sides.iter().map(|otherwise| case(Some(otherwise))));
        }
    }
    let mut rng = DetRng::seed(0x707a1);
    let (mut accepted, mut evaluated) = (0usize, 0usize);
    for rows in [0, 1, 65] {
        for null_rate in [0.0, 0.3, 1.0] {
            let t = edge_table(rows, null_rate, &mut rng);
            let window = t.slice(rows / 3, rows - rows / 3 - rows / 5);
            for e in &nodes {
                accepted += e.dtype(t.schema()).is_ok() as usize;
                for (over, what) in [(&t, "table"), (&window, "window")] {
                    let what = format!("{e} over the {what} of {rows} rows, NULL rate {null_rate}");
                    let (mut typed, mut scalar) = (EvalCtx::new(0), EvalCtx::new(0));
                    evaluated +=
                        assert_eval_matches_reference(e, over, &mut typed, &mut scalar, &what)
                            as usize;
                }
            }
        }
    }
    assert!(accepted >= 9 * 450, "only {accepted} node cases type-check; generator drifted");
    // Table and window: all but the casts `cast_value` refuses give a column.
    assert!(evaluated >= accepted, "only {evaluated} columns for {accepted} type-checked cases");
}

/// `i64::MIN % -1` overflows in Rust's `%`; SQL's integer arithmetic wraps,
/// so it is 0 — in the kernel (column or constant divisor), in a selection
/// at every chunk size, and in the constant folder, which evaluates it
/// while normalizing a plan.
#[test]
fn the_remainder_of_i64_min_by_minus_one_is_zero() {
    let schema =
        Schema::new(vec![Field::new("i", DataType::Int), Field::new("m", DataType::Int)]).unwrap();
    let rows = [i64::MIN, -7, i64::MIN, 0, i64::MAX, i64::MIN];
    let rows: Vec<Vec<Value>> = rows.iter().map(|&i| vec![Value::Int(i), Value::Int(-1)]).collect();
    let t = Table::from_rows(schema.into_ref(), &rows).unwrap();
    let rem = |divisor| ScalarExpr::binary(BinOp::Mod, col("i"), divisor);
    for e in [rem(lit(-1_i64)), rem(col("m"))] {
        let c = eval(&e, &t, &mut EvalCtx::new(0)).unwrap();
        assert_eq!(c.view(), ColumnView::Int(&[0; 6]), "{e}");
        assert_eq!(c.validity(), None, "{e}");
        assert_columns_identical(
            &c,
            &reference_column(&e, &t, &mut EvalCtx::new(0)).unwrap(),
            "{e}",
        );
        let zero = e.clone().eq(lit(0_i64));
        for chunk in [1, usize::MAX] {
            for (offset, len) in cv_data::chunk::chunk_ranges(t.num_rows(), chunk) {
                let ids = select(&zero, &t.slice(offset, len), None, &mut EvalCtx::new(0));
                assert_eq!(
                    ids.unwrap(),
                    (0..len).collect::<Vec<_>>(),
                    "{zero} at {offset}..+{len}"
                );
            }
        }
    }
    // `(-9223372036854775807 - 1) % -1`, as the SQL reads it.
    let min = ScalarExpr::binary(BinOp::Sub, lit(-i64::MAX), lit(1_i64));
    for e in [min.clone(), lit(i64::MIN)] {
        assert_eq!(fold(&ScalarExpr::binary(BinOp::Mod, e, lit(-1_i64))), lit(0_i64));
    }
}

/// `ABS(i64::MIN)` overflows in Rust's `abs`, which panics in a debug build
/// and wraps in a release one; it wraps in both — as negation does — in the
/// kernel and in the constant folder.
#[test]
fn abs_of_i64_min_wraps_as_negation_does() {
    let abs = |x| ScalarExpr::Func { func: FuncKind::Abs, args: vec![x] };
    let schema = Schema::new(vec![Field::new("i", DataType::Int)]).unwrap().into_ref();
    let rows: Vec<Vec<Value>> =
        [i64::MIN, -3, i64::MAX].iter().map(|&i| vec![Value::Int(i)]).collect();
    let t = Table::from_rows(schema, &rows).unwrap();
    let c = eval(&abs(col("i")), &t, &mut EvalCtx::new(0)).unwrap();
    assert_eq!(c.view(), ColumnView::Int(&[i64::MIN, 3, i64::MAX]));
    let neg = ScalarExpr::Unary { op: UnOp::Neg, expr: Box::new(col("i")) };
    let negated = eval(&neg, &t, &mut EvalCtx::new(0)).unwrap();
    assert_eq!(negated.value(0), Value::Int(i64::MIN));
    assert_eq!(fold(&abs(lit(i64::MIN))), lit(i64::MIN));
    assert_eq!(fold(&abs(lit(-3_i64))), lit(3_i64));
}

/// A STRING CASE against the reference, byte for byte: overlapping WHENs
/// (the first TRUE one wins), no ELSE, NULL WHENs, NULL column sources under
/// taken rows, constant and column THENs, and computed sources.
#[test]
fn a_string_case_matches_the_scalar_loop() {
    let case = |branches: Vec<(ScalarExpr, ScalarExpr)>, else_: Option<ScalarExpr>| {
        ScalarExpr::Case { branches, else_expr: else_.map(Box::new) }
    };
    let shapes = [
        case(
            vec![
                (col("i").gt(lit(0_i64)), col("s")),
                (col("i").gt(lit(-10_i64)), lit("bb")),
                (col("b"), col("s")),
            ],
            Some(lit("zzz")),
        ),
        case(vec![(col("f").gt(lit(0.0)), lit("a")), (col("i").is_null(), col("s"))], None),
        case(vec![(col("s").eq(lit("a")), lit("zzz"))], Some(col("s"))),
        case(
            vec![(col("b"), col("i").cast(DataType::Str)), (col("b").not(), lit(""))],
            Some(col("f").cast(DataType::Str)),
        ),
    ];
    let mut rng = DetRng::seed(0x5ca5e);
    for round in 0..24 {
        let null_rate = [0.0, 0.3, 1.0][round % 3];
        let t = match round % 2 {
            0 => random_table(&mut rng, [0, 1, 70][round / 2 % 3], null_rate),
            _ => edge_table(64, null_rate, &mut rng),
        };
        for e in &shapes {
            let typed = eval(e, &t, &mut EvalCtx::new(0)).unwrap();
            assert_eq!(typed.dtype(), DataType::Str, "{e}");
            let want = reference_column(e, &t, &mut EvalCtx::new(0)).unwrap();
            assert_columns_identical(&typed, &want, &format!("{e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-level differential tests
// ---------------------------------------------------------------------------

fn random_catalog(rng: &mut DetRng) -> (DatasetCatalog, ViewStore, UdoRegistry) {
    let mut cat = DatasetCatalog::new();
    let fact = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("s", DataType::Str),
    ])
    .unwrap()
    .into_ref();
    let n = rng.range_usize(0, 200);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                if rng.chance(0.15) { Value::Null } else { Value::Int(rng.range_i64(0, 20)) },
                if rng.chance(0.10) {
                    Value::Null
                } else {
                    Value::Float(rng.range_f64(-100.0, 100.0))
                },
                if rng.chance(0.10) {
                    Value::Null
                } else {
                    Value::Str((*rng.choose(&["asia", "emea", "apac", "na"])).to_string())
                },
            ]
        })
        .collect();
    cat.register("fact", Table::from_rows(fact, &rows).unwrap(), SimTime::EPOCH).unwrap();
    let dim = Schema::new(vec![Field::new("k2", DataType::Int), Field::new("w", DataType::Float)])
        .unwrap()
        .into_ref();
    let drows: Vec<Vec<Value>> =
        (0..15).map(|i| vec![Value::Int(i), Value::Float(i as f64 * 0.5)]).collect();
    cat.register("dim", Table::from_rows(dim, &drows).unwrap(), SimTime::EPOCH).unwrap();
    (cat, ViewStore::with_default_ttl(), UdoRegistry::with_builtins())
}

fn run_with(
    plan: &Arc<LogicalPlan>,
    cat: &DatasetCatalog,
    views: &ViewStore,
    udos: &UdoRegistry,
    chunk_size: usize,
) -> Table {
    let opt = Optimizer::new(OptimizerConfig::default());
    let stats =
        |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
    let out = opt
        .optimize(&opt.sign(plan).unwrap(), &ReuseContext::empty(), &stats, &mut AlwaysGrant)
        .unwrap();
    let mut ctx = ExecContext::new(cat, views, udos, SimTime::EPOCH)
        .with_chunking(chunk_size, Arc::new(SerialRunner));
    execute(&out.physical, &mut ctx, &opt.cfg.cost).unwrap().table
}

fn assert_same_table(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.canonical_rows(), b.canonical_rows(), "rows for {what}");
    assert_eq!(a.byte_size(), b.byte_size(), "byte size for {what}");
}

/// A filter and a CASE/cast-heavy projection over it equal the reference
/// walker's filter and projection, and a join + aggregate + sort is the same
/// table cut in chunks of 7 rows as in one.
#[test]
fn plans_agree_with_the_reference_walker() {
    let mut rng = DetRng::seed(0x42);
    for round in 0..6 {
        let (cat, views, udos) = random_catalog(&mut rng);
        let kind = [JoinKind::Inner, JoinKind::Left, JoinKind::Semi][round % 3];

        // Filter + CASE/cast-heavy projection.
        let case = ScalarExpr::Case {
            branches: vec![(col("k").is_null(), lit(-1_i64)), (col("v").gt(lit(0.0)), col("k"))],
            else_expr: Some(Box::new(col("k").mul(lit(2_i64)))),
        };
        let predicate = col("v").gt(lit(-50.0)).or(col("k").is_null());
        let projection = vec![
            (case, "c"),
            (col("v").cast(DataType::Str), "vs"),
            (col("k").cast(DataType::Float).add(col("v")), "kf"),
        ];
        let project = PlanBuilder::scan(&cat, "fact")
            .unwrap()
            .filter(predicate.clone())
            .unwrap()
            .project(projection.clone())
            .unwrap()
            .build();
        let fact = cat.get_by_name("fact").unwrap().data().clone();
        let ctx = &mut EvalCtx::new(0);
        let kept = reference_select(&predicate, &fact, None, ctx).unwrap();
        let rows: Vec<Vec<Value>> = kept.iter().map(|&i| fact.row(i)).collect();
        let filtered = Table::from_rows(fact.schema().clone(), &rows).unwrap();
        let columns: Vec<Column> =
            projection.iter().map(|(e, _)| reference_column(e, &filtered, ctx).unwrap()).collect();
        let fields =
            projection.iter().map(|(e, n)| Field::new(*n, e.dtype(fact.schema()).unwrap()));
        let want = Table::new(Schema::new(fields.collect()).unwrap().into_ref(), columns).unwrap();
        for chunk_size in [7, usize::MAX] {
            let got = run_with(&project, &cat, &views, &udos, chunk_size);
            assert_same_table(&got, &want, &format!("project round {round}, chunk {chunk_size}"));
        }

        // Join + aggregate + sort over the same inputs.
        let agg = PlanBuilder::scan(&cat, "fact")
            .unwrap()
            .join(PlanBuilder::scan(&cat, "dim").unwrap(), &[("k", "k2")], kind)
            .unwrap()
            .aggregate(
                vec![(col("s"), "seg")],
                vec![
                    AggExpr::new(AggFunc::Sum, col("k"), "sk"),
                    AggExpr::new(AggFunc::Sum, col("v"), "sv"),
                    AggExpr::new(AggFunc::Avg, col("v"), "av"),
                    AggExpr::new(AggFunc::Min, col("v"), "mn"),
                    AggExpr::new(AggFunc::Max, col("v"), "mx"),
                    AggExpr::new(AggFunc::CountDistinct, col("k"), "dk"),
                    AggExpr::count_star("n"),
                ],
            )
            .unwrap()
            .sort(&[("seg", true), ("n", false)])
            .unwrap()
            .build();
        let whole = run_with(&agg, &cat, &views, &udos, usize::MAX);
        let chunked = run_with(&agg, &cat, &views, &udos, 7);
        assert_same_table(&chunked, &whole, &format!("{kind:?} agg round {round}"));
    }
}

/// `2^53`: from here on `i64 as f64` rounds, so several INT keys equal one
/// FLOAT key and hash alike.
const P53: i64 = 1 << 53;

/// A table of `rows` rows: one key column per `(dtype, pool)` spec, values
/// drawn from the pool (NULL at `null_rate`), named `{prefix}0..`, plus a
/// payload column that tells rows apart.
fn keyed_table(
    rng: &mut DetRng,
    prefix: &str,
    specs: &[(DataType, Vec<Value>)],
    rows: usize,
    null_rate: f64,
) -> Table {
    let mut fields: Vec<Field> =
        (0..specs.len()).map(|k| Field::new(format!("{prefix}{k}"), specs[k].0)).collect();
    fields.push(Field::new(format!("{prefix}p"), DataType::Str));
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let mut row: Vec<Value> = specs
                .iter()
                .map(
                    |(_, pool)| {
                        if rng.chance(null_rate) {
                            Value::Null
                        } else {
                            rng.choose(pool).clone()
                        }
                    },
                )
                .collect();
            row.push(Value::Str(format!("{prefix}{i}")));
            row
        })
        .collect();
    Table::from_rows(Schema::new(fields).unwrap().into_ref(), &data).unwrap()
}

/// [`keyed_table`]'s layout for one INT key column given cell by cell.
fn int_keyed_table(prefix: &str, keys: impl Iterator<Item = Value>) -> Table {
    let fields = vec![
        Field::new(format!("{prefix}0"), DataType::Int),
        Field::new(format!("{prefix}p"), DataType::Str),
    ];
    let data: Vec<Vec<Value>> =
        keys.enumerate().map(|(i, key)| vec![key, Value::Str(format!("{prefix}{i}"))]).collect();
    Table::from_rows(Schema::new(fields).unwrap().into_ref(), &data).unwrap()
}

/// The equi-join's matches as `Value::sql_eq` defines them, row by row:
/// for each left row in order, the right rows whose every key cell equals
/// its own (a NULL equals nothing), ascending. The reference every join
/// label is held to — it is not a production path.
fn reference_matches(left: &Table, right: &Table, on: &[(String, String)]) -> Vec<Vec<usize>> {
    // Every row's key cells, boxed.
    let keys = |t: &Table, names: Vec<&String>| -> Vec<Vec<Value>> {
        let cells = |row| names.iter().map(|n| t.column_by_name(n).unwrap().value(row)).collect();
        (0..t.num_rows()).map(cells).collect()
    };
    let lkeys = keys(left, on.iter().map(|(l, _)| l).collect());
    let rkeys = keys(right, on.iter().map(|(_, r)| r).collect());
    let equal = |a: &[Value], b: &[Value]| a.iter().zip(b).all(|(x, y)| x.sql_eq(y) == Some(true));
    lkeys.iter().map(|l| (0..rkeys.len()).filter(|&r| equal(l, &rkeys[r])).collect()).collect()
}

/// The table a `kind` join of `left` and `right` is, given the
/// [`reference_matches`]: left rows in order, each beside its matches — a
/// NULL row for a left join's miss, the left row alone (once, if it
/// matches) for a semi join — gathered as the executor gathers, in the
/// validity form a gather leaves (a padded gather always carries a bitmap).
fn reference_join(left: &Table, right: &Table, matches: &[Vec<usize>], kind: JoinKind) -> Table {
    let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
    for (lrow, rows) in matches.iter().enumerate() {
        match kind {
            JoinKind::Semi if rows.is_empty() => {}
            JoinKind::Semi => left_idx.push(lrow),
            JoinKind::Left if rows.is_empty() => {
                left_idx.push(lrow);
                right_idx.push(PAD);
            }
            JoinKind::Inner | JoinKind::Left => {
                left_idx.extend(rows.iter().map(|_| lrow));
                right_idx.extend_from_slice(rows);
            }
        }
    }
    let left_part = left.gather(left_idx);
    if kind == JoinKind::Semi {
        return left_part;
    }
    let mut columns = left_part.columns().to_vec();
    columns.extend_from_slice(right.gather_padded(right_idx).columns());
    let schema = left.schema().join(right.schema()).unwrap().into_ref();
    Table::new(schema, columns).unwrap()
}

#[test]
fn join_algorithms_agree_on_random_tables() {
    fn force(p: &PhysicalPlan, algo: JoinAlgo) -> PhysicalPlan {
        fn set(p: &mut PhysicalPlan, algo: JoinAlgo) {
            if let PhysicalPlan::Join { algo: a, .. } = p {
                *a = algo;
            }
            for c in p.children_mut() {
                set(c, algo);
            }
        }
        let mut p = p.clone();
        set(&mut p, algo);
        p
    }

    let mut rng = DetRng::seed(0x43);
    for round in 0..8 {
        let (cat, views, udos) = random_catalog(&mut rng);
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let (fact, dim) = (cat.get_by_name("fact").unwrap(), cat.get_by_name("dim").unwrap());
        let matches = reference_matches(fact.data(), dim.data(), &[("k".into(), "k2".into())]);
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi] {
            // Normalization orders an inner join's inputs by signature; the
            // projection fixes the output columns to fact's, then dim's.
            let mut names = fact.schema.names();
            if kind != JoinKind::Semi {
                names.extend(dim.schema.names());
            }
            let logical = PlanBuilder::scan(&cat, "fact")
                .unwrap()
                .join(PlanBuilder::scan(&cat, "dim").unwrap(), &[("k", "k2")], kind)
                .unwrap()
                .project(names.iter().map(|&n| (col(n), n)).collect())
                .unwrap()
                .build();
            let opt = Optimizer::new(OptimizerConfig::default());
            let physical =
                opt.to_physical(&normalize(&logical, &opt.cfg.sig).unwrap(), &stats).unwrap();
            let want = reference_join(fact.data(), dim.data(), &matches, kind).canonical_rows();
            for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::Loop] {
                let forced = force(&physical, algo);
                let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
                let out = execute(&forced, &mut ctx, &CostModel::default()).unwrap();
                assert_eq!(out.table.canonical_rows(), want, "{algo:?}, {kind:?}, round {round}");
            }
        }
    }

    let vals = |vs: &[Value]| vs.to_vec();
    let ints = || (DataType::Int, (-3..=3).map(Value::Int).collect::<Vec<_>>());
    let strs = || (DataType::Str, vals(&["".into(), "a".into(), "ab".into(), "b".into()]));
    let floats = || {
        let pool = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -1.5];
        (DataType::Float, pool.map(Value::Float).to_vec())
    };
    let big_ints = || {
        let pool = [0, 1, P53, P53 + 1, P53 + 2, -P53 - 1, i64::MAX, i64::MIN];
        (DataType::Int, pool.map(Value::Int).to_vec())
    };
    let big_floats = || {
        let p53 = P53 as f64;
        let pool = [0.0, -0.0, 1.0, p53, p53 + 2.0, -p53, i64::MAX as f64, f64::NAN];
        (DataType::Float, pool.map(Value::Float).to_vec())
    };
    fn int_pool(keys: impl IntoIterator<Item = i64>) -> (DataType, Vec<Value>) {
        (DataType::Int, keys.into_iter().map(Value::Int).collect())
    }
    let dates = || (DataType::Date, [-2, -1, 0, 1, 18_293].map(Value::Date).to_vec());
    let bools = || (DataType::Bool, vals(&[Value::Bool(false), Value::Bool(true)]));
    type Specs = Vec<(DataType, Vec<Value>)>;
    // (name, left keys, right keys, left rows, right rows, NULL rate)
    let shapes: Vec<(&str, Specs, Specs, usize, usize, f64)> = vec![
        ("int", vec![ints()], vec![ints()], 120, 50, 0.15),
        ("date", vec![dates()], vec![dates()], 120, 50, 0.15),
        ("bool", vec![bools()], vec![bools()], 60, 20, 0.3),
        ("float", vec![floats()], vec![floats()], 120, 50, 0.15),
        ("int x float", vec![big_ints()], vec![big_floats()], 120, 50, 0.1),
        ("float x int", vec![big_floats()], vec![big_ints()], 120, 50, 0.1),
        ("str", vec![strs()], vec![strs()], 120, 50, 0.15),
        ("int, str", vec![ints(), strs()], vec![ints(), strs()], 150, 60, 0.1),
        (
            "float, int x int, float",
            vec![big_floats(), ints()],
            vec![big_ints(), floats()],
            150,
            60,
            0.1,
        ),
        ("all null", vec![ints()], vec![ints()], 40, 30, 1.0),
        (
            "all duplicate",
            vec![(DataType::Int, vals(&[Value::Int(7)]))],
            vec![(DataType::Int, vals(&[Value::Int(7)]))],
            40,
            30,
            0.0,
        ),
        (
            "all duplicate strings",
            vec![(DataType::Str, vals(&["x".into()]))],
            vec![(DataType::Str, vals(&["x".into()]))],
            40,
            30,
            0.0,
        ),
        ("empty left", vec![ints()], vec![ints()], 0, 30, 0.1),
        ("empty right", vec![floats()], vec![floats()], 40, 0, 0.1),
        ("both empty", vec![strs()], vec![strs()], 0, 0, 0.0),
        // INT keys on both sides of the bound under which a key is coded as
        // `key - min`: a dense range, a range that does not fit `i64`, and a
        // dense right side met by a left side most of whose keys it lacks, a
        // few of them far away.
        ("dense ints", vec![int_pool(0..300)], vec![int_pool(0..300)], 600, 400, 0.05),
        ("ints across i64", vec![big_ints()], vec![big_ints()], 120, 50, 0.1),
        (
            "far-out left ints",
            vec![int_pool((0..200).chain([i64::MAX, i64::MIN + 1, 1 << 40]))],
            vec![int_pool(0..40)],
            600,
            100,
            0.05,
        ),
        // Two key columns of 66,002 codes each: their pairs outgrow `u32`.
        (
            "two wide int columns",
            vec![int_pool((0..60).chain([66_000])), int_pool((0..40).chain([66_000]))],
            vec![int_pool((0..60).chain([66_000])), int_pool((0..40).chain([66_000]))],
            16_000,
            500,
            0.05,
        ),
    ];
    // Every key shape under every label is the reference's table — cells,
    // NULLs, row order and validity form — for every join kind at every
    // chunk size, on one morsel worker and on four. The validity form is
    // the label's own: a Hash join's output is normalized (all-true bitmaps
    // dropped), a Merge or Loop join's keeps the bitmap a padded gather
    // always makes. So is the simulator's currency: a join's work is its
    // label's `CostModel` term plus `morsel_dispatch` of the morsels it
    // stands for: the left rows cut at the chunk size under Hash, one under
    // Merge and Loop. Every run gets tables of its own from `input` — what
    // one run gathers, the next must not find gathered — and no label
    // gathers the left column named in `unread`. `joins_nothing`: no key of
    // the left side is on the right.
    let check = |name: &str,
                 keys: usize,
                 input: &dyn Fn() -> (Table, Table),
                 joins_nothing: bool,
                 unread: Option<&str>| {
        let tables = || {
            let (left, right) = input();
            Tables(HashMap::from_iter([(LEFT, left), (RIGHT, right)]))
        };
        let (left, right) = input();
        let on: Vec<(String, String)> =
            (0..keys).map(|k| (format!("l{k}"), format!("r{k}"))).collect();
        let matches = reference_matches(&left, &right, &on);
        let model = CostModel::default();
        let (ln, rn) = (left.num_rows() as f64, right.num_rows() as f64);
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi] {
            let join = |algo| PhysicalPlan::Join {
                algo,
                kind,
                on: on.clone(),
                left: Box::new(source(LEFT, left.schema())),
                right: Box::new(source(RIGHT, right.schema())),
                est: est(),
                partitions: 1,
                swapped: false,
            };
            let gathered = reference_join(&left, &right, &matches, kind);
            if joins_nothing {
                let rows = if kind == JoinKind::Left { left.num_rows() } else { 0 };
                assert_eq!(gathered.num_rows(), rows, "{name}, {kind:?}");
            } else {
                assert!(gathered.num_rows() > 0, "{name}, {kind:?}: nothing joined");
            }
            let normalized = gathered.clone().normalized();
            for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::Loop] {
                if let Some(unread) = unread {
                    let sources = tables();
                    run_over(&join(algo), &sources, usize::MAX);
                    let key = sources.0[&LEFT].column_by_name(unread).unwrap();
                    assert!(!key.is_forced(), "{algo:?}: {name}, {kind:?}: gathered `{unread}`");
                }
                let want = if algo == JoinAlgo::Hash { &normalized } else { &gathered };
                for chunk_size in [1, 7, 2048, usize::MAX] {
                    let (charge, chunks) = match algo {
                        JoinAlgo::Hash => {
                            (model.hash_join(rn, ln), left.num_rows().max(1).div_ceil(chunk_size))
                        }
                        JoinAlgo::Merge => (model.merge_join(ln, rn), 1),
                        JoinAlgo::Loop => (model.nested_loop_join(ln, rn), 1),
                    };
                    let work = charge.total() + model.morsel_dispatch(chunks as f64).total();
                    // Neither the chunk size nor the worker count may show
                    // in the table, only in a Hash join's work.
                    for workers in [1, 4] {
                        let out = try_run_over(&join(algo), &tables(), chunk_size, workers);
                        let ExecOutcome { table: out, metrics, .. } = out.unwrap();
                        let what =
                            format!("{algo:?}: {name}, {kind:?}, chunk {chunk_size}, {workers}w");
                        assert_tables_identical(&out, want, &what);
                        assert_eq!(metrics.op_profiles.last().unwrap().work, work, "{what}: work");
                    }
                }
            }
        }
    };
    for (name, lspecs, rspecs, nl, nr, null_rate) in &shapes {
        let left = keyed_table(&mut rng, "l", lspecs, *nl, *null_rate);
        let right = keyed_table(&mut rng, "r", rspecs, *nr, *null_rate);
        let joins_nothing = *null_rate == 1.0 || *nl == 0 || *nr == 0;
        check(name, lspecs.len(), &|| (left.clone(), right.clone()), joins_nothing, None);
    }

    // Right sides drawn from no pool, 5,000 rows and more a side so that
    // neither input is small. Every key four times: N:M, each bucket longer
    // than one, some left keys absent. Then no key twice and every left row
    // matching once — a foreign key, whose output shares the left table
    // instead of gathering it.
    let right = int_keyed_table("r", (0..5000).map(|i| Value::Int(i % 1250)));
    let left = keyed_table(&mut rng, "l", &[int_pool(0..1500)], 5000, 0.05);
    check("every key four times", 1, &|| (left.clone(), right.clone()), false, None);
    let right = int_keyed_table("r", (0..5000).map(|i| Value::Int(i * 7919 % 5000)));
    let left = keyed_table(&mut rng, "l", &[int_pool(0..5000)], 6000, 0.0);
    check("foreign key", 1, &|| (left.clone(), right.clone()), false, None);

    // A string key that reaches the join as a gather nobody has read — with
    // padded rows, which are NULL keys and join nothing, cut into a window at
    // a non-zero offset — is coded through its row ids and left ungathered.
    let valid: Vec<bool> = (0..40).map(|i| i % 11 != 3).collect();
    let names = (0..40).map(|i| format!("region-{}", i % 7)).collect();
    let source = Column::new(ColumnData::Str(names), Some(Bitmap::from_bools(&valid)));
    let ids: Vec<usize> =
        (0..1500).map(|_| if rng.chance(0.1) { PAD } else { rng.range_usize(0, 40) }).collect();
    let payload = Column::new(ColumnData::Str((0..1500).map(|i| format!("l{i}")).collect()), None);
    let schema =
        Schema::new(vec![Field::new("l0", DataType::Str), Field::new("lp", DataType::Str)]);
    let schema = schema.unwrap().into_ref();
    let regions = (DataType::Str, (2..9).map(|i| Value::Str(format!("region-{i}"))).collect());
    let right = keyed_table(&mut rng, "r", &[regions], 60, 0.1);
    let input = || {
        let columns = vec![source.take_padded(&ids), payload.clone()];
        (Table::new(schema.clone(), columns).unwrap().slice(100, 1200), right.clone())
    };
    check("a gathered string", 1, &input, false, Some("l0"));
}

// ---------------------------------------------------------------------------
// Sort and aggregation against `Value`-semantics references
// ---------------------------------------------------------------------------

/// `Table::sort_by` is a stable sort on `Value::total_cmp` per key: every
/// dtype, both directions (NULLs first ascending, last descending), two-key
/// mixes — at sizes on both sides of the radix/comparison-sort switch.
#[test]
fn sort_by_matches_a_stable_sort_on_value_total_cmp() {
    let mut rng = DetRng::seed(0x61);
    for rows in [0, 1, 100, 5000] {
        for null_rate in [0.0, 0.25, 1.0] {
            let t = random_table(&mut rng, rows, null_rate);
            let single = (0..t.num_columns()).flat_map(|c| [vec![(c, true)], vec![(c, false)]]);
            let mixes = [
                vec![(3, true), (2, false)],
                vec![(0, false), (1, true)],
                vec![(4, true), (4, false)],
                vec![(1, false), (3, false), (2, true)],
            ];
            for keys in single.chain(mixes) {
                let values: Vec<Vec<Value>> = keys
                    .iter()
                    .map(|&(c, _)| (0..rows).map(|i| t.column(c).value(i)).collect())
                    .collect();
                let mut want: Vec<usize> = (0..rows).collect();
                want.sort_by(|&a, &b| {
                    keys.iter()
                        .zip(&values)
                        .map(|(&(_, asc), v)| {
                            let o = v[a].total_cmp(&v[b]);
                            if asc {
                                o
                            } else {
                                o.reverse()
                            }
                        })
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let what = format!("{rows} rows, null rate {null_rate}, keys {keys:?}");
                assert_tables_identical(
                    &t.sort_by(&keys, usize::MAX).unwrap(),
                    &t.take(&want).unwrap(),
                    &what,
                );
            }
        }
    }
}

/// What makes two cells one group: `Value::group_key_eq` (NULLs together,
/// otherwise `total_cmp` equality — INTs exactly, floats by bit pattern).
fn group_class(v: &Value) -> (u8, u64, String) {
    match v {
        Value::Null => (0, 0, String::new()),
        Value::Bool(b) => (1, *b as u64, String::new()),
        Value::Int(i) => (2, *i as u64, String::new()),
        Value::Float(f) => (3, f.to_bits(), String::new()),
        Value::Str(s) => (4, 0, s.clone()),
        Value::Date(d) => (5, *d as u64, String::new()),
    }
}

/// What COUNT(DISTINCT) tells apart: numbers by their canonical `f64` (INTs
/// above 2^53 that round together are one value, every NaN is one value,
/// `-0.0` is `0.0`), everything else by value.
fn distinct_class(v: &Value) -> (u8, u64, String) {
    let number = match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => return group_class(v),
    };
    let canonical = if number.is_nan() {
        f64::NAN
    } else if number == 0.0 {
        0.0
    } else {
        number
    };
    (2, canonical.to_bits(), String::new())
}

/// Aggregation as a fold over `Value`s, one input row at a time in row
/// order; groups come out in key order. `Err` is SUM(INT) overflow.
fn reference_aggregate(
    input: &Table,
    group_by: &[&str],
    aggs: &[AggExpr],
    schema: &SchemaRef,
) -> Result<Table, String> {
    enum Fold {
        Count(i64),
        Distinct(cv_common::HashSet<(u8, u64, String)>),
        SumInt(Option<i64>),
        SumFloat(Option<f64>),
        Best(Option<Value>, std::cmp::Ordering),
        Avg(f64, i64),
    }
    let column = |name: &str| input.column_by_name(name).unwrap();
    let arg_of = |a: &AggExpr| a.arg.as_ref().map(|e| column(&e.to_string()));
    let new_folds = || -> Vec<Fold> {
        aggs.iter()
            .map(|a| match a.func {
                AggFunc::Count => Fold::Count(0),
                AggFunc::CountDistinct => Fold::Distinct(Default::default()),
                AggFunc::Sum if arg_of(a).unwrap().dtype() == DataType::Int => Fold::SumInt(None),
                AggFunc::Sum => Fold::SumFloat(None),
                AggFunc::Min => Fold::Best(None, std::cmp::Ordering::Less),
                AggFunc::Max => Fold::Best(None, std::cmp::Ordering::Greater),
                AggFunc::Avg => Fold::Avg(0.0, 0),
            })
            .collect()
    };
    let mut index: HashMap<Vec<(u8, u64, String)>, usize> = HashMap::default();
    let mut groups: Vec<(Vec<Value>, Vec<Fold>)> = Vec::new();
    if group_by.is_empty() {
        groups.push((Vec::new(), new_folds()));
        index.insert(Vec::new(), 0);
    }
    for row in 0..input.num_rows() {
        let key: Vec<Value> = group_by.iter().map(|k| column(k).value(row)).collect();
        let class = key.iter().map(group_class).collect();
        let g = *index.entry(class).or_insert_with(|| {
            groups.push((key, new_folds()));
            groups.len() - 1
        });
        for (fold, agg) in groups[g].1.iter_mut().zip(aggs) {
            let cell = arg_of(agg).map(|c| c.value(row));
            if cell.as_ref().is_some_and(Value::is_null) {
                continue;
            }
            match (fold, cell) {
                (Fold::Count(n), _) => *n += 1,
                (Fold::Distinct(seen), Some(v)) => {
                    seen.insert(distinct_class(&v));
                }
                (Fold::SumInt(total), Some(v)) => {
                    let sum = total.unwrap_or(0).checked_add(v.as_int().unwrap());
                    *total = Some(sum.ok_or("overflow")?);
                }
                (Fold::SumFloat(total), Some(v)) => {
                    *total = Some(total.unwrap_or(0.0) + v.as_f64().unwrap())
                }
                (Fold::Best(best, keep), Some(v)) => {
                    if best.as_ref().is_none_or(|b| v.total_cmp(b) == *keep) {
                        *best = Some(v);
                    }
                }
                (Fold::Avg(total, n), Some(v)) => {
                    *total += v.as_f64().unwrap();
                    *n += 1;
                }
                (_, None) => unreachable!("only COUNT(*) has no argument"),
            }
        }
    }
    groups.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut row, folds)| {
            row.extend(folds.into_iter().map(|f| match f {
                Fold::Count(n) => Value::Int(n),
                Fold::Distinct(seen) => Value::Int(seen.len() as i64),
                Fold::SumInt(total) => total.map_or(Value::Null, Value::Int),
                Fold::SumFloat(total) => total.map_or(Value::Null, Value::Float),
                Fold::Best(best, _) => best.unwrap_or(Value::Null),
                Fold::Avg(_, 0) => Value::Null,
                Fold::Avg(total, n) => Value::Float(total / n as f64),
            }));
            row
        })
        .collect();
    Ok(Table::from_rows(schema.clone(), &rows).unwrap())
}

/// A `HashAggregate` over the `LEFT` source grouping by plain columns.
fn aggregate_over(over: &SchemaRef, group_by: &[&str], aggs: &[AggExpr]) -> PhysicalPlan {
    let mut fields: Vec<Field> = group_by
        .iter()
        .map(|k| Field::new(*k, over.field(over.index_of(k).unwrap()).dtype))
        .collect();
    fields.extend(aggs.iter().map(|a| Field::new(a.alias.clone(), a.dtype(over).unwrap())));
    PhysicalPlan::HashAggregate {
        group_by: group_by.iter().map(|k| (col(*k), k.to_string())).collect(),
        aggs: aggs.to_vec(),
        schema: Schema::new(fields).unwrap().into_ref(),
        input: Box::new(source(LEFT, over)),
        est: est(),
        partitions: 1,
    }
}

/// Run `plan` at `chunk_size` on `workers` morsel workers.
fn try_run_over(
    plan: &PhysicalPlan,
    sources: &Tables,
    chunk_size: usize,
    workers: usize,
) -> cv_common::Result<ExecOutcome> {
    try_run_with(plan, sources, &UdoRegistry::with_builtins(), chunk_size, workers)
}

fn try_run_with(
    plan: &PhysicalPlan,
    sources: &Tables,
    udos: &UdoRegistry,
    chunk_size: usize,
    workers: usize,
) -> cv_common::Result<ExecOutcome> {
    let cat = DatasetCatalog::new();
    let runner: Arc<dyn cv_engine::MorselRunner> = match workers {
        1 => Arc::new(SerialRunner),
        n => Arc::new(cv_service::PoolMorselRunner::new(n)),
    };
    let mut ctx =
        ExecContext::new(&cat, sources, udos, SimTime::EPOCH).with_chunking(chunk_size, runner);
    execute(plan, &mut ctx, &CostModel::default())
}

/// The aggregate of `input()` equals the `Value` fold at every chunk size in
/// `chunk_sizes`, on one morsel worker and on four. Every run gets a table
/// of its own — what one run gathers, the next must not find gathered — and
/// leaves the columns named in `unread` ungathered.
fn assert_aggregate_matches_fold(
    input: &dyn Fn() -> Table,
    group_by: &[&str],
    aggs: &[AggExpr],
    chunk_sizes: &[usize],
    unread: &[&str],
    what: &str,
) {
    let reference = input();
    let plan = aggregate_over(reference.schema(), group_by, aggs);
    let PhysicalPlan::HashAggregate { schema, .. } = &plan else { unreachable!() };
    let want = reference_aggregate(&reference, group_by, aggs, schema);
    for &chunk_size in chunk_sizes {
        for workers in [1, 4] {
            let what = format!("{what}, group by {group_by:?}, chunk {chunk_size}, {workers}w");
            let tables = Tables(HashMap::from_iter([(LEFT, input())]));
            match (try_run_over(&plan, &tables, chunk_size, workers), &want) {
                (Ok(out), Ok(want)) => assert_tables_identical(&out.table, want, &what),
                (Err(e), Err(_)) => {
                    assert_eq!(e.kind(), "execution", "{what}");
                    assert!(e.to_string().contains("SUM(INT) overflow"), "{what}: {e}");
                }
                (Ok(_), Err(_)) => panic!("{what}: SUM(INT) overflow went unreported"),
                (Err(e), Ok(_)) => panic!("{what}: {e}"),
            }
            for name in unread {
                let column = tables.0[&LEFT].column_by_name(name).unwrap();
                assert!(!column.is_forced(), "{what}: the aggregate gathered `{name}`");
            }
        }
    }
}

#[test]
fn aggregation_matches_a_value_fold_in_row_order() {
    const CHUNKS: [usize; 4] = [1, 333, 2048, usize::MAX];
    let all_aggs = [
        AggExpr::new(AggFunc::Sum, col("i"), "si"),
        AggExpr::new(AggFunc::Sum, col("f"), "sf"),
        AggExpr::new(AggFunc::Avg, col("f"), "af"),
        AggExpr::new(AggFunc::Avg, col("d"), "ad"),
        AggExpr::new(AggFunc::Min, col("s"), "ms"),
        AggExpr::new(AggFunc::Max, col("d"), "md"),
        AggExpr::new(AggFunc::Min, col("f"), "mf"),
        AggExpr::new(AggFunc::Max, col("b"), "mb"),
        AggExpr::new(AggFunc::CountDistinct, col("i"), "di"),
        AggExpr::new(AggFunc::CountDistinct, col("f"), "df"),
        AggExpr::new(AggFunc::CountDistinct, col("s"), "ds"),
        AggExpr::new(AggFunc::Count, col("i"), "ci"),
        AggExpr::count_star("n"),
    ];
    let mut rng = DetRng::seed(0x62);
    // Every dtype as key and as argument, NULL keys, float keys with NaN and
    // both zeros (float SUM/AVG are compared by bit pattern), an all-NULL
    // input, and the global aggregate — over empty input too.
    for (rows, null_rate) in [(700, 0.2), (700, 0.0), (90, 1.0), (0, 0.0)] {
        let t = random_table(&mut rng, rows, null_rate);
        let groupings: [&[&str]; 8] =
            [&["s"], &["i"], &["f"], &["b"], &["d"], &["s", "b"], &["f", "i", "d"], &[]];
        for group_by in groupings {
            let what = format!("{rows} rows, null rate {null_rate}");
            assert_aggregate_matches_fold(&|| t.clone(), group_by, &all_aggs, &CHUNKS, &[], &what);
        }
    }

    // INTs above 2^53 as keys hash alike (through their rounded `f64`) and
    // must still be separate groups; as COUNT(DISTINCT) arguments they are
    // one value when they round together.
    let pool = [0, 1, P53, P53 + 1, P53 + 2, -P53 - 1, i64::MAX - 1, i64::MIN + 1];
    let ints = (DataType::Int, pool.map(Value::Int).to_vec());
    let t = keyed_table(&mut rng, "k", &[ints.clone(), ints], 400, 0.1);
    let aggs = [
        AggExpr::new(AggFunc::CountDistinct, col("k1"), "d"),
        AggExpr::new(AggFunc::Min, col("k1"), "lo"),
        AggExpr::new(AggFunc::Max, col("kp"), "hi"),
        AggExpr::count_star("n"),
    ];
    assert_aggregate_matches_fold(&|| t.clone(), &["k0"], &aggs, &CHUNKS, &[], "ints above 2^53");

    // SUM(INT) overflow is an execution error whichever chunk it lands in,
    // even when a later row would bring the total back.
    let schema = Schema::new(vec![Field::new("g", DataType::Int), Field::new("x", DataType::Int)]);
    let mut rows: Vec<Vec<Value>> =
        (0..600).map(|i| vec![Value::Int(i % 3), Value::Int(i)]).collect();
    rows[400][1] = Value::Int(i64::MAX);
    rows[599][1] = Value::Int(-i64::MAX);
    let t = Table::from_rows(schema.unwrap().into_ref(), &rows).unwrap();
    let sum = [AggExpr::new(AggFunc::Sum, col("x"), "s")];
    assert!(reference_aggregate(&t, &["g"], &sum, t.schema()).is_err());
    assert_aggregate_matches_fold(&|| t.clone(), &["g"], &sum, &CHUNKS, &[], "SUM(INT) overflow");

    // Keys as codes. INT keys whose range does not fit an `i64`.
    let wide = (DataType::Int, [i64::MIN, i64::MAX, -1, 0, 1].map(Value::Int).to_vec());
    let t = keyed_table(&mut rng, "k", &[wide.clone(), wide], 300, 0.1);
    let aggs = [
        AggExpr::new(AggFunc::CountDistinct, col("k1"), "d"),
        AggExpr::new(AggFunc::Max, col("k1"), "hi"),
        AggExpr::count_star("n"),
    ];
    for group_by in [&["k0"][..], &["k0", "k1"]] {
        assert_aggregate_matches_fold(&|| t.clone(), group_by, &aggs, &CHUNKS, &[], "i64 range");
    }

    // An INT key and an INT DISTINCT argument whose range is the last one
    // coded as `value - min` (4 × rows + 64 codes, NULL's included) and the
    // first one that goes through the dictionary.
    let n = 500;
    for span in [4 * n + 62, 4 * n + 63] {
        let mut spread = |null_rate: f64| {
            let mut values: Vec<Value> =
                (0..n).map(|_| Value::Int(rng.range_i64(0, span + 1) - 1000)).collect();
            (values[7], values[400]) = (Value::Int(span - 1000), Value::Int(-1000));
            for at in (0..n as usize).filter(|at| ![7, 400].contains(at)) {
                if rng.chance(null_rate) {
                    values[at] = Value::Null;
                }
            }
            Column::from_values(DataType::Int, &values).unwrap()
        };
        let schema =
            Schema::new(vec![Field::new("g", DataType::Int), Field::new("x", DataType::Int)]);
        let t = Table::new(schema.unwrap().into_ref(), vec![spread(0.1), spread(0.0)]).unwrap();
        let aggs = [AggExpr::new(AggFunc::CountDistinct, col("x"), "dx"), AggExpr::count_star("n")];
        let what = format!("INT range {span}");
        assert_aggregate_matches_fold(&|| t.clone(), &["g"], &aggs, &CHUNKS, &[], &what);
        assert_aggregate_matches_fold(&|| t.clone(), &[], &aggs, &CHUNKS, &[], &what);
    }

    // FLOAT keys are groups by bit pattern — both zeros, two NaN payloads and
    // a negative NaN are five groups — and two DISTINCT values; strings are
    // distinct as strings.
    let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
    let floats = [0.0, -0.0, f64::NAN, nan2, -f64::NAN, 1.5, -1.5, f64::INFINITY];
    let floats = (DataType::Float, floats.map(Value::Float).to_vec());
    let strs = (DataType::Str, ["", "a", "A", "a ", "ab"].map(|s| Value::Str(s.into())).to_vec());
    let t = keyed_table(&mut rng, "k", &[floats.clone(), floats, strs], 400, 0.1);
    let aggs = [
        AggExpr::new(AggFunc::CountDistinct, col("k1"), "df"),
        AggExpr::new(AggFunc::CountDistinct, col("k2"), "ds"),
        AggExpr::new(AggFunc::Min, col("k1"), "lo"),
        AggExpr::count_star("n"),
    ];
    for group_by in [&["k0"][..], &["k2", "k0"]] {
        assert_aggregate_matches_fold(&|| t.clone(), group_by, &aggs, &CHUNKS, &[], "float keys");
    }

    // A string key that arrives as a gather nobody has read — with padded
    // rows (a left join's misses: the NULL group), cut into a window at a
    // non-zero offset — is grouped through its row ids when its source is no
    // longer than the input, and left ungathered.
    for (source_rows, unread) in [(40, &["s"][..]), (5000, &[])] {
        let valid: Vec<bool> = (0..source_rows).map(|i| i % 11 != 3).collect();
        let names = (0..source_rows).map(|i| format!("region-{}", i % 7)).collect();
        let source = Column::new(ColumnData::Str(names), Some(Bitmap::from_bools(&valid)));
        let ids: Vec<usize> = (0..1500)
            .map(|_| if rng.chance(0.1) { PAD } else { rng.range_usize(0, source_rows) })
            .collect();
        let x = Column::new(ColumnData::Int((0..1500).map(|i| i % 3).collect()), None);
        let v = Column::new(ColumnData::Float((0..1500).map(|i| i as f64 * 0.25).collect()), None);
        let schema = Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("x", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let schema = schema.unwrap().into_ref();
        let input = || {
            let columns = vec![source.take_padded(&ids), x.clone(), v.clone()];
            Table::new(schema.clone(), columns).unwrap().slice(100, 1200)
        };
        let aggs = [AggExpr::new(AggFunc::Sum, col("v"), "sv"), AggExpr::count_star("n")];
        let what = format!("a gather from {source_rows} rows");
        for group_by in [&["s"][..], &["x", "s"]] {
            assert_aggregate_matches_fold(&input, group_by, &aggs, &CHUNKS, unread, &what);
        }
    }

    // Three keys whose cardinalities multiply past `u32`: the fold's pair
    // space outgrows any table after the second.
    let n = 6000;
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Int),
        Field::new("c", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut key =
        || Column::new(ColumnData::Int((0..n).map(|_| rng.range_i64(0, 2000)).collect()), None);
    let columns = vec![key(), key(), key()];
    let v = Column::new(ColumnData::Float((0..n).map(|i| i as f64 * 0.5).collect()), None);
    let t = Table::new(schema.unwrap().into_ref(), [columns, vec![v]].concat()).unwrap();
    let aggs = [AggExpr::new(AggFunc::Sum, col("v"), "sv"), AggExpr::count_star("n")];
    assert_aggregate_matches_fold(&|| t.clone(), &["a", "b", "c"], &aggs, &CHUNKS, &[], "3 keys");

    // Past 10^5 groups: the group table and the DISTINCT set both grow many
    // times over. (Chunk size 1 is covered above; here it would only slow
    // the test down.)
    let n = 230_000;
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("x", DataType::Int),
    ]);
    let columns = vec![
        Column::new(ColumnData::Int((0..n).map(|i| (i * 7919) % 115_000).collect()), None),
        Column::new(ColumnData::Float((0..n).map(|i| i as f64 * 0.37 - 9000.0).collect()), None),
        Column::new(ColumnData::Int((0..n).map(|i| i % 5).collect()), None),
    ];
    let t = Table::new(schema.unwrap().into_ref(), columns).unwrap();
    let aggs = [
        AggExpr::new(AggFunc::Sum, col("v"), "sv"),
        AggExpr::new(AggFunc::CountDistinct, col("x"), "dx"),
        AggExpr::new(AggFunc::Min, col("v"), "lo"),
    ];
    let chunks = [333, 2048, usize::MAX];
    assert_aggregate_matches_fold(&|| t.clone(), &["g"], &aggs, &chunks, &[], "115k groups");
}

// ---------------------------------------------------------------------------
// Windows: kernels and operators over `t.slice(o, l)` ≡ over its compacted copy
// ---------------------------------------------------------------------------

#[test]
fn kernels_over_a_window_equal_kernels_over_its_compacted_copy() {
    let mut rng = DetRng::seed(0x51);
    let mut checked = 0usize;
    for round in 0..600 {
        let rows = [0, 1, 5, 64, 65, 130][round % 6];
        let t = random_table(&mut rng, rows, [0.0, 1.0, 0.3, 0.3][round % 4]);
        let (window, compacted) = random_window(&mut rng, &t);
        let e = rand_expr(&mut rng, 3);
        if e.dtype(t.schema()).is_err() {
            continue;
        }
        let (mut over_window, mut over_copy) = (EvalCtx::new(0), EvalCtx::new(0));
        match (eval(&e, &window, &mut over_window), eval(&e, &compacted, &mut over_copy)) {
            (Ok(a), Ok(b)) => {
                assert_columns_identical(&a, &b, &format!("{e}"));
                checked += 1;
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{e}: window ok={} copy ok={}", a.is_ok(), b.is_ok()),
        }
        let (mut typed, mut scalar) = (EvalCtx::new(0), EvalCtx::new(0));
        let what = format!("{e} against the reference");
        assert_eval_matches_reference(&e, &window, &mut typed, &mut scalar, &what);
    }
    assert!(checked >= 200, "only {checked} expressions evaluated; generator drifted");
}

const ALL_BINOPS: [BinOp; 13] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::And,
    BinOp::Or,
];

/// The `random_table` schema over the values where the typed comparison
/// loops could part from `Value::total_cmp`: both zeros, NaNs of either sign
/// and two payloads, and integers around 2^53, where `i64 as f64` rounds.
fn edge_table(rows: usize, null_rate: f64, rng: &mut DetRng) -> Table {
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        P53 as f64,
        (P53 + 2) as f64,
        f64::INFINITY,
        -1.5,
    ];
    let ints = [P53 - 1, P53, P53 + 1, P53 + 2, -P53 - 1, 0, i64::MAX, i64::MIN];
    let schema = random_table(rng, 0, 0.0).schema().clone();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|r| {
            let row = vec![
                Value::Bool(r % 2 == 0),
                Value::Int(ints[r % ints.len()]),
                Value::Float(floats[r % floats.len()]),
                Value::Str(["", "a", "ab", "b"][r % 4].to_string()),
                Value::Date([i32::MIN, -1, 0, 100, i32::MAX][r % 5]),
            ];
            row.into_iter().map(|v| if rng.chance(null_rate) { Value::Null } else { v }).collect()
        })
        .collect();
    Table::from_rows(schema, &data).unwrap()
}

/// `col <op> constant` three ways: the constant as a scalar kernel operand,
/// the constant materialized as a column (what a broadcast handed the
/// column-vs-column kernel), and the reference walker. All three must be the
/// same bytes — or reject together — for every operator, operand type
/// pairing (same-type, Int-vs-Float both ways), operand order, and for
/// literals and parameters alike. As predicates the same three select the
/// same rows — of the whole table and of any subset asked for — or reject
/// together: the typed selection loops against the scalar reference, for
/// every column type × comparison × side of the constant × validity.
#[test]
fn constant_operand_kernels_match_broadcast_columns_and_the_scalar_reference() {
    let cases: Vec<(&str, Value)> = vec![
        ("i", Value::Int(3)),
        ("i", Value::Int(0)),
        ("f", Value::Float(2.5)),
        ("f", Value::Float(0.0)),
        ("f", Value::Float(-0.0)),
        ("f", Value::Float(f64::NAN)),
        ("i", Value::Float(2.5)), // Int column vs Float literal
        ("i", Value::Float(3.0)),
        ("f", Value::Int(0)), // Float column vs Int literal
        ("f", Value::Int(7)),
        ("s", Value::Str("bb".into())),
        ("s", Value::Str(String::new())),
        ("d", Value::Date(100)),
        ("d", Value::Int(7)), // date shifts; comparisons reject
        ("b", Value::Bool(true)),
        ("b", Value::Bool(false)),
        // Where widening rounds and where floats are equal but not the same.
        ("i", Value::Float(P53 as f64)),
        ("i", Value::Int(P53 + 1)),
        ("f", Value::Int(P53 + 1)),
        ("f", Value::Float(-f64::NAN)),
        ("f", Value::Float(f64::from_bits(0x7ff8_0000_0000_0001))),
        ("d", Value::Date(i32::MIN)),
        ("s", Value::Str("ab".into())),
    ];
    let mut rng = DetRng::seed(0x52);
    let (mut checked, mut selected) = (0usize, 0usize);
    for round in 0..12 {
        let rows = [0, 1, 70][round % 3];
        // Null-free rounds pin "no validity bitmap when every row is valid";
        // at a null rate of 1 every column is all-NULL.
        let null_rate = [0.0, 0.3, 1.0][round / 3 % 3];
        let t = match round / 9 {
            0 => random_table(&mut rng, rows, null_rate),
            _ => edge_table(rows + 60, [0.0, 0.3, 1.0][round % 3], &mut rng),
        };
        let rows = t.num_rows();
        for (name, k) in &cases {
            let mut fields = t.schema().fields().to_vec();
            fields.push(Field::new("k", k.dtype().unwrap()));
            let mut columns = t.columns().to_vec();
            columns.push(Column::from_values(k.dtype().unwrap(), &vec![k.clone(); rows]).unwrap());
            let tk = Table::new(Schema::new(fields).unwrap().into_ref(), columns).unwrap();
            for op in ALL_BINOPS {
                for (flipped, as_param) in [(false, false), (true, false), (false, true)] {
                    let konst = if as_param { param("p", k.clone()) } else { lit(k.clone()) };
                    let (scalar_e, column_e) = if flipped {
                        (
                            ScalarExpr::binary(op, konst, col(*name)),
                            ScalarExpr::binary(op, col("k"), col(*name)),
                        )
                    } else {
                        (
                            ScalarExpr::binary(op, col(*name), konst),
                            ScalarExpr::binary(op, col(*name), col("k")),
                        )
                    };
                    let off = &mut EvalCtx::new(0);
                    let constant = eval(&scalar_e, &tk, &mut EvalCtx::new(0));
                    let broadcast = eval(&column_e, &tk, &mut EvalCtx::new(0));
                    let reference = reference_column(&scalar_e, &tk, off);
                    match (constant, broadcast, reference) {
                        (Ok(a), Ok(b), Ok(c)) => {
                            assert_columns_identical(&a, &b, &format!("{scalar_e} vs column"));
                            assert_columns_identical(&a, &c, &format!("{scalar_e} vs scalar"));
                            checked += 1;
                        }
                        (Err(_), Err(_), Err(_)) => {}
                        (a, b, c) => panic!(
                            "{scalar_e}: constant ok={} column ok={} scalar ok={}",
                            a.is_ok(),
                            b.is_ok(),
                            c.is_ok()
                        ),
                    }
                    let within: Vec<usize> = (0..rows).filter(|_| rng.chance(0.4)).collect();
                    for within in [None, Some(within.as_slice())] {
                        let by = |e: &ScalarExpr, ctx: &mut EvalCtx| select(e, &tk, within, ctx);
                        let reference = reference_select(&scalar_e, &tk, within, off);
                        let typed = [
                            by(&scalar_e, &mut EvalCtx::new(0)),
                            by(&column_e, &mut EvalCtx::new(0)),
                        ];
                        for (typed, of) in typed.into_iter().zip([&scalar_e, &column_e]) {
                            match (&typed, &reference) {
                                (Ok(a), Ok(b)) => assert_eq!(a, b, "{of} within {within:?}"),
                                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                                (a, b) => {
                                    panic!("{of}: ok={} reference ok={}", a.is_ok(), b.is_ok())
                                }
                            }
                        }
                        if let (Ok(ids), Some(within)) = (&reference, within) {
                            assert!(ids.iter().all(|i| within.contains(i)), "{scalar_e}: {ids:?}");
                        }
                        selected += reference.is_ok() as usize;
                    }
                }
            }
        }
        // A NULL literal has no type: it never becomes a scalar operand and
        // every path rejects it, on either side, exactly as before.
        for op in ALL_BINOPS {
            for e in [
                ScalarExpr::binary(op, col("i"), lit(Value::Null)),
                ScalarExpr::binary(op, lit(Value::Null), col("i")),
            ] {
                assert!(eval(&e, &t, &mut EvalCtx::new(0)).is_err(), "{e}");
                assert!(reference(&e, &t, &mut EvalCtx::new(0)).is_err(), "{e}: the reference");
            }
        }
        // Constant on both sides: one of them supplies the rows.
        for op in ALL_BINOPS {
            let e = ScalarExpr::binary(op, lit(7_i64), param("p", Value::Float(2.0)));
            let (mut typed, mut scalar) = (EvalCtx::new(0), EvalCtx::new(0));
            assert_eval_matches_reference(&e, &t, &mut typed, &mut scalar, &format!("{e}"));
        }
    }
    assert!(checked >= 1000, "only {checked} constant-operand cases evaluated");
    assert!(selected >= 1000, "only {selected} constant-operand predicates selected");
}

fn random_next() -> ScalarExpr {
    ScalarExpr::Func { func: cv_engine::expr::FuncKind::RandomNext, args: vec![] }
}

/// A conjunction selects what the scalar reference selects however it is
/// written: the narrowing `AND` arm orders its conjuncts itself, so all six
/// orders of three conjuncts are one selection; a `RANDOM_NEXT()` conjunct
/// counts every row, in its written place among its like, wherever it
/// stands; and a conjunct that raises still raises — the reference's error —
/// after conjuncts that left it no row.
#[test]
fn conjunctions_narrow_to_the_reference_selection() {
    let mut rng = DetRng::seed(0x54);
    let and = |cs: &[&ScalarExpr]| cs[1..].iter().fold(cs[0].clone(), |a, c| a.and((*c).clone()));
    for null_rate in [0.0, 0.3] {
        let t = random_table(&mut rng, 700, null_rate);
        let (a, b, c) = (col("s").eq(lit("bb")), lit(-20_i64).lt(col("i")), col("f").lt_eq(lit(9)));
        let want = reference_select(&and(&[&a, &b, &c]), &t, None, &mut EvalCtx::new(0)).unwrap();
        assert!(!want.is_empty() && want.len() < 200, "{} rows pass", want.len());
        let within: Vec<usize> = (0..t.num_rows()).filter(|i| i % 3 != 1).collect();
        let want_within: Vec<usize> = want.iter().copied().filter(|i| i % 3 != 1).collect();
        for order in
            [[&a, &b, &c], [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a]]
        {
            // Left-deep and right-deep nestings flatten alike.
            let left_deep = and(&order);
            let right_deep = order[0].clone().and(order[1].clone().and(order[2].clone()));
            for e in [left_deep, right_deep] {
                assert_eq!(select(&e, &t, None, &mut EvalCtx::new(0)).unwrap(), want, "{e}");
                let narrowed = select(&e, &t, Some(&within), &mut EvalCtx::new(0)).unwrap();
                assert_eq!(narrowed, want_within, "{e} within");
            }
        }

        // RANDOM_NEXT() before, between and after narrowable conjuncts, twice
        // in one predicate too: the counter sequence is the reference's.
        let coin = |modulus: i64| {
            ScalarExpr::binary(BinOp::Mod, random_next(), lit(modulus)).not_eq(lit(0_i64))
        };
        let (r3, r5) = (coin(3), coin(5));
        let sources = Tables(HashMap::from_iter([(LEFT, t.clone())]));
        for conjuncts in [
            vec![&r3, &a, &b],
            vec![&a, &r3, &b],
            vec![&a, &b, &r3],
            vec![&r5, &a, &r3, &c],
            vec![&a, &r3, &r5],
        ] {
            let predicate = and(&conjuncts);
            let keep = reference_select(&predicate, &t, None, &mut EvalCtx::new(0)).unwrap();
            assert!(!keep.is_empty() && keep.len() < t.num_rows() / 2, "{predicate}");
            let rows: Vec<Vec<Value>> = keep.iter().map(|&i| t.row(i)).collect();
            let want = Table::from_rows(t.schema().clone(), &rows).unwrap();
            assert_eq!(select(&predicate, &t, None, &mut EvalCtx::new(0)).unwrap(), keep);
            let plan = filter_op(source(LEFT, t.schema()), predicate.clone());
            for chunk_size in [1, 333, 2048, usize::MAX] {
                for workers in [1, 4] {
                    let out = try_run_over(&plan, &sources, chunk_size, workers).unwrap();
                    let what = format!("{predicate}, chunk {chunk_size}, {workers} worker(s)");
                    assert_tables_identical(&out.table, &want, &what);
                }
            }
        }

        // Error parity. INT against STRING has no kernel; the reference
        // rejects it when it types the node, rows or no rows.
        let nothing = col("i").gt(lit(1000_i64));
        let mistyped = col("i").eq(lit("x"));
        let unknown = col("nope").gt(lit(1_i64));
        let cast = col("f").cast(DataType::Bool).is_not_null(); // raises on a row's value
        for conjuncts in [
            vec![&nothing, &mistyped],
            vec![&nothing, &a, &mistyped],
            vec![&nothing, &unknown],
            vec![&nothing, &cast],
            vec![&cast, &nothing, &unknown],
            vec![&unknown, &nothing, &cast],
        ] {
            let predicate = and(&conjuncts);
            let reference =
                reference_select(&predicate, &t, None, &mut EvalCtx::new(0)).unwrap_err();
            let typed = select(&predicate, &t, None, &mut EvalCtx::new(0)).unwrap_err();
            assert_eq!(typed.to_string(), reference.to_string(), "{predicate}");
            assert_eq!(typed.kind(), reference.kind(), "{predicate}");
            let plan = filter_op(source(LEFT, t.schema()), predicate.clone());
            for chunk_size in [333, usize::MAX] {
                let raised = try_run_over(&plan, &sources, chunk_size, 1).unwrap_err();
                assert_eq!(raised.to_string(), reference.to_string(), "{predicate}");
            }
        }
    }
}

/// Serves fixed tables as "views" so hand-built physical plans can be fed
/// windowed inputs directly (the catalog compacts whatever it registers).
struct Tables(HashMap<Sig128, Table>);

impl ViewSource for Tables {
    fn read_view(&self, sig: Sig128, _: SimTime) -> Result<Option<Table>, ViewReadFault> {
        Ok(self.0.get(&sig).cloned())
    }
}

const LEFT: Sig128 = Sig128(1);
const LEFT2: Sig128 = Sig128(2);
const RIGHT: Sig128 = Sig128(3);

fn est() -> Statistics {
    Statistics::new(100.0, 1000.0)
}

fn source(sig: Sig128, schema: &SchemaRef) -> PhysicalPlan {
    PhysicalPlan::ViewScan {
        sig,
        schema: schema.clone(),
        est: est(),
        partitions: 1,
        fallback: None,
    }
}

fn filter_op(input: PhysicalPlan, predicate: ScalarExpr) -> PhysicalPlan {
    PhysicalPlan::Filter { predicate, input: Box::new(input), est: est(), partitions: 1 }
}

fn project_op(input: PhysicalPlan, over: &Schema, exprs: Vec<(ScalarExpr, &str)>) -> PhysicalPlan {
    let fields = exprs.iter().map(|(e, n)| Field::new(*n, e.dtype(over).unwrap())).collect();
    PhysicalPlan::Project {
        exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
        schema: Schema::new(fields).unwrap().into_ref(),
        input: Box::new(input),
        est: est(),
        partitions: 1,
    }
}

fn agg_op(input: PhysicalPlan, over: &Schema) -> PhysicalPlan {
    let group_by = vec![(col("s"), "s".to_string()), (col("b"), "b".to_string())];
    let aggs = vec![
        AggExpr::new(AggFunc::Sum, col("i"), "si"),
        AggExpr::new(AggFunc::Sum, col("f"), "sf"),
        AggExpr::new(AggFunc::Avg, col("f"), "af"),
        AggExpr::new(AggFunc::Min, col("s"), "ms"),
        AggExpr::new(AggFunc::Max, col("d"), "md"),
        AggExpr::new(AggFunc::CountDistinct, col("i"), "di"),
        AggExpr::count_star("n"),
    ];
    let mut fields: Vec<Field> =
        group_by.iter().map(|(e, n)| Field::new(n.clone(), e.dtype(over).unwrap())).collect();
    fields.extend(aggs.iter().map(|a| Field::new(a.alias.clone(), a.dtype(over).unwrap())));
    PhysicalPlan::HashAggregate {
        group_by,
        aggs,
        schema: Schema::new(fields).unwrap().into_ref(),
        input: Box::new(input),
        est: est(),
        partitions: 1,
    }
}

fn sort_op(input: PhysicalPlan, keys: &[(&str, bool)]) -> PhysicalPlan {
    PhysicalPlan::Sort {
        keys: keys.iter().map(|(k, asc)| (k.to_string(), *asc)).collect(),
        input: Box::new(input),
        est: est(),
        partitions: 1,
    }
}

fn run_over(plan: &PhysicalPlan, sources: &Tables, chunk_size: usize) -> ExecOutcome {
    try_run_over(plan, sources, chunk_size, 1).unwrap()
}

#[test]
fn operators_over_a_window_equal_operators_over_its_compacted_copy() {
    let mut rng = DetRng::seed(0x53);
    for round in 0..3 {
        let base = random_table(&mut rng, 900, [0.25, 0.0, 0.6][round]);
        let schema = base.schema().clone();
        // The join's right side: same shape, `r_`-prefixed names.
        let r_schema = Schema::new(
            schema.fields().iter().map(|f| Field::new(format!("r_{}", f.name), f.dtype)).collect(),
        )
        .unwrap()
        .into_ref();
        let small = random_table(&mut rng, 90, 0.2);
        let small = Table::new(r_schema.clone(), small.columns().to_vec()).unwrap();

        let (mut windows, mut copies) = (HashMap::default(), HashMap::default());
        for (sig, t) in [(LEFT, &base), (LEFT2, &base), (RIGHT, &small)] {
            let (w, c) = random_window(&mut rng, t);
            windows.insert(sig, w);
            copies.insert(sig, c);
        }
        let (windows, copies) = (Tables(windows), Tables(copies));

        let left = || source(LEFT, &schema);
        let join = |algo, kind| PhysicalPlan::Join {
            algo,
            kind,
            on: vec![("i".to_string(), "r_i".to_string())],
            left: Box::new(left()),
            right: Box::new(source(RIGHT, &r_schema)),
            est: est(),
            partitions: 1,
            swapped: false,
        };
        let predicate =
            col("s").eq(lit("bb")).or(col("i").gt(lit(-5_i64)).and(col("f").lt_eq(lit(3))));
        let case = ScalarExpr::Case {
            branches: vec![(col("i").is_null(), lit(-1_i64)), (col("f").gt(lit(0.0)), col("i"))],
            else_expr: Some(Box::new(col("i").mul(lit(2_i64)))),
        };
        let projection = vec![
            (case, "c"),
            (col("f").mul(lit(2.0)), "f2"),
            (lit(1.5).sub(col("f")), "rf"),
            (col("d").add(lit(7_i64)), "d7"),
            (col("s"), "s"),
            (col("i").cast(DataType::Str), "is"),
            (lit("k"), "k"),
            // Named twice more, once under another name: shared, not copied.
            (col("s"), "s_again"),
            (col("i"), "i"),
        ];
        let mut plans: Vec<(String, PhysicalPlan)> = vec![
            ("filter".into(), filter_op(left(), predicate.clone())),
            ("filter, all pass".into(), filter_op(left(), col("i").is_null().or(lit(true)))),
            ("filter, none pass".into(), filter_op(left(), col("s").eq(lit("zzz")))),
            ("project".into(), project_op(left(), &schema, projection.clone())),
            ("aggregate".into(), agg_op(left(), &schema)),
            ("sort".into(), sort_op(left(), &[("s", true), ("f", false)])),
            ("limit 50".into(), PhysicalPlan::Limit { n: 50, input: Box::new(left()), est: est() }),
            (
                "limit 400".into(),
                PhysicalPlan::Limit { n: 400, input: Box::new(left()), est: est() },
            ),
            (
                "union".into(),
                PhysicalPlan::Union {
                    inputs: vec![left(), source(LEFT2, &schema)],
                    est: est(),
                    partitions: 1,
                },
            ),
            (
                "udo".into(),
                PhysicalPlan::Udo {
                    spec: UdoSpec {
                        name: "scrub_pii".into(),
                        version: 1,
                        deterministic: true,
                        library_chain: Vec::new(),
                    },
                    schema: schema.clone(),
                    input: Box::new(left()),
                    est: est(),
                    partitions: 1,
                },
            ),
            (
                "spool".into(),
                PhysicalPlan::Spool {
                    sig: Sig128(99),
                    recurring_sig: Sig128(98),
                    input_guids: Vec::new(),
                    input: Box::new(filter_op(left(), predicate.clone())),
                    est: est(),
                    partitions: 1,
                },
            ),
            (
                "pipeline".into(),
                sort_op(
                    agg_op(
                        filter_op(join(JoinAlgo::Hash, JoinKind::Inner), predicate.clone()),
                        &schema,
                    ),
                    &[("n", false), ("s", true)],
                ),
            ),
            (
                "limit under project under filter".into(),
                project_op(
                    filter_op(
                        PhysicalPlan::Limit { n: 300, input: Box::new(left()), est: est() },
                        predicate,
                    ),
                    &schema,
                    projection,
                ),
            ),
        ];
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::Loop] {
            for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi] {
                plans.push((format!("{algo:?} {kind:?} join"), join(algo, kind)));
            }
        }

        for (name, plan) in &plans {
            let single = run_over(plan, &copies, usize::MAX);
            for chunk_size in [1, 333, 2048, usize::MAX] {
                let what = format!("{name}, round {round}, chunk size {chunk_size}");
                let over_windows = run_over(plan, &windows, chunk_size);
                let over_copies = run_over(plan, &copies, chunk_size);
                assert_tables_identical(&over_windows.table, &over_copies.table, &what);
                // Chunked ≡ single-chunk, and nothing leaves as a window.
                assert_tables_identical(&over_windows.table, &single.table, &what);
                assert!(over_windows.table.is_compact(), "result of {what} is a window");
                // The work ledger cannot tell a window from its copy.
                let (mw, mc) = (&over_windows.metrics, &over_copies.metrics);
                assert_eq!(mw.data_read_bytes, mc.data_read_bytes, "data read for {what}");
                assert_eq!(mw.total_work, mc.total_work, "work for {what}");
                for (pw, pc) in mw.op_profiles.iter().zip(&mc.op_profiles) {
                    assert_eq!((pw.rows_out, pw.bytes_out), (pc.rows_out, pc.bytes_out), "{what}");
                }
                for (vw, vc) in over_windows.pending_views.iter().zip(&over_copies.pending_views) {
                    assert!(vw.data.is_compact(), "pending view of {what} is a window");
                    assert_tables_identical(&vw.data, &vc.data, &what);
                }
                assert_eq!(over_windows.pending_views.len(), (name == "spool") as usize);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Late materialisation: a gathered column is copied when it is read
// ---------------------------------------------------------------------------

#[test]
fn unread_columns_are_never_gathered() {
    use cv_engine::udo::UdoImpl;
    let mut rng = DetRng::seed(0x71);
    let base = random_table(&mut rng, 5000, 0.2);
    let schema = base.schema().clone();
    let predicate = col("i").gt(lit(0_i64));

    // The reference walker, on tables built cell by cell.
    let mut scalar = EvalCtx::new(0);
    let keep = reference_select(&predicate, &base, None, &mut scalar).unwrap();
    let kept: Vec<Vec<Value>> = keep.iter().map(|&i| base.row(i)).collect();
    assert!(kept.len() > 1000 && kept.len() < 4000, "the filter drops some rows and keeps some");
    let filtered = Table::from_rows(schema.clone(), &kept).unwrap();
    let projection = vec![(col("i").add(lit(1_i64)), "i1"), (col("f").mul(lit(2.0)), "f2")];
    let projected = {
        let columns =
            projection.iter().map(|(e, _)| reference_column(e, &filtered, &mut scalar).unwrap());
        let fields = projection.iter().map(|(e, n)| Field::new(*n, e.dtype(&schema).unwrap()));
        Table::new(Schema::new(fields.collect()).unwrap().into_ref(), columns.collect()).unwrap()
    };
    let mut sorted = kept.clone();
    sorted.sort_by(|a, b| b[2].total_cmp(&a[2])); // stable, `f` descending
    let top = Table::from_rows(schema.clone(), &sorted[..50]).unwrap();

    // A pass-through UDO between the filter and its consumer keeps a handle
    // on the filter's output, the columns nobody names included.
    let seen: Arc<Mutex<Vec<Table>>> = Arc::default();
    let mut udos = UdoRegistry::empty();
    let tap = seen.clone();
    udos.register(
        "tap",
        UdoImpl {
            output_schema: Box::new(|s| Ok(Arc::new(s.clone()))),
            apply: Box::new(move |t| {
                tap.lock().unwrap().push(t.clone());
                Ok(t.clone())
            }),
        },
    );
    let tapped_filter = || PhysicalPlan::Udo {
        spec: UdoSpec::new("tap"),
        schema: schema.clone(),
        input: Box::new(filter_op(source(LEFT, &schema), predicate.clone())),
        est: est(),
        partitions: 1,
    };
    let filter_project = project_op(tapped_filter(), &schema, projection.clone());
    let filter_sort_limit = PhysicalPlan::Limit {
        n: 50,
        input: Box::new(sort_op(tapped_filter(), &[("f", false)])),
        est: est(),
    };
    // Expected table, `bytes_out` of every operator in execution order, and
    // which of the filter's output columns (b, i, f, s, d) some operator read
    // — the sort reads its key through the row ids.
    let (all, some) = (base.byte_size(), filtered.byte_size());
    let cases = [
        ("filter → project", &filter_project, &projected, vec![all, some, some], vec![1, 2]),
        ("filter → sort → limit", &filter_sort_limit, &top, vec![all, some, some, some], vec![]),
    ];

    let sources = Tables(HashMap::from_iter([(LEFT, base.clone())]));
    for (name, plan, want, mut bytes, read) in cases {
        bytes.push(want.byte_size());
        for (chunk_size, workers) in [(usize::MAX, 1), (2048, 1), (64, 2)] {
            let what = format!("{name}, chunk size {chunk_size}, {workers} worker(s)");
            let out = try_run_with(plan, &sources, &udos, chunk_size, workers).unwrap();
            assert_tables_identical(&out.table, want, &what);
            let profiled: Vec<u64> = out.metrics.op_profiles.iter().map(|p| p.bytes_out).collect();
            assert_eq!(profiled, bytes, "bytes_out per operator for {what}");

            let filter_out = seen.lock().unwrap().pop().expect("the tap saw the filter's output");
            assert_eq!(filter_out.num_rows(), kept.len(), "{what}");
            for (ci, column) in filter_out.columns().iter().enumerate() {
                assert!(!column.is_compact(), "{what}: the filter copied column {ci} up front");
                assert_eq!(column.is_forced(), read.contains(&ci), "{what}: column {ci} gathered");
            }
            // Sizing the unread columns again still reads none of them.
            assert_eq!(filter_out.byte_size(), some, "{what}");
            assert!(!filter_out.column(3).is_forced(), "{what}: byte_size gathered the strings");
        }
    }

    // A projection that only names columns hands its input's columns on: the
    // same deferred nodes, not gathered by it — nor by anything else when the
    // query keeps ten rows of them.
    let names_only = PhysicalPlan::Udo {
        spec: UdoSpec::new("tap"),
        schema: Schema::new(vec![
            Field::new("seg", DataType::Str),
            Field::new("i", DataType::Int),
            Field::new("seg2", DataType::Str),
        ])
        .unwrap()
        .into_ref(),
        input: Box::new(project_op(
            tapped_filter(),
            &schema,
            vec![(col("s"), "seg"), (col("i"), "i"), (col("s"), "seg2")],
        )),
        est: est(),
        partitions: 1,
    };
    let names_only = PhysicalPlan::Limit { n: 10, input: Box::new(names_only), est: est() };
    let want = filtered.project(&[3, 1, 3]).unwrap().slice(0, 10);
    for (chunk_size, workers) in [(usize::MAX, 1), (2048, 1), (64, 2)] {
        let what = format!("names only, chunk size {chunk_size}, {workers} worker(s)");
        let out = try_run_with(&names_only, &sources, &udos, chunk_size, workers).unwrap();
        assert!(out.table.is_compact(), "{what}");
        assert_eq!(out.table.to_rows(), want.to_rows(), "{what}");
        assert_eq!(out.table.byte_size(), want.byte_size(), "{what}");
        let project_out = seen.lock().unwrap().pop().expect("the tap saw the projection");
        let filter_out = seen.lock().unwrap().pop().expect("the tap saw the filter's output");
        for (pi, fi) in [(0, 3), (1, 1), (2, 3)] {
            let (p, f) = (project_out.column(pi), filter_out.column(fi));
            assert!(p.ptr_eq(f), "{what}: column {pi} of the projection is a copy");
            assert!(!p.is_forced(), "{what}: the projection gathered column {pi}");
        }
    }
}

/// The `q_join_wide` shape — fact ⋈ dimension ⋈ dimension, GROUP BY a string
/// of the far dimension: the string reaches the aggregate as a gather
/// through both joins, and neither boxing one of its cells nor grouping by it
/// performs that gather.
#[test]
fn a_dimension_string_is_grouped_without_being_gathered() {
    use cv_engine::udo::UdoImpl;
    let ints = |v: Vec<i64>| Column::new(ColumnData::Int(v), None);
    let table = |fields: &[(&str, DataType)], columns: Vec<Column>| {
        let fields = fields.iter().map(|(n, t)| Field::new(*n, *t)).collect();
        Table::new(Schema::new(fields).unwrap().into_ref(), columns).unwrap()
    };
    let n = 3000;
    let fact = table(
        &[("k", DataType::Int), ("v", DataType::Float)],
        vec![
            ints((0..n).map(|i| (i * 37) % 64).collect()),
            Column::new(ColumnData::Float((0..n).map(|i| i as f64 * 0.5).collect()), None),
        ],
    );
    let mid = table(
        &[("m_id", DataType::Int), ("m_far", DataType::Int)],
        // Far keys 8 and 9 have no row in `far`: the left join pads them.
        vec![ints((0..64).collect()), ints((0..64).map(|i| i % 10).collect())],
    );
    let regions = (0..8).map(|i| format!("region-{}", i / 2)).collect();
    let far = table(
        &[("f_id", DataType::Int), ("region", DataType::Str)],
        vec![ints((0..8).collect()), Column::new(ColumnData::Str(regions), None)],
    );

    let seen: Arc<Mutex<Vec<Table>>> = Arc::default();
    let mut udos = UdoRegistry::empty();
    let tap = seen.clone();
    udos.register(
        "tap",
        UdoImpl {
            output_schema: Box::new(|s| Ok(Arc::new(s.clone()))),
            apply: Box::new(move |t| {
                tap.lock().unwrap().push(t.clone());
                Ok(t.clone())
            }),
        },
    );
    let join =
        |left: PhysicalPlan, right: (Sig128, &Table), on: (&str, &str), kind| PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            kind,
            on: vec![(on.0.to_string(), on.1.to_string())],
            left: Box::new(left),
            right: Box::new(source(right.0, right.1.schema())),
            est: est(),
            partitions: 1,
            swapped: false,
        };
    let joined = join(
        join(source(LEFT, fact.schema()), (LEFT2, &mid), ("k", "m_id"), JoinKind::Inner),
        (RIGHT, &far),
        ("m_far", "f_id"),
        JoinKind::Left,
    );
    let wide = fact.schema().join(mid.schema()).unwrap().join(far.schema()).unwrap().into_ref();
    let aggs = [AggExpr::new(AggFunc::Sum, col("v"), "total"), AggExpr::count_star("n")];
    let mut plan = aggregate_over(&wide, &["region"], &aggs);
    let PhysicalPlan::HashAggregate { input, schema, .. } = &mut plan else { unreachable!() };
    **input = PhysicalPlan::Udo {
        spec: UdoSpec::new("tap"),
        schema: wide.clone(),
        input: Box::new(joined),
        est: est(),
        partitions: 1,
    };
    let out_schema = schema.clone();

    let sources = Tables(HashMap::from_iter([(LEFT, fact), (LEFT2, mid), (RIGHT, far)]));
    for (chunk_size, workers) in [(usize::MAX, 1), (2048, 1), (64, 2)] {
        let what = format!("chunk size {chunk_size}, {workers} worker(s)");
        let out = try_run_with(&plan, &sources, &udos, chunk_size, workers).unwrap();
        let joined = seen.lock().unwrap().pop().expect("the tap saw the joins' output");
        let region = joined.column_by_name("region").unwrap();
        assert!(!region.is_forced(), "{what}: grouping by the string gathered it");
        assert!(joined.column_by_name("v").unwrap().is_forced(), "{what}: SUM reads `v`");
        // The fold reads every key cell through `Column::value`.
        let want = reference_aggregate(&joined, &["region"], &aggs, &out_schema).unwrap();
        assert!(!region.is_forced(), "{what}: boxing a cell gathered the column");
        assert_tables_identical(&out.table, &want, &what);
        assert_eq!(out.table.num_rows(), 5, "{what}: four regions and the padded NULL group");
    }
}

/// A catalog table's string column is coded once for every query that reads
/// it: two filters and an aggregate, each over the table's chunks, read the
/// one dictionary the first reader built on the column's buffer.
#[test]
fn a_catalog_string_column_builds_one_dictionary_for_all_its_readers() {
    let mut cat = DatasetCatalog::new();
    let fields = vec![
        Field::new("region", DataType::Str),
        Field::new("app", DataType::Str),
        Field::new("v", DataType::Int),
    ];
    let regions = ["asia", "emea", "amer", "apac", "nordics"];
    let rows: Vec<Vec<Value>> = (0..5000)
        .map(|i| {
            let app = Value::Str(format!("app{}", i * 7 % 13));
            vec![Value::from(regions[i % 5]), app, Value::Int(i as i64)]
        })
        .collect();
    let table = Table::from_rows(Schema::new(fields).unwrap().into_ref(), &rows).unwrap();
    cat.register("t", table, SimTime::EPOCH).unwrap();
    let (views, udos) = (ViewStore::with_default_ttl(), UdoRegistry::with_builtins());
    let built = |name: &str| {
        let data = cat.get_by_name("t").unwrap().data();
        let (buffer, _) = data.column_by_name(name).unwrap().str_rows().unwrap();
        buffer.built_dictionary().cloned()
    };
    let scan = || PlanBuilder::scan(&cat, "t").unwrap();
    let run = |plan: PlanBuilder| {
        run_with(&plan.build(), &cat, &views, &udos, DEFAULT_CHUNK_SIZE).num_rows()
    };

    assert!(built("region").is_none() && built("app").is_none());
    assert_eq!(run(scan().filter(col("region").eq(lit("emea"))).unwrap()), 1000);
    let region = built("region").expect("the first filter built the dictionary");
    assert!(built("app").is_none(), "a column nobody compared was coded");
    let second = col("region").not_eq(lit("asia")).and(lit("app3").lt_eq(col("app")));
    let kept = rows
        .iter()
        .filter(|r| r[0] != Value::from("asia") && r[1].total_cmp(&Value::from("app3")).is_ge());
    assert_eq!(run(scan().filter(second).unwrap()), kept.count());
    let app = built("app").expect("the second filter built the dictionary");
    let by = vec![(col("region"), "region"), (col("app"), "app")];
    assert_eq!(run(scan().aggregate(by, vec![AggExpr::count_star("n")]).unwrap()), 65);
    for (name, first) in [("region", region), ("app", app)] {
        let now = built(name).unwrap();
        assert!(Arc::ptr_eq(&now, &first), "`{name}` was coded twice");
        assert_eq!(now.len(), if name == "region" { 5 } else { 13 });
    }
}

// ---------------------------------------------------------------------------
// The escape rule: no window outlives the query that cut it
// ---------------------------------------------------------------------------

/// "Backing buffer length equals row count", read through the public API.
fn assert_owns_its_rows(t: &Table, what: &str) {
    assert!(t.is_compact(), "{what} is a window");
    for c in t.columns() {
        assert_eq!(c.data().len(), t.num_rows(), "{what} retains rows it does not expose");
    }
}

#[test]
fn nothing_that_leaves_a_query_is_a_window() {
    const BIG: usize = 100_000;
    let mut engine = QueryEngine::new();
    let big = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("grp", DataType::Int),
        Field::new("name", DataType::Str),
        Field::new("v", DataType::Float),
    ])
    .unwrap()
    .into_ref();
    let mut validity = Bitmap::all_set(BIG);
    validity.set(5, false);
    let columns = vec![
        Column::new(ColumnData::Int((0..BIG as i64).collect()), None),
        Column::new(ColumnData::Int((0..BIG as i64).map(|i| i % 50).collect()), None),
        Column::new(ColumnData::Str((0..BIG).map(|i| format!("n{i}")).collect()), Some(validity)),
        Column::new(ColumnData::Float((0..BIG).map(|i| i as f64 * 0.5).collect()), None),
    ];
    engine.catalog.register("big", Table::new(big, columns).unwrap(), SimTime::EPOCH).unwrap();
    let dim = Schema::new(vec![Field::new("g", DataType::Int), Field::new("w", DataType::Float)])
        .unwrap()
        .into_ref();
    let rows: Vec<Vec<Value>> =
        (0..1000).map(|i| vec![Value::Int(i % 50), Value::Float(i as f64)]).collect();
    engine.catalog.register("dim", Table::from_rows(dim, &rows).unwrap(), SimTime::EPOCH).unwrap();

    let scan = |name: &str| PlanBuilder::scan(&engine.catalog, name).unwrap();
    let plans: Vec<(&str, Arc<LogicalPlan>)> = vec![
        ("limit 10", scan("big").limit(10).build()),
        // Already in key order: the sort's gather is an identity prefix.
        ("sorted prefix", scan("big").limit(5000).sort(&[("id", true)]).unwrap().build()),
        (
            "join of prefixes",
            scan("big")
                .limit(3000)
                .join(scan("dim").limit(300), &[("grp", "g")], JoinKind::Inner)
                .unwrap()
                .build(),
        ),
        (
            "aggregate over a prefix",
            scan("big")
                .limit(4000)
                .aggregate(vec![(col("grp"), "grp")], vec![AggExpr::count_star("n")])
                .unwrap()
                .build(),
        ),
        (
            "filter passing every row",
            scan("big").filter(col("id").gt_eq(lit(0_i64))).unwrap().build(),
        ),
        (
            "filter keeping a prefix",
            scan("big").filter(col("id").lt(lit(7000_i64))).unwrap().build(),
        ),
    ];

    let mut sealed = 0;
    for (name, plan) in &plans {
        // Once bare, once with a view requested for every subexpression.
        let mut reuse = ReuseContext::empty();
        reuse.to_build.extend(
            engine
                .subexpressions(plan)
                .unwrap()
                .iter()
                .filter(|s| s.kind != "Scan")
                .map(|s| s.strict),
        );
        let bare = engine.optimize(plan, &ReuseContext::empty(), &mut AlwaysGrant).unwrap();
        let bare_out = engine.execute(&bare.outcome.physical, SimTime::EPOCH).unwrap();
        assert_owns_its_rows(&bare_out.table, &format!("result of `{name}`"));
        let compiled = engine.optimize(plan, &reuse, &mut AlwaysGrant).unwrap();
        let out = engine.execute(&compiled.outcome.physical, SimTime::EPOCH).unwrap();
        assert_owns_its_rows(&out.table, &format!("result of `{name}` with spools"));
        for pv in &out.pending_views {
            assert_owns_its_rows(&pv.data, &format!("pending view of `{name}`"));
        }
        sealed += engine.seal_views(&out.pending_views, JobId(1), VcId(0), SimTime::EPOCH).unwrap();
        if *name == "limit 10" {
            // The view of a 10-row prefix retains 10 rows, not the 100k-row
            // input it was cut from.
            let root =
                compiled.outcome.built_views.iter().find_map(|sig| {
                    engine.views.peek(*sig, SimTime::EPOCH).filter(|v| v.rows == 10)
                });
            let view = root.expect("the LIMIT 10 subexpression was materialized");
            assert_owns_its_rows(&view.data, "the sealed LIMIT 10 view");
            assert_eq!(view.bytes, view.data.byte_size());
            assert!(view.bytes < 1000, "a 10-row view accounts {} bytes", view.bytes);
        }
    }
    assert!(sealed >= plans.len(), "only {sealed} views sealed");
}
