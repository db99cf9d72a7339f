//! Vectorized typed expression kernels.
//!
//! Each kernel dispatches on the typed [`ColumnView`]s of its inputs and
//! runs a tight loop over the typed slices, with null propagation handled
//! through validity bitmaps instead of per-row [`Value`] boxing. The scalar
//! kernels in [`super::eval`] (`binary_value`, `unary_value`, `cast_value`)
//! remain the *reference semantics*: every kernel here must produce exactly
//! the column the scalar row loop would — same values, same NULLs, same
//! null-slot placeholders, and no validity bitmap when every row is valid
//! (so `byte_size` is identical across both paths). Differential property
//! tests in `tests/kernels.rs` enforce this.
//!
//! A kernel returns `None` when it has no typed implementation for the
//! operand combination; the caller falls back to the scalar loop, which
//! either handles it or raises the same error the scalar path always did.
//!
//! A binary kernel's operand is an [`Operand`]: an evaluated column, or a
//! literal/parameter passed as the scalar it is. Both reach the loops as a
//! typed [`Lane`], so `region = 'asia'` compares each row against one
//! `&String` — nothing is materialized per row for the constant side. The
//! lane types are exactly the column types a broadcast literal would have
//! had, so every coercion (Int literal against a Float column, either
//! operand order) goes through the same arm it always did.

use super::{BinOp, UnOp};
use cv_data::bitmap::Bitmap;
use cv_data::column::{Column, ColumnData, ColumnView};
use cv_data::value::{DataType, Value};
use std::cmp::Ordering;

/// Broadcast a literal/parameter into a constant column (one allocation,
/// no per-row push) — for a literal that *is* an output column; operands of
/// binary kernels stay scalar ([`Operand::Const`]). Coercions mirror
/// `ColumnBuilder::push`: Int widens into Float and Date columns.
pub(super) fn broadcast(v: &Value, out_type: DataType, n: usize) -> Option<Column> {
    let data = match (v, out_type) {
        (Value::Bool(b), DataType::Bool) => ColumnData::Bool(vec![*b; n]),
        (Value::Int(i), DataType::Int) => ColumnData::Int(vec![*i; n]),
        (Value::Int(i), DataType::Float) => ColumnData::Float(vec![*i as f64; n]),
        (Value::Int(i), DataType::Date) => ColumnData::Date(vec![*i as i32; n]),
        (Value::Float(f), DataType::Float) => ColumnData::Float(vec![*f; n]),
        (Value::Str(s), DataType::Str) => ColumnData::Str(vec![s.clone(); n]),
        (Value::Date(d), DataType::Date) => ColumnData::Date(vec![*d; n]),
        _ => return None,
    };
    Some(Column::new(data, None))
}

/// One side of a binary kernel.
pub(super) enum Operand<'e> {
    Col(Column),
    /// A non-NULL literal or parameter, standing for the constant column a
    /// broadcast would have produced (all rows valid).
    Const(&'e Value),
}

impl Operand<'_> {
    fn validity(&self) -> Option<&Bitmap> {
        match self {
            Operand::Col(c) => c.validity(),
            Operand::Const(_) => None,
        }
    }

    /// Row `i` boxed — the scalar fallback's accessor.
    pub(super) fn value(&self, i: usize) -> Value {
        match self {
            Operand::Col(c) => c.value(i),
            Operand::Const(v) => (*v).clone(),
        }
    }

    fn lanes(&self) -> Option<Lanes<'_>> {
        Some(match self {
            Operand::Col(c) => match c.view() {
                ColumnView::Bool(v) => Lanes::Bool(Lane::Col(v)),
                ColumnView::Int(v) => Lanes::Int(Lane::Col(v)),
                ColumnView::Float(v) => Lanes::Float(Lane::Col(v)),
                ColumnView::Str(v) => Lanes::Str(Lane::Col(v)),
                ColumnView::Date(v) => Lanes::Date(Lane::Col(v)),
            },
            Operand::Const(v) => match v {
                Value::Bool(k) => Lanes::Bool(Lane::Const(k)),
                Value::Int(k) => Lanes::Int(Lane::Const(k)),
                Value::Float(k) => Lanes::Float(Lane::Const(k)),
                Value::Str(k) => Lanes::Str(Lane::Const(k)),
                Value::Date(k) => Lanes::Date(Lane::Const(k)),
                Value::Null => return None,
            },
        })
    }
}

/// Typed rows of one operand: a column slice, or one constant at every row.
enum Lane<'a, T> {
    Col(&'a [T]),
    Const(&'a T),
}

impl<'a, T> Lane<'a, T> {
    #[inline]
    fn get(&self, i: usize) -> &'a T {
        match *self {
            Lane::Col(v) => &v[i],
            Lane::Const(k) => k,
        }
    }
}

enum Lanes<'a> {
    Bool(Lane<'a, bool>),
    Int(Lane<'a, i64>),
    Float(Lane<'a, f64>),
    Str(Lane<'a, String>),
    Date(Lane<'a, i32>),
}

/// Typed binary kernel over `n` rows. `None` means "no kernel for this
/// combination".
pub(super) fn binary(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    match op {
        BinOp::And | BinOp::Or => and_or(op, l, r, n),
        _ if op.is_comparison() => compare(op, l, r, n),
        _ => arith(op, l, r, n),
    }
}

#[inline]
fn valid(v: Option<&Bitmap>, i: usize) -> bool {
    v.is_none_or(|b| b.get(i))
}

/// AND/OR with SQL ternary logic on Bool operands.
fn and_or(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    let (Lanes::Bool(lv), Lanes::Bool(rv)) = (l.lanes()?, r.lanes()?) else {
        return None;
    };
    let (lval, rval) = (l.validity(), r.validity());
    let mut data = vec![false; n];
    let mut validity = Bitmap::all_set(n);
    let mut any_null = false;
    for (i, slot) in data.iter_mut().enumerate() {
        let a = if valid(lval, i) { Some(*lv.get(i)) } else { None };
        let b = if valid(rval, i) { Some(*rv.get(i)) } else { None };
        let out = match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            _ => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        };
        match out {
            Some(x) => *slot = x,
            None => {
                validity.set(i, false);
                any_null = true;
            }
        }
    }
    Some(Column::new(ColumnData::Bool(data), if any_null { Some(validity) } else { None }))
}

fn combine_validity(l: &Operand<'_>, r: &Operand<'_>) -> Option<Bitmap> {
    match (l.validity(), r.validity()) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => Some(a.and(b)),
    }
}

/// Drop a validity bitmap with no cleared bits — the canonical form the
/// scalar builders produce.
fn normalize(v: Option<Bitmap>) -> Option<Bitmap> {
    v.filter(|b| !b.all_true())
}

/// Comparison kernels: typed per-pair loops matching `Value::total_cmp`
/// (Int/Float mixes widen to f64, floats via `f64::total_cmp`).
fn compare(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    let pred: fn(Ordering) -> bool = match op {
        BinOp::Eq => |o| o == Ordering::Equal,
        BinOp::NotEq => |o| o != Ordering::Equal,
        BinOp::Lt => |o| o == Ordering::Less,
        BinOp::LtEq => |o| o != Ordering::Greater,
        BinOp::Gt => |o| o == Ordering::Greater,
        BinOp::GtEq => |o| o != Ordering::Less,
        _ => unreachable!("compare called with non-comparison op"),
    };
    let validity = combine_validity(l, r);
    let mut data = vec![false; n];
    macro_rules! fill {
        ($ord:expr) => {{
            let ord = $ord;
            match &validity {
                None => {
                    for i in 0..n {
                        data[i] = pred(ord(i));
                    }
                }
                Some(v) => {
                    for i in 0..n {
                        if v.get(i) {
                            data[i] = pred(ord(i));
                        }
                    }
                }
            }
        }};
    }
    match (l.lanes()?, r.lanes()?) {
        (Lanes::Int(a), Lanes::Int(b)) => fill!(|i: usize| a.get(i).cmp(b.get(i))),
        (Lanes::Float(a), Lanes::Float(b)) => fill!(|i: usize| a.get(i).total_cmp(b.get(i))),
        (Lanes::Int(a), Lanes::Float(b)) => {
            fill!(|i: usize| (*a.get(i) as f64).total_cmp(b.get(i)))
        }
        (Lanes::Float(a), Lanes::Int(b)) => {
            fill!(|i: usize| a.get(i).total_cmp(&(*b.get(i) as f64)))
        }
        (Lanes::Str(a), Lanes::Str(b)) => fill!(|i: usize| a.get(i).cmp(b.get(i))),
        (Lanes::Date(a), Lanes::Date(b)) => fill!(|i: usize| a.get(i).cmp(b.get(i))),
        (Lanes::Bool(a), Lanes::Bool(b)) => fill!(|i: usize| a.get(i).cmp(b.get(i))),
        _ => return None,
    }
    Some(Column::new(ColumnData::Bool(data), normalize(validity)))
}

/// Numeric lane widening Int to f64 (the `as_f64` coercion).
enum NumLane<'a> {
    Int(Lane<'a, i64>),
    Float(Lane<'a, f64>),
}

impl NumLane<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumLane::Int(v) => *v.get(i) as f64,
            NumLane::Float(v) => *v.get(i),
        }
    }
}

fn num_lane(l: Lanes<'_>) -> Option<NumLane<'_>> {
    match l {
        Lanes::Int(v) => Some(NumLane::Int(v)),
        Lanes::Float(v) => Some(NumLane::Float(v)),
        _ => None,
    }
}

/// Arithmetic kernels: Int×Int stays Int (wrapping, except Div which
/// promotes to Float), Date±Int shifts days, anything else numeric widens
/// to f64. Div/Mod by zero produce NULL.
fn arith(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    use BinOp::*;
    let mut validity = match combine_validity(l, r) {
        Some(v) => v,
        None => Bitmap::all_set(n),
    };
    let data = match (l.lanes()?, r.lanes()?) {
        (Lanes::Date(a), Lanes::Int(b)) => {
            if !matches!(op, Add | Sub) {
                return None;
            }
            let mut out = vec![0i32; n];
            for (i, slot) in out.iter_mut().enumerate() {
                if validity.get(i) {
                    let (a, d) = (*a.get(i), *b.get(i) as i32);
                    *slot = if op == Add { a.wrapping_add(d) } else { a.wrapping_sub(d) };
                }
            }
            ColumnData::Date(out)
        }
        (Lanes::Int(a), Lanes::Int(b)) if op != Div => {
            let mut out = vec![0i64; n];
            for (i, slot) in out.iter_mut().enumerate() {
                if !validity.get(i) {
                    continue;
                }
                let (a, b) = (*a.get(i), *b.get(i));
                *slot = match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Mod => {
                        if b == 0 {
                            validity.set(i, false);
                            0
                        } else {
                            a % b
                        }
                    }
                    _ => unreachable!(),
                };
            }
            ColumnData::Int(out)
        }
        (ld, rd) => {
            let (Some(va), Some(vb)) = (num_lane(ld), num_lane(rd)) else {
                return None;
            };
            let mut out = vec![0.0f64; n];
            for (i, slot) in out.iter_mut().enumerate() {
                if !validity.get(i) {
                    continue;
                }
                let (x, y) = (va.get(i), vb.get(i));
                *slot = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div | Mod => {
                        if y == 0.0 {
                            validity.set(i, false);
                            0.0
                        } else if op == Div {
                            x / y
                        } else {
                            x % y
                        }
                    }
                    _ => unreachable!(),
                };
            }
            ColumnData::Float(out)
        }
    };
    Some(Column::new(data, normalize(Some(validity))))
}

/// Typed unary kernel.
pub(super) fn unary(op: UnOp, c: &Column) -> Option<Column> {
    let n = c.len();
    match op {
        UnOp::Not => {
            let ColumnView::Bool(v) = c.view() else { return None };
            let data: Vec<bool> = match c.validity() {
                None => v.iter().map(|b| !b).collect(),
                Some(val) => (0..n).map(|i| if val.get(i) { !v[i] } else { false }).collect(),
            };
            Some(Column::new(ColumnData::Bool(data), normalize(c.validity().cloned())))
        }
        UnOp::Neg => {
            let validity = normalize(c.validity().cloned());
            let data = match c.view() {
                ColumnView::Int(v) => {
                    let mut out = vec![0i64; n];
                    for i in 0..n {
                        if valid(c.validity(), i) {
                            out[i] = v[i].wrapping_neg();
                        }
                    }
                    ColumnData::Int(out)
                }
                ColumnView::Float(v) => {
                    let mut out = vec![0.0f64; n];
                    for i in 0..n {
                        if valid(c.validity(), i) {
                            out[i] = -v[i];
                        }
                    }
                    ColumnData::Float(out)
                }
                _ => return None,
            };
            Some(Column::new(data, validity))
        }
        UnOp::IsNull => {
            let data: Vec<bool> = match c.validity() {
                None => vec![false; n],
                Some(v) => (0..n).map(|i| !v.get(i)).collect(),
            };
            Some(Column::new(ColumnData::Bool(data), None))
        }
        UnOp::IsNotNull => {
            let data: Vec<bool> = match c.validity() {
                None => vec![true; n],
                Some(v) => (0..n).map(|i| v.get(i)).collect(),
            };
            Some(Column::new(ColumnData::Bool(data), None))
        }
    }
}

/// Typed cast kernel. Identity casts share the source column, window and
/// all (reference bump); string parses that fail produce NULL, matching
/// `cast_value`.
pub(super) fn cast(c: &Column, to: DataType) -> Option<Column> {
    let n = c.len();
    if c.dtype() == to {
        return Some(c.clone().normalize_validity());
    }
    let mut validity = c.validity().cloned().unwrap_or_else(|| Bitmap::all_set(n));
    macro_rules! convert {
        ($src:ident, $default:expr, $wrap:expr, $f:expr) => {{
            let mut out = vec![$default; n];
            for i in 0..n {
                if validity.get(i) {
                    out[i] = $f(&$src[i]);
                }
            }
            $wrap(out)
        }};
    }
    // Fallible string parses clear validity on failure.
    macro_rules! parse {
        ($src:ident, $default:expr, $wrap:expr, $f:expr) => {{
            let mut out = vec![$default; n];
            for i in 0..n {
                if validity.get(i) {
                    match $f(&$src[i]) {
                        Some(x) => out[i] = x,
                        None => validity.set(i, false),
                    }
                }
            }
            $wrap(out)
        }};
    }
    let data = match (c.view(), to) {
        (ColumnView::Int(v), DataType::Float) => {
            convert!(v, 0.0, ColumnData::Float, |x: &i64| *x as f64)
        }
        (ColumnView::Int(v), DataType::Date) => {
            convert!(v, 0, ColumnData::Date, |x: &i64| *x as i32)
        }
        (ColumnView::Int(v), DataType::Str) => {
            convert!(v, String::new(), ColumnData::Str, |x: &i64| x.to_string())
        }
        (ColumnView::Int(v), DataType::Bool) => {
            convert!(v, false, ColumnData::Bool, |x: &i64| *x != 0)
        }
        (ColumnView::Float(v), DataType::Int) => {
            convert!(v, 0, ColumnData::Int, |x: &f64| *x as i64)
        }
        (ColumnView::Float(v), DataType::Str) => {
            convert!(v, String::new(), ColumnData::Str, |x: &f64| x.to_string())
        }
        (ColumnView::Str(v), DataType::Int) => {
            parse!(v, 0, ColumnData::Int, |s: &String| s.trim().parse::<i64>().ok())
        }
        (ColumnView::Str(v), DataType::Float) => {
            parse!(v, 0.0, ColumnData::Float, |s: &String| s.trim().parse::<f64>().ok())
        }
        (ColumnView::Str(v), DataType::Date) => {
            parse!(v, 0, ColumnData::Date, |s: &String| cv_data::value::parse_date(s))
        }
        (ColumnView::Bool(v), DataType::Int) => {
            convert!(v, 0, ColumnData::Int, |x: &bool| *x as i64)
        }
        (ColumnView::Bool(v), DataType::Str) => {
            convert!(v, String::new(), ColumnData::Str, |x: &bool| x.to_string())
        }
        (ColumnView::Date(v), DataType::Int) => {
            convert!(v, 0, ColumnData::Int, |x: &i32| *x as i64)
        }
        (ColumnView::Date(v), DataType::Str) => {
            convert!(v, String::new(), ColumnData::Str, |x: &i32| cv_data::value::format_date(*x))
        }
        _ => return None,
    };
    Some(Column::new(data, normalize(Some(validity))))
}

/// CASE kernel: compute a per-row branch-selection vector from the WHEN
/// columns, coerce every source column to the output type (Int widens into
/// Float/Date outputs, exactly like `ColumnBuilder::push`), then gather
/// typed. `None` falls back to the scalar loop.
pub(super) fn case_select(
    when_cols: &[Column],
    then_cols: &[Column],
    else_col: Option<&Column>,
    out_type: DataType,
    n: usize,
) -> Option<Column> {
    const NO_BRANCH: usize = usize::MAX;
    let mut sel = vec![NO_BRANCH; n];
    for (bi, w) in when_cols.iter().enumerate() {
        let ColumnView::Bool(wv) = w.view() else { return None };
        let wval = w.validity();
        for i in 0..n {
            if sel[i] == NO_BRANCH && valid(wval, i) && wv[i] {
                sel[i] = bi;
            }
        }
    }
    // Coerce sources up front so the gather below is monomorphic.
    let coerce = |c: &Column| -> Option<Column> {
        if c.dtype() == out_type {
            Some(c.clone())
        } else if c.dtype() == DataType::Int && matches!(out_type, DataType::Float | DataType::Date)
        {
            cast(c, out_type)
        } else {
            None
        }
    };
    let srcs: Option<Vec<Column>> = then_cols.iter().map(coerce).collect();
    let srcs = srcs?;
    let else_src = match else_col {
        Some(c) => Some(coerce(c)?),
        None => None,
    };
    let mut validity = Bitmap::all_set(n);
    macro_rules! gather {
        ($variant:ident, $ty:ty, $default:expr, $get:expr) => {{
            let mut out: Vec<$ty> = vec![$default; n];
            for i in 0..n {
                let src: Option<&Column> =
                    if sel[i] != NO_BRANCH { Some(&srcs[sel[i]]) } else { else_src.as_ref() };
                match src {
                    Some(c) if !c.is_null(i) => {
                        let ColumnView::$variant(v) = c.view() else {
                            unreachable!("coerced to output type above")
                        };
                        out[i] = $get(&v[i]);
                    }
                    _ => validity.set(i, false),
                }
            }
            ColumnData::$variant(out)
        }};
    }
    let data = match out_type {
        DataType::Bool => gather!(Bool, bool, false, |x: &bool| *x),
        DataType::Int => gather!(Int, i64, 0, |x: &i64| *x),
        DataType::Float => gather!(Float, f64, 0.0, |x: &f64| *x),
        DataType::Str => gather!(Str, String, String::new(), |x: &String| x.clone()),
        DataType::Date => gather!(Date, i32, 0, |x: &i32| *x),
    };
    Some(Column::new(data, normalize(Some(validity))))
}
