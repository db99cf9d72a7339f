//! Vectorized typed expression kernels: the one evaluator.
//!
//! Each kernel dispatches on the typed [`ColumnView`]s of its inputs and
//! runs a tight loop over the typed slices, with null propagation handled
//! through validity bitmaps instead of per-row [`Value`] boxing. Every
//! expression node is one kernel call, and each kernel is *total* over the
//! nodes `ScalarExpr::dtype` accepts: it returns `None` only for a node
//! `dtype` refuses, and the evaluator raises that refusal. The scalar
//! functions in [`super::eval`] (`binary_value`, `unary_value`,
//! `func_value`, `cast_value`) are the constant folder's semantics and the
//! test oracle: every kernel here produces exactly the column a row-by-row
//! application of them would — same values, same NULLs, the type's default
//! under a NULL, and no validity bitmap when every row is valid. Where a
//! cell rule is more than an operator (a calendar part, a hash, a draw) the
//! kernel and the scalar function call the same helper. Differential tests
//! in `tests/kernels.rs` hold the kernels to a reference walker over those
//! functions, and for string comparisons this file's own tests do.
//!
//! A binary kernel's operand is an [`Operand`]: an evaluated column, or a
//! literal/parameter passed as the scalar it is — nothing is materialized
//! per row for the constant side. `region = 'asia'` goes further: the
//! verdict is decided once per entry of the column buffer's dictionary
//! ([`StrColumn::dictionary`]) and each row looks up its entry's. The lane
//! types are exactly the column types a broadcast literal would have had,
//! so every coercion (Int literal against a Float column, either operand
//! order) goes through the same arm it always did.
//!
//! **Everything a loop does not vary is decided outside it.** The operand
//! shape (column or constant, each side: [`rows!`]), the operator
//! ([`by_op`], and one `match` per arithmetic kernel) and the presence of a
//! validity bitmap ([`map_rows`], [`try_map_rows`], [`Verdicts::fill`]) each
//! pick a monomorphic loop; no loop calls through a pointer, matches on the
//! operator or asks an operand what it is. Operands without NULLs take
//! loops that never look at a bitmap and allocate one only if a row of the
//! *result* is NULL (`x / 0`, a failed parse, a CASE without ELSE).
//!
//! A comparison is one typed dispatch ([`compare`]) with two outlets: the
//! dense kernel writes a `bool` per row (a projected boolean, a `CASE WHEN`,
//! an `OR`), the selection ([`select`]) writes the ids of the rows that
//! passed — the Filter operator's form ([`super::eval::select`]).

use super::eval::{cast_value, guid, hash64, EvalCtx};
use super::{BinOp, FuncKind, UnOp};
use cv_common::Result;
use cv_data::bitmap::Bitmap;
use cv_data::column::{Column, ColumnData, ColumnView, StrRows, PAD};
use cv_data::strs::{StrColumn, StrView};
use cv_data::value::{date_parts, DataType, Value};

/// Broadcast a literal/parameter into a constant column (one allocation,
/// no per-row push) — for a literal that *is* an output column; operands of
/// binary kernels stay scalar ([`Operand::Const`]). `None` for a NULL, which
/// has no type.
pub(super) fn broadcast(v: &Value, n: usize) -> Option<Column> {
    let data = match v {
        Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
        Value::Int(i) => ColumnData::Int(vec![*i; n]),
        Value::Float(f) => ColumnData::Float(vec![*f; n]),
        Value::Str(s) => ColumnData::Str(StrColumn::repeat(s, n)),
        Value::Date(d) => ColumnData::Date(vec![*d; n]),
        Value::Null => return None,
    };
    Some(Column::new(data, None))
}

/// One side of a binary kernel, or one THEN/ELSE of a CASE.
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

    fn lanes(&self) -> Option<Lanes<'_>> {
        Some(match self {
            Operand::Col(c) => match c.view() {
                ColumnView::Bool(v) => Lanes::Bool(Lane::Col(v)),
                ColumnView::Int(v) => Lanes::Int(Lane::Col(v)),
                ColumnView::Float(v) => Lanes::Float(Lane::Col(v)),
                ColumnView::Str(v) => Lanes::Str(Lane::Col(Bytes(v))),
                ColumnView::Date(v) => Lanes::Date(Lane::Col(v)),
            },
            Operand::Const(v) => match v {
                Value::Bool(k) => Lanes::Bool(Lane::Const(k)),
                Value::Int(k) => Lanes::Int(Lane::Const(k)),
                Value::Float(k) => Lanes::Float(Lane::Const(k)),
                Value::Date(k) => Lanes::Date(Lane::Const(k)),
                // A string constant meets a column through the column's
                // dictionary ([`by_entry`]), never as a lane.
                Value::Str(_) | Value::Null => return None,
            },
        })
    }
}

/// Typed rows of one operand: a column's rows (a slice, or a string view's
/// bytes), or one constant at every row.
enum Lane<'a, T: ?Sized, Rows = &'a [T]> {
    Col(Rows),
    Const(&'a T),
}

enum Lanes<'a> {
    Bool(Lane<'a, bool>),
    Int(Lane<'a, i64>),
    Float(Lane<'a, f64>),
    Str(Lane<'a, [u8], Bytes<'a>>),
    Date(Lane<'a, i32>),
}

/// A string column's rows as their bytes, cut by the offsets
/// ([`StrView::bytes_of`]): a comparison reads no `&str`.
#[derive(Clone, Copy)]
struct Bytes<'a>(StrView<'a>);

impl std::ops::Index<usize> for Bytes<'_> {
    type Output = [u8];
    #[inline]
    fn index(&self, i: usize) -> &[u8] {
        self.0.bytes_of(i)
    }
}

/// Binds two lanes as row readers (`Fn(usize) -> &T`) and expands `$body`,
/// an `Option`, once per column/constant shape: which side is a constant is
/// settled here, outside whatever loops `$body` runs. Two constants have no
/// rows of their own: the evaluator hands at most one side over as a
/// scalar.
macro_rules! rows {
    (($a:expr, $b:expr) => |$x:ident, $y:ident| $body:expr) => {
        match ($a, $b) {
            (Lane::Col(a), Lane::Col(b)) => {
                let ($x, $y) = (|i: usize| &a[i], |i: usize| &b[i]);
                $body
            }
            (Lane::Col(a), Lane::Const(b)) => {
                let ($x, $y) = (|i: usize| &a[i], |_: usize| b);
                $body
            }
            (Lane::Const(a), Lane::Col(b)) => {
                let ($x, $y) = (|_: usize| a, |i: usize| &b[i]);
                $body
            }
            (Lane::Const(_), Lane::Const(_)) => None,
        }
    };
}

/// Typed binary kernel over `n` rows. `None` for operand types `dtype`
/// refuses.
pub(super) fn binary(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    match op {
        BinOp::And | BinOp::Or => and_or(op, l, r, n),
        _ if op.is_comparison() => {
            let validity = combine_validity(l, r);
            let data = compare(op, l, r, validity.as_ref(), Dense(n))?;
            Some(Column::new(ColumnData::Bool(data), normalize(validity)))
        }
        _ => arith(op, l, r, n),
    }
}

/// The ids, ascending, of the rows among `within` (all `n` when `None`)
/// where `l <op> r` is TRUE: the comparison kernel writing row ids instead
/// of a `bool` per row. Only the rows of `within` are compared.
pub(super) fn select(
    op: BinOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    n: usize,
    within: Option<&[usize]>,
) -> Option<Vec<usize>> {
    compare(op, l, r, combine_validity(l, r).as_ref(), Selected { n, within })
}

#[inline]
fn valid(v: Option<&Bitmap>, i: usize) -> bool {
    v.is_none_or(|b| b.get(i))
}

/// AND/OR with SQL ternary logic on Bool operands. A row's verdict is known
/// when one side decides alone (a valid FALSE under AND, a valid TRUE under
/// OR) or both sides are valid; an unknown row is NULL over `false`.
fn and_or(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    /// `(TRUE, FALSE)` from each side's `(TRUE, FALSE)`.
    fn ternary(
        n: usize,
        x: impl Fn(usize) -> (bool, bool),
        y: impl Fn(usize) -> (bool, bool),
        combine: impl Fn((bool, bool), (bool, bool)) -> (bool, bool),
    ) -> Column {
        let (mut data, mut known) = (vec![false; n], vec![false; n]);
        for i in 0..n {
            let (t, f) = combine(x(i), y(i));
            (data[i], known[i]) = (t, t | f);
        }
        Column::new(ColumnData::Bool(data), normalize(Some(Bitmap::from_bools(&known))))
    }
    let (Lanes::Bool(a), Lanes::Bool(b)) = (l.lanes()?, r.lanes()?) else {
        return None;
    };
    let (lv, rv) = (l.validity(), r.validity());
    let no_nulls = |data: Vec<bool>| Column::new(ColumnData::Bool(data), None);
    rows!((a, b) => |x, y| Some(match (op, lv.or(rv)) {
        (BinOp::And, None) => no_nulls((0..n).map(|i| *x(i) & *y(i)).collect()),
        (_, None) => no_nulls((0..n).map(|i| *x(i) | *y(i)).collect()),
        (op, Some(_)) => {
            let x = |i: usize| (valid(lv, i) & *x(i), valid(lv, i) & !*x(i));
            let y = |i: usize| (valid(rv, i) & *y(i), valid(rv, i) & !*y(i));
            match op {
                BinOp::And => ternary(n, x, y, |(xt, xf), (yt, yf)| (xt & yt, xf | yf)),
                _ => ternary(n, x, y, |(xt, xf), (yt, yf)| (xt | yt, xf & yf)),
            }
        }
    }))
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

/// Where a comparison's per-row verdicts go. `keep(i)` is asked only of rows
/// `validity` calls valid; a NULL row is never kept.
trait Verdicts {
    type Out;
    fn fill(self, validity: Option<&Bitmap>, keep: impl Fn(usize) -> bool) -> Self::Out;
}

/// A `bool` for each of the `n` rows, `false` under a NULL.
struct Dense(usize);

impl Verdicts for Dense {
    type Out = Vec<bool>;
    fn fill(self, validity: Option<&Bitmap>, keep: impl Fn(usize) -> bool) -> Vec<bool> {
        match validity {
            None => (0..self.0).map(keep).collect(),
            Some(v) => (0..self.0).map(|i| v.get(i) && keep(i)).collect(),
        }
    }
}

/// The ids of the kept rows among `within` (all `n` when `None`), ascending
/// as `within` is.
struct Selected<'a> {
    n: usize,
    within: Option<&'a [usize]>,
}

impl Verdicts for Selected<'_> {
    type Out = Vec<usize>;
    fn fill(self, validity: Option<&Bitmap>, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        /// Every candidate is written where the next survivor goes and the
        /// cursor moves only past a kept one: no branch on the verdict.
        fn compress(
            candidates: usize,
            ids: impl Iterator<Item = usize>,
            keep: impl Fn(usize) -> bool,
        ) -> Vec<usize> {
            let mut out = vec![0; candidates];
            let mut kept = 0;
            for i in ids {
                out[kept] = i;
                kept += keep(i) as usize;
            }
            out.truncate(kept);
            // A chunk's selection outlives the chunk: it keeps its survivors,
            // not the room its candidates needed.
            out.shrink_to_fit();
            out
        }
        match (self.within, validity) {
            (None, None) => compress(self.n, 0..self.n, keep),
            (None, Some(v)) => compress(self.n, 0..self.n, |i| v.get(i) && keep(i)),
            (Some(w), None) => compress(w.len(), w.iter().copied(), keep),
            (Some(w), Some(v)) => compress(w.len(), w.iter().copied(), |i| v.get(i) && keep(i)),
        }
    }
}

/// The operator is chosen here, once: each arm is its own loop over keys of
/// a totally ordered type.
fn by_op<K: PartialOrd, S: Verdicts>(
    op: BinOp,
    validity: Option<&Bitmap>,
    out: S,
    l: impl Fn(usize) -> K,
    r: impl Fn(usize) -> K,
) -> Option<S::Out> {
    Some(match op {
        BinOp::Eq => out.fill(validity, |i| l(i) == r(i)),
        BinOp::NotEq => out.fill(validity, |i| l(i) != r(i)),
        BinOp::Lt => out.fill(validity, |i| l(i) < r(i)),
        BinOp::LtEq => out.fill(validity, |i| l(i) <= r(i)),
        BinOp::Gt => out.fill(validity, |i| l(i) > r(i)),
        BinOp::GtEq => out.fill(validity, |i| l(i) >= r(i)),
        _ => return None,
    })
}

/// `a <op> b` for one comparison operator.
fn decide<K: PartialOrd + ?Sized>(op: BinOp, a: &K, b: &K) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::NotEq => a != b,
        BinOp::Lt => a < b,
        BinOp::LtEq => a <= b,
        BinOp::Gt => a > b,
        // `compare` comes here with comparisons only: GtEq.
        _ => a >= b,
    }
}

/// A string column against a constant, through the column buffer's
/// dictionary: `verdict` runs on an entry's bytes the first time a row of
/// that entry is asked, and every row is then a lookup of its entry's
/// verdict — a window's by its offset, an unread gather's through its row
/// ids, so nothing is gathered. `None` if `col` is not a string column.
fn by_entry<S: Verdicts>(
    col: &Column,
    validity: Option<&Bitmap>,
    out: S,
    verdict: impl Fn(&[u8]) -> bool,
) -> Option<S::Out> {
    let (buffer, rows) = col.str_rows()?;
    let (entries, text) = (buffer.dictionary(), buffer.view());
    // Per entry, 0 until decided, then 1 + the verdict. Zeroed, so a large
    // buffer asked at a few rows touches a few of its pages.
    let mut memo = vec![0u8; entries.len()];
    let memo = std::cell::Cell::from_mut(&mut memo[..]).as_slice_of_cells();
    let holds = |entry: u32| {
        let m = &memo[entry as usize];
        if m.get() == 0 {
            m.set(1 + verdict(text.bytes_of(entries.first(entry))) as u8);
        }
        m.get() == 2
    };
    Some(match rows {
        StrRows::Window(offset) => {
            let rows = &entries.ids()[offset..offset + col.len()];
            out.fill(validity, |i| holds(rows[i]))
        }
        StrRows::Gather { base, ids } => {
            out.fill(validity, |i| ids[i] != PAD && holds(entries.ids()[base + ids[i]]))
        }
    })
}

/// Comparison kernels: one loop per (type pair, operand shape, operator)
/// matching `Value::total_cmp` to the bit — Int/Float mixes widen to f64,
/// floats order as `f64::total_cmp` does (−0.0 below +0.0, NaNs by payload),
/// strings compare as bytes (`=` by length first): a string column against
/// a constant once per dictionary entry ([`by_entry`]), two string columns
/// row by row.
fn compare<S: Verdicts>(
    op: BinOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    validity: Option<&Bitmap>,
    out: S,
) -> Option<S::Out> {
    /// The integer that orders as `f64::total_cmp` orders `x`.
    fn total(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }
    match (l, r) {
        (Operand::Col(c), Operand::Const(Value::Str(k))) if op.is_comparison() => {
            return by_entry(c, validity, out, |row| decide(op, row, k.as_bytes()));
        }
        (Operand::Const(Value::Str(k)), Operand::Col(c)) if op.is_comparison() => {
            return by_entry(c, validity, out, |row| decide(op, k.as_bytes(), row));
        }
        _ => {}
    }
    match (l.lanes()?, r.lanes()?) {
        (Lanes::Int(a), Lanes::Int(b)) => {
            rows!((a, b) => |x, y| by_op(op, validity, out, |i| *x(i), |i| *y(i)))
        }
        (Lanes::Float(a), Lanes::Float(b)) => {
            rows!((a, b) => |x, y| by_op(op, validity, out, |i| total(*x(i)), |i| total(*y(i))))
        }
        (Lanes::Int(a), Lanes::Float(b)) => rows!((a, b) => |x, y| {
            by_op(op, validity, out, |i| total(*x(i) as f64), |i| total(*y(i)))
        }),
        (Lanes::Float(a), Lanes::Int(b)) => rows!((a, b) => |x, y| {
            by_op(op, validity, out, |i| total(*x(i)), |i| total(*y(i) as f64))
        }),
        // Rows are `&[u8]`, cut by the offsets. Slice `==` compares lengths
        // — an offsets difference — before any byte, and byte-lexicographic
        // order is `str`'s, so `Value::total_cmp` holds to the bit.
        (Lanes::Str(a), Lanes::Str(b)) => rows!((a, b) => |x, y| by_op(op, validity, out, x, y)),
        (Lanes::Date(a), Lanes::Date(b)) => {
            rows!((a, b) => |x, y| by_op(op, validity, out, |i| *x(i), |i| *y(i)))
        }
        (Lanes::Bool(a), Lanes::Bool(b)) => {
            rows!((a, b) => |x, y| by_op(op, validity, out, |i| *x(i), |i| *y(i)))
        }
        _ => None,
    }
}

/// `f` at every valid row, the type's default under a NULL. Without a bitmap
/// the loop asks nothing per row.
fn map_rows<O: Default>(
    n: usize,
    validity: Option<&Bitmap>,
    mut f: impl FnMut(usize) -> O,
) -> Vec<O> {
    match validity {
        None => (0..n).map(f).collect(),
        Some(v) => (0..n).map(|i| if v.get(i) { f(i) } else { O::default() }).collect(),
    }
}

/// [`map_rows`] into one string buffer: `f`'s text at every valid row, `""`
/// under a NULL.
fn str_rows<D: std::fmt::Display>(
    n: usize,
    validity: Option<&Bitmap>,
    f: impl Fn(usize) -> D,
) -> StrColumn {
    let mut out = StrColumn::with_capacity(n, 0);
    for i in 0..n {
        match valid(validity, i) {
            true => out.push_display(f(i)),
            false => out.push(""),
        }
    }
    out
}

/// [`map_rows`] for an `f` that can refuse a row (`x / 0`, a string that does
/// not parse): the row becomes NULL over the default. A bitmap is made only
/// if the operands had one or some row was refused.
fn try_map_rows<O: Default>(
    n: usize,
    validity: Option<Bitmap>,
    f: impl Fn(usize) -> Option<O>,
) -> (Vec<O>, Option<Bitmap>) {
    let mut refused = Vec::new();
    let data = map_rows(n, validity.as_ref(), |i| {
        f(i).unwrap_or_else(|| {
            refused.push(i);
            O::default()
        })
    });
    if refused.is_empty() {
        return (data, validity);
    }
    let mut validity = validity.unwrap_or_else(|| Bitmap::all_set(n));
    refused.into_iter().for_each(|i| validity.set(i, false));
    (data, Some(validity))
}

/// Arithmetic kernels: Int×Int stays Int (wrapping — `i64::MIN % -1` is 0 —
/// except Div which promotes to Float), Date±Int shifts days, anything else
/// numeric widens to f64. Div/Mod by zero produce NULL.
fn arith(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    use BinOp::*;
    type Out = Option<(ColumnData, Option<Bitmap>)>;
    fn ints(
        op: BinOp,
        n: usize,
        v: Option<Bitmap>,
        x: impl Fn(usize) -> i64,
        y: impl Fn(usize) -> i64,
    ) -> Out {
        let data = match op {
            Add => map_rows(n, v.as_ref(), |i| x(i).wrapping_add(y(i))),
            Sub => map_rows(n, v.as_ref(), |i| x(i).wrapping_sub(y(i))),
            Mul => map_rows(n, v.as_ref(), |i| x(i).wrapping_mul(y(i))),
            Mod => {
                let (data, v) =
                    try_map_rows(n, v, |i| (y(i) != 0).then(|| x(i).wrapping_rem(y(i))));
                return Some((ColumnData::Int(data), v));
            }
            _ => return None,
        };
        Some((ColumnData::Int(data), v))
    }
    fn floats(
        op: BinOp,
        n: usize,
        v: Option<Bitmap>,
        x: impl Fn(usize) -> f64,
        y: impl Fn(usize) -> f64,
    ) -> Out {
        let data = match op {
            Add => map_rows(n, v.as_ref(), |i| x(i) + y(i)),
            Sub => map_rows(n, v.as_ref(), |i| x(i) - y(i)),
            Mul => map_rows(n, v.as_ref(), |i| x(i) * y(i)),
            Div | Mod => {
                let (data, v) = match op {
                    Div => try_map_rows(n, v, |i| (y(i) != 0.0).then(|| x(i) / y(i))),
                    _ => try_map_rows(n, v, |i| (y(i) != 0.0).then(|| x(i) % y(i))),
                };
                return Some((ColumnData::Float(data), v));
            }
            _ => return None,
        };
        Some((ColumnData::Float(data), v))
    }
    let v = combine_validity(l, r);
    let (data, validity) = match (l.lanes()?, r.lanes()?) {
        (Lanes::Date(a), Lanes::Int(b)) => rows!((a, b) => |x, y| {
            let days = match op {
                Add => map_rows(n, v.as_ref(), |i| x(i).wrapping_add(*y(i) as i32)),
                Sub => map_rows(n, v.as_ref(), |i| x(i).wrapping_sub(*y(i) as i32)),
                _ => return None,
            };
            Some((ColumnData::Date(days), v))
        }),
        (Lanes::Int(a), Lanes::Int(b)) if op != Div => {
            rows!((a, b) => |x, y| ints(op, n, v, |i| *x(i), |i| *y(i)))
        }
        (Lanes::Int(a), Lanes::Int(b)) => {
            rows!((a, b) => |x, y| floats(op, n, v, |i| *x(i) as f64, |i| *y(i) as f64))
        }
        (Lanes::Int(a), Lanes::Float(b)) => {
            rows!((a, b) => |x, y| floats(op, n, v, |i| *x(i) as f64, |i| *y(i)))
        }
        (Lanes::Float(a), Lanes::Int(b)) => {
            rows!((a, b) => |x, y| floats(op, n, v, |i| *x(i), |i| *y(i) as f64))
        }
        (Lanes::Float(a), Lanes::Float(b)) => {
            rows!((a, b) => |x, y| floats(op, n, v, |i| *x(i), |i| *y(i)))
        }
        _ => None,
    }?;
    Some(Column::new(data, normalize(validity)))
}

/// Typed unary kernel.
pub(super) fn unary(op: UnOp, c: &Column) -> Option<Column> {
    let (n, v) = (c.len(), c.validity());
    let data = match (op, c.view()) {
        (UnOp::Not, ColumnView::Bool(s)) => ColumnData::Bool(map_rows(n, v, |i| !s[i])),
        (UnOp::Neg, ColumnView::Int(s)) => ColumnData::Int(map_rows(n, v, |i| s[i].wrapping_neg())),
        (UnOp::Neg, ColumnView::Float(s)) => ColumnData::Float(map_rows(n, v, |i| -s[i])),
        (UnOp::Not | UnOp::Neg, _) => return None,
        (UnOp::IsNull | UnOp::IsNotNull, _) => {
            let null = op == UnOp::IsNull;
            let data = match v {
                None => vec![!null; n],
                Some(v) => (0..n).map(|i| v.get(i) != null).collect(),
            };
            return Some(Column::new(ColumnData::Bool(data), None));
        }
    };
    Some(Column::new(data, normalize(v.cloned())))
}

/// Function kernel: each arm is `func_value`'s rule for one cell, over a
/// typed column — a one-argument function is NULL where its argument is —
/// and `NOW()`, `RANDOM_NEXT()` and `NEW_GUID()` fill `n` rows, the draws
/// one a row in row order. `None` for arguments `dtype` refuses.
pub(super) fn func(func: FuncKind, args: &[Column], n: usize, ctx: &mut EvalCtx) -> Option<Column> {
    use ColumnData as D;
    use ColumnView as V;
    use FuncKind::*;
    let data = match (func, args) {
        (Now, []) => D::Date(vec![ctx.now_days; n]),
        (RandomNext, []) => D::Int((0..n).map(|_| ctx.random_next()).collect()),
        (NewGuid, []) => {
            let mut guids = StrColumn::with_capacity(n, 16 * n);
            (0..n).for_each(|_| guids.push_display(guid(ctx.next_nd())));
            D::Str(guids)
        }
        (_, [c]) => {
            let (n, v) = (c.len(), c.validity());
            let data = match (func, c.view()) {
                (Lower, V::Str(s)) => D::Str(str_rows(n, v, |i| s[i].to_lowercase())),
                (Upper, V::Str(s)) => D::Str(str_rows(n, v, |i| s[i].to_uppercase())),
                (Length, V::Str(s)) => D::Int(map_rows(n, v, |i| s.len_of(i) as i64)),
                (Abs, V::Int(s)) => D::Int(map_rows(n, v, |i| s[i].wrapping_abs())),
                (Abs, V::Float(s)) => D::Float(map_rows(n, v, |i| s[i].abs())),
                (Round, V::Int(s)) => D::Int(map_rows(n, v, |i| s[i])),
                (Round, V::Float(s)) => D::Float(map_rows(n, v, |i| s[i].round())),
                (Year, V::Date(s)) => D::Int(map_rows(n, v, |i| date_parts(s[i]).0)),
                (Month, V::Date(s)) => D::Int(map_rows(n, v, |i| date_parts(s[i]).1.into())),
                (Hash64, _) => D::Int(map_rows(n, v, |i| hash64(&c.value(i)))),
                _ => return None,
            };
            return Some(Column::new(data, normalize(v.cloned())));
        }
        _ => return None,
    };
    Some(Column::new(data, None))
}

/// Typed cast kernel, total over every pair of types. Identity casts share
/// the source column, window and all (reference bump); string parses that
/// fail produce NULL, matching `cast_value`. The pairs `cast_value` refuses
/// for every value raise its error at the first valid row, and are a column
/// of NULLs when no row is valid.
pub(super) fn cast(c: &Column, to: DataType) -> Result<Column> {
    use ColumnData as D;
    if c.dtype() == to {
        return Ok(c.clone().normalize_validity());
    }
    let (n, v) = (c.len(), c.validity());
    // Fallible string parses clear validity on failure.
    fn parsed<O>(wrap: fn(Vec<O>) -> D, (data, v): (Vec<O>, Option<Bitmap>)) -> Result<Column> {
        Ok(Column::new(wrap(data), normalize(v)))
    }
    let data = match (c.view(), to) {
        (ColumnView::Int(s), DataType::Float) => D::Float(map_rows(n, v, |i| s[i] as f64)),
        (ColumnView::Int(s), DataType::Date) => D::Date(map_rows(n, v, |i| s[i] as i32)),
        (ColumnView::Int(s), DataType::Str) => D::Str(str_rows(n, v, |i| s[i])),
        (ColumnView::Int(s), DataType::Bool) => D::Bool(map_rows(n, v, |i| s[i] != 0)),
        (ColumnView::Float(s), DataType::Int) => D::Int(map_rows(n, v, |i| s[i] as i64)),
        (ColumnView::Float(s), DataType::Str) => D::Str(str_rows(n, v, |i| s[i])),
        (ColumnView::Str(s), DataType::Int) => {
            return parsed(D::Int, try_map_rows(n, v.cloned(), |i| s[i].trim().parse().ok()));
        }
        (ColumnView::Str(s), DataType::Float) => {
            return parsed(D::Float, try_map_rows(n, v.cloned(), |i| s[i].trim().parse().ok()));
        }
        (ColumnView::Str(s), DataType::Date) => {
            let parse = |i: usize| cv_data::value::parse_date(&s[i]);
            return parsed(D::Date, try_map_rows(n, v.cloned(), parse));
        }
        (ColumnView::Bool(s), DataType::Int) => D::Int(map_rows(n, v, |i| s[i] as i64)),
        (ColumnView::Bool(s), DataType::Str) => D::Str(str_rows(n, v, |i| s[i])),
        (ColumnView::Date(s), DataType::Int) => D::Int(map_rows(n, v, |i| s[i] as i64)),
        (ColumnView::Date(s), DataType::Str) => {
            D::Str(str_rows(n, v, |i| cv_data::value::format_date(s[i])))
        }
        // Float→Bool/Date, Str→Bool, Bool→Float/Date, Date→Float/Bool.
        _ => {
            if let Some(i) = (0..n).find(|&i| valid(v, i)) {
                cast_value(&c.value(i), to)?;
            }
            let data = match to {
                DataType::Bool => D::Bool(vec![false; n]),
                DataType::Int => D::Int(vec![0; n]),
                DataType::Float => D::Float(vec![0.0; n]),
                DataType::Str => D::Str(StrColumn::repeat("", n)),
                DataType::Date => D::Date(vec![0; n]),
            };
            return Ok(Column::new(data, normalize(Some(Bitmap::all_clear(n)))));
        }
    };
    Ok(Column::new(data, normalize(v.cloned())))
}

/// One THEN or ELSE of a CASE, read as the output type: its rows (a slice,
/// or a string view) or a constant.
enum Source<'a, T, Rows = &'a [T]> {
    Rows(Rows, Option<&'a Bitmap>),
    Const(T),
}

/// A cell a CASE branch can overwrite without a branch on `take`.
trait Cell: Copy + Default {
    fn set_if(&mut self, take: bool, from: &Self);
}

macro_rules! fixed_width_cell {
    ($($t:ty),*) => {$(
        impl Cell for $t {
            #[inline]
            fn set_if(&mut self, take: bool, from: &Self) {
                *self = if take { *from } else { *self };
            }
        }
    )*};
}
fixed_width_cell!(bool, i64, f64, i32);

/// Lay `source` over the rows of `out` that `take`: one pass, the source's
/// kind and validity settled before it. `valid`, kept only when some row
/// can be NULL, follows; a NULL row holds the default value.
fn overlay<T: Cell>(
    out: &mut [T],
    valid: Option<&mut Vec<bool>>,
    take: impl Fn(usize) -> bool,
    source: &Source<'_, T>,
) {
    let rows = out.iter_mut().enumerate();
    match source {
        Source::Const(k) => rows.for_each(|(i, cell)| cell.set_if(take(i), k)),
        Source::Rows(from, None) => rows.for_each(|(i, cell)| cell.set_if(take(i), &from[i])),
        Source::Rows(from, Some(v)) => {
            let null = T::default();
            rows.for_each(|(i, cell)| cell.set_if(take(i), if v.get(i) { &from[i] } else { &null }))
        }
    }
    if let Some(valid) = valid {
        match source {
            Source::Rows(_, Some(v)) => valid
                .iter_mut()
                .enumerate()
                .for_each(|(i, ok)| *ok = if take(i) { v.get(i) } else { *ok }),
            _ => valid.iter_mut().enumerate().for_each(|(i, ok)| *ok |= take(i)),
        }
    }
}

/// CASE kernel: every source is read as the output type (Int widens into
/// Float/Date outputs, exactly like `ColumnBuilder::push`; a constant
/// THEN/ELSE stays the scalar it is), the output starts as the ELSE (NULL
/// without one) and the branches are laid over it last to first, so a row
/// keeps the first WHEN that is TRUE. `None` for sources `dtype` refuses.
pub(super) fn case_select(
    when_cols: &[Column],
    thens: &[Operand<'_>],
    else_: Option<&Operand<'_>>,
    out_type: DataType,
    n: usize,
) -> Option<Column> {
    fn coerce<'e>(source: &Operand<'e>, out_type: DataType) -> Option<Operand<'e>> {
        let widens = matches!(out_type, DataType::Float | DataType::Date);
        match source {
            Operand::Col(c) if c.dtype() == out_type => Some(Operand::Col(c.clone())),
            Operand::Col(c) if c.dtype() == DataType::Int && widens => {
                cast(c, out_type).ok().map(Operand::Col)
            }
            Operand::Col(_) => None,
            Operand::Const(k) => Some(Operand::Const(k)),
        }
    }
    let mut whens = Vec::with_capacity(when_cols.len());
    for w in when_cols {
        let ColumnView::Bool(verdicts) = w.view() else { return None };
        whens.push((verdicts, w.validity()));
    }
    let sources: Option<Vec<Operand<'_>>> =
        thens.iter().chain(else_).map(|source| coerce(source, out_type)).collect();
    let sources = sources?;
    // A row can be NULL only without an ELSE or under a source's NULL.
    let nullable = else_.is_none() || sources.iter().any(|s| s.validity().is_some());
    macro_rules! branches {
        ($variant:ident, $konst:expr) => {{
            let mut typed = Vec::with_capacity(sources.len());
            for source in &sources {
                typed.push(match source {
                    Operand::Col(c) => {
                        let ColumnView::$variant(rows) = c.view() else { return None };
                        Source::Rows(rows, c.validity())
                    }
                    Operand::Const(k) => Source::Const($konst(*k)?),
                });
            }
            let mut out = vec![Default::default(); n];
            let mut valid = nullable.then(|| vec![false; n]);
            if else_.is_some() {
                overlay(&mut out, valid.as_mut(), |_| true, &typed[thens.len()]);
            }
            for ((verdicts, validity), then) in whens.iter().zip(&typed).rev() {
                match validity {
                    None => overlay(&mut out, valid.as_mut(), |i| verdicts[i], then),
                    Some(v) => overlay(&mut out, valid.as_mut(), |i| v.get(i) & verdicts[i], then),
                }
            }
            let validity = valid.map(|ok| Bitmap::from_bools(&ok));
            Column::new(ColumnData::$variant(out), normalize(validity))
        }};
    }
    Some(match out_type {
        DataType::Bool => branches!(Bool, Value::as_bool),
        DataType::Int => branches!(Int, Value::as_int),
        DataType::Float => branches!(Float, |k: &Value| match k {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }),
        DataType::Str => {
            // Each row's text is copied once, from the source that wins it:
            // the winners are settled first, as source indices.
            let mut typed = Vec::with_capacity(sources.len());
            for source in &sources {
                typed.push(match source {
                    Operand::Col(c) => {
                        let ColumnView::Str(rows) = c.view() else { return None };
                        Source::<_, StrView<'_>>::Rows(rows, c.validity())
                    }
                    Operand::Const(k) => Source::Const(k.as_str()?),
                });
            }
            let mut winner = vec![usize::MAX; n];
            if else_.is_some() {
                winner.fill(thens.len());
            }
            for (j, (verdicts, validity)) in whens.iter().enumerate().rev() {
                for (i, w) in winner.iter_mut().enumerate() {
                    if valid(*validity, i) & verdicts[i] {
                        *w = j;
                    }
                }
            }
            let mut out = StrColumn::with_capacity(n, 0);
            let mut valid_rows = nullable.then(|| vec![false; n]);
            for (i, &w) in winner.iter().enumerate() {
                let cell = match typed.get(w) {
                    None => None,
                    Some(Source::Const(k)) => Some(*k),
                    Some(Source::Rows(rows, v)) => valid(*v, i).then(|| rows.get(i)),
                };
                out.push(cell.unwrap_or(""));
                if let Some(ok) = valid_rows.as_mut() {
                    ok[i] = cell.is_some();
                }
            }
            let validity = valid_rows.map(|ok| Bitmap::from_bools(&ok));
            Column::new(ColumnData::Str(out), normalize(validity))
        }
        DataType::Date => branches!(Date, |k: &Value| match k {
            Value::Int(i) => Some(*i as i32),
            Value::Date(d) => Some(*d),
            _ => None,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::super::eval::{binary_value, eval, select, EvalCtx};
    use super::super::{col, lit, BinOp, ScalarExpr};
    use super::{broadcast, compare, Dense, Operand, Selected};
    use cv_common::{DetRng, HashMap};
    use cv_data::bitmap::Bitmap;
    use cv_data::chunk::chunk_ranges;
    use cv_data::codes::code_strs;
    use cv_data::column::{Column, ColumnData, ColumnView, PAD};
    use cv_data::schema::{Field, Schema};
    use cv_data::table::Table;
    use cv_data::value::{DataType, Value};

    /// Prefixes of one another, one byte-reversed pair, the same letter
    /// precomposed (`C3 A9`) and decomposed (`65 CC 81`), and three-byte
    /// characters.
    const ALPHABET: [&str; 10] =
        ["", "a", "ab", "ba", "asi", "asia", "asiaa", "é", "e\u{301}", "日本"];

    /// Every string comparison — six operators, each column against constant,
    /// constant against column and column against column — agrees with
    /// `binary_value` row by row in both outlets: `eval`'s `bool` column
    /// (NULL where either side is, no bitmap when no row is) and `select`'s
    /// ids, with and without `within`, over the windows a chunked scan cuts.
    #[test]
    fn string_comparisons_match_the_scalar_reference_in_both_outlets() {
        use BinOp::*;
        let mut rng = DetRng::seed(0x5e1);
        let schema =
            Schema::new(vec![Field::new("x", DataType::Str), Field::new("y", DataType::Str)])
                .unwrap()
                .into_ref();
        let cell = |rng: &mut DetRng| match rng.chance(0.15) {
            true => Value::Null,
            false => Value::from(*rng.choose(&ALPHABET)),
        };
        let rows: Vec<Vec<Value>> =
            (0..700).map(|_| vec![cell(&mut rng), cell(&mut rng)]).collect();
        let table = Table::from_rows(schema, &rows).unwrap();
        let mut shapes = vec![(col("x"), col("y"))];
        for k in ALPHABET {
            shapes.push((col("x"), lit(k)));
            shapes.push((lit(k), col("y")));
        }
        let (mut compared, mut kept) = (0, 0);
        for chunk in [1, 333, 2048, usize::MAX] {
            for (offset, len) in chunk_ranges(rows.len(), chunk) {
                let window = table.slice(offset, len);
                let within: Vec<usize> = (0..len).filter(|_| rng.chance(0.5)).collect();
                // Row `i` of the window as the reference reads it.
                let operand = |e: &ScalarExpr, i: usize| match e {
                    ScalarExpr::Column(name) => rows[offset + i][(name == "y") as usize].clone(),
                    ScalarExpr::Literal(k) => k.clone(),
                    other => panic!("not an operand here: {other}"),
                };
                for op in [Eq, NotEq, Lt, LtEq, Gt, GtEq] {
                    for (l, r) in &shapes {
                        let e = ScalarExpr::binary(op, l.clone(), r.clone());
                        let want: Vec<Value> = (0..len)
                            .map(|i| binary_value(op, &operand(l, i), &operand(r, i)).unwrap())
                            .collect();
                        let dense = eval(&e, &window, &mut EvalCtx::new(0)).unwrap();
                        assert_eq!(dense.dtype(), DataType::Bool, "{e}");
                        let got: Vec<Value> = (0..len).map(|i| dense.value(i)).collect();
                        assert_eq!(got, want, "{e} over rows {offset}..+{len}");
                        let nulls = want.iter().any(Value::is_null);
                        assert_eq!(dense.validity().is_some(), nulls, "{e}: bitmap iff a NULL");
                        let keep = |i: &usize| want[*i] == Value::Bool(true);
                        let all: Vec<usize> = (0..len).filter(keep).collect();
                        let some: Vec<usize> = within.iter().copied().filter(keep).collect();
                        let by = |within| select(&e, &window, within, &mut EvalCtx::new(0));
                        assert_eq!(by(None).unwrap(), all, "{e} selected");
                        assert_eq!(by(Some(&within)).unwrap(), some, "{e} selected within");
                        (compared, kept) = (compared + len, kept + all.len());
                    }
                }
            }
        }
        assert!(kept > compared / 4 && kept < compared * 3 / 4, "{kept} of {compared} kept");
    }

    /// A string column built cell by cell and the plain strings it stands
    /// for: the buffer text of every row (placeholders under NULL included)
    /// and its validity.
    struct Shape {
        col: Column,
        text: Vec<String>,
        valid: Vec<bool>,
        what: String,
    }

    /// Row text that exercises the dictionary's hash and compare: prefixes
    /// of one another, rows equal in their first eight bytes, a tail that
    /// ends in a zero byte, `"e"` beside `"é"` and its decomposed form.
    const ROWS: [&str; 13] = [
        "",
        "a",
        "ab",
        "ab\0",
        "ba",
        "asia",
        "e",
        "é",
        "e\u{301}",
        "日本",
        "asia-pacific",
        "asia-pacifiX",
        "asia-pacific-and-oceania",
    ];

    /// A random string column and a random chain of windows, gathers
    /// (padded, of an unread gather, of a read one) and compactions over it.
    fn random_shape(rng: &mut DetRng) -> Shape {
        let rows = *rng.choose(&[0, 1, 7, 64, 700, 2100]);
        let null_rate = *rng.choose(&[0.0, 0.2, 0.9]);
        let valid: Vec<bool> = (0..rows).map(|_| !rng.chance(null_rate)).collect();
        // A NULL slot holds anything: the builder's "" or another row's text.
        let text: Vec<String> = (0..rows).map(|_| rng.choose(&ROWS).to_string()).collect();
        let bitmap = valid.contains(&false).then(|| Bitmap::from_bools(&valid));
        let col = Column::new(ColumnData::Str(text.iter().collect()), bitmap);
        let mut shape = Shape { col, text, valid, what: format!("{rows} rows") };
        for _ in 0..rng.range_usize(0, 4) {
            let rows = shape.text.len();
            let Shape { col, text, valid, what } = shape;
            shape = match rng.range_usize(0, 4) {
                0 => {
                    let offset = rng.range_usize(0, rows + 1);
                    let len = rng.range_usize(0, rows - offset + 1);
                    let w = offset..offset + len;
                    let (text, valid) = (text[w.clone()].to_vec(), valid[w].to_vec());
                    Shape { col: col.slice(offset, len), text, valid, what: what + " → window" }
                }
                1 | 2 => {
                    let padded = rng.chance(0.5);
                    let n = if rows == 0 && !padded { 0 } else { rng.range_usize(0, 2 * rows + 2) };
                    let ids: Vec<usize> = (0..n)
                        .map(|_| match rows == 0 || (padded && rng.chance(0.2)) {
                            true => PAD,
                            false => rng.range_usize(0, rows),
                        })
                        .collect();
                    let read = rng.chance(0.3);
                    if read {
                        col.view();
                    }
                    let pick = |&i: &usize| match i {
                        PAD => (String::new(), false),
                        i => (text[i].clone(), valid[i]),
                    };
                    let (text, valid) = ids.iter().map(pick).unzip();
                    let col = if padded { col.take_padded(&ids) } else { col.take(&ids) };
                    let what = format!("{what} → {}gather", if read { "read, " } else { "" });
                    Shape { col, text, valid, what: what + if padded { " (padded)" } else { "" } }
                }
                _ => Shape { col: col.compact(), text, valid, what: what + " → compact" },
            };
        }
        shape
    }

    /// Row order, a per-row hash map: the coder as it was before it read
    /// buffer dictionaries, kept as the reference for [`code_strs`].
    fn per_row_coder(chunks: &[&Column]) -> (Vec<u32>, usize, Vec<String>) {
        let (mut codes, mut seen, mut strs) = (Vec::new(), HashMap::default(), Vec::new());
        for col in chunks {
            let ColumnView::Str(cells) = col.view() else { panic!("not a string column") };
            let cells = cells.iter().enumerate();
            codes.extend(cells.map(|(i, s)| match col.is_null(i) {
                true => 0,
                false => *seen.entry(s.to_string()).or_insert_with(|| {
                    strs.push(s.to_string());
                    strs.len() as u32
                }),
            }));
        }
        (codes, strs.len() + 1, strs)
    }

    /// Through a buffer's dictionary a string column against a constant is
    /// the bytes kernel's comparison of the same rows against a broadcast of
    /// the constant — every operator, both operand orders, both outlets —
    /// and the key coder is the per-row coder to the code, windows of one
    /// buffer and unread gathers of it mixed in one call. Neither gathers.
    #[test]
    fn dictionary_paths_equal_the_byte_paths() {
        use BinOp::*;
        let mut rng = DetRng::seed(0xd1c7);
        let (mut compared, mut kept) = (0, 0);
        for round in 0..64 {
            let shape = random_shape(&mut rng);
            let (c, n) = (&shape.col, shape.text.len());
            let what = format!("round {round}: {}", shape.what);
            let unread = !c.is_forced();
            // The bytes kernel's operand: the same rows, built afresh.
            let bitmap = shape.valid.contains(&false).then(|| Bitmap::from_bools(&shape.valid));
            let rows =
                Operand::Col(Column::new(ColumnData::Str(shape.text.iter().collect()), bitmap));
            let within: Vec<usize> = (0..n).filter(|_| rng.chance(0.4)).collect();
            let absent = Value::from("asia-pacific-absent");
            let mut constants = vec![absent];
            constants.extend((0..3).map(|_| Value::from(*rng.choose(&ROWS))));
            for k in &constants {
                let broadcast = Operand::Col(broadcast(k, n).unwrap());
                for op in [Eq, NotEq, Lt, LtEq, Gt, GtEq] {
                    let sides = [
                        ((Operand::Col(c.clone()), Operand::Const(k)), (&rows, &broadcast)),
                        ((Operand::Const(k), Operand::Col(c.clone())), (&broadcast, &rows)),
                    ];
                    for (side, ((l, r), (bl, br))) in sides.into_iter().enumerate() {
                        let what = format!("{what}: {op:?} {k}, constant on side {side}");
                        let v = c.validity();
                        let dense = compare(op, &l, &r, v, Dense(n));
                        assert_eq!(dense, compare(op, bl, br, v, Dense(n)), "{what}");
                        for w in [None, Some(&within[..])] {
                            let got = compare(op, &l, &r, v, Selected { n, within: w });
                            let want = compare(op, bl, br, v, Selected { n, within: w });
                            assert_eq!(got, want, "{what}, within {}", w.is_some());
                        }
                        let dense = dense.unwrap();
                        compared += n;
                        kept += dense.iter().filter(|&&x| x).count();
                    }
                }
            }
            assert_eq!(c.is_forced(), !unread, "{what}: a comparison gathered the column");

            // The coder over the shape cut in windows, with an unread gather
            // of its buffer and a buffer of other strings between them.
            let other: Column = Column::new(ColumnData::Str(ROWS.iter().rev().collect()), None);
            let gathered = shape.col.take(&(0..n).rev().step_by(3).collect::<Vec<_>>());
            let half = n / 2;
            let (front, back) = (c.slice(0, half), c.slice(half, n - half));
            let chunks = [&back, &other, &gathered, &front, &gathered.slice(0, gathered.len() / 2)];
            let rows: usize = chunks.iter().map(|c| c.len()).sum();
            let (codes, strs) = code_strs(&chunks, rows);
            assert!(!gathered.is_forced(), "{what}: the coder gathered its input");
            let (want, cardinality, want_strs) = per_row_coder(&chunks);
            assert_eq!(codes.codes, want, "{what}: codes");
            assert_eq!(codes.cardinality, cardinality, "{what}: cardinality");
            assert_eq!(strs, want_strs, "{what}: strings in code order");
        }
        assert!(kept > compared / 5 && kept < compared * 4 / 5, "{kept} of {compared} kept");
    }
}
