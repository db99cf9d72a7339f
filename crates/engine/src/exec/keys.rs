//! Hash-join keys, and the typed cell comparison.
//!
//! [`KeyCols`] wraps the resolved key columns of one join side and hashes
//! them *per column* into a `Vec<u64>` for the whole batch — no per-row
//! `Vec<Value>` key materialization on the hot path. Hash-bucket collisions
//! are resolved with typed column-vs-column equality that matches the
//! [`Value`](cv_data::value::Value) reference semantics exactly: `sql_eq`
//! (NULL matches nothing). Int values hash through their canonical `f64` bit
//! pattern so `Int(1)` and `Float(1.0)` — equal under `total_cmp` — always
//! land in the same bucket; equality then decides. NaNs collapse to one
//! bucket and ±0.0 to another, mirroring `StableHasher::write_f64`.
//!
//! The aggregate and the merge join do not hash rows: they code keys to
//! dense integers with [`cv_data::codes`], as the sort does.

use cv_common::hash::mix64;
use cv_data::codes::str_hash;
use cv_data::column::{Column, ColumnView};
use cv_data::table::Table;
use cv_data::value::DataType;
use std::cmp::Ordering;

const SEED: u64 = 0x517c_c1b7_2722_0a95;
const BOOL_TAG: u64 = 0x1b87_3b4e_0dd2_91a1;
const NUM_TAG: u64 = 0x2cf1_8e0a_9b73_55c3;
const DATE_TAG: u64 = 0x4d26_71b9_e80f_3d07;

/// Hash a float by canonical bit pattern: every NaN is one key, ±0.0 is one
/// key (numeric equality), everything else by exact bits.
#[inline]
fn f64_key_hash(f: f64) -> u64 {
    let bits = if f.is_nan() {
        f64::NAN.to_bits() | 1
    } else if f == 0.0 {
        0
    } else {
        f.to_bits()
    };
    mix64(bits ^ NUM_TAG)
}

/// Type rank matching `Value::total_cmp` (Int and Float share a rank and
/// compare numerically).
fn rank(t: DataType) -> u8 {
    match t {
        DataType::Bool => 1,
        DataType::Int | DataType::Float => 2,
        DataType::Str => 3,
        DataType::Date => 4,
    }
}

/// Typed cell comparison matching `Value::total_cmp` (NULL ranks below
/// everything, NULLs compare equal).
pub(super) fn cmp_cells(a: &Column, i: usize, b: &Column, j: usize) -> Ordering {
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => {}
    }
    match (a.view(), b.view()) {
        (ColumnView::Bool(x), ColumnView::Bool(y)) => x[i].cmp(&y[j]),
        (ColumnView::Int(x), ColumnView::Int(y)) => x[i].cmp(&y[j]),
        (ColumnView::Float(x), ColumnView::Float(y)) => x[i].total_cmp(&y[j]),
        (ColumnView::Int(x), ColumnView::Float(y)) => (x[i] as f64).total_cmp(&y[j]),
        (ColumnView::Float(x), ColumnView::Int(y)) => x[i].total_cmp(&(y[j] as f64)),
        (ColumnView::Str(x), ColumnView::Str(y)) => x[i].cmp(&y[j]),
        (ColumnView::Date(x), ColumnView::Date(y)) => x[i].cmp(&y[j]),
        _ => rank(a.dtype()).cmp(&rank(b.dtype())),
    }
}

/// Typed cell equality for two valid cells (callers check NULLs per their
/// own semantics). Equivalent to `total_cmp == Equal`.
#[inline]
fn cells_eq(a: ColumnView<'_>, i: usize, b: ColumnView<'_>, j: usize) -> bool {
    match (a, b) {
        (ColumnView::Bool(x), ColumnView::Bool(y)) => x[i] == y[j],
        (ColumnView::Int(x), ColumnView::Int(y)) => x[i] == y[j],
        (ColumnView::Float(x), ColumnView::Float(y)) => x[i].total_cmp(&y[j]).is_eq(),
        (ColumnView::Int(x), ColumnView::Float(y)) => (x[i] as f64).total_cmp(&y[j]).is_eq(),
        (ColumnView::Float(x), ColumnView::Int(y)) => x[i].total_cmp(&(y[j] as f64)).is_eq(),
        (ColumnView::Str(x), ColumnView::Str(y)) => x[i] == y[j],
        (ColumnView::Date(x), ColumnView::Date(y)) => x[i] == y[j],
        _ => false,
    }
}

/// A column with its typed rows resolved once, for row-at-a-time loops.
type Viewed<'a> = (&'a Column, ColumnView<'a>);

/// The key columns of one join side, hashed column-wise.
pub(super) struct KeyCols<'a> {
    cols: Vec<Viewed<'a>>,
    n: usize,
}

impl<'a> KeyCols<'a> {
    pub fn new(cols: Vec<&'a Column>, n: usize) -> KeyCols<'a> {
        debug_assert!(cols.iter().all(|c| c.len() == n));
        KeyCols { cols: cols.into_iter().map(|c| (c, c.view())).collect(), n }
    }

    pub fn from_table(t: &'a Table, idx: &[usize]) -> KeyCols<'a> {
        KeyCols::new(idx.iter().map(|&i| t.column(i)).collect(), t.num_rows())
    }

    /// The typed rows of a one-column key; `None` for a composite key.
    pub fn single(&self) -> Option<ColumnView<'a>> {
        match &self.cols[..] {
            [(_, view)] => Some(*view),
            _ => None,
        }
    }

    /// Combine one column into the running per-row hashes; a NULL cell
    /// leaves the hash alone and clears the row's valid flag.
    fn fold_column((c, view): Viewed<'_>, hashes: &mut [u64], valid: &mut [bool]) {
        macro_rules! fold {
            ($v:ident, $hash_one:expr) => {
                match c.validity() {
                    None => {
                        for (i, h) in hashes.iter_mut().enumerate() {
                            *h = mix64(*h ^ $hash_one(&$v[i]));
                        }
                    }
                    Some(val) => {
                        for (i, h) in hashes.iter_mut().enumerate() {
                            if val.get(i) {
                                *h = mix64(*h ^ $hash_one(&$v[i]));
                            } else {
                                valid[i] = false;
                            }
                        }
                    }
                }
            };
        }
        match view {
            ColumnView::Bool(v) => fold!(v, |x: &bool| mix64(*x as u64 ^ BOOL_TAG)),
            ColumnView::Int(v) => fold!(v, |x: &i64| f64_key_hash(*x as f64)),
            ColumnView::Float(v) => fold!(v, |x: &f64| f64_key_hash(*x)),
            ColumnView::Str(v) => fold!(v, |x: &String| str_hash(x)),
            ColumnView::Date(v) => fold!(v, |x: &i32| mix64(*x as i64 as u64 ^ DATE_TAG)),
        }
    }

    /// Per-row join-key hashes plus a valid flag (`false` if any key
    /// component is NULL — SQL: null keys never join).
    pub fn join_hashes(&self) -> (Vec<u64>, Vec<bool>) {
        let mut hashes = vec![SEED; self.n];
        let mut valid = vec![true; self.n];
        for &c in &self.cols {
            Self::fold_column(c, &mut hashes, &mut valid);
        }
        (hashes, valid)
    }

    /// Join-key equality (`sql_eq` semantics). Callers only invoke this on
    /// rows whose valid flag is set, so NULLs never reach it; the null
    /// checks are defensive.
    pub fn rows_eq_sql(&self, i: usize, other: &KeyCols<'_>, j: usize) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|((a, av), (b, bv))| !a.is_null(i) && !b.is_null(j) && cells_eq(*av, i, *bv, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_data::value::Value;

    fn col(dtype: DataType, vals: &[Value]) -> Column {
        Column::from_values(dtype, vals).unwrap()
    }

    /// One-column join-key hashes.
    fn value_hashes(c: &Column) -> Vec<u64> {
        KeyCols::new(vec![c], c.len()).join_hashes().0
    }

    #[test]
    fn int_and_float_hash_equal_but_str_differs() {
        // Int(1) and Float(1.0) are equal under total_cmp and must share a
        // bucket; the string "1" must not collide with either.
        let ints = value_hashes(&col(DataType::Int, &[Value::Int(1)]));
        let floats = value_hashes(&col(DataType::Float, &[Value::Float(1.0)]));
        let strs = value_hashes(&col(DataType::Str, &[Value::Str("1".into())]));
        assert_eq!(ints, floats);
        assert_ne!(ints, strs);
    }

    #[test]
    fn zero_signs_and_nans_collapse() {
        let f = value_hashes(&col(DataType::Float, &[Value::Float(0.0), Value::Float(-0.0)]));
        assert_eq!(f[0], f[1]);
        let nans =
            value_hashes(&col(DataType::Float, &[Value::Float(f64::NAN), Value::Float(-f64::NAN)]));
        assert_eq!(nans[0], nans[1]);
    }

    #[test]
    fn join_hashes_invalidate_null_keys() {
        let a = col(DataType::Int, &[Value::Int(1), Value::Null, Value::Int(1)]);
        let kc = KeyCols::new(vec![&a], 3);
        let (hashes, valid) = kc.join_hashes();
        assert_eq!(valid, vec![true, false, true]);
        assert_eq!(hashes[0], hashes[2]);
        assert!(!kc.rows_eq_sql(0, &kc, 1), "NULL joins nothing");
        assert!(kc.rows_eq_sql(0, &kc, 2));
    }

    #[test]
    fn multi_key_hash_is_order_sensitive() {
        let a = col(DataType::Int, &[Value::Int(1)]);
        let b = col(DataType::Int, &[Value::Int(2)]);
        let ab = KeyCols::new(vec![&a, &b], 1);
        let ba = KeyCols::new(vec![&b, &a], 1);
        assert_ne!(ab.join_hashes().0[0], ba.join_hashes().0[0]);
    }

    #[test]
    fn cmp_cells_matches_value_total_cmp() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(3),
            Value::Float(3.5),
            Value::Str("s".into()),
            Value::Date(9),
        ];
        // Compare every pair across two single-type columns via a shared
        // mixed ordering check (cross-dtype ranks line up with total_cmp).
        for x in &vals {
            for y in &vals {
                let cx = Column::from_values(
                    x.dtype().unwrap_or(DataType::Int),
                    std::slice::from_ref(x),
                )
                .unwrap();
                let cy = Column::from_values(
                    y.dtype().unwrap_or(DataType::Int),
                    std::slice::from_ref(y),
                )
                .unwrap();
                assert_eq!(cmp_cells(&cx, 0, &cy, 0), x.total_cmp(y), "{x} vs {y}");
            }
        }
    }
}
