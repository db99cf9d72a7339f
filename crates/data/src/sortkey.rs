//! Ordering rows by key columns — the one place rows get sorted.
//!
//! [`order_rows`] returns the row ids of a set of key columns in key order,
//! ties in row order (exactly what a stable sort on `Value::total_cmp` per
//! key gives); `Table::sort_by` gathers through it. NULL ranks below every
//! value, so NULL rows come first ascending and last descending.
//!
//! A single `Bool`/`Int`/`Float`/`Date` key is not compared at all. Each
//! non-NULL row becomes one `(key, row)` pair whose `u64` key orders like
//! the value — integers by flipping the sign bit, floats by the
//! `f64::total_cmp` bit transform, descending by complementing the key —
//! and the pairs are sorted as plain integers. The row id is the low-order
//! part of the pair, so equal keys stay in row order without a stable sort.
//! NULL rows are listed apart, never encoded.
//!
//! Strings and multi-column keys keep a comparator, built once per sort
//! over each column's typed slice (type and validity presence are resolved
//! when the comparator is made, not per comparison).

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnView};
use std::cmp::Ordering;

/// The non-NULL rows of a fixed-width key column as sorted `(key, row)`
/// pairs, and its NULL rows.
struct SortedKeys {
    /// Ascending by key word, then by row. With `ascending = false` the
    /// key words are complemented, so ascending words are descending
    /// values; rows under one value still ascend.
    pairs: Vec<(u64, u32)>,
    /// NULL rows, ascending.
    nulls: Vec<u32>,
}

#[inline]
fn int_key(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

/// `f64::total_cmp` as an integer order: negative floats reverse.
#[inline]
fn float_key(x: f64) -> u64 {
    let bits = x.to_bits() as i64;
    int_key(bits ^ (((bits >> 63) as u64) >> 1) as i64)
}

/// Sort-once keys of a `Bool`, `Int`, `Float` or `Date` column; `None` for
/// strings, which have no fixed-width order-preserving image.
fn sorted_keys(col: &Column, ascending: bool) -> Option<SortedKeys> {
    assert!(col.len() <= u32::MAX as usize, "row ids are 32-bit");
    let flip = if ascending { 0 } else { u64::MAX };
    let mut nulls = Vec::new();
    let mut pairs = Vec::new();
    macro_rules! encode {
        ($v:ident, $key:expr) => {{
            pairs.reserve($v.len() - col.null_count());
            match col.validity() {
                None => {
                    pairs.extend($v.iter().enumerate().map(|(i, x)| ($key(*x) ^ flip, i as u32)))
                }
                Some(valid) => {
                    for (i, x) in $v.iter().enumerate() {
                        if valid.get(i) {
                            pairs.push(($key(*x) ^ flip, i as u32));
                        } else {
                            nulls.push(i as u32);
                        }
                    }
                }
            }
        }};
    }
    match col.view() {
        ColumnView::Str(_) => return None,
        ColumnView::Bool(v) => encode!(v, |x: bool| x as u64),
        ColumnView::Int(v) => encode!(v, int_key),
        ColumnView::Float(v) => encode!(v, float_key),
        ColumnView::Date(v) => encode!(v, |x: i32| int_key(x as i64)),
    }
    sort_pairs(&mut pairs);
    Some(SortedKeys { pairs, nulls })
}

/// Below this many pairs the comparison sort's lower fixed cost wins.
const RADIX_MIN_ROWS: usize = 1 << 12;
/// Each radix pass scatters every pair once (about 15 ms per million);
/// `sort_unstable` takes about 50 ms for a million pairs whatever the keys,
/// and falls behind only up to three passes at that size.
const RADIX_MAX_PASSES: usize = 3;

/// Sort `(key, row)` pairs whose rows ascend on entry: a byte-wise LSD radix
/// over as many low bytes as the key *range* occupies (a foreign key into a
/// 16k-row dimension has two), or `sort_unstable` on the pair when the range
/// is wide (random floats) or the input is small. Both give ascending
/// `(key, row)`: the radix is stable and rows start in order; the
/// comparison sort breaks key ties on the row.
fn sort_pairs(pairs: &mut Vec<(u64, u32)>) {
    let n = pairs.len();
    let (min, max) = pairs.iter().fold((u64::MAX, 0), |(lo, hi), &(k, _)| (lo.min(k), hi.max(k)));
    let passes = (64 - (max.saturating_sub(min)).leading_zeros()).div_ceil(8) as usize;
    if n < RADIX_MIN_ROWS || passes > RADIX_MAX_PASSES {
        pairs.sort_unstable();
        return;
    }
    let digit = |k: u64, pass: usize| ((k - min) >> (8 * pass)) as usize & 0xff;
    let mut counts = vec![[0usize; 256]; passes];
    for &(k, _) in pairs.iter() {
        for (pass, hist) in counts.iter_mut().enumerate() {
            hist[digit(k, pass)] += 1;
        }
    }
    let mut scratch = vec![(0u64, 0u32); n];
    for (pass, hist) in counts.iter_mut().enumerate() {
        let mut at = 0;
        for slot in hist.iter_mut() {
            let c = *slot;
            *slot = at;
            at += c;
        }
        for &pair in pairs.iter() {
            let slot = &mut hist[digit(pair.0, pass)];
            scratch[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(pairs, &mut scratch);
    }
}

type RowCmp<'a> = Box<dyn Fn(usize, usize) -> Ordering + 'a>;

/// One column's row comparator: its typed slice, whether it has a validity
/// bitmap at all, and its direction are fixed here, once.
fn column_cmp(col: &Column, ascending: bool) -> RowCmp<'_> {
    fn build<'a, T: ?Sized + 'a>(
        at: impl Fn(usize) -> &'a T + 'a,
        cmp: impl Fn(&T, &T) -> Ordering + 'a,
        validity: Option<&'a Bitmap>,
        ascending: bool,
    ) -> RowCmp<'a> {
        let dir = move |o: Ordering| if ascending { o } else { o.reverse() };
        match validity {
            None => Box::new(move |a, b| dir(cmp(at(a), at(b)))),
            Some(valid) => Box::new(move |a, b| {
                dir(match (valid.get(a), valid.get(b)) {
                    (true, true) => cmp(at(a), at(b)),
                    (va, vb) => va.cmp(&vb),
                })
            }),
        }
    }
    let validity = col.validity();
    match col.view() {
        ColumnView::Bool(v) => build(move |i| &v[i], bool::cmp, validity, ascending),
        ColumnView::Int(v) => build(move |i| &v[i], i64::cmp, validity, ascending),
        ColumnView::Float(v) => build(move |i| &v[i], f64::total_cmp, validity, ascending),
        ColumnView::Str(v) => build(move |i| v[i].as_str(), str::cmp, validity, ascending),
        ColumnView::Date(v) => build(move |i| &v[i], i32::cmp, validity, ascending),
    }
}

/// Row ids `0..rows` ordered by `keys` (column, ascending?) in priority
/// order; rows that tie on every key stay in row order.
pub fn order_rows(keys: &[(&Column, bool)], rows: usize) -> Vec<usize> {
    debug_assert!(keys.iter().all(|(c, _)| c.len() == rows));
    if let [(col, ascending)] = keys {
        if let Some(SortedKeys { pairs, nulls }) = sorted_keys(col, *ascending) {
            let values = pairs.iter().map(|&(_, row)| row as usize);
            let nulls = nulls.iter().map(|&row| row as usize);
            return if *ascending {
                nulls.chain(values).collect()
            } else {
                values.chain(nulls).collect()
            };
        }
    }
    let cmps: Vec<RowCmp<'_>> = keys.iter().map(|&(c, asc)| column_cmp(c, asc)).collect();
    let mut order: Vec<usize> = (0..rows).collect();
    order.sort_by(|&a, &b| {
        cmps.iter().map(|cmp| cmp(a, b)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};
    use cv_common::rng::DetRng;

    #[test]
    fn key_words_order_like_the_values() {
        let ints = [i64::MIN, -2, -1, 0, 1, 2, i64::MAX];
        assert!(ints.windows(2).all(|w| int_key(w[0]) < int_key(w[1])));
        let mut floats = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::MIN_POSITIVE,
            -f64::MAX,
        ];
        floats.sort_by(f64::total_cmp);
        assert!(floats.windows(2).all(|w| float_key(w[0]) < float_key(w[1])));
    }

    /// Radix, comparison sort and the comparator path are one order.
    #[test]
    fn every_sort_path_is_the_stable_order() {
        let mut rng = DetRng::seed(0x5a);
        for (rows, spread) in [(0, 1), (1, 1), (5000, 3), (5000, 300), (6000, i64::MAX / 4)] {
            let values: Vec<Value> = (0..rows)
                .map(|_| {
                    if rng.chance(0.1) {
                        Value::Null
                    } else {
                        Value::Int(rng.range_i64(-spread, spread))
                    }
                })
                .collect();
            let col = Column::from_values(DataType::Int, &values).unwrap();
            for ascending in [true, false] {
                let mut want: Vec<usize> = (0..rows).collect();
                want.sort_by(|&a, &b| {
                    let o = values[a].total_cmp(&values[b]);
                    if ascending {
                        o
                    } else {
                        o.reverse()
                    }
                });
                assert_eq!(order_rows(&[(&col, ascending)], rows), want, "{rows} rows ±{spread}");
                // The same key twice forces the comparator path.
                assert_eq!(order_rows(&[(&col, ascending), (&col, ascending)], rows), want);
            }
        }
    }
}
