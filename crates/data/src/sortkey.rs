//! Ordering rows by key columns — the one place rows get sorted.
//!
//! [`order_rows`] returns the first `limit` row ids of a set of key columns
//! in key order, ties in row order: exactly a stable sort on
//! `Value::total_cmp` per key, cut at `limit`. A full sort is a `limit` of at
//! least the row count. `Table::sort_by` gathers through it. NULL ranks below
//! every value, so NULL rows come first ascending and last descending.
//!
//! No two rows are compared. Every key is an order-preserving integer per
//! row:
//!
//! * a `Bool`/`Int`/`Float`/`Date` cell is a `u64` word that orders like the
//!   value — integers by flipping the sign bit, floats by the
//!   `f64::total_cmp` bit transform — read through the row ids of a gather
//!   nobody has read, so ordering by a column does not gather it;
//! * a string is its rank among the column's distinct strings: the column is
//!   coded once by the key coder (`codes::code_strs`, through its buffer's
//!   dictionary, so a gather nobody has read stays unread), and only the
//!   distinct strings are sorted.
//!
//! Descending complements the word. Each key is then narrowed to its range
//! (`word - min`, a *field* as wide as the range), and a key with NULLs gets
//! a one-bit field above it that puts NULL first ascending and last
//! descending. The fields, least significant first, are packed into as few
//! 64-bit words per row as hold them, and the words are sorted least
//! significant first, each pass stable over the order so far (LSD). A pass
//! sorts `(word, position)` pairs as plain integers: positions ascend on
//! entry, so equal words keep their order without a stable sort.
//!
//! **Top-N.** The last pass keeps only what `limit` asks for: a pair enters a
//! buffer only below the `limit`-th smallest pair seen so far, the buffer is
//! cut back to `limit` by selection whenever it fills, and only the
//! survivors are sorted.

use crate::codes::code_strs;
use crate::column::{Column, ColumnView};
use cv_common::{CvError, Result};

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

/// Every row's order word for `col`, complemented by `flip`; a NULL row's
/// word is unspecified.
fn row_words(col: &Column, flip: u64) -> Vec<u64> {
    fn each<T: Copy>(v: &[T], ids: Option<&[usize]>, word: impl Fn(T) -> u64) -> Vec<u64> {
        match ids {
            None => v.iter().map(|&x| word(x)).collect(),
            // A pad id is out of range: a NULL row.
            Some(ids) => ids.iter().map(|&i| v.get(i).map_or(0, |&x| word(x))).collect(),
        }
    }
    let (view, ids) = match col.unread_gather() {
        Some((source, ids)) => (source, Some(ids)),
        None => (col.view(), None),
    };
    match view {
        ColumnView::Bool(v) => each(v, ids, |b| b as u64 ^ flip),
        ColumnView::Int(v) => each(v, ids, |x| int_key(x) ^ flip),
        ColumnView::Float(v) => each(v, ids, |x| float_key(x) ^ flip),
        ColumnView::Date(v) => each(v, ids, |d| int_key(d as i64) ^ flip),
        ColumnView::Str(_) => {
            let (codes, strs) = code_strs(&[col], col.len());
            let mut by_value: Vec<u32> = (0..strs.len() as u32).collect();
            by_value.sort_unstable_by_key(|&id| strs[id as usize]);
            // The word of code `c` (code 0 is NULL).
            let mut rank = vec![0; strs.len() + 1];
            for (r, &id) in by_value.iter().enumerate() {
                rank[id as usize + 1] = r as u64 ^ flip;
            }
            codes.codes.iter().map(|&c| rank[c as usize]).collect()
        }
    }
}

/// Put a `width`-bit field of every row above the fields packed so far, in
/// a new word when the last one cannot hold it.
fn pack(words: &mut Vec<Vec<u64>>, used: &mut u32, field: Vec<u64>, width: u32) {
    match words.last_mut() {
        _ if width == 0 => {}
        Some(word) if *used + width <= 64 => {
            word.iter_mut().zip(field).for_each(|(w, f)| *w |= f << *used);
            *used += width;
        }
        _ => {
            words.push(field);
            *used = width;
        }
    }
}

/// Below this many pairs the comparison sort's lower fixed cost wins.
const RADIX_MIN_ROWS: usize = 1 << 12;
/// Each radix pass scatters every pair once (about 15 ms per million);
/// `sort_unstable` takes about 50 ms for a million pairs whatever the keys,
/// and falls behind only up to three passes at that size.
const RADIX_MAX_PASSES: usize = 3;

/// Sort `(word, position)` pairs whose positions ascend on entry: a
/// byte-wise LSD radix over as many low bytes as the word *range* occupies
/// (a foreign key into a 16k-row dimension has two), or `sort_unstable` on
/// the pair when the range is wide (random floats) or the input is small.
/// Both give ascending pairs: the radix is stable and positions start in
/// order; the comparison sort breaks word ties on the position.
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

/// The `limit` smallest of `pairs`, ascending. Positions ascend as the pairs
/// arrive, so a pair that is not below the `limit`-th smallest seen so far
/// never will be: only those below it are kept, and the buffer is cut back
/// to `limit` whenever it doubles.
fn smallest(pairs: impl ExactSizeIterator<Item = (u64, u32)>, limit: usize) -> Vec<(u64, u32)> {
    if limit >= pairs.len() {
        let mut all: Vec<_> = pairs.collect();
        sort_pairs(&mut all);
        return all;
    }
    if limit == 0 {
        return Vec::new();
    }
    // Keep the `limit` smallest; the largest of them is the new bound.
    let cut = |kept: &mut Vec<(u64, u32)>| {
        let (_, &mut bound, _) = kept.select_nth_unstable(limit - 1);
        kept.truncate(limit);
        bound
    };
    let mut kept = Vec::with_capacity((2 * limit).min(pairs.len()));
    // Above every pair: positions are below `u32::MAX`.
    let mut bound = (u64::MAX, u32::MAX);
    for pair in pairs {
        if pair < bound {
            kept.push(pair);
            if kept.len() == 2 * limit {
                bound = cut(&mut kept);
            }
        }
    }
    if kept.len() > limit {
        cut(&mut kept);
    }
    kept.sort_unstable();
    kept
}

/// The first `limit` row ids of `0..rows` ordered by `keys` (column,
/// ascending?) in priority order, rows that tie on every key in row order.
pub fn order_rows(keys: &[(&Column, bool)], rows: usize, limit: usize) -> Result<Vec<usize>> {
    if rows > u32::MAX as usize {
        return Err(CvError::exec(format!("sort of {rows} rows: row ids are 32-bit")));
    }
    debug_assert!(keys.iter().all(|(c, _)| c.len() == rows));
    // Packed words, least significant first, and the bits used of the last.
    let (mut words, mut used) = (Vec::new(), 0);
    for &(col, ascending) in keys.iter().rev() {
        let mut w = row_words(col, if ascending { 0 } else { u64::MAX });
        let valid = col.validity().filter(|_| col.null_count() > 0);
        let is_valid = |i: usize| valid.is_none_or(|v| v.get(i));
        let (lo, hi) = (0..rows)
            .filter(|&i| is_valid(i))
            .fold((u64::MAX, 0), |(lo, hi), i| (lo.min(w[i]), hi.max(w[i])));
        if lo > hi {
            // Every row NULL: every row ties.
            continue;
        }
        w.iter_mut().enumerate().for_each(|(i, x)| *x = if is_valid(i) { *x - lo } else { 0 });
        pack(&mut words, &mut used, w, 64 - (hi - lo).leading_zeros());
        if let Some(v) = valid {
            // Above the value: 0 sorts first, so NULL is 0 ascending.
            let null_bit = (0..rows).map(|i| (v.get(i) == ascending) as u64).collect();
            pack(&mut words, &mut used, null_bit, 1);
        }
    }
    let mut order: Vec<u32> = (0..rows as u32).collect();
    for (pass, word) in words.iter().enumerate() {
        let keep = if pass + 1 == words.len() { limit } else { rows };
        let pairs = order.iter().enumerate().map(|(at, &row)| (word[row as usize], at as u32));
        let kept = smallest(pairs, keep);
        order = kept.iter().map(|&(_, at)| order[at as usize]).collect();
    }
    order.truncate(limit);
    Ok(order.into_iter().map(|row| row as usize).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::PAD;
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

    /// A random cell of `dtype`, NULL at `null_rate`, from pools that repeat
    /// and reach the edges: NaN and −NaN, ±0, `i64::MIN`/`MAX`, the empty
    /// string and non-ASCII ones.
    fn cell(rng: &mut DetRng, dtype: DataType, null_rate: f64) -> Value {
        if rng.chance(null_rate) {
            return Value::Null;
        }
        match dtype {
            DataType::Bool => Value::Bool(rng.chance(0.5)),
            DataType::Int => Value::Int(match rng.range_usize(0, 4) {
                0 => *rng.choose(&[i64::MIN, i64::MAX, 0, -1]),
                1 => rng.range_i64(i64::MIN / 2, i64::MAX / 2),
                _ => rng.range_i64(-5, 5),
            }),
            DataType::Float => Value::Float(match rng.range_usize(0, 3) {
                0 => *rng.choose(&[f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, -f64::MAX]),
                1 => rng.range_f64(-1e9, 1e9),
                _ => rng.range_i64(-3, 3) as f64 * 0.5,
            }),
            DataType::Str => {
                Value::Str((*rng.choose(&["", "a", "ab", "b", "Z", "é", "日本", "a\u{0}"])).into())
            }
            DataType::Date => Value::Date(rng.range_i64(-4, 4) as i32),
        }
    }

    /// The reference: a stable sort on `Value::total_cmp` per key, cut at
    /// `limit`.
    fn reference(
        cells: &[Vec<Value>],
        directions: &[bool],
        rows: usize,
        limit: usize,
    ) -> Vec<usize> {
        let mut want: Vec<usize> = (0..rows).collect();
        want.sort_by(|&a, &b| {
            let by_key = cells.iter().zip(directions).map(|(c, &asc)| match asc {
                true => c[a].total_cmp(&c[b]),
                false => c[b].total_cmp(&c[a]),
            });
            by_key.fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
        });
        want.truncate(limit);
        want
    }

    /// One to three random key columns of every type and mixed directions,
    /// as buffers, windows and unread gathers, at limits around the edges
    /// and at sizes on both sides of the radix switch: the reference order.
    /// Fields that pack into one word and fields that do not (a full-range
    /// INT with NULLs is 65 bits on its own) both run.
    #[test]
    fn every_order_is_the_stable_order_cut_at_the_limit() {
        let mut rng = DetRng::seed(0x5a);
        let dtypes =
            [DataType::Bool, DataType::Int, DataType::Float, DataType::Str, DataType::Date];
        for round in 0..240 {
            let rows = [0, 1, 2, 7, 60, 5000][round % 6];
            let null_rate = [0.0, 0.2, 1.0][round % 3];
            let arity = rng.range_usize(1, 4);
            let mut cells = Vec::new();
            let mut keys = Vec::new();
            for _ in 0..arity {
                let dtype = *rng.choose(&dtypes);
                // Twice the rows, read as a window or through a gather.
                let values: Vec<Value> =
                    (0..2 * rows + 1).map(|_| cell(&mut rng, dtype, null_rate)).collect();
                let source = Column::from_values(dtype, &values).unwrap();
                let column =
                    match rng.range_usize(0, 3) {
                        0 => source.slice(1, rows),
                        // Padded: a pad is a NULL row whose cell is no placeholder.
                        1 => source.take_padded(
                            &(0..rows)
                                .map(|_| {
                                    if rng.chance(0.1) {
                                        PAD
                                    } else {
                                        rng.range_usize(0, 2 * rows)
                                    }
                                })
                                .collect::<Vec<_>>(),
                        ),
                        _ => Column::from_values(dtype, &values[..rows]).unwrap(),
                    };
                cells.push((0..rows).map(|i| column.value(i)).collect::<Vec<_>>());
                keys.push((column, rng.chance(0.5)));
            }
            let directions: Vec<bool> = keys.iter().map(|&(_, asc)| asc).collect();
            let keys: Vec<(&Column, bool)> = keys.iter().map(|(c, asc)| (c, *asc)).collect();
            let unread: Vec<&Column> =
                keys.iter().map(|&(c, _)| c).filter(|c| !c.is_forced()).collect();
            for limit in [0, 1, 7, rows.saturating_sub(1), rows, rows + 3] {
                let want = reference(&cells, &directions, rows, limit);
                let what = format!("round {round}: {rows} rows, limit {limit}, {keys:?}");
                assert_eq!(order_rows(&keys, rows, limit).unwrap(), want, "{what}");
            }
            // A fixed-width key is read through its gather, never gathered.
            let fixed = unread.iter().filter(|c| c.dtype() != DataType::Str);
            assert!(fixed.clone().all(|c| !c.is_forced()), "round {round} gathered a key");
        }
    }
}
