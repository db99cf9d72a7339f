//! Keys, two ways.
//!
//! **The hash join** hashes. [`KeyCols`] wraps the resolved key columns of
//! one table side and hashes them *per column* into a `Vec<u64>` for the
//! whole batch — no per-row `Vec<Value>` key materialization on the hot
//! path. Hash-bucket collisions are resolved with typed column-vs-column
//! equality that matches the [`Value`] reference semantics exactly: `sql_eq`
//! (NULL matches nothing). Int values hash through their canonical `f64` bit
//! pattern so `Int(1)` and `Float(1.0)` — equal under `total_cmp` — always
//! land in the same bucket; equality then decides. NaNs collapse to one
//! bucket and ±0.0 to another, mirroring `StableHasher::write_f64`.
//!
//! **Aggregation and the merge join** encode. [`encode`] turns one key
//! column — a group key, a COUNT(DISTINCT) argument, the two sides of a join
//! key laid end to end — into dense `u32` [`Codes`] once, and [`pair_ids`]
//! combines two integer columns into dense ids in first-seen row order. Past
//! the encoder no row's key is gathered, hashed as a string or compared as
//! one: a group id is a fold of `pair_ids` over the code columns, a distinct
//! count is the first sightings of `(group id, code)`, a join is the rows of
//! one side bucketed by code.

use cv_common::hash::mix64;
use cv_data::bitmap::Bitmap;
use cv_data::column::{Column, ColumnView, PAD};
use cv_data::table::Table;
use cv_data::value::DataType;
use std::cmp::Ordering;

const SEED: u64 = 0x517c_c1b7_2722_0a95;
const BOOL_TAG: u64 = 0x1b87_3b4e_0dd2_91a1;
const NUM_TAG: u64 = 0x2cf1_8e0a_9b73_55c3;
const STR_TAG: u64 = 0x3a91_c57f_44d0_8be5;
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

#[inline]
fn str_key_hash(s: &str) -> u64 {
    // FNV-1a over the bytes, finalized for avalanche.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h ^ STR_TAG)
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
            ColumnView::Str(v) => fold!(v, |x: &String| str_key_hash(x)),
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

// ---------------------------------------------------------------------------
// Keys as codes
// ---------------------------------------------------------------------------

const EMPTY: u32 = u32::MAX;

/// Open-addressing index (linear probing, at most half full) from 64-bit
/// hashes to dense ids `0..len()`, handed out in insertion order. The
/// caller keeps what an id stands for and tells two entries of one hash
/// apart — or hashes with a permutation ([`mix64`] of a `u64` key), so that
/// one hash *is* one key.
struct DenseIds {
    slots: Vec<u32>,
    /// Hash of each id: a cheap first rejection, and what growth re-inserts.
    hashes: Vec<u64>,
}

impl DenseIds {
    fn new() -> DenseIds {
        DenseIds { slots: vec![EMPTY; 16], hashes: Vec::new() }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The id whose hash is `hash` and that `same` accepts, or a new one
    /// (`== len()` before the call).
    fn find_or_insert(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let id = self.slots[at];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && same(id as usize) {
                return id as usize;
            }
            at = (at + 1) & mask;
        }
        let id = self.hashes.len();
        assert!(id < EMPTY as usize, "dense ids are 32-bit");
        self.slots[at] = id as u32;
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.slots.len() {
            self.slots = vec![EMPTY; self.slots.len() * 2];
            let mask = self.slots.len() - 1;
            for (id, &h) in self.hashes.iter().enumerate() {
                let mut at = h as usize & mask;
                while self.slots[at] != EMPTY {
                    at = (at + 1) & mask;
                }
                self.slots[at] = id as u32;
            }
        }
        id
    }
}

/// The largest key space that is addressed by the key itself — a code that
/// is `word - min`, a table with a slot per `(id, code)` — when `rows` rows
/// carry the keys: a few slots a row, so such a table is never much larger
/// than the input that fills it. A wider space goes through [`DenseIds`].
fn direct_limit(rows: usize) -> u64 {
    (4 * rows as u64 + 64).min(u32::MAX as u64)
}

/// Which cells are one key.
#[derive(Clone, Copy)]
pub(super) enum Class {
    /// GROUP BY (`Value::group_key_eq`), and a join of two columns of one
    /// type (`sql_eq`, the same relation off NULL): INTs exactly, floats by
    /// bit pattern (`0.0` and `-0.0`, two NaN payloads, are two keys).
    Group,
    /// COUNT(DISTINCT): a number is its canonical `f64` — INTs above 2^53
    /// that round together are one value, every NaN is one value, `-0.0` is
    /// `0.0`.
    Distinct,
    /// An INT column joined to a FLOAT one: an INT is the `f64` it converts
    /// to and a float its bit pattern, which is what [`cells_eq`] compares.
    AsFloat,
}

/// One key column over every input row as dense integers: `codes[row] <
/// cardinality`, 0 is NULL, and two rows carry one code iff their cells are
/// one key of the column's [`Class`].
pub(super) struct Codes {
    pub codes: Vec<u32>,
    pub cardinality: usize,
}

const SIGN: u64 = 1 << 63;

/// Encode the column whose rows are `chunks` in order, `rows` in all.
pub(super) fn encode(chunks: &[&Column], rows: usize, class: Class) -> Codes {
    if chunks.first().is_some_and(|c| c.dtype() == DataType::Str) {
        return code_strs(chunks, rows);
    }
    code_words(chunks, rows, class)
}

/// Receives the cells of a fixed-width column a chunk at a time, each
/// chunk as its typed slice, its validity and its cells' word function.
trait WordSink {
    fn chunk<T: Copy>(&mut self, cells: &[T], valid: Option<&Bitmap>, word: impl Fn(T) -> u64);
}

/// Hands `sink` the cells of one chunk with the word of `class`: a `u64`
/// per cell, equal words one key. Signed types flip the sign bit, so that a
/// narrow value range is a narrow word range. A string has no word:
/// [`encode`] sends those to [`code_strs`].
fn words_of(col: &Column, class: Class, sink: &mut impl WordSink) {
    let int_word = |x: i64| x as u64 ^ SIGN;
    let valid = col.validity();
    match (col.view(), class) {
        (ColumnView::Str(_), _) => {}
        (ColumnView::Bool(v), _) => sink.chunk(v, valid, |b| b as u64),
        (ColumnView::Date(v), _) => sink.chunk(v, valid, |d| int_word(d as i64)),
        (ColumnView::Int(v), Class::Group) => sink.chunk(v, valid, int_word),
        // An INT's class is the `f64` it rounds to, named by that float's
        // integer value: the identity inside ±2^53 (so a narrow range stays
        // narrow), one word per rounding class outside (`as` saturates only
        // at 2^63, which only the class of 2^63 reaches).
        (ColumnView::Int(v), Class::Distinct) => {
            sink.chunk(v, valid, |x| int_word(x as f64 as i64))
        }
        (ColumnView::Int(v), Class::AsFloat) => sink.chunk(v, valid, |x| (x as f64).to_bits()),
        (ColumnView::Float(v), Class::Group | Class::AsFloat) => sink.chunk(v, valid, f64::to_bits),
        (ColumnView::Float(v), Class::Distinct) => sink.chunk(v, valid, |f| match f {
            _ if f.is_nan() => f64::NAN.to_bits(),
            _ if f == 0.0 => 0,
            _ => f.to_bits(),
        }),
    }
}

/// Every cell of the column in order, `None` for a NULL.
#[inline]
fn cells_of<'v, T>(
    v: &'v [T],
    valid: Option<&'v Bitmap>,
) -> impl Iterator<Item = Option<&'v T>> + 'v {
    v.iter().enumerate().map(move |(i, x)| valid.is_none_or(|valid| valid.get(i)).then_some(x))
}

/// Pass one over a column's words: their range.
struct WordRange {
    lo: u64,
    hi: u64,
}

impl WordSink for WordRange {
    fn chunk<T: Copy>(&mut self, cells: &[T], valid: Option<&Bitmap>, word: impl Fn(T) -> u64) {
        for w in cells_of(cells, valid).flatten().map(|&x| word(x)) {
            self.lo = self.lo.min(w);
            self.hi = self.hi.max(w);
        }
    }
}

/// Pass two: `word - lo + 1` if `direct`, the word's dictionary id + 1
/// otherwise.
struct WordCoder {
    lo: u64,
    direct: bool,
    dict: DenseIds,
    codes: Vec<u32>,
}

impl WordSink for WordCoder {
    fn chunk<T: Copy>(&mut self, cells: &[T], valid: Option<&Bitmap>, word: impl Fn(T) -> u64) {
        let WordCoder { lo, direct, dict, codes } = self;
        codes.extend(cells_of(cells, valid).map(|cell| match cell {
            None => 0,
            Some(&x) if *direct => (word(x) - *lo) as u32 + 1,
            // `mix64` permutes: equal hashes are equal words.
            Some(&x) => dict.find_or_insert(mix64(word(x)), |_| true) as u32 + 1,
        }));
    }
}

/// Fixed-width cells: `word - min + 1` when the words' range is within
/// [`direct_limit`], their dictionary id + 1 otherwise.
fn code_words(chunks: &[&Column], rows: usize, class: Class) -> Codes {
    let mut range = WordRange { lo: u64::MAX, hi: u64::MIN };
    chunks.iter().for_each(|col| words_of(col, class, &mut range));
    let WordRange { lo, hi } = range;
    if lo > hi {
        // Not one valid cell.
        return Codes { codes: vec![0; rows], cardinality: 1 };
    }
    let direct = hi - lo < direct_limit(rows) - 1;
    let mut coder =
        WordCoder { lo, direct, dict: DenseIds::new(), codes: Vec::with_capacity(rows) };
    chunks.iter().for_each(|col| words_of(col, class, &mut coder));
    let cardinality = if direct { (hi - lo) as usize + 2 } else { coder.dict.len() + 1 };
    Codes { codes: coder.codes, cardinality }
}

/// Strings by first appearance, compared as strings.
struct StrDict<'a> {
    index: DenseIds,
    strs: Vec<&'a str>,
}

impl<'a> StrDict<'a> {
    fn code(&mut self, s: &'a str) -> u32 {
        let strs = &self.strs;
        let id = self.index.find_or_insert(str_key_hash(s), |id| strs[id] == s);
        if id == self.strs.len() {
            self.strs.push(s);
        }
        id as u32 + 1
    }
}

/// Strings: dictionary id + 1. A column that arrives as a gather nobody has
/// read, from a source no longer than the input (a dimension column a join
/// carried up), is coded per *source* row, the first time a row id reaches
/// it; every other row is a lookup through its id. Each distinct source
/// string is hashed once and the column is never gathered.
fn code_strs(chunks: &[&Column], rows: usize) -> Codes {
    const UNSEEN: u32 = u32::MAX;
    let mut dict = StrDict { index: DenseIds::new(), strs: Vec::new() };
    let mut codes = Vec::with_capacity(rows);
    // The gather the chunks are windows of, and the codes of its source rows.
    let mut gather: Option<(&Column, Vec<u32>)> = None;
    for col in chunks {
        let through = col.unread_gather().and_then(|(source, ids)| match source {
            ColumnView::Str(source)
                if source.len() <= rows && gather.as_ref().is_none_or(|(of, _)| of.ptr_eq(col)) =>
            {
                Some((source, ids))
            }
            _ => None,
        });
        let Some((source, ids)) = through else {
            let cells = cells_of(col.strs(), col.validity());
            codes.extend(cells.map(|cell| cell.map_or(0, |s| dict.code(s))));
            continue;
        };
        let (_, seen) = gather.get_or_insert_with(|| (col, vec![UNSEEN; source.len()]));
        for (i, &id) in ids.iter().enumerate() {
            if id == PAD || col.is_null(i) {
                codes.push(0);
                continue;
            }
            if seen[id] == UNSEEN {
                seen[id] = dict.code(&source[id]);
            }
            codes.push(seen[id]);
        }
    }
    let cardinality = dict.strs.len() + 1;
    Codes { codes, cardinality }
}

/// What [`pair_ids`] returns: `ids[row]` per input row, and `first[id]`, the
/// row each id was first seen at.
pub(super) struct PairIds {
    pub ids: Vec<u32>,
    pub first: Vec<usize>,
}

/// Dense ids of the pairs `(a[row], b.codes[row])`, handed out in first-seen
/// row order; `a`'s values are below `a_card`. A pair is its own table slot
/// when the pair space is within [`direct_limit`], and one `u64` key of a
/// [`DenseIds`] otherwise — both halves are 32-bit, so the packed key always
/// fits.
pub(super) fn pair_ids(a: &[u32], a_card: usize, b: &Codes) -> PairIds {
    let mut first = Vec::new();
    let space = a_card as u64 * b.cardinality as u64;
    let rows = a.iter().zip(&b.codes).enumerate();
    let ids = if space <= direct_limit(a.len()) {
        let mut table = vec![EMPTY; space as usize];
        rows.map(|(row, (&x, &y))| {
            let slot = &mut table[x as usize * b.cardinality + y as usize];
            if *slot == EMPTY {
                *slot = first.len() as u32;
                first.push(row);
            }
            *slot
        })
        .collect()
    } else {
        let mut index = DenseIds::new();
        rows.map(|(row, (&x, &y))| {
            let id = index.find_or_insert(mix64((x as u64) << 32 | y as u64), |_| true);
            if id == first.len() {
                first.push(row);
            }
            id as u32
        })
        .collect()
    };
    PairIds { ids, first }
}

/// The codes of the two-column key `(a, b)`: a [`pair_ids`] id + 1, and 0 —
/// NULL — where either half is.
pub(super) fn pair_codes(a: &Codes, b: &Codes) -> Codes {
    let PairIds { ids: mut codes, first } = pair_ids(&a.codes, a.cardinality, b);
    for (code, (&x, &y)) in codes.iter_mut().zip(a.codes.iter().zip(&b.codes)) {
        *code = if x == 0 || y == 0 { 0 } else { *code + 1 };
    }
    Codes { codes, cardinality: first.len() + 1 }
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

    /// `codes[i] == codes[j]` for exactly the pairs in `same`; NULL is 0.
    fn assert_classes(c: &Column, class: Class, same: &[(usize, usize)], what: &str) {
        let Codes { codes, cardinality } = encode(&[c], c.len(), class);
        assert!(codes.iter().all(|&code| (code as usize) < cardinality), "{what}: {codes:?}");
        for i in 0..c.len() {
            assert_eq!(codes[i] == 0, c.is_null(i), "{what}: NULL is code 0, row {i}");
            for j in i + 1..c.len() {
                let want = same.contains(&(i, j));
                assert_eq!(codes[i] == codes[j], want, "{what}: rows {i} and {j} of {codes:?}");
            }
        }
    }

    #[test]
    fn codes_follow_the_group_and_the_distinct_classes() {
        const P53: i64 = 1 << 53;
        let strs = ["x", "", "x"].map(|s| Value::Str(s.into()));
        let with_null = [&strs[..], &[Value::Null, Value::Null]].concat();
        assert_classes(&col(DataType::Str, &with_null), Class::Group, &[(0, 2), (3, 4)], "strings");

        // Above 2^53 two INTs can round to one `f64`: one DISTINCT value,
        // two groups. The range is wide, so this is the dictionary.
        let ints = [P53, P53 + 1, P53 + 2, -P53 - 1, -P53, i64::MAX, i64::MAX - 1, i64::MIN];
        let c = col(DataType::Int, &ints.map(Value::Int));
        assert_classes(&c, Class::Group, &[], "wide ints");
        assert_classes(&c, Class::Distinct, &[(0, 1), (3, 4), (5, 6)], "wide ints");
        // A narrow range is `value - min` in both classes.
        let c = col(DataType::Int, &[-2, 5, -2, 0].map(Value::Int));
        assert_classes(&c, Class::Group, &[(0, 2)], "narrow ints");
        assert_classes(&c, Class::Distinct, &[(0, 2)], "narrow ints");

        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let c = col(DataType::Float, &[0.0, -0.0, f64::NAN, nan2, 1.5, 1.5].map(Value::Float));
        assert_classes(&c, Class::Group, &[(4, 5)], "floats");
        assert_classes(&c, Class::Distinct, &[(0, 1), (2, 3), (4, 5)], "floats");
    }

    #[test]
    fn pair_ids_are_first_seen_order_on_both_sides_of_the_direct_limit() {
        let a = [0u32, 2, 0, 1, 2, 0];
        let b = Codes { codes: vec![1, 0, 1, 1, 0, 2], cardinality: 3 };
        // The claimed cardinality of `a` alone moves the pair space past the
        // limit: same pairs, hashed.
        for a_card in [3, 1 << 20] {
            assert!((a_card as u64 * 3 <= direct_limit(a.len())) == (a_card == 3));
            let PairIds { ids, first } = pair_ids(&a, a_card, &b);
            assert_eq!(ids, [0, 1, 0, 2, 1, 3], "a below {a_card}");
            assert_eq!(first, [0, 1, 3, 5], "a below {a_card}");
        }
    }

    #[test]
    fn an_int_column_meets_a_float_column_as_sql_eq_pairs_them() {
        const P53: i64 = 1 << 53;
        let ints =
            [Value::Int(P53), Value::Int(P53 + 1), Value::Int(0), Value::Int(3), Value::Null];
        let floats = [P53 as f64, 0.0, -0.0, 3.0, f64::NAN]
            .map(Value::Float)
            .into_iter()
            .chain([Value::Null]);
        let cells: Vec<Value> = ints.iter().cloned().chain(floats).collect();
        let (a, b) = (col(DataType::Int, &cells[..5]), col(DataType::Float, &cells[5..]));
        let Codes { codes, cardinality } = encode(&[&a, &b], cells.len(), Class::AsFloat);
        assert!(codes.iter().all(|&code| (code as usize) < cardinality), "{codes:?}");
        // Across the two columns, that is: two INTs that one FLOAT equals
        // share its code without being equal.
        for (i, x) in cells.iter().enumerate().take(5) {
            for (j, y) in cells.iter().enumerate().skip(5) {
                let same = codes[i] != 0 && codes[i] == codes[j];
                assert_eq!(same, x.sql_eq(y) == Some(true), "{x} and {y} of {codes:?}");
            }
        }
        assert_eq!((codes[4], codes[10]), (0, 0), "NULL is code 0");
    }

    #[test]
    fn pair_codes_are_null_where_a_half_is() {
        let a = Codes { codes: vec![1, 0, 1, 2, 1], cardinality: 3 };
        let b = Codes { codes: vec![1, 1, 0, 1, 1], cardinality: 2 };
        let Codes { codes, cardinality } = pair_codes(&a, &b);
        assert_eq!(codes, [1, 0, 0, 4, 1]);
        assert_eq!(cardinality, 5);
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
