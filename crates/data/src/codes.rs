//! Keys as codes: one key column turned into dense `u32`s, once.
//!
//! [`encode`] codes a key column — a group key, a COUNT(DISTINCT)
//! argument, the two sides of a join key laid end to end, a sort key — into
//! dense [`Codes`], and [`pair_ids`] combines two integer columns into dense
//! ids in first-seen row order. Past the encoder no row's key is gathered,
//! hashed as a string or compared as one: a group id is a fold of
//! `pair_ids` over the code columns, a distinct count is the first
//! sightings of `(group id, code)`, a join is the rows of one side bucketed
//! by code, and a string sort key is its code's rank among the distinct
//! strings (`code_strs` hands them back for that).
//!
//! Row ids and codes are 32-bit: a caller checks that its input has fewer
//! than `u32::MAX` rows before it codes anything.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnView, StrRows, PAD};
use crate::strs::{Dictionary, StrColumn, StrView};
use crate::value::DataType;
use cv_common::hash::mix64;

const STR_TAG: u64 = 0x3a91_c57f_44d0_8be5;
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bytes `at..at + N`, copied out for `from_le_bytes`.
#[inline]
fn le<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut word = [0u8; N];
    word.copy_from_slice(&bytes[at..at + N]);
    word
}

/// A string's 64-bit hash, eight bytes at a time: a state seeded with the
/// length folds in every whole word, then one last word that holds the
/// rest — the final eight bytes, overlapping the word before, or for a
/// shorter string two overlapping halves or three single bytes, which
/// together with the length are every byte — and is finalized for
/// avalanche. Only equality of hashes is ever used — ids are handed out in
/// insertion order — so the function can change without moving a code.
#[inline]
fn str_hash(bytes: &[u8]) -> u64 {
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(WORD_MUL).rotate_left(31);
    let n = bytes.len();
    let mut h = n as u64 ^ STR_TAG;
    let last = match n {
        0 => 0,
        1..=3 => bytes[0] as u64 | (bytes[n / 2] as u64) << 8 | (bytes[n - 1] as u64) << 16,
        4..=7 => {
            let (lo, hi) = (u32::from_le_bytes(le(bytes, 0)), u32::from_le_bytes(le(bytes, n - 4)));
            lo as u64 | (hi as u64) << 32
        }
        _ => {
            for at in (0..n - 8).step_by(8) {
                h = fold(h, u64::from_le_bytes(le(bytes, at)));
            }
            u64::from_le_bytes(le(bytes, n - 8))
        }
    };
    mix64(fold(h, last))
}

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
        debug_assert!(id < EMPTY as usize, "dense ids are 32-bit");
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
pub enum Class {
    /// GROUP BY (`Value::group_key_eq`), and a join of two columns of one
    /// type (`sql_eq`, the same relation off NULL): INTs exactly, floats by
    /// bit pattern (`0.0` and `-0.0`, two NaN payloads, are two keys).
    Group,
    /// COUNT(DISTINCT): a number is its canonical `f64` — INTs above 2^53
    /// that round together are one value, every NaN is one value, `-0.0` is
    /// `0.0`.
    Distinct,
    /// An INT column joined to a FLOAT one: an INT is the `f64` it converts
    /// to and a float its bit pattern, which is what the join's cell
    /// equality compares.
    AsFloat,
}

/// One key column over every input row as dense integers: `codes[row] <
/// cardinality`, 0 is NULL, and two rows carry one code iff their cells are
/// one key of the column's [`Class`].
pub struct Codes {
    pub codes: Vec<u32>,
    pub cardinality: usize,
}

const SIGN: u64 = 1 << 63;

/// Encode the column whose rows are `chunks` in order, `rows` in all.
pub fn encode(chunks: &[&Column], rows: usize, class: Class) -> Codes {
    if chunks.first().is_some_and(|c| c.dtype() == DataType::Str) {
        return code_strs(chunks, rows).0;
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
    v: impl IntoIterator<Item = T> + 'v,
    valid: Option<&'v Bitmap>,
) -> impl Iterator<Item = Option<T>> + 'v {
    v.into_iter().enumerate().map(move |(i, x)| valid.is_none_or(|valid| valid.get(i)).then_some(x))
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

/// The dictionary of one string buffer (DESIGN §11 *String rows in one
/// buffer*): every row's entry, in first-seen order, found by hashing and
/// comparing its bytes.
pub(crate) fn dictionary(rows: StrView<'_>) -> Dictionary {
    let mut index = DenseIds::new();
    let mut firsts = Vec::new();
    let ids = (0..rows.len())
        .map(|row| {
            let bytes = rows.bytes_of(row);
            let id = index.find_or_insert(str_hash(bytes), |id| rows.bytes_of(firsts[id]) == bytes);
            if id == firsts.len() {
                firsts.push(row);
            }
            id as u32
        })
        .collect();
    Dictionary { ids, firsts }
}

/// Strings by first appearance in the call, compared as bytes.
struct StrDict<'a> {
    index: DenseIds,
    strs: Vec<&'a str>,
}

impl<'a> StrDict<'a> {
    /// The code of row `row` of `text`.
    fn code(&mut self, text: StrView<'a>, row: usize) -> u32 {
        let (strs, bytes) = (&self.strs, text.bytes_of(row));
        let id = self.index.find_or_insert(str_hash(bytes), |id| strs[id].as_bytes() == bytes);
        if id == self.strs.len() {
            self.strs.push(text.get(row));
        }
        id as u32 + 1
    }
}

/// Strings: dictionary id + 1, and the dictionary — the distinct strings,
/// string `c - 1` being the cell of code `c`. Every chunk is read through
/// its buffer's [`Dictionary`] — a window by its offset, a gather nobody has
/// read by its row ids into the source — so an entry is hashed once, the
/// first time a valid row of it comes up, and every other row is a lookup;
/// no chunk is gathered. Codes are handed out in row order all the same.
pub fn code_strs<'a>(chunks: &[&'a Column], rows: usize) -> (Codes, Vec<&'a str>) {
    let mut dict = StrDict { index: DenseIds::new(), strs: Vec::new() };
    let mut codes = Vec::with_capacity(rows);
    // Each buffer met so far and the code of each of its entries, 0 until
    // one is given (a zeroed table: a large buffer read at a few rows
    // touches a few of its pages).
    let mut buffers: Vec<(&StrColumn, Vec<u32>)> = Vec::new();
    for &col in chunks {
        let Some((buffer, at)) = col.str_rows() else {
            // `encode` sends only string columns here; anything else is NULL.
            codes.resize(codes.len() + col.len(), 0);
            continue;
        };
        let (entries, text) = (buffer.dictionary(), buffer.view());
        let k = match buffers.iter().rposition(|(b, _)| std::ptr::eq(*b, buffer)) {
            Some(k) => k,
            None => {
                buffers.push((buffer, vec![0; entries.len()]));
                buffers.len() - 1
            }
        };
        let coded = &mut buffers[k].1;
        let mut code = |entry: u32| {
            let c = &mut coded[entry as usize];
            if *c == 0 {
                *c = dict.code(text, entries.first(entry));
            }
            *c
        };
        let valid = col.validity();
        match at {
            StrRows::Window(offset) => {
                let rows = &entries.ids()[offset..offset + col.len()];
                codes.extend(cells_of(rows, valid).map(|cell| cell.map_or(0, |&e| code(e))));
            }
            StrRows::Gather { base, ids } => {
                codes.extend(cells_of(ids, valid).map(|cell| match cell {
                    Some(&id) if id != PAD => code(entries.ids()[base + id]),
                    _ => 0,
                }))
            }
        }
    }
    let cardinality = dict.strs.len() + 1;
    (Codes { codes, cardinality }, dict.strs)
}

/// What [`pair_ids`] returns: `ids[row]` per input row, and `first[id]`, the
/// row each id was first seen at.
pub struct PairIds {
    pub ids: Vec<u32>,
    pub first: Vec<usize>,
}

/// Dense ids of the pairs `(a[row], b.codes[row])`, handed out in first-seen
/// row order; `a`'s values are below `a_card`. A pair is its own table slot
/// when the pair space is within `direct_limit`, and one `u64` key of a
/// `DenseIds` index otherwise — both halves are 32-bit, so the packed key
/// always fits.
pub fn pair_ids(a: &[u32], a_card: usize, b: &Codes) -> PairIds {
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
pub fn pair_codes(a: &Codes, b: &Codes) -> Codes {
    let PairIds { ids: mut codes, first } = pair_ids(&a.codes, a.cardinality, b);
    for (code, (&x, &y)) in codes.iter_mut().zip(a.codes.iter().zip(&b.codes)) {
        *code = if x == 0 || y == 0 { 0 } else { *code + 1 };
    }
    Codes { codes, cardinality: first.len() + 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn col(dtype: DataType, vals: &[Value]) -> Column {
        Column::from_values(dtype, vals).unwrap()
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
    fn the_string_dictionary_is_the_distinct_strings_in_code_order() {
        let cells = ["b", "", "a", "b", "é"].map(|s| Value::Str(s.into()));
        let c = col(DataType::Str, &[&cells[..], &[Value::Null]].concat());
        let (Codes { codes, cardinality }, strs) = code_strs(&[&c], c.len());
        assert_eq!(codes, [1, 2, 3, 1, 4, 0]);
        assert_eq!((cardinality, strs), (5, vec!["b", "", "a", "é"]));
    }

    /// Entry ids and codes are handed out in insertion order, so they are
    /// the first-seen order whatever the hash: rows of every length around
    /// the eight-byte words (a zero byte in the tail among them), enough of
    /// them to grow the index several times, against a linear search.
    #[test]
    fn ids_are_first_seen_order_whatever_the_hash() {
        let mut rng = cv_common::DetRng::seed(0x1d5);
        let words: Vec<String> = (0..700)
            .map(|i| match i % 4 {
                0 => "x".repeat(i % 19),
                1 => format!("{}\0", "y".repeat(i % 17)),
                _ => format!("w{:x}", i * 7919 % 1000),
            })
            .collect();
        let rows: Vec<&str> = (0..3000).map(|_| rng.choose(&words).as_str()).collect();
        let mut distinct: Vec<&str> = Vec::new();
        let want: Vec<u32> = rows
            .iter()
            .map(|s| match distinct.iter().position(|d| d == s) {
                Some(id) => id as u32,
                None => {
                    distinct.push(s);
                    distinct.len() as u32 - 1
                }
            })
            .collect();
        assert!(distinct.len() > 300, "{} distinct rows", distinct.len());
        let buffer: StrColumn = rows.iter().collect();
        let entries = buffer.dictionary();
        assert_eq!(entries.ids(), want);
        let firsts: Vec<&str> =
            (0..entries.len() as u32).map(|e| &buffer[entries.first(e)]).collect();
        assert_eq!(firsts, distinct);
        let c = Column::new(crate::column::ColumnData::Str(buffer.clone()), None);
        let (Codes { codes, cardinality }, strs) = code_strs(&[&c], c.len());
        assert!(codes.iter().zip(&want).all(|(&code, &id)| code == id + 1));
        assert_eq!((cardinality, strs), (distinct.len() + 1, distinct));
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
}
