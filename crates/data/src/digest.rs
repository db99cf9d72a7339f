//! The content digest of a table: one typed, order-insensitive hash of its
//! row multiset.
//!
//! Every "these two tables hold the same rows" check on the serving path —
//! the per-job result digests the drivers compare across configurations and
//! the view stores' content checksum — is this function under its own domain
//! tag. It reads the typed column slices directly; no row, [`crate::Value`]
//! or string is built. [`Table::canonical_rows`] is the test-side reference
//! it is held to.

use crate::bitmap::Bitmap;
use crate::column::ColumnView;
use crate::table::Table;
use cv_common::hash::mix64;
use cv_common::{Sig128, StableHasher};

/// Slot tags. NULL has one of its own, so the placeholder under a NULL slot
/// never enters the hash and `NULL` cannot collide with any typed value.
const NULL: u64 = 0;
const BOOL: u64 = 1;
const INT: u64 = 2;
const FLOAT: u64 = 3;
const STR: u64 = 4;
const DATE: u64 = 5;

/// A running 128-bit hash, one per row: the two lanes of [`StableHasher`]
/// without its per-write framing (the tags above frame every value already).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RowHash(u64, u64);

const SEED: RowHash = RowHash(0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);

impl RowHash {
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
        self.1 = mix64(self.1.wrapping_add(word).rotate_left(23));
    }

    #[inline]
    fn absorb_bytes(&mut self, bytes: &[u8]) {
        self.absorb(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word));
        }
    }
}

/// Fold one column into every row's hash: `NULL` for a null slot, else the
/// type tag followed by what `write` absorbs of the value.
#[inline]
fn fold<T>(
    rows: &mut [RowHash],
    values: impl IntoIterator<Item = T>,
    validity: Option<&Bitmap>,
    tag: u64,
    write: impl Fn(&mut RowHash, T),
) {
    for (i, (row, v)) in rows.iter_mut().zip(values).enumerate() {
        if validity.is_some_and(|valid| !valid.get(i)) {
            row.absorb(NULL);
        } else {
            row.absorb(tag);
            write(row, v);
        }
    }
}

/// Digest of `t`'s row multiset under `domain`.
///
/// Equal for two tables exactly when they hold the same rows with the same
/// multiplicities, in any order: values are compared with their type (`Int
/// 1`, `Float 1.0` and `Str "1"` differ), strings are length-framed, floats
/// go by bit pattern with every NaN collapsed to one (`-0.0` stays distinct
/// from `0.0`), and NULL is NULL whatever the buffer holds beneath it.
/// Column names, validity *presence* and windowing do not enter.
///
/// Each row hashes to 128 bits column by column; the row hashes are sorted
/// and the sorted sequence, with the row count, is hashed under the domain
/// tag. Two words of scratch a row, one sort of them.
pub fn content_digest(domain: &str, t: &Table) -> Sig128 {
    let mut rows = vec![SEED; t.num_rows()];
    for c in t.columns() {
        let valid = c.validity();
        match c.view() {
            ColumnView::Bool(v) => fold(&mut rows, v, valid, BOOL, |r, &b| r.absorb(b as u64)),
            ColumnView::Int(v) => fold(&mut rows, v, valid, INT, |r, &i| r.absorb(i as u64)),
            ColumnView::Float(v) => fold(&mut rows, v, valid, FLOAT, |r, &f| {
                r.absorb(if f.is_nan() { f64::NAN.to_bits() } else { f.to_bits() })
            }),
            ColumnView::Str(v) => {
                fold(&mut rows, v.iter(), valid, STR, |r, s| r.absorb_bytes(s.as_bytes()))
            }
            ColumnView::Date(v) => fold(&mut rows, v, valid, DATE, |r, &d| r.absorb(d as u64)),
        }
    }
    rows.sort_unstable();
    let mut sorted = SEED;
    for row in &rows {
        sorted.absorb(row.0);
        sorted.absorb(row.1);
    }
    let mut h = StableHasher::with_domain(domain);
    h.write_u64(t.num_rows() as u64);
    h.write_u64(sorted.0);
    h.write_u64(sorted.1);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnData};
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};
    use cv_common::DetRng;

    fn digest(t: &Table) -> Sig128 {
        content_digest("test", t)
    }

    /// One column per value of the first row, typed by that value (a NULL
    /// there makes a STRING column).
    fn table(rows: &[Vec<Value>]) -> Table {
        let fields = rows[0]
            .iter()
            .enumerate()
            .map(|(i, v)| Field::new(format!("c{i}"), v.dtype().unwrap_or(DataType::Str)));
        Table::from_rows(Schema::new(fields.collect()).unwrap().into_ref(), rows).unwrap()
    }

    fn s(v: &str) -> Value {
        Value::Str(v.to_string())
    }

    #[test]
    fn a_function_of_the_row_multiset() {
        let rows = vec![
            vec![Value::Int(1), s("a"), Value::Float(0.5)],
            vec![Value::Int(2), s("b"), Value::Null],
            vec![Value::Int(3), s("c"), Value::Float(1.5)],
        ];
        let t = table(&rows);
        assert_eq!(digest(&t), digest(&t.take(&[2, 0, 1]).unwrap()), "row order");
        // The same values, one of them in another row.
        let mut moved = rows.clone();
        moved[0][1] = s("b");
        moved[1][1] = s("a");
        assert_ne!(digest(&t), digest(&table(&moved)), "value moved between rows");
        assert_ne!(digest(&t), digest(&t.take(&[0, 1, 2, 2]).unwrap()), "row duplicated");
        assert_ne!(digest(&t), digest(&t.take(&[0, 1]).unwrap()), "row dropped");
        assert_ne!(
            digest(&t.take(&[0, 0, 1]).unwrap()),
            digest(&t.take(&[0, 1, 1]).unwrap()),
            "multiplicities"
        );
        assert_ne!(digest(&t), content_digest("other", &t), "domain tag");
        assert_ne!(digest(&t.take(&[]).unwrap()), digest(&t.take(&[0]).unwrap()), "empty");
    }

    #[test]
    fn values_are_typed_and_framed() {
        let distinct = [
            vec![Value::Int(1)],
            vec![Value::Float(1.0)],
            vec![s("1")],
            vec![Value::Date(1)],
            vec![Value::Bool(true)],
            vec![s("NULL")],
            vec![s("")],
        ];
        let mut seen: Vec<Sig128> =
            distinct.iter().map(|row| digest(&table(std::slice::from_ref(row)))).collect();
        let null = Table::from_rows(table(&[vec![s("x")]]).schema().clone(), &[vec![Value::Null]]);
        seen.push(digest(&null.unwrap()));
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), distinct.len() + 1);

        assert_ne!(
            digest(&table(&[vec![s("a|b"), s("c")]])),
            digest(&table(&[vec![s("a"), s("b|c")]]))
        );
        // This pair the `|`-joined quoted rendering cannot tell apart.
        let (x, y) = (table(&[vec![s("a'|'b"), s("c")]]), table(&[vec![s("a"), s("b'|'c")]]));
        assert_eq!(x.canonical_rows(), y.canonical_rows());
        assert_ne!(digest(&x), digest(&y));
    }

    #[test]
    fn floats_go_by_bit_pattern_with_one_nan() {
        let one = |f: f64| digest(&table(&[vec![Value::Float(f)]]));
        assert_eq!(one(f64::NAN), one(-f64::NAN));
        assert_eq!(one(f64::NAN), one(f64::from_bits(f64::NAN.to_bits() | 0xbeef)));
        assert_ne!(one(0.0), one(-0.0));
        assert_ne!(one(f64::NAN), one(f64::INFINITY));
        assert_ne!(one(1.0), one(1.0 + f64::EPSILON));
    }

    #[test]
    fn representation_does_not_enter() {
        let schema =
            Schema::new(vec![Field::new("i", DataType::Int), Field::new("s", DataType::Str)])
                .unwrap()
                .into_ref();
        let valid = || Some(Bitmap::from_bools(&[true, false, true]));
        let with = |ints: Vec<i64>, strs: [&str; 3]| {
            let strs = strs.iter().map(|s| s.to_string()).collect();
            let columns = vec![
                Column::new(ColumnData::Int(ints), valid()),
                Column::new(ColumnData::Str(strs), valid()),
            ];
            Table::new(schema.clone(), columns).unwrap()
        };
        // Whatever sits in the buffer under a NULL slot.
        let clean = with(vec![1, 0, 3], ["a", "", "c"]);
        assert_eq!(digest(&clean), digest(&with(vec![1, 99, 3], ["a", "junk", "c"])));
        assert_ne!(digest(&clean), digest(&with(vec![1, 0, 4], ["a", "", "c"])));

        // An explicit all-true bitmap is no bitmap.
        let bare = Table::new(
            schema.clone(),
            vec![
                Column::new(ColumnData::Int(vec![1, 2]), None),
                Column::new(ColumnData::Str(["a", "b"].into_iter().collect()), None),
            ],
        )
        .unwrap();
        let all_true = Table::new(
            schema.clone(),
            bare.columns()
                .iter()
                .map(|c| Column::new(c.data().clone(), Some(Bitmap::all_set(2))))
                .collect(),
        )
        .unwrap();
        assert_eq!(digest(&bare), digest(&all_true));

        // A window is its compacted copy, and column names are not content.
        let window = clean.slice(1, 2);
        assert!(!window.is_compact());
        assert_eq!(digest(&window), digest(&window.clone().compact()));
        assert_ne!(digest(&window), digest(&clean.slice(0, 2)));
        let renamed =
            Schema::new(vec![Field::new("x", DataType::Int), Field::new("y", DataType::Str)])
                .unwrap();
        let renamed = Table::new(renamed.into_ref(), clean.columns().to_vec()).unwrap();
        assert_eq!(digest(&clean), digest(&renamed));
    }

    /// Few rows over few values, so that two independent draws are often the
    /// same multiset; strings carry no quote, the one thing the rendering
    /// cannot frame.
    fn random_rows(rng: &mut DetRng) -> Vec<Vec<Value>> {
        (0..rng.range_usize(0, 4))
            .map(|_| {
                let mut row = vec![
                    Value::Bool(rng.chance(0.5)),
                    Value::Int(rng.range_i64(0, 2)),
                    Value::Float(*rng.choose(&[0.0, -0.0, f64::NAN, -f64::NAN, 1.0])),
                    Value::Str((*rng.choose(&["", "a", "a|b", "NULL"])).to_string()),
                    Value::Date(rng.range_i64(0, 2) as i32),
                ];
                // Two or three live columns keep collisions of whole rows likely.
                let live = rng.range_usize(0, 4);
                for (i, v) in row.iter_mut().enumerate() {
                    if i != live && i != (live + 1) % 5 || rng.chance(0.2) {
                        *v = Value::Null;
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn equal_exactly_when_the_canonical_rows_are() {
        let schema = Schema::new(vec![
            Field::new("b", DataType::Bool),
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("d", DataType::Date),
        ])
        .unwrap()
        .into_ref();
        let mut rng = DetRng::seed(0xd16e57);
        let (mut equal, mut unequal) = (0, 0);
        for round in 0..4000 {
            let a = Table::from_rows(schema.clone(), &random_rows(&mut rng)).unwrap();
            let b = match round % 3 {
                // A permutation (with luck, a proper one) of `a`.
                0 => {
                    let mut order: Vec<usize> = (0..a.num_rows()).collect();
                    rng.shuffle(&mut order);
                    a.take(&order).unwrap()
                }
                _ => Table::from_rows(schema.clone(), &random_rows(&mut rng)).unwrap(),
            };
            let same_rows = a.canonical_rows() == b.canonical_rows();
            assert_eq!(digest(&a) == digest(&b), same_rows, "round {round}:\n{a}\n{b}");
            if same_rows {
                equal += 1;
            } else {
                unequal += 1;
            }
        }
        assert!(equal > 1000 && unequal > 1000, "{equal} equal, {unequal} unequal pairs");
    }
}
